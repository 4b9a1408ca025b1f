//! `perfbench` — the repository benchmark of the Explain3D reproduction.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--out-dir DIR] [--smoke] [--perturb-fingerprint]
//! ```
//!
//! Runs one seeded workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`. Exits 1 when any correctness oracle fails.
//! `run.py` builds this binary and the server and is the command to use;
//! see README.md for the workloads and metrics.

mod answer;
mod explain;
mod inputs;
mod metrics;
mod serve;
mod stats;
mod stream;
mod trace;

use explain3d::service::json::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The run's parsed arguments.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizes: tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
    /// Corrupt one answer, to show that the oracles catch it.
    pub perturb: bool,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// What a workload measured, and whether its outputs were right.
pub struct Report {
    pub setup_s: f64,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    metrics: Vec<(String, f64)>,
    details: Vec<(String, f64, &'static str)>,
    pub tracer: Option<Tracer>,
    pub peak_rss_mb: Option<f64>,
}

impl Report {
    pub fn new(setup_s: f64) -> Self {
        Report {
            setup_s,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            details: Vec::new(),
            tracer: None,
            peak_rss_mb: None,
        }
    }

    /// Records a metric of the `BENCHMARK.json` tables (unit from there).
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records a workload-specific metric printed for people only.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push((name.to_string(), value, unit));
    }

    /// Records a failed correctness check; the run then exits 1.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Runs a set-up step `reps` times; returns the median wall time in
/// seconds and the last result.
pub fn setup_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one set-up repetition"))
}

/// Returns the heap's free memory to the operating system (glibc's
/// `malloc_trim`), so that a sample's resident set starts from the live
/// set, as in a fresh process, rather than from whatever the allocator's
/// per-thread arenas happened to keep from earlier samples.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // lint:allow(ffi-confinement): glibc's allocator has no safe std
        // binding; the benchmark needs it to start every sample from the
        // live set, and nothing else in it calls foreign code.
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes a plain integer, touches only the
        // allocator's own free lists under its own locks, and is safe to
        // call from any thread at any time; its return value only says
        // whether memory was released.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets this process's peak resident set (VmHWM) to its current resident
/// set (Linux `/proc/self/clear_refs`), so the next read of the peak
/// covers only what ran in between.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--serve-bin PATH] [--out-dir DIR] [--smoke] [--perturb-fingerprint]",
        metrics::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        perturb: false,
        serve_bin: PathBuf::new(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => ctx.workload = value(),
            "--seed" => ctx.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                ctx.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                ctx.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--serve-bin" => ctx.serve_bin = PathBuf::from(value()),
            "--out-dir" => ctx.out_dir = PathBuf::from(value()),
            "--smoke" => ctx.smoke = true,
            "--perturb-fingerprint" => ctx.perturb = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !metrics::WORKLOADS.contains(&ctx.workload.as_str()) {
        usage(&format!("unknown workload {:?}", ctx.workload));
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    ctx
}

fn main() {
    let ctx = parse_args();
    answer::perturb(ctx.perturb);
    let started = Instant::now();
    let mut report = match ctx.workload.as_str() {
        "explain_sparse" => explain::sparse(&ctx),
        "explain_dense" => explain::dense(&ctx),
        "delta_stream" => stream::run(&ctx),
        "serve_mixed" => serve::run(&ctx),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    if report.attempted == 0 {
        report.fail("the workload attempted no operation".to_string());
    }
    if !ctx.trace {
        let rss = report.peak_rss_mb.or_else(|| peak_rss_mb("self")).unwrap_or(0.0);
        report.metric("peak_rss_mb", rss);
        report.metric("setup_s", report.setup_s);
        report.detail(
            "error_share",
            report.failed as f64 / report.attempted.max(1) as f64,
            "ratio",
        );
        report.detail("evidence_order_mismatches", answer::order_mismatches() as f64, "count");
        report.detail("tied_answer_mismatches", answer::ties() as f64, "count");
    }
    if let Some(tr) = &report.tracer {
        write_trace(&ctx, tr);
    }
    let line = metrics::result_line(&ctx, &report);
    for f in &report.failures {
        eprintln!("perfbench: {}: ORACLE FAILED: {f}", ctx.workload);
    }
    eprintln!("perfbench: {} finished in {:.1}s", ctx.workload, started.elapsed().as_secs_f64());
    println!("{line}");
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

/// Writes the run's spans to `<out-dir>/trace-<workload>-<seed>.json`.
fn write_trace(ctx: &Ctx, tr: &Tracer) {
    let path = ctx.out_dir.join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
    let body = Json::obj()
        .set("workload", ctx.workload.as_str())
        .set("seed", ctx.seed as usize)
        .set("spans", tr.to_json());
    if let Err(e) =
        std::fs::create_dir_all(&ctx.out_dir).and_then(|()| std::fs::write(&path, body.to_string()))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
