//! `serve_mixed`: the real `explain3d-serve` in a child process (durable
//! sessions, group-commit fsync, at most 2 workers) under an open loop of
//! 60% deltas and 40% report reads from one process with 2 threads, each
//! owning one keep-alive connection and the sessions pinned to it.
//!
//! Every request is timed from the moment it was due, so a stall also
//! delays the requests queued behind it. The run has two phases: a fixed
//! measured rate, then a rate ladder whose rungs each meet the SLO or not.

use crate::answer::Answer;
use crate::inputs::{create_body, delta_body, phrase_relations, rng, DeltaGen};
use crate::stats::{label, max, median, percentile, tail_percentile, TAIL_BEYOND};
use crate::trace::Tracer;
use crate::{mb, ms, peak_rss_mb, setup_median, Ctx, Report};
use explain3d::datagen::rng::{Rng, StdRng};
use explain3d::durability::store::session_dirname;
use explain3d::durability::{DurabilityConfig, FsyncPolicy};
use explain3d::prelude::ExplanationReport;
use explain3d::service::json::Json;
use explain3d::service::wire;
use explain3d::service::{Client, ServiceConfig, SessionRegistry, Telemetry, TelemetryConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Sessions hosted by the server, split evenly over the connections.
const SESSIONS: usize = 8;
/// Load-generator threads, one keep-alive connection each.
const CONNS: usize = 2;
/// Server worker threads (`--threads`).
const WORKERS: usize = 2;
/// Tuples per side of each session.
const ROWS: usize = 150;
/// Operation pattern, cycled per connection: `true` is a report read
/// (2 of 5 = 40% reads, 60% deltas).
const READ_PATTERN: [bool; 5] = [false, true, false, true, false];
/// Group-commit fsync policy of the child (`--fsync interval`: one fsync
/// per 16 WAL records).
const FSYNC: &str = "interval";
const FSYNC_EVERY: u32 = 16;
/// Snapshot cadence, the server's default.
const SNAPSHOT_EVERY: u64 = 64;
/// The fixed measured rate (requests per second, all connections).
const MEASURED_RATE: f64 = 300.0;
/// Share of `--seconds` spent at the measured rate; the ladder gets the rest.
const MEASURED_SHARE: f64 = 0.6;
/// The measured phase's p50 and tail are medians over windows of this
/// length of each window's percentile, so a stall of the shared host
/// spoils a window rather than the run (each window holds ~180 deltas).
const WINDOW_SECS: f64 = 1.0;
/// Deltas the measured phase must time at least.
const MIN_DELTAS: usize = 500;
/// The request tail. About 1 delta in 16 waits for a group-commit fsync, so
/// every percentile above ~p94 measures the shared disk and does not
/// repeat from run to run; p90 (per window, ~18 samples beyond it) is
/// steadier. The deepest percentile with ten samples beyond it over the
/// whole phase is printed too.
const TAIL_P: f64 = 90.0;
/// First rung of the rate ladder and the ratio between rungs.
const LADDER_START: f64 = 600.0;
const LADDER_STEP: f64 = 1.1;
/// Length of one ladder rung.
const RUNG_SECS: f64 = 1.0;
/// The SLO a rung must meet: p90 latency (from due time, all requests) at
/// most this, every request answered 200, and a backlog of at most
/// `BACKLOG_MAX` unsent requests when the rung ends.
const SLO_P90_MS: f64 = 10.0;
const BACKLOG_MAX: usize = 2;

/// The server child. Dropping it kills the process, waits for it, and
/// removes its data directory.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    dir: PathBuf,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    fn start(ctx: &Ctx, tag: &str, telemetry: bool) -> Result<ServerProc, String> {
        let dir = ctx.out_dir.join(format!("serve-{}-{}-{tag}", ctx.seed, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut child = Command::new(&ctx.serve_bin)
            .args(["--addr", "127.0.0.1:0", "--threads", &WORKERS.to_string()])
            .args(["--data-dir".as_ref(), dir.as_os_str()])
            .args(["--fsync", FSYNC, "--snapshot-every", &SNAPSHOT_EVERY.to_string()])
            .args(["--telemetry", if telemetry { "on" } else { "off" }])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ctx.serve_bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut line = String::new();
        // The server prints its address first and its telemetry mode last.
        while stdout.read_line(&mut line).map_err(|e| e.to_string())? > 0 {
            if let Some(rest) = line.trim().strip_prefix("explain3d-serve: listening on ") {
                addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
            }
            if line.contains("telemetry") {
                break;
            }
            line.clear();
        }
        match addr {
            Some(addr) => Ok(ServerProc { child, addr, dir, _stdout: stdout }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err("the server did not print its address".to_string())
            }
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One hosted session as the load generator tracks it.
struct SessionState {
    name: String,
    create: String,
    gen: DeltaGen,
    /// Acknowledged delta bodies, in the order the server applied them.
    acked: Vec<String>,
    /// The session's latest report on the wire.
    last: Json,
}

impl SessionState {
    /// The oracle against an in-process report of the same session.
    fn check(&self, in_process: &ExplanationReport, what: &str, report: &mut Report) {
        match Answer::of_wire(&self.last) {
            Some(wire) if wire.same_as(&Answer::of_report(in_process)) => {}
            Some(_) => report.fail(format!("{}: the wire report differs from {what}", self.name)),
            None => report.fail(format!("{}: the last wire body is not a report", self.name)),
        }
    }
}

/// One connection with the sessions pinned to it.
struct Lane {
    client: Client,
    sessions: Vec<SessionState>,
    rng: StdRng,
    ops: usize,
}

/// One timed request.
#[derive(Clone, Copy)]
struct Sample {
    read: bool,
    ok: bool,
    /// When the request was due, from the phase start.
    due_s: f64,
    /// Sent minus due.
    late_ms: f64,
    /// Answered minus due.
    latency_ms: f64,
    /// Answered minus sent.
    rtt_ms: f64,
}

#[derive(Default)]
struct PhaseLog {
    samples: Vec<Sample>,
    backlog: usize,
    shed: usize,
    failures: Vec<String>,
}

impl PhaseLog {
    fn merge(&mut self, other: PhaseLog) {
        self.samples.extend(other.samples);
        self.backlog += other.backlog;
        self.shed += other.shed;
        self.failures.extend(other.failures);
    }

    fn latencies(&self, read: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| read.is_none_or(|r| s.read == r))
            .map(|s| s.latency_ms)
            .collect()
    }

    /// The median over `WINDOW_SECS` windows (by due time) of each
    /// window's p`q` latency of one request kind (`q` at most 90, so each
    /// window has ten samples beyond it).
    fn windowed(&self, read: bool, q: f64) -> f64 {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for s in self.samples.iter().filter(|s| s.read == read) {
            let w = (s.due_s / WINDOW_SECS) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(s.latency_ms);
        }
        let per_window: Vec<f64> = windows
            .iter()
            .filter(|w| w.len() > TAIL_BEYOND * 2)
            .map(|w| percentile(w, q))
            .collect();
        if per_window.is_empty() {
            percentile(&self.latencies(Some(read)), q)
        } else {
            median(&per_window)
        }
    }

    fn rtts(&self, read: bool) -> Vec<f64> {
        self.samples.iter().filter(|s| s.read == read).map(|s| s.rtt_ms).collect()
    }

    fn errors(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }
}

fn fp_of(body: &Json) -> Option<String> {
    body.get("fingerprint").and_then(Json::as_str).map(str::to_string)
}

impl Lane {
    /// Sends the lane's next request; returns whether it was a report read
    /// and whether it was answered 200. Oracle failures go to `log`.
    fn request(&mut self, log: &mut PhaseLog) -> (bool, bool) {
        let read = READ_PATTERN[self.ops % READ_PATTERN.len()];
        let s = self.ops % self.sessions.len();
        self.ops += 1;
        let session = &mut self.sessions[s];
        let ok = if read {
            let path = format!("/sessions/{}/report", session.name);
            match self.client.request("GET", &path, "") {
                Ok((200, body)) => {
                    if fp_of(&body).is_none() || fp_of(&body) != fp_of(&session.last) {
                        log.failures.push(format!(
                            "{}: a report read differs from the last acknowledged delta",
                            session.name
                        ));
                    }
                    true
                }
                Ok((status, _)) => {
                    log.shed += usize::from(status == 429);
                    false
                }
                Err(_) => false,
            }
        } else {
            let ops = self.rng.gen_range(1..=3usize);
            let body = delta_body(&session.gen.next(ops));
            let path = format!("/sessions/{}/delta", session.name);
            match self.client.request("POST", &path, &body) {
                Ok((200, reply)) => {
                    session.last = reply;
                    session.acked.push(body);
                    true
                }
                Ok((status, _)) => {
                    log.shed += usize::from(status == 429);
                    false
                }
                Err(_) => false,
            }
        };
        (read, ok)
    }

    /// Runs this lane's share of an open loop at `rate` (all lanes) for
    /// `secs`. Lane `index` is offset by its share of one interval.
    fn phase(&mut self, rate: f64, secs: f64, index: usize) -> PhaseLog {
        let interval = CONNS as f64 / rate;
        let offset = interval * index as f64 / CONNS as f64;
        let due_count = ((secs - offset) / interval).ceil().max(0.0) as usize;
        let mut log = PhaseLog::default();
        let t0 = Instant::now();
        for j in 0..due_count {
            let due = offset + j as f64 * interval;
            let now = t0.elapsed().as_secs_f64();
            if now >= secs {
                log.backlog = due_count - j;
                break;
            }
            if now < due {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            let sent = t0.elapsed().as_secs_f64();
            let (read, ok) = self.request(&mut log);
            let done = t0.elapsed().as_secs_f64();
            log.samples.push(Sample {
                read,
                ok,
                due_s: due,
                late_ms: (sent - due) * 1e3,
                latency_ms: (done - due) * 1e3,
                rtt_ms: (done - sent) * 1e3,
            });
        }
        log
    }
}

/// Creates and explains every session on a fresh server; returns the lanes.
fn setup(ctx: &Ctx, server: &ServerProc) -> Result<Vec<Lane>, String> {
    let rows = if ctx.smoke { 40 } else { ROWS };
    let mut lanes = Vec::new();
    for c in 0..CONNS {
        let client = Client::connect(server.addr).map_err(|e| e.to_string())?;
        lanes.push(Lane {
            client,
            sessions: Vec::new(),
            rng: rng(ctx.seed, 100 + c as u64),
            ops: 0,
        });
    }
    for s in 0..SESSIONS {
        let (left, right) = phrase_relations(ctx.seed.wrapping_add(1000 * s as u64), rows);
        let lane = &mut lanes[s % CONNS];
        let name = format!("s{s}");
        let create = create_body(&left, &right);
        let expect_ok =
            |what: &str, r: Result<(u16, Json), explain3d::service::ClientError>| match r {
                Ok((200, body)) => Ok(body),
                Ok((status, body)) => Err(format!("{what} {name}: status {status}: {body}")),
                Err(e) => Err(format!("{what} {name}: {e}")),
            };
        expect_ok("create", lane.client.request("POST", &format!("/sessions/{name}"), &create))?;
        let explained = expect_ok(
            "explain",
            lane.client.request("POST", &format!("/sessions/{name}/explain"), ""),
        )?;
        lane.sessions.push(SessionState {
            name,
            create,
            gen: DeltaGen::new(ctx.seed, 200 + s as u64, rows, rows),
            acked: Vec::new(),
            last: explained,
        });
    }
    Ok(lanes)
}

/// One phase of the open loop: a rate and a length.
#[derive(Clone, Copy)]
struct Phase {
    rate: f64,
    secs: f64,
}

/// Drives the phases on all lanes in lockstep and returns one merged log
/// per phase.
fn drive(lanes: &mut [Lane], phases: &[Phase]) -> Vec<PhaseLog> {
    let barrier = Barrier::new(lanes.len());
    let logs: Mutex<Vec<PhaseLog>> =
        Mutex::new(phases.iter().map(|_| PhaseLog::default()).collect());
    std::thread::scope(|scope| {
        for (index, lane) in lanes.iter_mut().enumerate() {
            let (barrier, logs) = (&barrier, &logs);
            scope.spawn(move || {
                for (p, phase) in phases.iter().enumerate() {
                    barrier.wait();
                    let log = lane.phase(phase.rate, phase.secs, index);
                    logs.lock().expect("no lane panics holding the log")[p].merge(log);
                }
            });
        }
    });
    logs.into_inner().expect("no lane panicked")
}

fn meets_slo(log: &PhaseLog) -> bool {
    !log.samples.is_empty()
        && log.errors() == 0
        && log.backlog <= BACKLOG_MAX
        && percentile(&log.latencies(None), 90.0) <= SLO_P90_MS
}

/// Length of the measured phase: its share of `--seconds`, but long enough
/// to time `MIN_DELTAS` deltas.
fn measured_secs(ctx: &Ctx) -> f64 {
    let delta_share =
        READ_PATTERN.iter().filter(|r| !**r).count() as f64 / READ_PATTERN.len() as f64;
    (ctx.seconds * MEASURED_SHARE).max(1.05 * MIN_DELTAS as f64 / (MEASURED_RATE * delta_share))
}

fn phases(ctx: &Ctx) -> (Phase, Vec<Phase>) {
    let measured = Phase { rate: MEASURED_RATE, secs: measured_secs(ctx) };
    let rungs = ((ctx.seconds * (1.0 - MEASURED_SHARE)) / RUNG_SECS).floor().max(1.0) as i32;
    let ladder = (0..rungs)
        .map(|i| Phase { rate: LADDER_START * LADDER_STEP.powi(i), secs: RUNG_SECS })
        .collect();
    (measured, ladder)
}

/// The serial-replay oracle: each session's acknowledged deltas, applied
/// in order to a fresh in-process registry, must end on the answer the
/// wire last returned for it.
fn replay_oracle(lanes: &[Lane], report: &mut Report) {
    let registry = SessionRegistry::new(ServiceConfig::default());
    for s in lanes.iter().flat_map(|l| &l.sessions) {
        let result = (|| -> Result<Arc<ExplanationReport>, String> {
            let create = wire::parse_create(&s.create).map_err(|e| e.to_string())?;
            registry.create(&s.name, create).map_err(|e| e.to_string())?;
            let mut last = registry.explain(&s.name, None).map_err(|e| e.to_string())?;
            for body in &s.acked {
                let (l, r) = registry.shapes(&s.name).map_err(|e| e.to_string())?;
                let parsed = wire::parse_delta(body, &l, &r).map_err(|e| e.to_string())?;
                last = registry
                    .delta(&s.name, parsed.delta, parsed.deadline)
                    .map_err(|e| e.to_string())?
                    .report;
            }
            Ok(last)
        })();
        match result {
            Ok(last) => s.check(&last, "the serial replay", report),
            Err(e) => report.fail(format!("{}: serial replay failed: {e}", s.name)),
        }
    }
}

fn count_failures(report: &mut Report, logs: &[PhaseLog]) {
    for log in logs {
        report.attempted += log.samples.len();
        for s in log.samples.iter().filter(|s| !s.ok) {
            report.fail(format!(
                "a {} request was not answered 200",
                if s.read { "report" } else { "delta" }
            ));
        }
        for f in &log.failures {
            report.fail(f.clone());
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut started = 0usize;
    let attempt =
        |telemetry: bool, started: &mut usize| -> Result<(ServerProc, Vec<Lane>), String> {
            *started += 1;
            let server = ServerProc::start(ctx, &started.to_string(), telemetry)?;
            let lanes = setup(ctx, &server)?;
            Ok((server, lanes))
        };
    let (setup_s, first) = setup_median(3, || attempt(false, &mut started));
    let (server, mut lanes) = match first {
        Ok(ok) => ok,
        Err(e) => {
            let mut report = Report::new(setup_s);
            report.attempted += 1;
            report.fail(format!("set-up failed: {e}"));
            return report;
        }
    };
    let mut report = Report::new(setup_s);
    if ctx.trace {
        traced(ctx, &mut report, server, lanes);
        return report;
    }

    let (measured, ladder) = phases(ctx);
    let measured_log = drive(&mut lanes, &[measured]).pop().unwrap_or_default();
    let ladder_logs = drive(&mut lanes, &ladder);
    report.peak_rss_mb = server.peak_rss_mb();
    drop(server);
    count_failures(&mut report, std::slice::from_ref(&measured_log));
    count_failures(&mut report, &ladder_logs);
    replay_oracle(&lanes, &mut report);

    let deltas = measured_log.latencies(Some(false));
    let reads = measured_log.latencies(Some(true));
    if deltas.len() < MIN_DELTAS {
        report.fail(format!(
            "the measured phase timed {} deltas, fewer than {MIN_DELTAS}",
            deltas.len()
        ));
    }
    let passed: Vec<f64> = ladder
        .iter()
        .zip(&ladder_logs)
        .filter(|(_, l)| meets_slo(l))
        .map(|(p, _)| p.rate)
        .collect();
    let max_rps = passed.iter().copied().fold(0.0, f64::max);
    // Rungs meet the SLO up to the knee and miss it beyond, except when a
    // stall of the shared host spoils a rung below the knee. Counting the
    // rungs that met it costs such a stall one step instead of the rest of
    // the ladder. With none met, the measured rate is the lowest rung.
    let knee_rps = match passed.len() {
        0 if meets_slo(&measured_log) => measured.rate,
        0 => 0.0,
        n => LADDER_START * LADDER_STEP.powi(n as i32 - 1),
    };
    let late: Vec<f64> = measured_log.samples.iter().map(|s| s.late_ms).collect();
    if !deltas.is_empty() && !reads.is_empty() {
        let deep_p = tail_percentile(deltas.len().max(TAIL_BEYOND + 1));
        report.metric("op_p50_ms", measured_log.windowed(false, 50.0));
        report.detail("delta_req_p50_ms", measured_log.windowed(false, 50.0), "ms");
        report.detail(
            &format!("delta_req_p{}_ms", label(TAIL_P)),
            measured_log.windowed(false, TAIL_P),
            "ms",
        );
        report.detail(
            &format!("delta_req_p{}_ms", label(deep_p)),
            percentile(&deltas, deep_p),
            "ms",
        );
        report.detail("report_req_p50_ms", measured_log.windowed(true, 50.0), "ms");
        report.detail(
            &format!("report_req_p{}_ms", label(TAIL_P)),
            measured_log.windowed(true, TAIL_P),
            "ms",
        );
        report.detail("generator_late_ms_p50", median(&late), "ms");
        report.detail("generator_late_ms_max", max(&late), "ms");
    }
    report.detail("knee_rps_at_slo", knee_rps, "req/s");
    report.detail("max_rps_at_slo", max_rps, "req/s");
    report.detail("rungs_meeting_slo", passed.len() as f64, "count");
    report.detail("measured_backlog_end", measured_log.backlog as f64, "count");
    for (p, l) in ladder.iter().zip(&ladder_logs) {
        report.detail(
            &format!("rung_{:.0}_p90_ms", p.rate),
            percentile(&l.latencies(None), 90.0),
            "ms",
        );
        report.detail(&format!("rung_{:.0}_backlog", p.rate), l.backlog as f64, "count");
    }
    report
}

/// Reads a plain-text body (the Prometheus exposition) over a fresh
/// connection.
fn fetch_text(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    Ok(raw.split_once("\r\n\r\n").map(|(_, body)| body.to_string()).unwrap_or_default())
}

/// Median estimate of a Prometheus histogram: the smallest bucket bound
/// holding half the observations.
fn histogram_p50(exposition: &str, name: &str) -> Option<f64> {
    let prefix = format!("{name}_bucket{{");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in exposition.lines().filter(|l| l.starts_with(&prefix)) {
        let le = line.split("le=\"").nth(1)?.split('"').next()?;
        let count: f64 = line.rsplit(' ').next()?.parse().ok()?;
        let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
        buckets.push((bound, count));
    }
    let total = buckets.iter().map(|b| b.1).fold(0.0, f64::max);
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    buckets.into_iter().find(|&(_, c)| total > 0.0 && c >= total / 2.0).map(|(b, _)| b)
}

/// The traced run: the measured rate against a telemetry-off server (the
/// set-up one) and a telemetry-on one, then an in-process replay of the
/// acknowledged requests through `wire` and `SessionRegistry`.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    untraced_server: ServerProc,
    mut untraced_lanes: Vec<Lane>,
) {
    let phase = Phase { rate: MEASURED_RATE, secs: measured_secs(ctx) };
    let off = drive(&mut untraced_lanes, &[phase]).pop().unwrap_or_default();
    drop(untraced_server);
    let (on_server, mut lanes) =
        match ServerProc::start(ctx, "traced", true).and_then(|s| setup(ctx, &s).map(|l| (s, l))) {
            Ok(ok) => ok,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("telemetry-on set-up failed: {e}"));
                return;
            }
        };
    let on = drive(&mut lanes, &[phase]).pop().unwrap_or_default();
    let exposition = fetch_text(on_server.addr, "/metrics").unwrap_or_default();
    drop(on_server);
    count_failures(report, std::slice::from_ref(&off));
    count_failures(report, std::slice::from_ref(&on));
    replay_oracle(&untraced_lanes, report);

    let d_off = off.latencies(Some(false));
    let r_off = off.latencies(Some(true));
    if !d_off.is_empty() && !r_off.is_empty() {
        report.detail("delta_req_p50_ms", off.windowed(false, 50.0), "ms");
        report.detail("delta_req_p90_ms", off.windowed(false, TAIL_P), "ms");
        report.detail("report_req_p50_ms", off.windowed(true, 50.0), "ms");
        report.detail("report_req_p90_ms", off.windowed(true, TAIL_P), "ms");
        let late: Vec<f64> = off.samples.iter().map(|s| s.late_ms).collect();
        report.detail("generator_late_ms_p50", median(&late), "ms");
        report.detail("generator_late_ms_max", max(&late), "ms");
    }
    report.detail("backlog_end", off.backlog as f64, "count");
    report.detail("http_shed", (off.shed + on.shed) as f64, "count");
    if let Some(p50) = histogram_p50(&exposition, "e3d_queue_wait_us") {
        report.detail("server_queue_wait_us_p50", p50, "us");
    } else {
        report.fail("the telemetry-on server exposed no e3d_queue_wait_us histogram".to_string());
    }
    let d_on = on.latencies(Some(false));
    if !d_on.is_empty() && !d_off.is_empty() {
        report.metric("trace.overhead_ms", median(&d_on) - median(&d_off));
    }
    let sessions: Vec<Replayed> = lanes
        .iter()
        .flat_map(|l| &l.sessions)
        .map(|s| Replayed {
            name: &s.name,
            create: &s.create,
            deltas: &s.acked,
            expected: Answer::of_wire(&s.last),
        })
        .collect();
    let mut tr = Tracer::default();
    if let Some(handled_ms) = in_process(ctx, report, &mut tr, &sessions) {
        let rtt = off.rtts(false);
        if !rtt.is_empty() {
            report.detail("http_overhead_ms", median(&rtt) - handled_ms, "ms");
        }
    }
    report.tracer = Some(tr);
}

/// One session's acknowledged request history, replayed in process.
pub struct Replayed<'a> {
    pub name: &'a str,
    /// The wire body that created the session.
    pub create: &'a str,
    /// The delta bodies, in the order they were applied.
    pub deltas: &'a [String],
    /// The answer the replay must end on.
    pub expected: Option<Answer>,
}

/// Replays acknowledged requests in process through `wire` and
/// `SessionRegistry`, with a `ServiceConfig` mirroring the server child's
/// durability settings (telemetry armed so delta outcomes carry WAL and
/// fsync timings), timing each call under spans and emitting the `wire.*`,
/// `registry.*`, `durability.*` and per-delta `incremental.*` metrics.
/// Returns the median parse + handle + emit time of a delta, in ms.
pub fn in_process(
    ctx: &Ctx,
    report: &mut Report,
    tr: &mut Tracer,
    sessions: &[Replayed],
) -> Option<f64> {
    let dir = ctx.out_dir.join(format!("replay-{}-{}", ctx.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = match Telemetry::new(TelemetryConfig::default()) {
        Ok(t) => Arc::new(t),
        Err(e) => {
            report.fail(format!("cannot arm telemetry: {e}"));
            return None;
        }
    };
    let config = ServiceConfig {
        durability: Some(DurabilityConfig {
            fsync: FsyncPolicy::EveryN(FSYNC_EVERY),
            snapshot_every: SNAPSHOT_EVERY,
            ..DurabilityConfig::new(&dir)
        }),
        telemetry: Some(telemetry),
        ..ServiceConfig::default()
    };
    let registry = SessionRegistry::new(config);
    let (mut parse, mut emit, mut delta_ms, mut report_us) = (vec![], vec![], vec![], vec![]);
    let (mut wal, mut fsync, mut wal_growth) = (vec![], vec![], vec![]);
    let (mut cand, mut part, mut solve, mut asm) = (vec![], vec![], vec![], vec![]);
    let mut mem: f64 = 0.0;
    for s in sessions {
        let wal_path = dir.join(session_dirname(s.name)).join("wal.log");
        let wal_len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        let created = wire::parse_create(s.create)
            .map_err(|e| e.to_string())
            .and_then(|c| registry.create(s.name, c).map_err(|e| e.to_string()))
            .and_then(|()| registry.explain(s.name, None).map_err(|e| e.to_string()));
        let mut last = match created {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("{}: in-process create failed: {e}", s.name));
                continue;
            }
        };
        for body in s.deltas {
            let root = tr.open("delta_request", 0);
            let t = Instant::now();
            let parsed = registry
                .shapes(s.name)
                .map_err(|e| e.to_string())
                .and_then(|(l, r)| wire::parse_delta(body, &l, &r).map_err(|e| e.to_string()));
            tr.record("wire.parse", root, t, Instant::now());
            parse.push(t.elapsed().as_secs_f64() * 1e6);
            let Ok(parsed) = parsed else {
                report.fail(format!("{}: an acknowledged delta no longer parses", s.name));
                break;
            };
            let before = wal_len(&wal_path);
            let t = Instant::now();
            let outcome = registry.delta(s.name, parsed.delta, parsed.deadline);
            tr.record("registry.delta", root, t, Instant::now());
            delta_ms.push(ms(t.elapsed()));
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    report.fail(format!("{}: in-process delta failed: {e}", s.name));
                    break;
                }
            };
            let after = wal_len(&wal_path);
            if after > before {
                wal_growth.push((after - before) as f64);
            }
            wal.push(outcome.timings.wal_write_us as f64);
            if outcome.timings.fsync_us > 0 {
                fsync.push(outcome.timings.fsync_us as f64);
            }
            let st = &outcome.report.stats;
            cand.push(ms(st.candidate_time));
            part.push(ms(st.partition_time));
            solve.push(ms(st.solve_time));
            asm.push(ms(st.assemble_time));
            let t = Instant::now();
            let text =
                wire::emit_report(s.name, &outcome.report, outcome.coalesced_with).to_string();
            tr.record("wire.emit", root, t, Instant::now());
            emit.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(text);
            tr.close(root);
            last = outcome.report;
        }
        let t = Instant::now();
        let r = registry.report(s.name);
        tr.record("registry.report", 0, t, Instant::now());
        report_us.push(t.elapsed().as_secs_f64() * 1e6);
        match (r, &s.expected) {
            (Ok(_), Some(expected)) if Answer::of_report(&last).same_as(expected) => {}
            (Ok(_), _) => report.fail(format!("{}: the in-process replay differs", s.name)),
            (Err(e), _) => report.fail(format!("{}: in-process report failed: {e}", s.name)),
        }
        mem = mem.max(mb(registry.total_footprint()));
    }
    let stats = registry.stats();
    drop(registry);
    let _ = std::fs::remove_dir_all(&dir);
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    report.metric("wire.parse_us", med(&parse));
    report.metric("wire.emit_us", med(&emit));
    report.metric("registry.delta_ms", med(&delta_ms));
    report.metric("registry.report_us", med(&report_us));
    report.metric("registry.shard_contention", stats.shard_contention as f64);
    report.metric("durability.wal_append_us", med(&wal));
    report.metric("durability.fsync_us", med(&fsync));
    report.metric("durability.wal_bytes_per_delta", med(&wal_growth));
    report.metric("linkage.session_candidate_ms", med(&cand));
    report.metric("incremental.partition_ms", med(&part));
    report.metric("incremental.solve_ms", med(&solve));
    report.metric("incremental.assemble_ms", med(&asm));
    report.metric("incremental.session_mem_mb", mem);
    Some((med(&parse) + med(&emit)) / 1e3 + med(&delta_ms))
}
