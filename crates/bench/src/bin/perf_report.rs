//! Performance-trajectory report: times the two optimised hot paths —
//! candidate generation and Stage-2 solving — against their baselines and
//! writes the results to `BENCH_pipeline.json` so future PRs can track the
//! trend.
//!
//! Sections:
//!
//! * **candidate_generation** — interned-token, parallel
//!   [`candidate_pairs`] vs the per-pair-tokenisation baseline
//!   [`candidate_pairs_naive`] on two synthetic `rows × rows` relations
//!   (default 5000×5000), with a byte-identical output check;
//! * **blocking** — token blocking vs the exhaustive pair scan on a smaller
//!   instance, with a same-candidate-set check above the similarity floor;
//! * **stage2_pipeline** — parallel vs sequential sub-problem solving on a
//!   synthetic workload partitioned into at least `--partitions` (default 8)
//!   parts, with an identical-report check;
//! * **stage2_threads** — the same workload swept across worker-thread
//!   counts (1/2/4) on the work-stealing component scheduler, with steal
//!   counts and byte-identity against the sequential run;
//! * **milp_kernel** — the same Stage-2 workload solved with the sparse
//!   revised simplex vs the dense tableau baseline, with solve-CPU times
//!   and an identical-explanations check;
//! * **incremental** — an `ExplainSession` over the `rows × rows` workload:
//!   cold `explain` vs `re_explain` on a ~1% delta, with cache hit/miss
//!   counters and a byte-identity check against a from-scratch session on
//!   the post-delta relations;
//! * **service** — N closed-loop clients driving a mixed
//!   explain/delta/report workload through the in-process
//!   `explain3d-serve` HTTP server over real sockets: sustained
//!   throughput, p50/p95/p99 latency, coalesced-delta count, and a
//!   byte-identity check of every session's final report against a serial
//!   in-process replay of its applied-delta log;
//! * **service_scale** — the readiness event loop under mass concurrency:
//!   thousands of simultaneously open keep-alive connections (target
//!   10 000, `SERVICE_SCALE_CONNS` overrides; the lane raises
//!   `RLIMIT_NOFILE` when it can and honestly records any clamp), every
//!   connection served several report reads round-robin, with sustained
//!   throughput and the registry's shard-contention counter;
//! * **durability** — WAL append throughput under each fsync policy
//!   (off / group-commit / every-record), and the cold-recovery latency
//!   of the `rows × rows` incremental session (snapshot load + log-suffix
//!   replay + one deadline-scoped explain), with a byte-identity check of
//!   the recovered report against the pre-crash `re_explain` result.
//!
//! Usage: `cargo run --release -p explain3d-bench --bin perf_report --
//! [--rows N] [--partitions K] [--runs R] [--out PATH]`
//! (a bad flag prints the usage line to stderr and exits with status 2)

use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::datagen::{generate_synthetic, vocab, SyntheticConfig};
use explain3d::incremental::{report_fingerprint, ExplainSession, RelationDelta, SessionConfig};
use explain3d::linkage::{
    candidate_pairs, candidate_pairs_naive, candidate_pairs_streaming, Candidate, MappingConfig,
};
use explain3d::prelude::*;
use explain3d::service::client::Client;
use explain3d::service::wire;
use explain3d_bench::json::Json;
use explain3d_bench::timing::{report, sample};
use std::time::{Duration, Instant};

struct Args {
    rows: usize,
    partitions: usize,
    runs: usize,
    out: String,
}

const USAGE: &str = "usage: perf_report [--rows N] [--partitions K] [--runs R] [--out PATH]";

/// Reports a CLI mistake on stderr (with the usage line) and exits with
/// status 2, the conventional usage-error code — instead of panicking with a
/// backtrace on a typo.
fn usage_error(msg: &str) -> ! {
    eprintln!("perf_report: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_count(raw: &str, name: &str) -> usize {
    match raw.parse() {
        Ok(n) if n > 0 => n,
        _ => usage_error(&format!("{name} takes a positive number, got {raw:?}")),
    }
}

fn parse_args() -> Args {
    let mut args =
        Args { rows: 5000, partitions: 8, runs: 3, out: "BENCH_pipeline.json".to_string() };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| usage_error(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--rows" => args.rows = parse_count(&value("--rows"), "--rows"),
            "--partitions" => args.partitions = parse_count(&value("--partitions"), "--partitions"),
            "--runs" => args.runs = parse_count(&value("--runs"), "--runs"),
            "--out" => args.out = value("--out"),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    args
}

/// Two synthetic relations of `rows` tuples with overlapping token
/// vocabulary: a phrase attribute plus a year attribute, the shape the
/// linkage layer sees after canonicalisation.
fn candidate_workload(rows: usize) -> (Schema, Vec<Row>, Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[("name", ValueType::Str), ("year", ValueType::Int)]);
    let make_rows = |seed: u64| -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows)
            .map(|_| {
                let words = rng.gen_range(2..=4usize);
                let phrase = vocab::synthetic_phrase(&mut rng, 1500, words);
                let year = rng.gen_range(1950..2030i64);
                Row::new(vec![Value::str(phrase), Value::Int(year)])
            })
            .collect()
    };
    (schema.clone(), make_rows(1), schema, make_rows(2))
}

fn candidate_config() -> MappingConfig {
    MappingConfig::new(vec![
        ("name".to_string(), "name".to_string()),
        ("year".to_string(), "year".to_string()),
    ])
}

fn candidates_identical(a: &[Candidate], b: &[Candidate]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.left == y.left
                && x.right == y.right
                && x.similarity.to_bits() == y.similarity.to_bits()
        })
}

/// Raises `RLIMIT_NOFILE` toward `desired` (both ends of every connection
/// live in this process, so the scale lane needs ~2 fds per connection)
/// and returns the limit actually in force afterwards. Non-root callers
/// get at most the existing hard limit; failures leave the limit as-is.
#[cfg(unix)]
fn raise_fd_limit(desired: u64) -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    // 7 on Linux; the BSD lineage (macOS included) uses 8. Getting this
    // wrong on a platform would silently adjust the wrong resource limit.
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;
    // SAFETY: `lim`/`want`/`within_hard` are live repr(C) structs matching
    // the kernel's rlimit layout (two u64s on LP64 unix), so getrlimit
    // writes and setrlimit reads stay in bounds. Every call's -1 failure
    // return is checked; nothing here can fault on bad input, only report
    // an unchanged limit.
    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.cur >= desired {
            return lim.cur;
        }
        // Root may raise the hard limit too; try the full ask first.
        let want = RLimit { cur: desired, max: lim.max.max(desired) };
        if setrlimit(RLIMIT_NOFILE, &want) == 0 {
            return desired;
        }
        let within_hard = RLimit { cur: lim.max, max: lim.max };
        if lim.max > lim.cur && setrlimit(RLIMIT_NOFILE, &within_hard) == 0 {
            return lim.max;
        }
        lim.cur
    }
}

#[cfg(not(unix))]
fn raise_fd_limit(_desired: u64) -> u64 {
    1024
}

/// Fetches `path` with a one-shot raw HTTP request and returns the body —
/// the JSON [`Client`] cannot carry the text `/metrics` exposition.
fn fetch_text(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("metrics connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("metrics timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n")
        .expect("metrics request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("metrics response");
    let text = String::from_utf8(raw).expect("metrics is utf-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("metrics response has headers");
    assert!(head.starts_with("HTTP/1.1 200"), "metrics scrape failed: {head}");
    body.to_string()
}

/// Writes `request` on the keep-alive `stream` and reads exactly one
/// HTTP response (headers + `Content-Length` body), returning the status.
fn scale_round_trip(stream: &mut std::net::TcpStream, request: &[u8]) -> std::io::Result<u16> {
    use std::io::{Read, Write};
    stream.write_all(request)?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 2048];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a full response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line")
        })?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_string))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut have = buf.len() - header_end;
    while have < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        have += n;
    }
    Ok(status)
}

fn main() {
    let args = parse_args();
    let threads = explain3d::parallel::max_threads();
    println!(
        "perf_report: rows={} partitions>={} runs={} threads={}",
        args.rows, args.partitions, args.runs, threads
    );

    // --- Candidate generation: interned kernel vs per-pair tokenisation. ---
    let (ls, lr, rs, rr) = candidate_workload(args.rows);
    let cfg = candidate_config();
    let (naive_stats, naive_out) =
        sample(args.runs, || candidate_pairs_naive(&ls, &lr, &rs, &rr, &cfg));
    report("candidate_generation", "naive_per_pair", &naive_stats);
    let (fast_stats, (fast_out, gen_stats)) =
        sample(args.runs, || candidate_pairs_streaming(&ls, &lr, &rs, &rr, &cfg));
    report("candidate_generation", "interned_streaming", &fast_stats);
    let cand_identical = candidates_identical(&naive_out, &fast_out);
    let cand_speedup = naive_stats.median_secs() / fast_stats.median_secs().max(1e-12);
    println!(
        "candidate_generation: {} candidates, outputs identical: {cand_identical}, speedup {cand_speedup:.2}x",
        fast_out.len()
    );
    println!(
        "candidate_generation: streaming scored {} pairs in {} chunks, peak resident {} pairs \
         (vs {} materialised pre-streaming)",
        gen_stats.pairs_scored,
        gen_stats.chunks,
        gen_stats.peak_resident_pairs,
        gen_stats.pairs_scored
    );

    // --- Blocking vs exhaustive scan (smaller instance: the exhaustive scan
    // is quadratic in rows). ---
    let blocked_rows = args.rows.min(1200);
    let (bls, blr, brs, brr) = candidate_workload(blocked_rows);
    let (blocked_stats, blocked_out) =
        sample(args.runs, || candidate_pairs(&bls, &blr, &brs, &brr, &cfg));
    report("blocking", "blocked", &blocked_stats);
    let unblocked_cfg = cfg.clone().without_blocking();
    let (unblocked_stats, unblocked_out) =
        sample(args.runs, || candidate_pairs(&bls, &blr, &brs, &brr, &unblocked_cfg));
    report("blocking", "unblocked", &unblocked_stats);
    // Every blocked candidate must appear in the exhaustive scan with the
    // same similarity (blocking only prunes, never invents or rescores).
    let mut unblocked_sorted: Vec<Candidate> = unblocked_out.clone();
    unblocked_sorted.sort();
    let blocking_sound =
        blocked_out.iter().all(|c| unblocked_sorted.binary_search_by(|p| p.cmp(c)).is_ok());
    println!(
        "blocking: {} blocked vs {} unblocked candidates, blocked ⊆ unblocked: {blocking_sound}",
        blocked_out.len(),
        unblocked_out.len()
    );

    // --- Stage 2: parallel vs sequential sub-problem solving. ---
    // A small vocabulary makes the mapping graph dense enough that each
    // partition carries a non-trivial MILP; `batch_size = nodes/partitions`
    // yields at least `partitions` parts.
    let tuples = (args.partitions * 30).max(120);
    let case = generate_synthetic(&SyntheticConfig::new(tuples, 0.3, 400));
    let batch = (2 * tuples).div_ceil(args.partitions);
    // Bound the branch-and-bound by *nodes*, not wall-clock time: node
    // limits are deterministic, so the parallel and sequential runs explore
    // identical search trees even under thread contention.
    let milp = MilpConfig { time_limit: None, max_nodes: 2_000, ..Default::default() };
    let base = Explain3DConfig::batched(batch).with_milp(milp);
    let explain = |config: Explain3DConfig| {
        Explain3D::new(config).explain(
            &case.prepared.left_canonical,
            &case.prepared.right_canonical,
            &case.attribute_matches,
            &case.initial_mapping,
        )
    };
    let (seq_stats, seq_report) = sample(args.runs, || explain(base.clone().with_parallel(false)));
    report("stage2_pipeline", "sequential", &seq_stats);
    let (par_stats, par_report) = sample(args.runs, || explain(base.clone().with_parallel(true)));
    report("stage2_pipeline", "parallel", &par_stats);
    let pipeline_identical = seq_report.explanations == par_report.explanations
        && seq_report.log_probability.to_bits() == par_report.log_probability.to_bits()
        && seq_report.complete == par_report.complete;
    let pipeline_speedup = seq_stats.median_secs() / par_stats.median_secs().max(1e-12);
    println!(
        "stage2_pipeline: {} MILPs ({} split components, {} oversized parts), \
         outputs identical: {pipeline_identical}, speedup {pipeline_speedup:.2}x",
        par_report.stats.milp_count,
        par_report.stats.split_components,
        par_report.stats.oversized_parts
    );

    // --- Stage 2 thread sweep: the work-stealing component scheduler at
    // 1/2/4 workers, each byte-identical to the sequential run. ---
    let mut threads_lane: Vec<Json> = Vec::new();
    let mut threads_identical = true;
    for t in [1usize, 2, 4] {
        let (t_stats, t_report) = sample(args.runs, || explain(base.clone().with_threads(t)));
        report("stage2_threads", &format!("threads_{t}"), &t_stats);
        let identical = seq_report.explanations == t_report.explanations
            && seq_report.log_probability.to_bits() == t_report.log_probability.to_bits();
        threads_identical &= identical;
        println!(
            "stage2_threads: threads={t} median {:.4}s, {} components, {} steals, identical: {identical}",
            t_stats.median_secs(),
            t_report.stats.milp_count,
            t_report.stats.steals,
        );
        threads_lane.push(
            Json::obj()
                .set("threads", t)
                .set("median_secs", t_stats.median_secs())
                .set("solve_cpu_secs", t_report.stats.solve_cpu_time.as_secs_f64())
                .set("steals", t_report.stats.steals)
                .set("components", t_report.stats.milp_count)
                .set("outputs_identical", identical),
        );
    }

    // --- MILP kernel: sparse revised simplex vs the dense tableau baseline
    // on the same sequential Stage-2 workload. ---
    let dense_base = base
        .clone()
        .with_milp(base.milp.clone().with_lp_kernel(LpKernel::Dense))
        .with_parallel(false);
    let (dense_stats, dense_report) = sample(args.runs, || explain(dense_base.clone()));
    report("milp_kernel", "dense", &dense_stats);
    let (sparse_stats, sparse_report) =
        sample(args.runs, || explain(base.clone().with_parallel(false)));
    report("milp_kernel", "sparse", &sparse_stats);
    // Equal-probability alternative optima are legitimate (the MILPs are
    // solved to proven optimality by both kernels, and ties are broken by
    // the search path), so the kernels are compared up to ties: identical
    // provenance, identical evidence set, and the same optimal score.
    let mut dense_ev: Vec<(usize, usize)> =
        dense_report.explanations.evidence.iter().map(|m| m.pair()).collect();
    let mut sparse_ev: Vec<(usize, usize)> =
        sparse_report.explanations.evidence.iter().map(|m| m.pair()).collect();
    dense_ev.sort_unstable();
    sparse_ev.sort_unstable();
    let kernel_identical = dense_report.explanations.provenance
        == sparse_report.explanations.provenance
        && dense_ev == sparse_ev
        && (dense_report.log_probability - sparse_report.log_probability).abs()
            <= 1e-6 * (1.0 + dense_report.log_probability.abs())
        && dense_report.complete == sparse_report.complete;
    let kernel_speedup = dense_report.stats.solve_cpu_time.as_secs_f64()
        / sparse_report.stats.solve_cpu_time.as_secs_f64().max(1e-12);
    println!(
        "milp_kernel: dense solve_cpu {:.4}s vs sparse {:.4}s ({kernel_speedup:.2}x), \
         {} warm LP re-solves, outputs identical: {kernel_identical}",
        dense_report.stats.solve_cpu_time.as_secs_f64(),
        sparse_report.stats.solve_cpu_time.as_secs_f64(),
        sparse_report.stats.warm_lp_solves,
    );

    // --- MILP kernel at scale: one un-partitioned MILP over the whole
    // workload (the NOOPT configuration), where the dense tableau's
    // per-pivot cost bites. A tight explicit node cap keeps the dense lane
    // affordable; the comparison is solve CPU for the same node budget.
    // Budget-limited searches may return different (equally feasible)
    // explanations, so no identity check here — completeness still must
    // hold for both.
    let large_milp =
        MilpConfig { time_limit: None, max_nodes: 10, deadline: None, ..Default::default() };
    let large_base = Explain3DConfig::no_opt().with_milp(large_milp).with_parallel(false);
    let (_, large_dense) = sample(1, || {
        explain(
            large_base.clone().with_milp(large_base.milp.clone().with_lp_kernel(LpKernel::Dense)),
        )
    });
    let (_, large_sparse) = sample(1, || explain(large_base.clone()));
    let large_speedup = large_dense.stats.solve_cpu_time.as_secs_f64()
        / large_sparse.stats.solve_cpu_time.as_secs_f64().max(1e-12);
    println!(
        "milp_kernel_large: single {}-tuple MILP, dense solve_cpu {:.4}s vs sparse {:.4}s \
         ({large_speedup:.2}x), complete: {}/{}",
        large_sparse.stats.max_subproblem_size,
        large_dense.stats.solve_cpu_time.as_secs_f64(),
        large_sparse.stats.solve_cpu_time.as_secs_f64(),
        large_dense.complete,
        large_sparse.complete,
    );

    // --- Incremental re-explanation: a session over the same `rows × rows`
    // workload as the candidate-generation lane (canonicalised with unit
    // impacts, name-keyed), measuring a cold `explain` against `re_explain`
    // on a ~1% delta — with a byte-identity check against a from-scratch
    // session on the post-delta relations. A similarity floor of 0.4 keeps
    // the mapping realistically sparse (near-duplicate phrases only), the
    // regime the session's component-level solution cache targets.
    let make_relation = |name: &str, schema: &Schema, rows: &[Row]| -> CanonicalRelation {
        CanonicalRelation {
            query_name: name.to_string(),
            schema: schema.clone(),
            key_attrs: vec!["name".to_string()],
            tuples: rows
                .iter()
                .enumerate()
                .map(|(i, r)| CanonicalTuple {
                    id: i,
                    key: vec![r.get(0).cloned().unwrap_or(Value::Null)],
                    impact: 1.0,
                    members: vec![i],
                    representative: r.clone(),
                })
                .collect(),
            aggregate: None,
        }
    };
    let inc_left = make_relation("Q1", &ls, &lr);
    let inc_right = make_relation("Q2", &rs, &rr);
    let inc_matches = AttributeMatches::single_equivalent("name", "name");
    let session_cfg = SessionConfig {
        explain: Explain3DConfig::default(),
        mapping: MappingOptions { min_similarity: 0.4, ..Default::default() },
        ..Default::default()
    };
    let fresh_session = |left: &CanonicalRelation, right: &CanonicalRelation| {
        ExplainSession::new(left.clone(), right.clone(), inc_matches.clone(), session_cfg.clone())
    };
    // ~1% of the left tuples: mostly updates (index-stable), plus one
    // insert and one trailing delete to exercise index remapping.
    let mut delta_rng = StdRng::seed_from_u64(7);
    let ops = (inc_left.len() / 100).max(3);
    let mut delta = RelationDelta::new();
    let fresh_tuple = |rng: &mut StdRng| {
        let phrase = vocab::synthetic_phrase(rng, 1500, 3);
        CanonicalTuple {
            id: 0,
            key: vec![Value::str(phrase.clone())],
            impact: 1.0,
            members: vec![],
            representative: Row::new(vec![Value::str(phrase), Value::Int(2031)]),
        }
    };
    let stride = (inc_left.len() / ops).max(1);
    for k in 0..ops - 2 {
        delta =
            delta.update(Side::Left, (k * stride) % inc_left.len(), fresh_tuple(&mut delta_rng));
    }
    delta = delta.insert(Side::Left, fresh_tuple(&mut delta_rng));
    delta = delta.delete(Side::Left, inc_left.len() - 1);

    let (cold_stats, _) = sample(args.runs, || fresh_session(&inc_left, &inc_right).explain());
    report("incremental", "cold_explain", &cold_stats);
    // Each timed re_explain starts from its own warmed session, so the
    // measurement is exactly "one delta on a hot session".
    let mut re_times: Vec<Duration> = Vec::new();
    let mut last_session: Option<ExplainSession> = None;
    let mut last_fingerprint: Vec<u8> = Vec::new();
    let mut re_partition = Duration::ZERO;
    let mut re_solve = Duration::ZERO;
    for _ in 0..args.runs {
        let mut s = fresh_session(&inc_left, &inc_right);
        s.explain();
        let t0 = Instant::now();
        let re_report = s.re_explain(&delta).expect("bench delta is in range");
        re_times.push(t0.elapsed());
        re_partition = re_report.stats.partition_time;
        re_solve = re_report.stats.solve_time;
        last_fingerprint = report_fingerprint(&re_report);
        last_session = Some(s);
    }
    re_times.sort_unstable();
    let re_median = re_times[re_times.len() / 2].as_secs_f64();
    println!(
        "incremental/re_explain: median {:?}  (partition {re_partition:?}, solve+assemble \
         {re_solve:?}, {} runs)",
        re_times[re_times.len() / 2],
        args.runs
    );
    let warmed = last_session.expect("at least one run");
    let mut post_delta_cold = fresh_session(warmed.left(), warmed.right());
    let incremental_identical = last_fingerprint == report_fingerprint(&post_delta_cold.explain());
    let inc_speedup = cold_stats.median_secs() / re_median.max(1e-12);
    let inc_stats = warmed.delta_stats();
    println!(
        "incremental: cold {:.4}s vs re_explain {:.4}s ({inc_speedup:.1}x) on a {}-op delta, \
         byte-identical: {incremental_identical}",
        cold_stats.median_secs(),
        re_median,
        ops,
    );
    println!(
        "incremental: {} component hits / {} misses, {} pair hits / {} misses, \
         {} candidates reused",
        inc_stats.component_cache_hits,
        inc_stats.component_cache_misses,
        inc_stats.pair_cache_hits,
        inc_stats.pair_cache_misses,
        inc_stats.candidates_reused,
    );

    // --- Service: N closed-loop clients through the in-process HTTP
    // server (real sockets, keep-alive connections). Single-token keys
    // keep the mapping sparse, so the measured cost is the serving path —
    // registry locking, coalescing, wire encode/decode — plus a realistic
    // small re_explain per delta. Worker threads exceed the core count on
    // purpose: several deltas against one session can then be in flight
    // together, which is what exercises coalescing.
    const SERVICE_SESSIONS: usize = 4;
    const SERVICE_CLIENTS: usize = 8;
    const SERVICE_REQS: usize = 30;
    const SERVICE_ROWS: usize = 100;
    let session_body = |s: usize| -> String {
        let tuples = |n: usize| -> String {
            (0..n).map(|i| format!("{{\"values\": [\"e{s}x{i}\"]}}")).collect::<Vec<_>>().join(",")
        };
        format!(
            "{{\"left\": {{\"name\": \"Q1\", \"columns\": [[\"k\", \"str\"]], \"key\": [\"k\"], \
             \"tuples\": [{}]}}, \
             \"right\": {{\"name\": \"Q2\", \"columns\": [[\"k\", \"str\"]], \"key\": [\"k\"], \
             \"tuples\": [{}]}}, \
             \"match\": {{\"left\": \"k\", \"right\": \"k\"}}}}",
            tuples(SERVICE_ROWS),
            tuples(SERVICE_ROWS - 5),
        )
    };
    let server = explain3d::service::Server::bind(explain3d::service::ServerConfig {
        threads: 4,
        queue_capacity: 128,
        service: explain3d::service::ServiceConfig {
            memory_budget: None,
            record_deltas: true,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind ephemeral service port");
    let service_addr = server.local_addr();
    let service_registry = server.registry();
    let service_handle = server.spawn();

    {
        let mut setup = Client::connect(service_addr).expect("service setup connect");
        for s in 0..SERVICE_SESSIONS {
            let (status, body) = setup
                .request("POST", &format!("/sessions/bench{s}"), &session_body(s))
                .expect("create request");
            assert_eq!(status, 200, "service create failed: {body}");
            let (status, body) = setup
                .request("POST", &format!("/sessions/bench{s}/explain"), "")
                .expect("explain request");
            assert_eq!(status, 200, "service explain failed: {body}");
        }
    }

    let service_start = Instant::now();
    let mut service_latencies: Vec<Duration> = Vec::new();
    let mut service_errors = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..SERVICE_CLIENTS {
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(4242 + c as u64);
                let mut client = Client::connect(service_addr).expect("client connect");
                let mut latencies = Vec::with_capacity(SERVICE_REQS);
                let mut errors = 0usize;
                for step in 0..SERVICE_REQS {
                    let s = rng.gen_range(0..SERVICE_SESSIONS);
                    let (method, path, body): (&str, String, String) = match rng.gen_range(0..10u32)
                    {
                        // Mixed workload: deltas dominate (they are the
                        // serving product), reports and cold explains
                        // ride along.
                        0..=5 => {
                            let op = match rng.gen_range(0..3u32) {
                                0 => format!(
                                    "{{\"op\": \"insert\", \"side\": \"left\", \
                                         \"tuple\": {{\"values\": [\"n{c}x{step}\"]}}}}"
                                ),
                                1 => format!(
                                    "{{\"op\": \"update\", \"side\": \"right\", \
                                         \"index\": {}, \
                                         \"tuple\": {{\"values\": [\"u{c}x{step}\"]}}}}",
                                    rng.gen_range(0..SERVICE_ROWS - 8)
                                ),
                                _ => format!(
                                    "{{\"op\": \"delete\", \"side\": \"left\", \
                                         \"index\": {}}}",
                                    rng.gen_range(0..SERVICE_ROWS - 8)
                                ),
                            };
                            (
                                "POST",
                                format!("/sessions/bench{s}/delta"),
                                format!("{{\"ops\": [{op}]}}"),
                            )
                        }
                        6..=8 => ("GET", format!("/sessions/bench{s}/report"), String::new()),
                        _ => ("POST", format!("/sessions/bench{s}/explain"), String::new()),
                    };
                    let t0 = Instant::now();
                    let (status, _) =
                        client.request(method, &path, &body).expect("service request");
                    latencies.push(t0.elapsed());
                    // Out-of-range deletes against a shrunk relation are
                    // legitimate client errors; anything else is not.
                    if status != 200 {
                        assert_eq!(status, 400, "unexpected service status {status}");
                        errors += 1;
                    }
                }
                (latencies, errors)
            }));
        }
        for h in handles {
            let (lat, errs) = h.join().expect("service client panicked");
            service_latencies.extend(lat);
            service_errors += errs;
        }
    });
    let service_wall = service_start.elapsed();
    service_latencies.sort_unstable();
    let quantile = |q: f64| -> f64 {
        let idx = ((service_latencies.len() - 1) as f64 * q).round() as usize;
        service_latencies[idx].as_secs_f64() * 1e3
    };
    let service_total = service_latencies.len();
    let service_rps = service_total as f64 / service_wall.as_secs_f64().max(1e-12);
    let service_stats = service_registry.stats();

    // Byte-identity: every session's final wire report must equal a serial
    // in-process replay of its applied-delta log.
    let mut service_identical = true;
    {
        let mut check = Client::connect(service_addr).expect("service check connect");
        for s in 0..SERVICE_SESSIONS {
            let name = format!("bench{s}");
            let log = service_registry.delta_log(&name).expect("session resident");
            let base = wire::parse_create(&session_body(s)).expect("base body parses");
            let mut replay = ExplainSession::new(base.left, base.right, base.matches, base.config);
            let mut replay_report = replay.explain();
            for delta in &log {
                replay_report = replay.re_explain(delta).expect("logged deltas replay");
            }
            let (status, wire_report) = check
                .request("GET", &format!("/sessions/{name}/report"), "")
                .expect("final report");
            assert_eq!(status, 200);
            let wire_fp = wire_report
                .get("fingerprint")
                .and_then(Json::as_str)
                .expect("report carries a fingerprint")
                .to_string();
            let replay_fp = wire::fingerprint_hex(&replay_report);
            if wire_fp != replay_fp {
                eprintln!(
                    "service: session {name} diverged from serial replay of {} deltas",
                    log.len()
                );
                service_identical = false;
            }
        }
    }
    service_handle.shutdown();
    println!(
        "service: {} requests over {} sessions in {:.3}s — {:.0} req/s, \
         p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms",
        service_total,
        SERVICE_SESSIONS,
        service_wall.as_secs_f64(),
        service_rps,
        quantile(0.50),
        quantile(0.95),
        quantile(0.99),
    );
    println!(
        "service: {} deltas applied ({} coalesced), {} out-of-range rejections, \
         serial-replay identical: {service_identical}",
        service_stats.deltas_applied, service_stats.coalesced_deltas, service_errors,
    );

    // --- Telemetry: the observability layer's cost and its scrape surface
    // under live traffic. Two identical closed-loop runs — telemetry off,
    // then armed — measure the throughput price of full instrumentation
    // (per-request trace spans, histograms, the trace ring); the armed run
    // is then scraped and the exposition sanity-checked: unique series,
    // declared route counters, and a request count covering the driven
    // traffic. The off run doubles as CI's regression baseline for the
    // "zero overhead when disabled" claim.
    const TEL_CLIENTS: usize = 4;
    const TEL_REQS: usize = 150;
    let telemetry_run = |armed: bool| -> (f64, Option<String>) {
        let mut config = explain3d::service::ServerConfig {
            threads: 4,
            queue_capacity: 128,
            ..Default::default()
        };
        if armed {
            config.service.telemetry = Some(std::sync::Arc::new(
                explain3d::service::Telemetry::new(explain3d::service::TelemetryConfig::default())
                    .expect("telemetry arms without a slow log"),
            ));
        }
        let server = explain3d::service::Server::bind(config).expect("bind telemetry lane");
        let addr = server.local_addr();
        let handle = server.spawn();
        {
            let mut setup = Client::connect(addr).expect("telemetry setup connect");
            let (status, body) =
                setup.request("POST", "/sessions/tel", &session_body(9)).expect("telemetry create");
            assert_eq!(status, 200, "telemetry create failed: {body}");
            let (status, body) =
                setup.request("POST", "/sessions/tel/explain", "").expect("telemetry explain");
            assert_eq!(status, 200, "telemetry explain failed: {body}");
        }
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..TEL_CLIENTS {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("telemetry client connect");
                    for step in 0..TEL_REQS {
                        let (method, path, body) = if step % 5 == 0 {
                            (
                                "POST",
                                "/sessions/tel/delta",
                                format!(
                                    "{{\"ops\": [{{\"op\": \"insert\", \"side\": \"left\", \
                                     \"tuple\": {{\"values\": [\"t{c}x{step}\"]}}}}]}}"
                                ),
                            )
                        } else {
                            ("GET", "/sessions/tel/report", String::new())
                        };
                        let (status, _) =
                            client.request(method, path, &body).expect("telemetry request");
                        assert_eq!(status, 200, "telemetry lane request failed");
                    }
                });
            }
        });
        let rps = (TEL_CLIENTS * TEL_REQS) as f64 / t0.elapsed().as_secs_f64().max(1e-12);
        let scrape = armed.then(|| fetch_text(addr, "/metrics"));
        handle.shutdown();
        (rps, scrape)
    };
    let (tel_off_rps, _) = telemetry_run(false);
    let (tel_on_rps, tel_scrape) = telemetry_run(true);
    let tel_scrape = tel_scrape.expect("the armed run scrapes /metrics");
    let mut tel_seen = std::collections::HashSet::new();
    let mut tel_series = 0usize;
    let mut tel_scrape_ok = tel_scrape.contains("# TYPE e3d_http_requests_total counter")
        && tel_scrape.contains("# TYPE e3d_request_us histogram")
        && tel_scrape.contains("e3d_http_requests_total{route=\"delta\"}")
        && tel_scrape.contains("e3d_http_requests_total{route=\"report\"}");
    for line in tel_scrape.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        tel_series += 1;
        let key = line.rsplit_once(' ').map(|(k, _)| k).unwrap_or(line);
        tel_scrape_ok &= tel_seen.insert(key.to_string());
    }
    let tel_overhead_pct = (tel_off_rps / tel_on_rps.max(1e-12) - 1.0) * 100.0;
    println!(
        "telemetry: off {tel_off_rps:.0} req/s vs armed {tel_on_rps:.0} req/s \
         ({tel_overhead_pct:+.1}% overhead), scrape has {tel_series} unique series, \
         valid: {tel_scrape_ok}"
    );

    // --- Service at scale: the readiness event loop holding thousands of
    // simultaneously open keep-alive connections while serving traffic.
    // Every connection is opened before any request is measured (a barrier
    // separates the phases), so the peak concurrent-open count *is* the
    // connection count during the whole measured window. The workload is
    // report reads across enough sessions to touch every registry shard,
    // plus a trickle of deltas so the shard-contention counter measures a
    // real read/write mix. The server is the real `explain3d-serve`
    // binary in a child process when it is built (so each side of a
    // connection spends its fd in its own process and the default 10k
    // target fits under tight RLIMIT_NOFILE settings), falling back to an
    // in-process server (2 fds per connection) otherwise; either way the
    // lane raises RLIMIT_NOFILE when it can and records any clamp
    // honestly instead of silently shrinking the claim.
    const SCALE_SESSIONS: usize = 64;
    const SCALE_CLIENTS: usize = 8;
    const SCALE_ROUNDS: usize = 3;
    const SCALE_ROWS: usize = 12;
    let scale_requested: usize =
        std::env::var("SERVICE_SCALE_CONNS").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000);
    let serve_bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("explain3d-serve")))
        .filter(|p| p.is_file());
    let scale_mode = if serve_bin.is_some() { "child-process" } else { "in-process" };
    let fd_per_conn: u64 = if serve_bin.is_some() { 1 } else { 2 };
    let fd_limit = raise_fd_limit(scale_requested as u64 * fd_per_conn + 1024);
    let scale_conns =
        scale_requested.min((fd_limit.saturating_sub(1024) / fd_per_conn) as usize).max(64);
    if scale_conns < scale_requested {
        println!(
            "service_scale: RLIMIT_NOFILE {fd_limit} caps the {scale_mode} lane at {scale_conns} \
             connections (requested {scale_requested}; set SERVICE_SCALE_CONNS or raise the limit)"
        );
    }
    let mut scale_child: Option<std::process::Child> = None;
    let mut scale_child_stdout: Option<std::io::BufReader<std::process::ChildStdout>> = None;
    let mut scale_handle: Option<explain3d::service::ServerHandle> = None;
    let scale_addr: std::net::SocketAddr = if let Some(bin) = &serve_bin {
        use std::io::BufRead;
        let mut child = std::process::Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "4",
                "--queue",
                "1024",
                "--max-conns",
                &(scale_conns + 64).to_string(),
                "--io-timeout-ms",
                "60000",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .expect("spawn explain3d-serve for the scale lane");
        let mut reader = std::io::BufReader::new(child.stdout.take().expect("child stdout"));
        let mut banner = String::new();
        reader.read_line(&mut banner).expect("serve banner");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unparseable serve banner: {banner:?}"));
        // Keep the pipe's read end open for the child's lifetime — the
        // server prints on shutdown, and a closed pipe would turn that
        // into an EPIPE panic.
        scale_child_stdout = Some(reader);
        scale_child = Some(child);
        addr
    } else {
        let server = explain3d::service::Server::bind(explain3d::service::ServerConfig {
            threads: 4,
            queue_capacity: 1024,
            io_timeout: Duration::from_secs(60),
            max_connections: scale_conns + 64,
            service: explain3d::service::ServiceConfig {
                memory_budget: None,
                ..Default::default()
            },
            ..Default::default()
        })
        .expect("bind ephemeral scale port");
        let addr = server.local_addr();
        scale_handle = Some(server.spawn());
        addr
    };
    // Shard stats come over the wire (`GET /sessions`), which works
    // identically against the child process and the in-process fallback.
    let scale_stats_probe = |label: &str| -> (usize, usize) {
        let mut probe = Client::connect(scale_addr).expect("scale stats connect");
        let (status, body) = probe.request("GET", "/sessions", "").expect("scale stats request");
        assert_eq!(status, 200, "scale stats ({label}): {body}");
        let stats = body.get("stats").expect("stats object");
        (
            stats.get("shards").and_then(Json::as_i64).expect("shards") as usize,
            stats.get("shard_contention").and_then(Json::as_i64).expect("shard_contention")
                as usize,
        )
    };

    let scale_body = |s: usize| -> String {
        let tuples = |n: usize| -> String {
            (0..n).map(|i| format!("{{\"values\": [\"s{s}x{i}\"]}}")).collect::<Vec<_>>().join(",")
        };
        format!(
            "{{\"left\": {{\"name\": \"Q1\", \"columns\": [[\"k\", \"str\"]], \"key\": [\"k\"], \
             \"tuples\": [{}]}}, \
             \"right\": {{\"name\": \"Q2\", \"columns\": [[\"k\", \"str\"]], \"key\": [\"k\"], \
             \"tuples\": [{}]}}, \
             \"match\": {{\"left\": \"k\", \"right\": \"k\"}}}}",
            tuples(SCALE_ROWS),
            tuples(SCALE_ROWS - 2),
        )
    };
    {
        let mut setup = Client::connect(scale_addr).expect("scale setup connect");
        for s in 0..SCALE_SESSIONS {
            let (status, body) = setup
                .request("POST", &format!("/sessions/scale{s}"), &scale_body(s))
                .expect("scale create");
            assert_eq!(status, 200, "scale create failed: {body}");
            let (status, body) = setup
                .request("POST", &format!("/sessions/scale{s}/explain"), "")
                .expect("scale explain");
            assert_eq!(status, 200, "scale explain failed: {body}");
        }
    }
    let (_, scale_contention_base) = scale_stats_probe("baseline");

    let scale_open_start = Instant::now();
    let all_open = std::sync::Barrier::new(SCALE_CLIENTS + 1);
    let mut scale_latencies: Vec<Duration> = Vec::new();
    let mut scale_errors = 0usize;
    let mut scale_opened = 0usize;
    let scale_measured: Duration = std::thread::scope(|scope| {
        let per_client = scale_conns / SCALE_CLIENTS;
        let mut handles = Vec::new();
        for c in 0..SCALE_CLIENTS {
            let all_open = &all_open;
            let count =
                if c == SCALE_CLIENTS - 1 { scale_conns - per_client * c } else { per_client };
            handles.push(scope.spawn(move || {
                let mut sockets = Vec::with_capacity(count);
                for k in 0..count {
                    // Brief pacing keeps the connect storm inside the
                    // listener backlog (SYN retransmits would stall 1s+).
                    if k % 100 == 99 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    let mut tries = 0;
                    let stream = loop {
                        match std::net::TcpStream::connect(scale_addr) {
                            Ok(s) => break s,
                            Err(e) if tries < 50 => {
                                tries += 1;
                                std::thread::sleep(Duration::from_millis(20));
                                let _ = e;
                            }
                            Err(e) => panic!("scale connect (after {tries} retries): {e}"),
                        }
                    };
                    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
                    sockets.push(stream);
                }
                all_open.wait();
                let mut latencies = Vec::with_capacity(count * SCALE_ROUNDS);
                let mut errors = 0usize;
                for round in 0..SCALE_ROUNDS {
                    for (k, sock) in sockets.iter_mut().enumerate() {
                        let session = (c * per_client + k) % SCALE_SESSIONS;
                        // One delta per thread per round keeps a writer in
                        // the read mix without dominating the wall clock.
                        let request = if k == 0 {
                            let body = format!(
                                "{{\"ops\": [{{\"op\": \"insert\", \"side\": \"left\", \
                                 \"tuple\": {{\"values\": [\"z{c}r{round}\"]}}}}]}}"
                            );
                            format!(
                                "POST /sessions/scale{session}/delta HTTP/1.1\r\n\
                                 Content-Length: {}\r\n\r\n{body}",
                                body.len()
                            )
                        } else {
                            format!("GET /sessions/scale{session}/report HTTP/1.1\r\n\r\n")
                        };
                        let t0 = Instant::now();
                        let status =
                            scale_round_trip(sock, request.as_bytes()).expect("scale request");
                        latencies.push(t0.elapsed());
                        if status != 200 {
                            errors += 1;
                        }
                    }
                }
                (sockets.len(), latencies, errors)
            }));
        }
        all_open.wait();
        let measure_start = Instant::now();
        for h in handles {
            let (opened, lat, errs) = h.join().expect("scale client panicked");
            scale_opened += opened;
            scale_latencies.extend(lat);
            scale_errors += errs;
        }
        measure_start.elapsed()
    });
    let scale_open_secs = scale_open_start.elapsed().as_secs_f64() - scale_measured.as_secs_f64();
    scale_latencies.sort_unstable();
    let scale_quantile = |q: f64| -> f64 {
        let idx = ((scale_latencies.len() - 1) as f64 * q).round() as usize;
        scale_latencies[idx].as_secs_f64() * 1e3
    };
    let scale_total = scale_latencies.len();
    let scale_rps = scale_total as f64 / scale_measured.as_secs_f64().max(1e-12);
    let (scale_shards, scale_contention_end) = scale_stats_probe("final");
    let scale_contention = scale_contention_end - scale_contention_base;
    // Health probe after the storm: the cheap no-session-locks endpoint
    // must answer even with 10k connections parked, and this lane runs
    // without fault injection, so every durability counter must be zero.
    let scale_health = {
        let mut probe = Client::connect(scale_addr).expect("healthz connect");
        let (status, body) = probe.request("GET", "/healthz", "").expect("healthz request");
        assert_eq!(status, 200, "healthz after scale storm: {body}");
        let counter = |k: &str| -> usize {
            body.get(k)
                .and_then(Json::as_i64)
                .unwrap_or_else(|| panic!("healthz lacks {k}: {body}")) as usize
        };
        let health = (counter("degraded_sessions"), counter("wal_errors"), counter("quarantined"));
        assert_eq!(health, (0, 0, 0), "fault-free scale lane reported durability trouble: {body}");
        health
    };
    if let Some(mut child) = scale_child.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
    drop(scale_child_stdout);
    if let Some(handle) = scale_handle.take() {
        handle.shutdown();
    }
    let scale_all_served = scale_opened == scale_conns && scale_errors == 0;
    println!(
        "service_scale: {scale_opened} concurrent keep-alive connections opened in \
         {scale_open_secs:.2}s ({scale_mode}), {scale_total} requests in {:.3}s — \
         {scale_rps:.0} req/s, p50 {:.2}ms p99 {:.2}ms",
        scale_measured.as_secs_f64(),
        scale_quantile(0.50),
        scale_quantile(0.99),
    );
    println!(
        "service_scale: {scale_shards} registry shards, {scale_contention} contended lock \
         acquisitions, {scale_errors} errors"
    );
    println!(
        "service_scale: healthz ok — {} degraded sessions, {} wal errors, {} quarantined",
        scale_health.0, scale_health.1, scale_health.2
    );

    // --- Durability: the write-ahead-log cost of acknowledging a delta
    // under each fsync policy (the snapshot content is irrelevant to
    // append cost, so a small genesis keeps setup out of the numbers),
    // and the cold-recovery latency of the `rows × rows` session above —
    // snapshot load + WAL-suffix replay + one deadline-scoped explain,
    // fingerprint-checked against the pre-crash `re_explain` report.
    use explain3d::durability::{
        DurabilityConfig, FsyncPolicy, SessionSnapshot, SessionStore, WalRecord,
    };
    const WAL_APPENDS: u64 = 256;
    let dur_dir = std::env::temp_dir().join(format!("e3d-bench-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dur_dir);
    let mut wal_rng = StdRng::seed_from_u64(99);
    let wal_delta = RelationDelta::new().insert(Side::Left, fresh_tuple(&mut wal_rng));
    let wal_genesis = SessionSnapshot {
        seq: 0,
        explained: true,
        last_deadline: None,
        config: session_cfg.clone(),
        matches: inc_matches.clone(),
        left: make_relation("Q1", &ls, &lr[..8]),
        right: make_relation("Q2", &rs, &rr[..8]),
        retry_window: Vec::new(),
    };
    let wal_policies: [(&str, FsyncPolicy); 3] = [
        ("off", FsyncPolicy::Never),
        ("interval16", FsyncPolicy::EveryN(16)),
        ("always", FsyncPolicy::Always),
    ];
    let mut wal_rates = Json::obj();
    let mut wal_lines = Vec::new();
    for (label, fsync) in wal_policies {
        let store = SessionStore::open(DurabilityConfig {
            dir: dur_dir.join(label),
            fsync,
            snapshot_every: u64::MAX,
            shim: None,
        });
        let mut wal = store.create_session("w", &wal_genesis).expect("bench WAL create");
        let t0 = Instant::now();
        for seq in 1..=WAL_APPENDS {
            wal.append(&WalRecord {
                seq,
                deadline: None,
                request_id: None,
                delta: wal_delta.clone(),
            })
            .expect("bench WAL append");
        }
        let rate = WAL_APPENDS as f64 / t0.elapsed().as_secs_f64().max(1e-12);
        wal_rates = wal_rates.set(&format!("append_rps_{label}"), rate);
        wal_lines.push(format!("{label} {rate:.0}/s"));
    }
    println!("durability/wal_append: {} ({WAL_APPENDS} one-op records)", wal_lines.join(", "));

    let recovery_dir = dur_dir.join("recovery");
    let durable_service = || explain3d::service::ServiceConfig {
        durability: Some(DurabilityConfig {
            dir: recovery_dir.clone(),
            fsync: FsyncPolicy::Never,
            snapshot_every: u64::MAX,
            shim: None,
        }),
        ..Default::default()
    };
    {
        // The doomed process: explain the big session, apply the bench
        // delta (WAL-logged), then vanish without any flush.
        let registry = explain3d::service::SessionRegistry::new(durable_service());
        registry
            .create(
                "big",
                wire::CreateRequest {
                    left: inc_left.clone(),
                    right: inc_right.clone(),
                    matches: inc_matches.clone(),
                    config: session_cfg.clone(),
                },
            )
            .expect("bench durable create");
        registry.explain("big", None).expect("bench durable explain");
        registry.delta("big", delta.clone(), None).expect("bench durable delta");
    }
    let t0 = Instant::now();
    let survivor = explain3d::service::SessionRegistry::new(durable_service());
    let recovered_report = survivor.report("big").expect("recovery of the big session");
    let recovery_secs = t0.elapsed().as_secs_f64();
    let recovery_identical = report_fingerprint(&recovered_report) == last_fingerprint;
    println!(
        "durability: cold recovery of the {0}×{0} session in {recovery_secs:.4}s \
         (snapshot load + 1-delta replay + scoped explain, cold explain alone {1:.4}s), \
         byte-identical to the pre-crash report: {recovery_identical}",
        args.rows,
        cold_stats.median_secs(),
    );
    std::fs::remove_dir_all(&dur_dir).expect("bench durability tempdir cleanup");

    // --- Emit the JSON trajectory point. ---
    let json = Json::obj()
        .set("schema_version", 1usize)
        .set("machine", Json::obj().set("threads", threads))
        .set(
            "workload",
            Json::obj()
                .set("rows", args.rows)
                .set("runs", args.runs)
                .set("stage2_tuples_per_side", tuples)
                .set("stage2_batch_size", batch),
        )
        .set(
            "candidate_generation",
            Json::obj()
                .set("candidates", fast_out.len())
                .set("naive_median_secs", naive_stats.median_secs())
                .set("interned_median_secs", fast_stats.median_secs())
                .set("speedup", cand_speedup)
                .set("outputs_identical", cand_identical)
                .set("pairs_scored", gen_stats.pairs_scored)
                .set("chunk_pairs", gen_stats.chunk_pairs)
                .set("chunks", gen_stats.chunks)
                .set("peak_resident_pairs", gen_stats.peak_resident_pairs),
        )
        .set(
            "blocking",
            Json::obj()
                .set("rows", blocked_rows)
                .set("blocked_candidates", blocked_out.len())
                .set("unblocked_candidates", unblocked_out.len())
                .set("blocked_median_secs", blocked_stats.median_secs())
                .set("unblocked_median_secs", unblocked_stats.median_secs())
                .set("blocked_subset_of_unblocked", blocking_sound),
        )
        .set(
            "stage2_pipeline",
            Json::obj()
                .set("milp_count", par_report.stats.milp_count)
                .set("split_components", par_report.stats.split_components)
                .set("oversized_parts", par_report.stats.oversized_parts)
                .set("threads", par_report.stats.threads)
                .set("sequential_median_secs", seq_stats.median_secs())
                .set("parallel_median_secs", par_stats.median_secs())
                .set("speedup", pipeline_speedup)
                .set("solve_cpu_secs", par_report.stats.solve_cpu_time.as_secs_f64())
                .set("max_subproblem_secs", par_report.stats.max_subproblem_time.as_secs_f64())
                .set("steals", par_report.stats.steals)
                .set("outputs_identical", pipeline_identical),
        )
        .set("stage2_threads", threads_lane)
        .set(
            "milp_kernel",
            Json::obj()
                .set("dense_solve_cpu_secs", dense_report.stats.solve_cpu_time.as_secs_f64())
                .set("sparse_solve_cpu_secs", sparse_report.stats.solve_cpu_time.as_secs_f64())
                .set("speedup", kernel_speedup)
                .set("warm_lp_solves", sparse_report.stats.warm_lp_solves)
                .set("milp_count", sparse_report.stats.milp_count)
                .set("outputs_identical", kernel_identical),
        )
        .set(
            "milp_kernel_large",
            Json::obj()
                .set("tuples", large_sparse.stats.max_subproblem_size)
                .set("dense_solve_cpu_secs", large_dense.stats.solve_cpu_time.as_secs_f64())
                .set("sparse_solve_cpu_secs", large_sparse.stats.solve_cpu_time.as_secs_f64())
                .set("speedup", large_speedup)
                .set("warm_lp_solves", large_sparse.stats.warm_lp_solves)
                .set("both_complete", large_dense.complete && large_sparse.complete),
        )
        .set(
            "incremental",
            Json::obj()
                .set("rows", args.rows)
                .set("delta_ops", ops)
                .set("cold_explain_median_secs", cold_stats.median_secs())
                .set("re_explain_median_secs", re_median)
                .set("speedup", inc_speedup)
                .set("byte_identical", incremental_identical)
                .set("component_cache_hits", inc_stats.component_cache_hits)
                .set("component_cache_misses", inc_stats.component_cache_misses)
                .set("pair_cache_hits", inc_stats.pair_cache_hits)
                .set("pair_cache_misses", inc_stats.pair_cache_misses)
                .set("candidates_reused", inc_stats.candidates_reused),
        )
        .set(
            "service",
            Json::obj()
                .set("sessions", SERVICE_SESSIONS)
                .set("clients", SERVICE_CLIENTS)
                .set("rows_per_side", SERVICE_ROWS)
                .set("requests", service_total)
                .set("wall_secs", service_wall.as_secs_f64())
                .set("throughput_rps", service_rps)
                .set("p50_ms", quantile(0.50))
                .set("p95_ms", quantile(0.95))
                .set("p99_ms", quantile(0.99))
                .set("deltas_applied", service_stats.deltas_applied)
                .set("coalesced_deltas", service_stats.coalesced_deltas)
                .set("out_of_range_rejections", service_errors)
                .set("serial_replay_identical", service_identical),
        )
        .set(
            "telemetry",
            Json::obj()
                .set("clients", TEL_CLIENTS)
                .set("requests_per_run", TEL_CLIENTS * TEL_REQS)
                .set("off_rps", tel_off_rps)
                .set("on_rps", tel_on_rps)
                .set("overhead_pct", tel_overhead_pct)
                .set("scrape_series", tel_series)
                .set("scrape_valid", tel_scrape_ok),
        )
        .set(
            "service_scale",
            Json::obj()
                .set("connections", scale_opened)
                .set("requested_connections", scale_requested)
                .set("mode", scale_mode)
                .set("fd_limit", fd_limit as usize)
                .set("sessions", SCALE_SESSIONS)
                .set("client_threads", SCALE_CLIENTS)
                .set("rounds", SCALE_ROUNDS)
                .set("requests", scale_total)
                .set("open_secs", scale_open_secs)
                .set("measured_secs", scale_measured.as_secs_f64())
                .set("throughput_rps", scale_rps)
                .set("p50_ms", scale_quantile(0.50))
                .set("p99_ms", scale_quantile(0.99))
                .set("shards", scale_shards)
                .set("shard_contention", scale_contention)
                .set("errors", scale_errors)
                .set("healthz_degraded_sessions", scale_health.0)
                .set("healthz_wal_errors", scale_health.1)
                .set("healthz_quarantined", scale_health.2),
        )
        .set(
            "durability",
            wal_rates
                .set("wal_appends", WAL_APPENDS as usize)
                .set("cold_recovery_secs", recovery_secs)
                .set("cold_explain_median_secs", cold_stats.median_secs())
                .set("recovered_identical", recovery_identical),
        );
    std::fs::write(&args.out, json.to_pretty_string())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    println!("wrote {}", args.out);

    assert!(cand_identical, "interned candidate generation diverged from the baseline");
    assert!(pipeline_identical, "parallel pipeline diverged from the sequential run");
    assert!(threads_identical, "a work-stealing thread count diverged from the sequential run");
    assert!(
        kernel_identical,
        "sparse kernel explanations diverged from the dense baseline beyond tie-breaking"
    );
    assert!(blocking_sound, "blocking produced a candidate the exhaustive scan lacks");
    assert!(
        incremental_identical,
        "incremental re_explain diverged from a from-scratch run on the post-delta data"
    );
    assert!(
        service_identical,
        "a concurrently served session diverged from the serial replay of its delta log"
    );
    assert!(
        recovery_identical,
        "the recovered session's report diverged from the pre-crash re_explain result"
    );
    assert!(
        tel_scrape_ok,
        "the live /metrics scrape was malformed (duplicate series or missing families)"
    );
    assert!(
        scale_all_served,
        "the scale lane must open every connection and serve every request \
         ({scale_opened}/{scale_conns} opened, {scale_errors} errors)"
    );
    assert!(
        gen_stats.peak_resident_pairs <= threads.max(1) * gen_stats.chunk_pairs,
        "streaming residency {} exceeded threads × chunk bound",
        gen_stats.peak_resident_pairs
    );
}
