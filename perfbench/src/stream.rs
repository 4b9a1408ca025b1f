//! `delta_stream`: one hot session, then a seeded stream of 50-op deltas
//! applied with `re_explain`.

use crate::answer::Answer;
use crate::inputs::{
    create_body, delta_body, phrase_matches, phrase_relations, sample_seed, session_config,
    DeltaGen,
};
use crate::serve::{in_process, Replayed};
use crate::stats::{label, max, median, min, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::{mb, ms, peak_rss_mb, setup_median, Ctx, Report};
use explain3d::core::pipeline::DeltaStats;
use explain3d::prelude::*;
use std::time::Instant;

/// Operations per delta (the size ROADMAP item 3 targets).
const DELTA_OPS: usize = 50;
/// Deltas a run applies at least (the tail is p90). Some seeds grow a
/// component that takes seconds to re-solve now and then; a small minimum
/// keeps such a run close to `--seconds`.
const MIN_SAMPLES: usize = 100;
/// Deltas of a traced run that are replayed once more through the service
/// layers (`wire` and a durable `SessionRegistry`), so the `service` and
/// `durability` layer metrics are measured on this workload too.
const SERVICE_REPLAY_DELTAS: usize = 32;

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-delta cache counters: the difference of the session's cumulative
/// `delta_stats()` around one `re_explain`.
fn delta_of(before: DeltaStats, after: DeltaStats) -> DeltaStats {
    DeltaStats {
        pair_cache_misses: after.pair_cache_misses - before.pair_cache_misses,
        pair_cache_hits: after.pair_cache_hits - before.pair_cache_hits,
        candidates_reused: after.candidates_reused - before.candidates_reused,
        component_cache_hits: after.component_cache_hits - before.component_cache_hits,
        component_cache_misses: after.component_cache_misses - before.component_cache_misses,
        ..DeltaStats::default()
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let rows = if ctx.smoke { 600 } else { 10_000 };
    let matches = phrase_matches();
    let cold = |left: CanonicalRelation, right: CanonicalRelation| {
        let mut session = ExplainSession::new(left, right, matches.clone(), session_config());
        let report = session.explain();
        (session, report)
    };
    // Each set-up repetition cold-explains its own seeded relation pair, and
    // the last one becomes the hot session. A few pairs in five take 3–7 s
    // instead of ~0.7 s (a large component to solve), so the median over
    // three pairs keeps set-up time from resting on one draw.
    let mut pair = 0;
    let (setup_s, (mut session, first)) = setup_median(3, || {
        pair += 1;
        let (left, right) = phrase_relations(sample_seed(ctx.seed, pair), rows);
        cold(left, right)
    });
    let mut report = Report::new(setup_s);
    if !first.complete {
        report.fail("cold explain: report is not complete".to_string());
    }
    let mut gen = DeltaGen::new(ctx.seed, 3, session.left().len(), session.right().len());
    let create =
        if ctx.trace { create_body(session.left(), session.right()) } else { String::new() };
    let mut replay_bodies = Vec::new();
    let mut replay_expected = None;
    let mut tr = Tracer::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut per_delta: Vec<(PipelineStats, DeltaStats)> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while untraced.len() + traced.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < ctx.seconds
    {
        let delta = gen.next(DELTA_OPS);
        report.attempted += 1;
        if ctx.trace && replay_bodies.len() < SERVICE_REPLAY_DELTAS {
            replay_bodies.push(delta_body(&delta));
        }
        // A traced run alternates: even deltas untraced, odd ones traced
        // (cache counters read around the call, memory footprint after).
        let trace_this = ctx.trace && untraced.len() > traced.len();
        let t0 = Instant::now();
        let root = if trace_this { tr.open("delta", 0) } else { 0 };
        let before = trace_this.then(|| tr.span("delta_stats", root, || session.delta_stats()));
        let op = if trace_this { tr.open("re_explain", root) } else { 0 };
        let result = session.re_explain(&delta);
        if trace_this {
            tr.close(op);
        }
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("re_explain refused a generated delta: {e}"));
                continue;
            }
        };
        if let Some(before) = before {
            let after = tr.span("delta_stats", root, || session.delta_stats());
            per_delta.push((r.stats, delta_of(before, after)));
            tr.span("memory_footprint", root, || session.memory_footprint());
            tr.close(root);
            traced.push(ms(t0.elapsed()));
        } else {
            untraced.push(ms(t0.elapsed()));
        }
        if !r.complete {
            report.fail("re_explain: report is not complete".to_string());
        }
        if ctx.trace && replay_expected.is_none() && replay_bodies.len() == SERVICE_REPLAY_DELTAS {
            replay_expected = Some(Answer::of_report(&r));
        }
        last = Some(r);
        // The resident set is read after a fixed number of deltas, so every
        // run measures the same work; a time-bound count would make it
        // follow the host's speed (the session grows with every delta).
        if untraced.len() + traced.len() == MIN_SAMPLES {
            report.peak_rss_mb = peak_rss_mb("self");
        }
    }
    let last = last.expect("at least one delta");
    // Oracle: the hot session's last report equals a cold session's on the
    // post-delta relations.
    let (_, post) = cold(session.left().clone(), session.right().clone());
    if !Answer::of_report(&last).same_as(&Answer::of_report(&post)) {
        report.fail("final re_explain differs from a cold session on the same data".to_string());
    }

    if !ctx.trace {
        let tail_p = tail_percentile(MIN_SAMPLES);
        let p50 = median(&untraced);
        let tail = percentile(&untraced, tail_p);
        report.metric("op_p50_ms", p50);
        report.detail("re_explain_p50_ms", p50, "ms");
        report.detail(&format!("re_explain_p{}_ms", label(tail_p)), tail, "ms");
        report.detail(
            "unproven_share",
            ratio(last.stats.suboptimal_subproblems, last.stats.milp_count),
            "ratio",
        );
        return report;
    }

    // The service replay reports per-delta `incremental.*` and candidate
    // times of its own; it runs first so the stream's figures below win.
    let replayed = Replayed {
        name: "stream",
        create: &create,
        deltas: &replay_bodies,
        expected: replay_expected,
    };
    in_process(ctx, &mut report, &mut tr, &[replayed]);
    let col = |f: &dyn Fn(&(PipelineStats, DeltaStats)) -> f64| -> Vec<f64> {
        per_delta.iter().map(f).collect()
    };
    let nodes = col(&|(s, _)| s.milp_nodes as f64);
    let warm = col(&|(s, _)| s.warm_lp_solves as f64);
    report.metric("linkage.session_candidate_ms", median(&col(&|(s, _)| ms(s.candidate_time))));
    report.metric("linkage.candidates", session.candidates().len() as f64);
    report.metric(
        "linkage.pair_cache_hit_rate",
        median(&col(&|(_, d)| ratio(d.pair_cache_hits, d.pair_cache_hits + d.pair_cache_misses))),
    );
    report.metric("partition.components", last.stats.milp_count as f64);
    report.metric("milp.count", last.stats.milp_count as f64);
    report.metric("milp.bb_nodes_min", min(&nodes));
    report.metric("milp.bb_nodes_max", max(&nodes));
    report.metric("milp.warm_lp_solves_min", min(&warm));
    report.metric("milp.warm_lp_solves_max", max(&warm));
    report.metric("milp.unproven", last.stats.suboptimal_subproblems as f64);
    report.metric(
        "milp.unproven_share",
        ratio(last.stats.suboptimal_subproblems, last.stats.milp_count),
    );
    report.metric("incremental.partition_ms", median(&col(&|(s, _)| ms(s.partition_time))));
    report.metric("incremental.solve_ms", median(&col(&|(s, _)| ms(s.solve_time))));
    report.metric("incremental.assemble_ms", median(&col(&|(s, _)| ms(s.assemble_time))));
    report.metric(
        "incremental.components_resolved",
        median(&col(&|(_, d)| d.component_cache_misses as f64)),
    );
    report.metric(
        "incremental.component_hit_rate",
        median(&col(&|(_, d)| {
            ratio(d.component_cache_hits, d.component_cache_hits + d.component_cache_misses)
        })),
    );
    report.metric(
        "incremental.candidates_reused",
        median(&col(&|(_, d)| d.candidates_reused as f64)),
    );
    report.metric("incremental.session_mem_mb", mb(session.memory_footprint()));
    report.metric("trace.overhead_ms", median(&traced) - median(&untraced));
    report.tracer = Some(tr);
    report
}
