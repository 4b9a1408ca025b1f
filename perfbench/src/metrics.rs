//! The metric tables (they mirror `BENCHMARK.json`) and the result line.

use crate::{Ctx, Report};
use explain3d::service::json::Json;

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["explain_sparse", "explain_dense", "delta_stream", "serve_mixed"];

/// End-to-end metrics: every `--trace 0` run emits each of them.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: every `--trace 1` run emits each of them. A layer a
/// workload never reaches reads 0 there (README.md maps layers to
/// workloads).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linkage.mapping_ms", "ms"),
    ("linkage.session_candidate_ms", "ms"),
    ("linkage.candidates", "count"),
    ("linkage.pair_cache_hit_rate", "ratio"),
    ("partition.ms", "ms"),
    ("partition.components", "count"),
    ("partition.singleton_share", "ratio"),
    ("partition.max_component_tuples", "count"),
    ("milp.solve_ms", "ms"),
    ("milp.component_us_p50", "us"),
    ("milp.component_ms_max", "ms"),
    ("milp.count", "count"),
    ("milp.bb_nodes_min", "count"),
    ("milp.bb_nodes_max", "count"),
    ("milp.warm_lp_solves_min", "count"),
    ("milp.warm_lp_solves_max", "count"),
    ("milp.unproven", "count"),
    ("milp.unproven_share", "ratio"),
    ("core.assemble_ms", "ms"),
    ("parallel.solve_speedup", "ratio"),
    ("parallel.steals", "count"),
    ("incremental.partition_ms", "ms"),
    ("incremental.solve_ms", "ms"),
    ("incremental.assemble_ms", "ms"),
    ("incremental.components_resolved", "count"),
    ("incremental.component_hit_rate", "ratio"),
    ("incremental.candidates_reused", "count"),
    ("incremental.session_mem_mb", "MB"),
    ("wire.parse_us", "us"),
    ("wire.emit_us", "us"),
    ("registry.delta_ms", "ms"),
    ("registry.report_us", "us"),
    ("registry.shard_contention", "count"),
    ("durability.wal_append_us", "us"),
    ("durability.fsync_us", "us"),
    ("durability.wal_bytes_per_delta", "B"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
];

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Prints the human-readable metric lines and returns the JSON result line.
/// Every metric of the run's table is present: a missing end-to-end metric
/// is a benchmark bug, a missing per-layer metric reads 0 (not reached).
pub fn result_line(ctx: &Ctx, report: &Report) -> String {
    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Json::obj();
    for &(name, unit) in table {
        let value = report.metrics.iter().rev().find(|(n, _)| n == name).map(|&(_, v)| v);
        let value = match value {
            Some(v) => v,
            None if ctx.trace => 0.0,
            None => panic!("{}: end-to-end metric {name} was not measured", ctx.workload),
        };
        assert!(value.is_finite(), "{}: {name} is not finite", ctx.workload);
        assert!(valid_name(name), "{}: bad metric name {name}", ctx.workload);
        println!("{:<16} {:<34} {:>14.4} {unit}", ctx.workload, name, value);
        metrics = metrics.set(name, Json::obj().set("value", value).set("unit", unit));
    }
    for (name, _) in &report.metrics {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "{}: metric {name} is not in the table",
            ctx.workload
        );
    }
    for (name, value, unit) in &report.details {
        println!("{:<16} {:<34} {:>14.4} {unit}  (detail)", ctx.workload, name, value);
    }
    Json::obj()
        .set("correct", report.failures.is_empty())
        .set("attempted", report.attempted)
        .set("failed", report.failed)
        .set("metrics", metrics)
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "bad workload name {w}");
        }
    }

    #[test]
    fn name_check_rejects_bad_names() {
        for bad in ["", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} passed");
        }
    }
}
