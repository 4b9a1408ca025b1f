//! Property tests pinning smart partitioning's invariants.
//!
//! Smart partitioning keeps every connected component of the mapping graph
//! that fits the batch as one part and splits each larger component along
//! low-weight edges (Algorithm 3). For *every* input graph:
//!
//! 1. **Exactly-one-part**: every node lies in exactly one part.
//! 2. **Bound**: no part exceeds the batch bound — except parts flagged as
//!    oversized, which hold a single contracted high-probability cluster
//!    that is itself larger than the batch.
//! 3. **Components**: a component that fits the batch is one part, exactly
//!    as connected components give it — so when every component fits,
//!    Smart's job list is the connected components' job list.
//! 4. **Determinism**: re-running produces an identical partition.
//! 5. **Semantics**: high-probability matches are never cut.

use explain3d::core::pipeline::component_jobs;
use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::datagen::{generate_synthetic, SyntheticConfig};
use explain3d::partition::{smart_partition, MappingGraph, SmartPart, SmartPartitionConfig};
use explain3d::prelude::*;

/// A random bipartite mapping graph: `left`×`right` nodes, `edges` random
/// matches with mixed probabilities (some high, some mid, some low).
fn random_graph(seed: u64, left: usize, right: usize, edges: usize) -> MappingGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = MappingGraph::new(left, right);
    for _ in 0..edges {
        let i = rng.gen_range(0..left);
        let j = rng.gen_range(0..right);
        let p = match rng.gen_range(0..10u32) {
            0..=2 => 0.9 + rng.gen_range(0..10u32) as f64 / 100.0, // high
            3..=4 => rng.gen_range(1..10u32) as f64 / 100.0,       // low
            _ => rng.gen_range(15..85u32) as f64 / 100.0,          // mid
        };
        g.add_edge(i, j, p);
    }
    g
}

/// Asserts all structural invariants of a smart partition on `g`.
fn assert_invariants(g: &MappingGraph, cfg: &SmartPartitionConfig, parts: &[Vec<SmartPart>]) {
    // 1. Exactly one part per node.
    let mut part_of = vec![usize::MAX; g.node_count()];
    for (p, part) in parts.iter().flatten().enumerate() {
        let ids = part.tuples.left.iter().map(|&i| g.left_id(i));
        for id in ids.chain(part.tuples.right.iter().map(|&j| g.right_id(j))) {
            assert_eq!(part_of[id], usize::MAX, "node {id} lies in two parts");
            part_of[id] = p;
        }
    }
    assert!(part_of.iter().all(|&p| p != usize::MAX), "every node lies in a part");

    // 2. The batch bound holds for every non-flagged part; flagged parts
    // are genuinely oversized (otherwise the flag is meaningless).
    for part in parts.iter().flatten() {
        let size = part.tuples.size();
        if part.oversized {
            assert!(size > cfg.batch_size, "flagged part is not oversized ({size})");
        } else {
            assert!(size <= cfg.batch_size, "part has {size} tuples for batch {}", cfg.batch_size);
        }
    }

    // 3. Components that fit the batch are kept whole and unchanged.
    let components = g.connected_components();
    assert_eq!(parts.len(), components.len(), "one entry per connected component");
    for (c, component_parts) in components.iter().zip(parts) {
        if c.size() <= cfg.batch_size {
            assert_eq!(component_parts.len(), 1);
            assert_eq!(&component_parts[0].tuples, c);
        }
    }

    // 5. High-probability matches are never cut.
    for e in g.edges() {
        if cfg.scheme.is_high(e.weight) {
            assert_eq!(
                part_of[g.left_id(e.left)],
                part_of[g.right_id(e.right)],
                "high-probability match ({}, {}) was cut",
                e.left,
                e.right
            );
        }
    }
}

fn check_seeds(seeds: std::ops::Range<u64>, left: usize, right: usize, edges: usize) {
    for seed in seeds {
        let g = random_graph(seed, left, right, edges);
        for batch in [4usize, 10, 25, 75] {
            let cfg = SmartPartitionConfig::with_batch_size(batch);
            let parts = smart_partition(&g, &cfg);
            assert_invariants(&g, &cfg, &parts);
            // 4. Determinism across runs.
            assert_eq!(parts, smart_partition(&g, &cfg), "seed {seed} batch {batch}");
        }
    }
}

#[test]
fn packed_partition_invariants_hold_on_random_graphs() {
    check_seeds(0..20, 40, 35, 90);
}

#[test]
fn packed_partition_invariants_hold_on_sparse_and_dense_graphs() {
    check_seeds(100..108, 60, 60, 20); // mostly isolated nodes
    check_seeds(200..208, 25, 25, 250); // dense multigraph
}

/// Larger seeded graphs for the `--include-ignored` stress lane in CI.
#[test]
#[ignore = "stress suite: run with --include-ignored"]
fn packed_partition_invariants_hold_on_large_graphs() {
    check_seeds(300..310, 400, 380, 1200);
    check_seeds(400..404, 1000, 1000, 3000);
}

#[test]
fn bench_shaped_workload_keeps_every_component_whole() {
    // The benchmark shape: many small high-probability components, all
    // below the batch, so each is one part of its own.
    let mut g = MappingGraph::new(240, 240);
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..240 {
        g.add_edge(i, i, 0.92 + rng.gen_range(0..8u32) as f64 / 100.0);
        if i % 3 == 0 && i + 1 < 240 {
            g.add_edge(i, i + 1, 0.2); // occasional weak link
        }
    }
    let cfg = SmartPartitionConfig::with_batch_size(60);
    let parts = smart_partition(&g, &cfg);
    assert_invariants(&g, &cfg, &parts);
    assert_eq!(parts.len(), 160, "80 linked couple pairs and 80 single couples");
    assert!(parts.iter().all(|c| c.len() == 1 && !c[0].oversized));
}

#[test]
fn empty_and_singleton_graphs_are_handled() {
    let empty = MappingGraph::new(0, 0);
    let cfg = SmartPartitionConfig::with_batch_size(10);
    assert!(smart_partition(&empty, &cfg).is_empty());

    // A single left node, no right nodes, no edges.
    let singleton = MappingGraph::new(1, 0);
    let parts = smart_partition(&singleton, &cfg);
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0][0].tuples.left, vec![0]);
    assert!(!parts[0][0].oversized);

    // One isolated node on each side: two components, at any batch size.
    let two = MappingGraph::new(1, 1);
    assert_eq!(smart_partition(&two, &cfg).len(), 2);
    let cfg1 = SmartPartitionConfig::with_batch_size(1);
    let parts = smart_partition(&two, &cfg1);
    assert_invariants(&two, &cfg1, &parts);
    assert_eq!(parts.len(), 2);

    // Batch size 1 with a high-probability match: the 2-node cluster cannot
    // be split, so it becomes a single flagged oversized part.
    let mut matched = MappingGraph::new(1, 1);
    matched.add_edge(0, 0, 0.95);
    let parts = smart_partition(&matched, &cfg1);
    assert_invariants(&matched, &cfg1, &parts);
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0].len(), 1);
    assert!(parts[0][0].oversized);
}

/// When every component fits the batch, `Smart` and `ConnectedComponents`
/// emit the same jobs, so their reports are byte-identical.
#[test]
fn smart_jobs_equal_connected_components_when_every_component_fits() {
    let milp = MilpConfig { time_limit: None, max_nodes: 2_000, ..Default::default() };
    for seed in [3u64, 17, 42] {
        let case = generate_synthetic(&SyntheticConfig::new(80, 0.3, 300).with_seed(seed));
        let (left, right) = (&case.prepared.left_canonical, &case.prepared.right_canonical);
        let mapping = &case.initial_mapping;
        let (cc_jobs, _) =
            component_jobs(PartitioningStrategy::ConnectedComponents, left, right, mapping);
        let largest = cc_jobs.iter().map(|(_, sub)| sub.size()).max().unwrap_or(0);
        for batch_size in [largest, largest + 1, 1000] {
            let (smart_jobs, meta) =
                component_jobs(PartitioningStrategy::Smart { batch_size }, left, right, mapping);
            assert_eq!(smart_jobs, cc_jobs, "seed {seed} batch {batch_size}");
            assert_eq!((meta.split_components, meta.oversized_parts), (0, 0));
        }
        let explain = |config: Explain3DConfig| {
            let r = Explain3D::new(config.with_milp(milp.clone())).explain(
                left,
                right,
                &case.attribute_matches,
                mapping,
            );
            report_fingerprint(&r)
        };
        assert_eq!(
            explain(Explain3DConfig::batched(largest)),
            explain(Explain3DConfig::connected_components()),
            "seed {seed}"
        );
    }
}
