//! Smart partitioning (Algorithm 3).
//!
//! The Stage-2 objective decomposes over the connected components of the
//! mapping graph, so every component is a sub-problem of its own. Smart
//! partitioning differs from plain connected components only for a
//! component larger than the batch: Algorithm 3 splits it — pre-partition
//! (Algorithm 2), partition the coarse graph with the size-bounded
//! partitioner ([`partition_weighted`]), project the assignment back — and
//! every part becomes a sub-problem. High-probability matches are
//! contracted before partitioning, so they are never cut; a contracted
//! cluster that is itself larger than the batch gets a part of its own,
//! flagged [`SmartPart::oversized`]. The partitioner changes only the parts
//! near a change to the component, so a small delta leaves most parts, and
//! their cached solutions, as they were.

use crate::graph::{Component, MappingGraph, Partition};
use crate::partitioner::partition_weighted;
use crate::prepartition::pre_partition;
use crate::weights::WeightScheme;

/// Configuration of the smart-partitioning optimiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmartPartitionConfig {
    /// Edge re-weighting scheme (`θ_l`, `θ_h`, `R`).
    pub scheme: WeightScheme,
    /// The batch bound `L_max`: the most tuples a part may hold.
    pub batch_size: usize,
}

impl SmartPartitionConfig {
    /// Creates a configuration with the paper's default weight scheme.
    pub fn with_batch_size(batch_size: usize) -> Self {
        SmartPartitionConfig { scheme: WeightScheme::default(), batch_size: batch_size.max(1) }
    }
}

impl Default for SmartPartitionConfig {
    fn default() -> Self {
        SmartPartitionConfig::with_batch_size(1000)
    }
}

/// One part of a smart partition: one Stage-2 sub-problem.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SmartPart {
    /// The part's tuples and edges. A part is connected by its own edges.
    pub tuples: Component,
    /// True when the part exceeds the batch bound: it holds a single
    /// high-probability cluster larger than the batch, which must not be
    /// cut.
    pub oversized: bool,
}

/// Runs smart partitioning on the mapping graph. Returns, for each
/// connected component in [`MappingGraph::connected_components`] order, the
/// parts it is solved as: the component itself when it fits the batch,
/// otherwise its Algorithm 3 split. Deterministic.
pub fn smart_partition(graph: &MappingGraph, config: &SmartPartitionConfig) -> Vec<Vec<SmartPart>> {
    graph
        .connected_components()
        .into_iter()
        .map(|c| {
            if c.size() <= config.batch_size {
                vec![SmartPart { tuples: c, oversized: false }]
            } else {
                split_component(graph, &c, config)
            }
        })
        .collect()
}

/// Algorithm 3 on one connected component of `graph`.
fn split_component(
    graph: &MappingGraph,
    comp: &Component,
    config: &SmartPartitionConfig,
) -> Vec<SmartPart> {
    // The component as a graph of its own. Local ids are positions in the
    // (ascending) `comp.left` / `comp.right`; local edge k is comp.edges[k].
    let position = |ids: &[usize], id: usize| {
        ids.binary_search(&id).expect("an edge's endpoints lie in its component")
    };
    let mut local = MappingGraph::new(comp.left.len(), comp.right.len());
    for &e in &comp.edges {
        let edge = graph.edges()[e];
        local.add_edge(
            position(&comp.left, edge.left),
            position(&comp.right, edge.right),
            edge.weight,
        );
    }

    // Line 1: pre-partition (Algorithm 2) to obtain the coarse graph.
    let coarse = pre_partition(&local, &config.scheme);
    // Line 2: partition the coarse graph within the batch bound.
    let weighted = partition_weighted(&coarse.node_weights(), &coarse.edges, config.batch_size);
    // Lines 3-6: project cluster assignments back onto the tuples.
    let assignment = coarse.cluster_of.iter().map(|&c| weighted.assignment[c]).collect();
    let split = Partition::new(assignment, weighted.num_parts);

    // Gather each part's tuples and internal edges. A part is merged along
    // edges, so it is one connected piece; part ids are compact, so the
    // i-th non-empty part is part i.
    let mut parts = Vec::new();
    for (part, pieces) in split.component_parts(&local).into_iter().enumerate() {
        let oversized = weighted.oversized_parts.contains(&part);
        for piece in pieces {
            let tuples = Component {
                left: piece.left.iter().map(|&i| comp.left[i]).collect(),
                right: piece.right.iter().map(|&j| comp.right[j]).collect(),
                edges: piece.edges.iter().map(|&e| comp.edges[e]).collect(),
            };
            parts.push(SmartPart { tuples, oversized });
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph of `pairs` (left, right) couples joined by 0.95-probability
    /// matches, with consecutive couples linked by weak 0.2 matches.
    fn chained_pairs(pairs: usize) -> MappingGraph {
        let mut g = MappingGraph::new(pairs, pairs);
        for i in 0..pairs {
            g.add_edge(i, i, 0.95);
            if i + 1 < pairs {
                g.add_edge(i, i + 1, 0.2);
            }
        }
        g
    }

    /// The node partition of a smart partition, one part id per part in
    /// job order, plus the size of each part.
    fn node_partition(g: &MappingGraph, parts: &[Vec<SmartPart>]) -> (Partition, Vec<usize>) {
        let mut assignment = vec![usize::MAX; g.node_count()];
        let mut sizes = Vec::new();
        for (p, part) in parts.iter().flatten().enumerate() {
            for &i in &part.tuples.left {
                assignment[g.left_id(i)] = p;
            }
            for &j in &part.tuples.right {
                assignment[g.right_id(j)] = p;
            }
            sizes.push(part.tuples.size());
        }
        assert!(assignment.iter().all(|&p| p != usize::MAX), "a node has no part");
        (Partition::new(assignment, sizes.len()), sizes)
    }

    #[test]
    fn small_graphs_stay_whole() {
        let g = chained_pairs(5);
        let cfg = SmartPartitionConfig::with_batch_size(100);
        let parts = smart_partition(&g, &cfg);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 1);
        let (p, _) = node_partition(&g, &parts);
        assert_eq!(g.edge_cut(&p), 0.0);
    }

    #[test]
    fn high_probability_matches_are_never_cut() {
        let g = chained_pairs(50);
        let cfg = SmartPartitionConfig::with_batch_size(10);
        let (p, sizes) = node_partition(&g, &smart_partition(&g, &cfg));
        assert!(sizes.len() > 1);
        for e in g.edges() {
            if e.weight >= 0.9 {
                assert_eq!(
                    p.part_of(g.left_id(e.left)),
                    p.part_of(g.right_id(e.right)),
                    "high-probability match ({}, {}) was cut",
                    e.left,
                    e.right
                );
            }
        }
    }

    #[test]
    fn partition_sizes_respect_the_batch_bound() {
        let g = chained_pairs(60);
        let cfg = SmartPartitionConfig::with_batch_size(16);
        // `node_partition` checks that every node is assigned.
        let (_, sizes) = node_partition(&g, &smart_partition(&g, &cfg));
        assert!(sizes.iter().all(|&s| s <= 16), "part sizes {sizes:?}");
    }

    #[test]
    fn number_of_partitions_tracks_batch_size() {
        // One 120-tuple component: a smaller batch yields more parts, and
        // never fewer than the batch bound forces.
        let g = chained_pairs(60);
        let mut previous = 0;
        for batch in [200usize, 60, 30, 10, 4] {
            let parts = smart_partition(&g, &SmartPartitionConfig::with_batch_size(batch));
            let count = parts.iter().map(Vec::len).sum::<usize>();
            assert!(count >= g.node_count().div_ceil(batch), "batch {batch}: {count} parts");
            assert!(count >= previous, "batch {batch}: {count} parts after {previous}");
            previous = count;
        }
    }

    #[test]
    fn cut_prefers_weak_edges() {
        let g = chained_pairs(40);
        let cfg = SmartPartitionConfig::with_batch_size(20);
        let (p, sizes) = node_partition(&g, &smart_partition(&g, &cfg));
        // The cut should consist only of the weak 0.2 chain links, so it is
        // bounded by 0.2 times the number of parts.
        let cut = g.edge_cut(&p);
        assert!(cut <= 0.2 * sizes.len() as f64 + 1e-9, "cut {cut}");
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = MappingGraph::new(0, 0);
        assert!(smart_partition(&g, &SmartPartitionConfig::default()).is_empty());
    }

    #[test]
    fn oversized_clusters_are_flagged_not_split() {
        // One chain of 6 high-probability matches contracts into a single
        // 13-node cluster that cannot fit a batch of 8.
        let mut g = MappingGraph::new(8, 8);
        for i in 0..6 {
            g.add_edge(i, i, 0.95);
            g.add_edge(i + 1, i, 0.95); // chains the couples together
        }
        g.add_edge(7, 7, 0.95); // a separate small couple
        let cfg = SmartPartitionConfig::with_batch_size(8);
        let parts = smart_partition(&g, &cfg);
        let flagged: Vec<&SmartPart> = parts.iter().flatten().filter(|p| p.oversized).collect();
        assert_eq!(flagged.len(), 1, "the 13-node cluster must be flagged");
        // The oversized part holds the whole cluster (never cut) ...
        assert_eq!(flagged[0].tuples.left, (0..7).collect::<Vec<_>>());
        assert_eq!(flagged[0].tuples.right, (0..6).collect::<Vec<_>>());
        // ... and nothing else: the couple and the isolated right tuple are
        // components of their own.
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn oversized_components_split_along_weak_edges_and_are_counted() {
        // One 60-node component chained by weak links: it splits into
        // several parts of at most 16, all sharing the component's slot.
        let g = chained_pairs(30);
        let cfg = SmartPartitionConfig::with_batch_size(16);
        let parts = smart_partition(&g, &cfg);
        assert_eq!(parts.len(), 1, "one source component");
        assert!(parts[0].len() >= 4, "{} parts for 60 tuples / batch 16", parts[0].len());
        assert!(parts[0].iter().all(|p| !p.oversized && p.tuples.size() <= 16));
    }

    #[test]
    fn component_parts_refine_parts_exactly() {
        // Four parts over a 40-couple chain, each of ten separate couples.
        let g = chained_pairs(40);
        let assignment: Vec<usize> = (0..g.node_count()).map(|id| (id % 40) % 4).collect();
        let p = Partition::new(assignment, 4);
        let comp_parts = p.component_parts(&g);
        assert_eq!(comp_parts.len(), 4);
        for (part, comps) in comp_parts.iter().enumerate() {
            // The components of a part tile it exactly: same tuples, same
            // intra-part edges, nothing shared.
            let mut left: Vec<usize> = comps.iter().flat_map(|c| c.left.clone()).collect();
            let mut right: Vec<usize> = comps.iter().flat_map(|c| c.right.clone()).collect();
            let mut edges: Vec<usize> = comps.iter().flat_map(|c| c.edges.clone()).collect();
            left.sort_unstable();
            right.sort_unstable();
            edges.sort_unstable();
            let pl: Vec<usize> = (0..40).filter(|&i| p.part_of(g.left_id(i)) == part).collect();
            let pr: Vec<usize> = (0..40).filter(|&j| p.part_of(g.right_id(j)) == part).collect();
            let pe: Vec<usize> = (0..g.edge_count())
                .filter(|&e| {
                    let edge = g.edges()[e];
                    p.part_of(g.left_id(edge.left)) == part
                        && p.part_of(g.right_id(edge.right)) == part
                })
                .collect();
            assert_eq!(left, pl);
            assert_eq!(right, pr);
            assert_eq!(edges, pe);
            // Every component's edges reference its own tuples only.
            for c in comps {
                for &e in &c.edges {
                    let edge = &g.edges()[e];
                    assert!(c.left.contains(&edge.left));
                    assert!(c.right.contains(&edge.right));
                }
            }
        }
    }

    #[test]
    fn default_config_uses_paper_batch_size() {
        let cfg = SmartPartitionConfig::default();
        assert_eq!(cfg.batch_size, 1000);
        assert_eq!(cfg.scheme, WeightScheme::default());
    }
}
