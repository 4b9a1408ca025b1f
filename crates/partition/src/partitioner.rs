//! A size-bounded graph partitioner: bounded agglomerative merging in the
//! spirit of the heavy-edge coarsening of multilevel partitioners such as
//! METIS, respecting a maximum part size (the paper's balancing constraint
//! `|T1,i| + |T2,j| ≤ L_max`).
//!
//! The partitioner operates on a generic weighted graph (node weights +
//! weighted undirected edges); the smart-partitioning driver feeds it the
//! coarse graph of one oversized connected component, produced by
//! [`pre_partition`](crate::prepartition::pre_partition), which plays the
//! role of the coarsening phase of a multilevel scheme.

use crate::dsu::DisjointSet;

/// Result of partitioning a weighted graph.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedPartition {
    /// Part index per node.
    pub assignment: Vec<usize>,
    /// Number of parts actually used.
    pub num_parts: usize,
    /// Total weight of cut edges.
    pub edge_cut: f64,
    /// Parts whose weight exceeds `max_part_weight` because they hold a
    /// single node heavier than the bound. No partition can fix those
    /// within the constraint, so they are flagged instead of hidden.
    pub oversized_parts: Vec<usize>,
}

/// Partitions a weighted graph.
///
/// * `node_weights[i]` is the weight of node `i` (e.g. how many original
///   tuples a coarse node represents);
/// * `edges` are undirected `(a, b, weight)` triples;
/// * the result respects `max_part_weight` except for single nodes that are
///   heavier than the bound, which get a part of their own.
///
/// Edges are visited from the heaviest down (ties by `(a, b)`), so heavy
/// edges are kept before light ones compete for room. Each edge merges its
/// endpoints' clusters (single linkage). A cluster is *open* while it is
/// one part within the bound. The edge also merges the two parts when their
/// union fits and at least one side is open; otherwise the merged cluster
/// is *closed*. A closed cluster never merges two of its own parts; it only
/// absorbs open clusters that reach it. So a change to the graph travels
/// only through open clusters, and parts away from the change stay as they
/// were: an incremental re-explanation keeps their cached solutions.
pub fn partition_weighted(
    node_weights: &[usize],
    edges: &[(usize, usize, f64)],
    max_part_weight: usize,
) -> WeightedPartition {
    let max_part_weight = max_part_weight.max(1);
    let n = node_weights.len();
    let mut order: Vec<(usize, usize, f64)> =
        edges.iter().copied().filter(|&(a, b, _)| a != b && a < n && b < n).collect();
    order.sort_by(|x, y| y.2.total_cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));

    let mut clusters = DisjointSet::new(n);
    let mut open: Vec<bool> = node_weights.iter().map(|&w| w <= max_part_weight).collect();
    let mut parts = DisjointSet::new(n);
    let mut part_weight = node_weights.to_vec();
    for &(a, b, _) in &order {
        let (ca, cb) = (clusters.find(a), clusters.find(b));
        if ca == cb {
            continue;
        }
        let (pa, pb) = (parts.find(a), parts.find(b));
        let union_weight = part_weight[pa] + part_weight[pb];
        let merge = union_weight <= max_part_weight && (open[ca] || open[cb]);
        let still_open = open[ca] && open[cb] && merge;
        clusters.union(ca, cb);
        open[clusters.find(ca)] = still_open;
        if merge {
            parts.union(pa, pb);
            part_weight[parts.find(pa)] = union_weight;
        }
    }

    // Part ids in order of each part's smallest node.
    let mut assignment = vec![0usize; n];
    let mut oversized_parts = Vec::new();
    let groups = parts.groups();
    for (part, members) in groups.iter().enumerate() {
        for &node in members {
            assignment[node] = part;
        }
        if part_weight[parts.find(members[0])] > max_part_weight {
            oversized_parts.push(part);
        }
    }

    let edge_cut = edges
        .iter()
        .filter(|&&(a, b, _)| a < n && b < n && assignment[a] != assignment[b])
        .map(|&(_, _, w)| w)
        .sum();

    WeightedPartition { assignment, num_parts: groups.len(), edge_cut, oversized_parts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_graph_fits_in_one_part() {
        let weights = vec![1, 1, 1];
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0)];
        let p = partition_weighted(&weights, &edges, 10);
        assert_eq!(p.num_parts, 1);
        assert_eq!(p.edge_cut, 0.0);
    }

    #[test]
    fn two_cliques_split_along_the_weak_bridge() {
        // Two triangles of heavy edges joined by one light edge.
        let weights = vec![1; 6];
        let edges = vec![
            (0, 1, 5.0),
            (1, 2, 5.0),
            (0, 2, 5.0),
            (3, 4, 5.0),
            (4, 5, 5.0),
            (3, 5, 5.0),
            (2, 3, 0.1), // bridge
        ];
        let p = partition_weighted(&weights, &edges, 3);
        assert!(p.num_parts >= 2);
        // The bridge should be the only cut edge.
        assert!((p.edge_cut - 0.1).abs() < 1e-9, "edge cut was {}", p.edge_cut);
        // All triangle members stay together.
        assert_eq!(p.assignment[0], p.assignment[1]);
        assert_eq!(p.assignment[1], p.assignment[2]);
        assert_eq!(p.assignment[3], p.assignment[4]);
        assert_eq!(p.assignment[4], p.assignment[5]);
        assert_ne!(p.assignment[0], p.assignment[3]);
    }

    #[test]
    fn nan_edge_weights_keep_growing_deterministic() {
        // Regression: `pick_best` compared gains with
        // `partial_cmp(..).unwrap_or(Equal)`, so a NaN gain (from a NaN edge
        // weight) collapsed the frontier ordering into a non-total relation
        // and the grown parts could differ between runs. `total_cmp` gives
        // NaN a fixed rank, so the assignment is reproducible.
        let weights = vec![1; 6];
        let edges = vec![(0, 1, f64::NAN), (1, 2, 1.0), (3, 4, 1.0), (4, 5, f64::NAN)];
        let max_part_weight = 2;
        let first = partition_weighted(&weights, &edges, max_part_weight);
        assert_eq!(first.assignment.len(), 6);
        for _ in 0..5 {
            // Compare assignments only: the edge cut itself is NaN-poisoned.
            assert_eq!(
                partition_weighted(&weights, &edges, max_part_weight).assignment,
                first.assignment
            );
        }
    }

    #[test]
    fn size_bound_is_respected() {
        let weights = vec![1; 10];
        let edges: Vec<(usize, usize, f64)> = (0..9).map(|i| (i, i + 1, 1.0)).collect();
        let max_part_weight = 3;
        let p = partition_weighted(&weights, &edges, max_part_weight);
        let mut sizes = vec![0usize; p.num_parts];
        for (i, &a) in p.assignment.iter().enumerate() {
            sizes[a] += weights[i];
        }
        assert!(sizes.iter().all(|&s| s <= 3), "part sizes {sizes:?}");
        assert!(p.num_parts >= 4);
    }

    #[test]
    fn oversized_single_node_gets_its_own_part() {
        let weights = vec![10, 1, 1];
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0)];
        let max_part_weight = 4;
        let p = partition_weighted(&weights, &edges, max_part_weight);
        // Node 0 exceeds the bound on its own; it must be alone in its part.
        let part0 = p.assignment[0];
        assert!(p.assignment.iter().enumerate().filter(|&(i, _)| i != 0).all(|(_, &a)| a != part0));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let p = partition_weighted(&[], &[], 5);
        assert_eq!(p.num_parts, 0);
        assert!(p.assignment.is_empty());

        let p = partition_weighted(&[2], &[], 5);
        assert_eq!(p.num_parts, 1);
        assert_eq!(p.assignment, vec![0]);
    }

    #[test]
    fn disconnected_nodes_are_all_assigned() {
        let weights = vec![1; 7];
        let edges = vec![(0, 1, 1.0)];
        let max_part_weight = 3;
        let p = partition_weighted(&weights, &edges, max_part_weight);
        assert_eq!(p.assignment.len(), 7);
        let mut sizes = vec![0usize; p.num_parts];
        for &a in &p.assignment {
            sizes[a] += 1;
        }
        assert!(sizes.iter().all(|&s| s <= 3));
        assert_eq!(sizes.iter().sum::<usize>(), 7);
    }

    #[test]
    fn oversized_parts_are_reported() {
        let weights = vec![10, 1, 1, 1];
        let edges = vec![(1, 2, 1.0)];
        let p = partition_weighted(&weights, &edges, 4);
        assert_eq!(p.oversized_parts.len(), 1);
        let oversized = p.oversized_parts[0];
        assert_eq!(p.assignment[0], oversized);
        assert!((1..4).all(|i| p.assignment[i] != oversized));
        // A graph of one overweight node is a single flagged part.
        let p = partition_weighted(&[5], &[], 4);
        assert_eq!(p.num_parts, 1);
        assert_eq!(p.oversized_parts, vec![0]);
    }

    /// The parts of `nodes` as sorted node lists, in order of their
    /// smallest node.
    fn parts_of(p: &WeightedPartition, nodes: std::ops::Range<usize>) -> Vec<Vec<usize>> {
        let mut parts: Vec<Vec<usize>> = Vec::new();
        for node in nodes {
            match parts.iter_mut().find(|part| p.assignment[part[0]] == p.assignment[node]) {
                Some(part) => part.push(node),
                None => parts.push(vec![node]),
            }
        }
        parts
    }

    #[test]
    fn a_change_leaves_the_parts_of_a_closed_region_alone() {
        // Two regions of three triangles each, joined by one light bridge.
        // Each region fills its parts (two triangles fit a part of 6) before
        // the bridge is visited, so a change in the first region cannot
        // reach the parts of the second.
        let mut edges = Vec::new();
        for t in 0..6 {
            let (a, b, c) = (3 * t, 3 * t + 1, 3 * t + 2);
            edges.extend([(a, b, 5.0), (b, c, 5.0), (a, c, 5.0)]);
        }
        edges.extend([(2, 3, 1.0), (5, 6, 0.9), (11, 12, 1.0), (14, 15, 0.9), (8, 9, 0.1)]);
        let before = partition_weighted(&[1; 18], &edges, 6);

        // A new node strongly attached to the first triangle.
        edges.push((0, 18, 2.0));
        let after = partition_weighted(&[1; 19], &edges, 6);

        let second = |p: &WeightedPartition| parts_of(p, 9..18);
        assert_eq!(second(&before), vec![(9..15).collect::<Vec<_>>(), (15..18).collect()]);
        assert_eq!(second(&after), second(&before));
        // The first region's parts do change: the new node fills the first
        // triangle's part, and the other two triangles pair up instead.
        assert_ne!(parts_of(&after, 0..9), parts_of(&before, 0..9));
        assert_eq!(after.assignment[18], after.assignment[0]);
    }

    #[test]
    fn refinement_reduces_cut_on_a_chain() {
        // A chain with strongly-coupled pairs; a good partition cuts only
        // weak links.
        let weights = vec![1; 8];
        let mut edges = Vec::new();
        for i in (0..8).step_by(2) {
            edges.push((i, i + 1, 10.0));
        }
        for i in (1..7).step_by(2) {
            edges.push((i, i + 1, 0.5));
        }
        let max_part_weight = 2;
        let p = partition_weighted(&weights, &edges, max_part_weight);
        // Strong pairs must never be separated.
        for i in (0..8).step_by(2) {
            assert_eq!(p.assignment[i], p.assignment[i + 1], "pair {i} split");
        }
        assert!(p.edge_cut <= 1.5 + 1e-9);
    }
}
