//! The bipartite mapping graph `G = (T1, T2, M_tuple)` and its partitions.

use crate::dsu::DisjointSet;

/// A weighted edge of the bipartite mapping graph: one tuple match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphEdge {
    /// Index of the left tuple (in `T1`).
    pub left: usize,
    /// Index of the right tuple (in `T2`).
    pub right: usize,
    /// Edge weight (the — possibly re-weighted — match probability).
    pub weight: f64,
}

/// A node of the bipartite graph, identified by side and index.
///
/// Internally nodes are also addressed by a single *global* id:
/// `0..left_count` for left nodes and `left_count..left_count+right_count`
/// for right nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Node {
    /// A tuple of `T1`.
    Left(usize),
    /// A tuple of `T2`.
    Right(usize),
}

/// The bipartite graph formed by two canonical relations and their tuple
/// matches (Problem 2 in the paper).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MappingGraph {
    left_count: usize,
    right_count: usize,
    edges: Vec<GraphEdge>,
}

impl MappingGraph {
    /// Creates a graph with `left_count` + `right_count` isolated nodes.
    pub fn new(left_count: usize, right_count: usize) -> Self {
        MappingGraph { left_count, right_count, edges: Vec::new() }
    }

    /// Number of left nodes (`|T1|`).
    pub fn left_count(&self) -> usize {
        self.left_count
    }

    /// Number of right nodes (`|T2|`).
    pub fn right_count(&self) -> usize {
        self.right_count
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.left_count + self.right_count
    }

    /// Number of edges (`|M_tuple|`).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edges.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// Adds an edge between left node `left` and right node `right`.
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, left: usize, right: usize, weight: f64) {
        assert!(left < self.left_count, "left node {left} out of range");
        assert!(right < self.right_count, "right node {right} out of range");
        self.edges.push(GraphEdge { left, right, weight });
    }

    /// Global node id of a left node.
    pub fn left_id(&self, left: usize) -> usize {
        left
    }

    /// Global node id of a right node.
    pub fn right_id(&self, right: usize) -> usize {
        self.left_count + right
    }

    /// Converts a global node id back into a [`Node`].
    pub fn node_of(&self, id: usize) -> Node {
        if id < self.left_count {
            Node::Left(id)
        } else {
            Node::Right(id - self.left_count)
        }
    }

    /// Adjacency list over global node ids: for each node, the list of
    /// `(neighbour id, edge index)` pairs.
    pub fn adjacency(&self) -> Vec<Vec<(usize, usize)>> {
        let mut adj = vec![Vec::new(); self.node_count()];
        for (e, edge) in self.edges.iter().enumerate() {
            let l = self.left_id(edge.left);
            let r = self.right_id(edge.right);
            adj[l].push((r, e));
            adj[r].push((l, e));
        }
        adj
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Splits the graph into maximal connected components. Isolated nodes
    /// form singleton components. Components are returned in deterministic
    /// order (by their smallest global node id).
    pub fn connected_components(&self) -> Vec<Component> {
        let n = self.node_count();
        let mut dsu = DisjointSet::new(n);
        for e in &self.edges {
            dsu.union(self.left_id(e.left), self.right_id(e.right));
        }
        let groups = dsu.groups();
        let mut comp_of = vec![usize::MAX; n];
        for (c, group) in groups.iter().enumerate() {
            for &id in group {
                comp_of[id] = c;
            }
        }
        let mut components: Vec<Component> = groups
            .iter()
            .map(|group| {
                let mut c = Component::default();
                for &id in group {
                    match self.node_of(id) {
                        Node::Left(i) => c.left.push(i),
                        Node::Right(j) => c.right.push(j),
                    }
                }
                c
            })
            .collect();
        for (e, edge) in self.edges.iter().enumerate() {
            let c = comp_of[self.left_id(edge.left)];
            components[c].edges.push(e);
        }
        components
    }

    /// Sum of the weights of edges whose endpoints live in different parts
    /// of `partition` (the objective of Problem 2).
    pub fn edge_cut(&self, partition: &Partition) -> f64 {
        self.edges
            .iter()
            .filter(|e| {
                partition.part_of(self.left_id(e.left)) != partition.part_of(self.right_id(e.right))
            })
            .map(|e| e.weight)
            .sum()
    }
}

/// A connected component: left/right tuple indexes plus the indexes of the
/// edges it contains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Component {
    /// Left tuple indexes in the component.
    pub left: Vec<usize>,
    /// Right tuple indexes in the component.
    pub right: Vec<usize>,
    /// Indexes (into [`MappingGraph::edges`]) of the component's edges.
    pub edges: Vec<usize>,
}

impl Component {
    /// Number of tuples in the component (`|T1,i| + |T2,i|`).
    pub fn size(&self) -> usize {
        self.left.len() + self.right.len()
    }
}

/// An assignment of every node to one of `k` parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<usize>,
    k: usize,
}

impl Partition {
    /// Creates a partition from a per-node assignment vector.
    pub fn new(assignment: Vec<usize>, k: usize) -> Self {
        debug_assert!(assignment.iter().all(|&p| p < k.max(1)));
        Partition { assignment, k: k.max(1) }
    }

    /// The part of a global node id.
    pub fn part_of(&self, node_id: usize) -> usize {
        self.assignment[node_id]
    }

    /// Splits the partition into per-part lists of **connected components**
    /// (with respect to the part's own intra-part edges; isolated nodes
    /// become singleton components). Empty parts are omitted.
    ///
    /// The MILP objective decomposes over connected components, so a
    /// disconnected part is solved as several sub-problems.
    ///
    /// Deterministic: parts in part-index order, components within a part
    /// ordered by their smallest global node id, nodes and edges in global
    /// order.
    pub fn component_parts(&self, graph: &MappingGraph) -> Vec<Vec<Component>> {
        let n = graph.node_count();
        let mut dsu = DisjointSet::new(n);
        for e in graph.edges() {
            let (l, r) = (graph.left_id(e.left), graph.right_id(e.right));
            if self.assignment[l] == self.assignment[r] {
                dsu.union(l, r);
            }
        }
        // One component per (part, root), in first-node order within the
        // part.
        let mut comp_of_root: Vec<usize> = vec![usize::MAX; n];
        let mut parts: Vec<Vec<Component>> = vec![Vec::new(); self.k];
        for id in 0..n {
            let p = self.assignment[id];
            let root = dsu.find(id);
            let comp = if comp_of_root[root] == usize::MAX {
                parts[p].push(Component::default());
                comp_of_root[root] = parts[p].len() - 1;
                parts[p].len() - 1
            } else {
                comp_of_root[root]
            };
            match graph.node_of(id) {
                Node::Left(i) => parts[p][comp].left.push(i),
                Node::Right(j) => parts[p][comp].right.push(j),
            }
        }
        for (e, edge) in graph.edges().iter().enumerate() {
            let (l, r) = (graph.left_id(edge.left), graph.right_id(edge.right));
            if self.assignment[l] == self.assignment[r] {
                let comp = comp_of_root[dsu.find(l)];
                parts[self.assignment[l]][comp].edges.push(e);
            }
        }
        parts.retain(|p| !p.is_empty());
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 left, 4 right; two components plus one isolated right node.
    fn sample() -> MappingGraph {
        let mut g = MappingGraph::new(3, 4);
        g.add_edge(0, 0, 0.9);
        g.add_edge(0, 1, 0.3);
        g.add_edge(1, 1, 0.8);
        g.add_edge(2, 2, 1.0);
        g
    }

    #[test]
    fn counts_and_ids() {
        let g = sample();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.left_id(2), 2);
        assert_eq!(g.right_id(0), 3);
        assert_eq!(g.node_of(2), Node::Left(2));
        assert_eq!(g.node_of(5), Node::Right(2));
        assert!((g.total_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = MappingGraph::new(1, 1);
        g.add_edge(1, 0, 0.5);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = sample();
        let adj = g.adjacency();
        assert_eq!(adj[g.left_id(0)].len(), 2);
        assert_eq!(adj[g.right_id(1)].len(), 2);
        assert_eq!(adj[g.right_id(3)].len(), 0);
        // Edge index consistency.
        let (nbr, e) = adj[g.left_id(2)][0];
        assert_eq!(nbr, g.right_id(2));
        assert_eq!(g.edges()[e].weight, 1.0);
    }

    #[test]
    fn connected_components_are_found() {
        let g = sample();
        let comps = g.connected_components();
        // {L0, L1, R0, R1}, {L2, R2}, {R3}
        assert_eq!(comps.len(), 3);
        let big = comps.iter().find(|c| c.size() == 4).unwrap();
        assert_eq!(big.left, vec![0, 1]);
        assert_eq!(big.right, vec![0, 1]);
        assert_eq!(big.edges.len(), 3);
        let pair = comps.iter().find(|c| c.size() == 2).unwrap();
        assert_eq!(pair.left, vec![2]);
        assert_eq!(pair.right, vec![2]);
        let isolated = comps.iter().find(|c| c.size() == 1).unwrap();
        assert_eq!(isolated.right, vec![3]);
        assert!(isolated.edges.is_empty());
    }

    #[test]
    fn edge_cut_and_parts() {
        let g = sample();
        // Put L0,R0 in part 0 and everything else in part 1.
        let mut assignment = vec![1; g.node_count()];
        assignment[g.left_id(0)] = 0;
        assignment[g.right_id(0)] = 0;
        let p = Partition::new(assignment, 2);
        // Cut edges: (0,1,0.3) only.
        assert!((g.edge_cut(&p) - 0.3).abs() < 1e-12);
        // Part 0 is one component; part 1 splits into {L1, R1}, {L2, R2}, {R3}.
        let parts = p.component_parts(&g);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 1);
        assert_eq!(parts[0][0].left, vec![0]);
        assert_eq!(parts[0][0].right, vec![0]);
        assert_eq!(parts[0][0].edges, vec![0]);
        let sizes: Vec<usize> = parts[1].iter().map(Component::size).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn single_partition_has_zero_cut() {
        let g = sample();
        let p = Partition::new(vec![0; g.node_count()], 1);
        assert_eq!(g.edge_cut(&p), 0.0);
        assert_eq!(p.component_parts(&g).len(), 1);
    }
}
