//! # explain3d-partition
//!
//! Graph-partitioning substrate for the Explain3D reproduction (VLDB 2019).
//! The Stage-2 objective decomposes over the connected components of the
//! bipartite mapping graph `G = (T1, T2, M_tuple)`, so each component is a
//! sub-problem. The paper's smart-partitioning optimiser (Section 4) splits
//! a component larger than the batch into bounded-size parts by
//! (1) re-weighting edges so high-probability matches are expensive to cut,
//! (2) pre-merging tuples connected by high-probability matches
//! (Algorithm 2), (3) running a standard graph partitioner on the coarse
//! graph, and (4) projecting the assignment back (Algorithm 3).
//!
//! The paper uses METIS/hMETIS as the off-the-shelf partitioner; this crate
//! ships its own size-bounded partitioner in the same multilevel spirit
//! (bounded heavy-edge-first merging of the coarse graph).

#![warn(missing_docs)]

pub mod dsu;
pub mod graph;
pub mod partitioner;
pub mod prepartition;
pub mod smart;
pub mod weights;

pub use dsu::DisjointSet;
pub use graph::{Component, GraphEdge, MappingGraph, Node, Partition};
pub use partitioner::{partition_weighted, WeightedPartition};
pub use prepartition::{pre_partition, CoarseGraph};
pub use smart::{smart_partition, SmartPart, SmartPartitionConfig};
pub use weights::WeightScheme;
