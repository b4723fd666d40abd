//! Graph partitioning and coloring for the Distributed Southwell solvers.
//!
//! The paper partitions each test matrix over MPI processes with METIS and
//! colors rows for Multicolor Gauss–Seidel with a breadth-first traversal.
//! This crate provides both from scratch:
//!
//! * [`graph::Graph`] — an undirected weighted adjacency structure derived
//!   from a sparse matrix,
//! * [`coloring::greedy_coloring_bfs`] — greedy multicoloring in BFS order
//!   (the scheme the paper uses for MC-GS in Figures 2 and 5),
//! * [`Partition`] — a `rows → parts` assignment with quality metrics,
//! * two partitioners: [`partition_strip`] (contiguous row blocks) and
//!   [`partition_multilevel`] — a METIS-style multilevel scheme
//!   (heavy-edge matching coarsening, an initial partition grown part by
//!   part along one breadth-first sweep of the coarsest graph in
//!   O(n + m), boundary Kernighan–Lin/FM refinement on every level),
//! * [`Redundancy`] / [`ReplicaMap`] — deterministic redundancy-coded
//!   block placement (each block hosted by `r` ranks) for straggler
//!   resilience, with [`PartitionError`] covering degenerate requests.

// `unwrap()` is banned in non-test code (clippy `disallowed-methods`, see
// clippy.toml): use `expect` naming the invariant, or propagate the error.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod agglomerate;
pub mod coloring;
pub mod graph;
pub mod partitioner;
pub mod redundancy;

pub use agglomerate::agglomerate_coarse;
pub use coloring::{greedy_coloring_bfs, Coloring};
pub use graph::Graph;
pub use partitioner::{
    partition_multilevel, partition_strip, try_partition_strip, MultilevelOptions, Partition,
    PartitionError,
};
pub use redundancy::{Redundancy, ReplicaMap};
