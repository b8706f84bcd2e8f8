//! # simq-index — multidimensional indexing for similarity queries
//!
//! A from-scratch R*-tree (Beckmann et al., SIGMOD 1990 — the index the
//! paper's experiments run on) extended with the paper's contribution: the
//! ability to traverse the index *as if* a safe transformation had been
//! applied to every bounding rectangle (Algorithms 1 and 2), so one
//! physical index serves arbitrarily many transformed views of the data
//! with no extra disk overhead.
//!
//! * [`geom`] — rectangles, dimension semantics (including circular phase
//!   angles), MINDIST/MINMAXDIST.
//! * [`transform`] — spatial transformations ([`DiagonalAffine`] is the
//!   normal form every safe transformation reduces to).
//! * [`rstar`] — the tree structure: ChooseSubtree, forced reinsertion, R*
//!   split, deletion with condense.
//! * [`search`] — range queries, plain and transformed, with node-access
//!   statistics.
//! * [`knn`] — best-first nearest neighbours with MINDIST pruning, plain
//!   and transformed.
//! * [`join`] — probe-based (the paper's Table 1 methods) and synchronized
//!   tree-tree spatial joins.
//! * [`bulk`] — STR bulk loading.
//! * [`parallel`] — multi-threaded read-only traversals: parallel subtree
//!   descent for range queries, work-stealing best-first kNN with a shared
//!   pruning bound, chunked probe joins. Results are exactly equal to the
//!   serial traversals.
//! * [`batch`] — batched traversals: one tree walk serving a whole batch
//!   of range queries (per node, every active query tests every entry),
//!   and batched best-first kNN over one shared work-stealing pool with
//!   per-query pruning bounds. Per-query answers equal the individual
//!   traversals; shared node reads are counted once.
//! * [`cursor`] — incremental range traversal: an explicit-stack
//!   [`RangeStream`] over one tree or a forest of shard trees that yields
//!   matching ids one at a time, so early termination (drop, `LIMIT`)
//!   abandons the remaining descent.
//! * [`shard`] — the search entry points over a relation's trees (one
//!   per shard, one when unsharded): range queries fanned out per shard,
//!   best-first kNN over the whole forest with a shared `k`-th-best bound
//!   pruning every shard at once, and batched traversals per tree. Each
//!   picks per-tree threading (one tree) or per-shard fan-out (several).
//! * [`serial`] — binary serialization of the full tree structure (node
//!   arena, geometry, free list), so persisted databases reopen without
//!   re-bulk-loading and reproduce the identical tree.

#![warn(missing_docs)]

pub mod batch;
pub mod bulk;
pub mod cursor;
pub mod geom;
pub mod join;
pub mod knn;
pub mod parallel;
pub mod rstar;
pub mod search;
pub mod serial;
pub mod shard;
pub mod transform;

pub use batch::{MultiKnnQuery, MultiRangeQuery, MultiSearchStats};
pub use cursor::RangeStream;
pub use geom::{circular_overlap, DimSemantics, Rect, Space};
pub use knn::Neighbor;
pub use parallel::ParallelStats;
pub use rstar::{RTree, RTreeConfig};
pub use search::SearchStats;
pub use serial::SerialError;
pub use shard::ShardSearchStats;
pub use transform::{DiagonalAffine, IdentityTransform, SpatialTransform};
