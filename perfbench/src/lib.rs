//! The similarity engine's benchmark: seeded workloads, an output check,
//! end-to-end metrics from untraced runs and per-layer metrics from
//! traced runs. See README.md for the workloads and every metric.

pub mod affinity;
pub mod check;
pub mod corpus;
pub mod local;
pub mod openloop;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
