//! `rif-perf`: the repository's benchmark. Five workloads, each priced
//! end to end and layer by layer, measured only from outside the crates
//! by timing calls into their public functions. See `perf/README.md`.

pub mod host;
pub mod json;
pub mod loadgen;
pub mod micro;
pub mod runner;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workloads;
