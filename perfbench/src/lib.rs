//! The keyed-store benchmark: three workloads run through the store's
//! public API, end-to-end metrics from timed runs, per-layer metrics from
//! counter deltas and a traced single-threaded walk through every layer.
//! See `README.md` beside this crate for the workloads, the metric map,
//! and the known limits.

pub mod bench;
pub mod micro;
pub mod procstat;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod walk;
pub mod workload;
