//! blunt-store: a sharded, keyed multi-register store over ABD quorums —
//! and the one client driver every chaos workload runs through.
//!
//! The runtime (`blunt_runtime`) hosts replicated register groups; this
//! crate composes *many* of them into a keyed store and drives them: the
//! single-register chaos configurations are its one-shard, one-key case
//! ([`StoreConfig::register_smoke`]), and the ABD preamble depth `k` is a
//! run option ([`RunOptions`]). A seed-deterministic
//! consistent-hash [`ring`] maps each key onto one of N independent ABD
//! shards — disjoint slices of the server set, each replica running the
//! unmodified [`blunt_runtime::host`] step machine over its own quorum,
//! whole shards packed onto one replica host per core. Clients are
//! *pipelined*: each keeps up to `pipeline_depth` operations in flight at
//! once (per-key program order preserved — two ops on the same key never
//! overlap from one client), and their quorum fan-out is *batched*: a
//! per-client [`BatchingTransport`] (`blunt_net`'s, the same layer the
//! replica hosts send their replies through) coalesces protocol sends into
//! `send_batch` calls that the socket tier packs into single `EnvBatch`
//! frames per destination. Fault fates are still drawn per logical envelope
//! in send order, so batching amortizes syscalls without perturbing the
//! seeded schedule.
//!
//! Safety is checked the same way the runtime checks it, sharded: one
//! online linearizability monitor per shard consumes that shard's call /
//! return stream. This is sound because linearizability of a keyed store
//! decomposes per key (the checker already treats each [`ObjId`] as an
//! independent register), every operation on a key routes to exactly one
//! shard, and each client sends its `Call` before the first message of the
//! op and its `Return` after completion — so each shard's stream is a
//! real-time-ordered history of exactly the keys it owns. The full
//! soundness argument, the sharding model, and the batching/pipelining
//! semantics live in `docs/STORE.md`. Every run also keeps live
//! telemetry: the optional `--watch` line and its JSONL mirror, and a
//! stall watchdog ([`STALL_AFTER`]).
//!
//! [`ObjId`]: blunt_core::ids::ObjId

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ring;
pub mod run;
mod watch;

pub use blunt_net::BatchingTransport;
pub use ring::{HashRing, VNODES};
pub use run::{
    run_store, run_store_net, run_store_net_with, run_store_with, RunOptions, StoreConfig,
    StoreReport,
};
pub use watch::{STALL_AFTER, WATCH_SCHEMA_VERSION};
