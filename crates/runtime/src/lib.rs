//! The chaos runtime: the repo's protocol step machines on real OS threads,
//! under seeded fault injection, with an online linearizability check.
//!
//! Everything else in this workspace runs inside the single-threaded
//! deterministic simulator (`blunt_sim`), where the adversary is an explicit
//! player. This crate turns the adversary into *measured chaos*: the same
//! ABD server machines (`blunt_abd`) and shared-memory register
//! constructions (`blunt_registers`) execute on threads connected by a
//! swappable [`blunt_net::Transport`] — the in-process message [`bus`] or
//! the socket tier in `blunt_net` — whose fault injector — drop, delay,
//! duplicate, reorder, partition, crash — follows a schedule that is a pure
//! function of the run seed, so any run is replayable. Replicas run on
//! replica [`host`] threads. Crashes are more than blackouts: under
//! [`recovery::RecoveryMode::Amnesia`] a server loses its volatile state
//! and recovers from a per-server write-ahead log ([`storage`]) plus peer
//! catch-up before serving again. The [`monitor`] consumes the concurrent
//! history incrementally
//! through the Wing–Gong checker in `blunt_lincheck`, rendering any
//! violation window through `blunt_trace`'s space-time diagram. [`shm`] does
//! the same for the mutex-shared-memory register constructions. [`netrun`]
//! is the server side of multi-process runs: one `chaos serve` process per
//! replica, same host loop, same seeded fault schedule pushed down to the
//! socket layer.
//!
//! The client driver — pipelined clients, per-shard monitors, the live
//! watch — lives in `blunt_store`; every chaos workload, the
//! single-register shapes included, runs through it.
//!
//! The determinism/replay contract, the fault semantics, and the soundness
//! argument for the monitor live in `docs/RUNTIME.md`; the transport tier
//! in `docs/TRANSPORT.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod host;
pub mod monitor;
pub mod netrun;
pub mod recovery;
pub mod shm;
pub mod storage;

pub use blunt_net::{
    Addr, Coverage, Fate, FaultConfig, FaultConfigError, FaultPlan, LinkCoverage, RemoteServer,
    ServerTelemetry,
};
pub use bus::{Bus, Envelope, Payload};
pub use host::{host_loop, HostedReplica};
pub use monitor::{MonitorReport, OnlineMonitor, Violation};
pub use netrun::{run_net_server, NetServeConfig, NetServeReport};
pub use recovery::{RecoveryMode, RecoverySink, RecoveryStats};
pub use shm::{run_shm_chaos, ShmChaosConfig, ShmReport};
pub use storage::{MultiWal, WalRecord};
