//! The chaos runtime: the repo's protocol step machines on real OS threads,
//! under seeded fault injection, with an online linearizability check.
//!
//! Everything else in this workspace runs inside the single-threaded
//! deterministic simulator (`blunt_sim`), where the adversary is an explicit
//! player. This crate turns the adversary into *measured chaos*: the same
//! ABD client/server machines (`blunt_abd`) and shared-memory register
//! constructions (`blunt_registers`) execute on threads connected by a
//! swappable [`blunt_net::Transport`] — the in-process message [`bus`] or
//! the socket tier in `blunt_net` — whose [`fault`] injector — drop, delay,
//! duplicate, reorder, partition, crash — follows a schedule that is a pure
//! function of the run seed, so any run is replayable. A [`workload`] driver
//! spawns client threads and records per-op latency into `blunt_obs`
//! histograms. Crashes are more than blackouts: under
//! [`recovery::RecoveryMode::Amnesia`] a server loses its volatile state
//! and recovers from a per-server write-ahead log ([`storage`]) plus peer
//! catch-up before serving again. The [`monitor`] consumes the concurrent
//! history incrementally
//! through the Wing–Gong checker in `blunt_lincheck`, rendering any
//! violation window through `blunt_trace`'s space-time diagram. [`shm`] does
//! the same for the mutex-shared-memory register constructions. [`netrun`]
//! is the multi-process entry: one `chaos serve` process per server plus a
//! socket-connected client driver, same protocol loops, same seeded fault
//! schedule pushed down to the socket layer.
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
pub mod workload;

// The fault schedule and coverage report moved to the transport tier
// (`blunt-net`) so socket backends share them; these module re-exports keep
// the original `blunt_runtime::fault` / `blunt_runtime::coverage` paths.
pub use blunt_net::{coverage, fault};

pub use blunt_net::{Addr, RemoteServer, ServerTelemetry};
pub use bus::{Bus, BusStats, Envelope, Payload};
pub use coverage::{Coverage, LinkCoverage};
pub use fault::{Fate, FaultConfig, FaultConfigError, FaultPlan};
pub use host::{host_loop, HostedReplica};
pub use monitor::{MonitorReport, OnlineMonitor, Violation};
pub use netrun::{run_chaos_net, run_net_server, NetChaosTopology, NetServeConfig, NetServeReport};
pub use recovery::{RecoveryMode, RecoverySink, RecoveryStats};
pub use shm::{run_shm_chaos, ShmChaosConfig, ShmReport};
pub use storage::{MultiWal, Wal, WalRecord};
pub use workload::{run_chaos, ChaosReport, MonitorOverhead, RuntimeConfig, WATCH_SCHEMA_VERSION};
