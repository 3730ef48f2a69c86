//! The client driver: sharded servers, per-shard monitors, pipelined
//! batched clients — over the in-process bus or the socket tier. Every
//! chaos workload runs through it; the single-register shapes are one-shard,
//! one-key configs ([`StoreConfig::register_smoke`]).
//!
//! [`run_store`] is the single-process entry: it builds one
//! [`blunt_runtime::Bus`] spanning every shard's servers plus the clients,
//! starts one replica host ([`host_loop`]) per core — at most one per
//! shard — with whole shards placed round-robin (shard `s` on host
//! `s % hosts`, every replica of a host sharing its mailbox), and drives
//! the keyed workload. [`run_store_net`] is the same client side pointed
//! at already-listening `chaos serve` processes (one replica each) through
//! a [`NetClient`]. Both share
//! the same client loop, so the two tiers exercise identical protocol
//! logic and differ only in transport. [`run_store_with`] and
//! [`run_store_net_with`] take the run-level [`RunOptions`] (preamble
//! depth `k`, live watch, flight-dump directory) on top.
//!
//! Determinism contract: the per-client rng stream is a pure function of
//! `(seed, client)` and is consumed in *program order* (key draw, then
//! read/write draw, then — for `k > 1` — the object random choice, per op
//! at burst setup) — never in reply-arrival order — so the draw sequence
//! is schedule-independent. Pipelining changes only *when* messages leave
//! relative to each other, and batching changes only how they are framed;
//! fault fates are drawn per logical envelope in send order either way
//! (see [`BatchingTransport`]).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use blunt_abd::client::{AckEffect, ActiveOp, OpKind, ReplyEffect};
use blunt_abd::msg::AbdMsg;
use blunt_core::history::Action;
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::{
    Addr, BatchingTransport, Coverage, Envelope, FaultConfig, FaultConfigError, NetClient,
    NetClientCfg, Payload, RemoteServer, SpanCtx, Transport, TransportStats,
};
use blunt_obs::flight::{encode_val, KEY_NONE};
use blunt_obs::{FlightDump, FlightKind, FlightRecorder, FlightRing, Histogram, HistogramSnapshot};
use blunt_runtime::{
    host_loop, Bus, HostedReplica, MonitorReport, OnlineMonitor, RecoveryMode, RecoverySink,
    RecoveryStats,
};
use blunt_sim::rng::{RandomSource, SplitMix64};

use crate::ring::HashRing;
use crate::watch::{Telemetry, WatchCtx, Watcher};

/// One store run: topology, workload shape, and chaos knobs.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Independent ABD shards the keyspace maps onto.
    pub shards: u32,
    /// Replicas per shard; each shard's quorum is a majority of these.
    pub servers_per_shard: u32,
    /// Client threads.
    pub clients: u32,
    /// Operations each client completes.
    pub ops_per_client: u64,
    /// Distinct keys (registers) the workload draws from.
    pub keys: u32,
    /// Max operations one client keeps in flight at once.
    pub pipeline_depth: u32,
    /// Envelopes buffered per client before a forced flush
    /// (`1` ⇒ batching off; see [`BatchingTransport`]).
    pub batch_max: usize,
    /// Ops per burst between client barriers (bounds the monitor window:
    /// `clients × burst ≤ 64`).
    pub burst: u64,
    /// Read fraction in per-mille (500 = half reads).
    pub read_per_mille: u16,
    /// The run seed — fixes the fault schedule, the key sequence, and the
    /// ring layout.
    pub seed: u64,
    /// Fault injection profile for the transport.
    pub faults: FaultConfig,
    /// Replace quorum reads with the intentionally-broken single-server
    /// read (no write-back) — the monitor must catch it.
    pub broken_reads: bool,
    /// First retransmission timeout.
    pub retransmit_after: Duration,
    /// Backoff ceiling for retransmission timeouts.
    pub retransmit_cap: Duration,
    /// What a crash means for shard replicas: [`RecoveryMode::Stable`]
    /// keeps crashes as pure message blackouts; an amnesia mode arms the
    /// bus's crash signal and every replica runs the WAL-replay +
    /// peer-catch-up recovery protocol within its own shard's group.
    pub recovery: RecoveryMode,
    /// Intentionally break ONE shard's recovery
    /// ([`RecoveryMode::demo_amnesia`]: no replay, no catch-up) while the
    /// others recover soundly — that shard's monitor must catch the stale
    /// keyed reads. Requires an amnesia [`StoreConfig::recovery`].
    pub demo_shard: Option<u32>,
}

impl StoreConfig {
    /// A small faulted smoke configuration: 4 shards × 3 replicas, 4
    /// pipelined clients, light faults. CI-sized.
    #[must_use]
    pub fn smoke(seed: u64) -> StoreConfig {
        StoreConfig {
            shards: 4,
            servers_per_shard: 3,
            clients: 4,
            ops_per_client: 500,
            keys: 64,
            pipeline_depth: 4,
            batch_max: 8,
            burst: 8,
            read_per_mille: 500,
            seed,
            faults: FaultConfig::light(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            demo_shard: None,
        }
    }

    /// The throughput configuration: 8 shards × 3 replicas, 8 clients ×
    /// 125k ops = 1M operations, fault-free, deep pipeline, fat batches.
    #[must_use]
    pub fn bench(seed: u64) -> StoreConfig {
        StoreConfig {
            shards: 8,
            servers_per_shard: 3,
            clients: 8,
            ops_per_client: 125_000,
            keys: 1024,
            pipeline_depth: 8,
            batch_max: 16,
            burst: 8,
            read_per_mille: 500,
            seed,
            faults: FaultConfig::none(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            demo_shard: None,
        }
    }

    /// The single-register smoke shape: one register on one shard of 3
    /// replicas, 4 sequential clients (pipeline depth 1, no batching) × 500
    /// ops under the full fault mix.
    #[must_use]
    pub fn register_smoke(seed: u64) -> StoreConfig {
        StoreConfig {
            shards: 1,
            servers_per_shard: 3,
            clients: 4,
            ops_per_client: 500,
            keys: 1,
            pipeline_depth: 1,
            batch_max: 1,
            burst: 8,
            read_per_mille: 500,
            seed,
            faults: FaultConfig::chaos(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            demo_shard: None,
        }
    }

    /// The single-register acceptance soak shape: [`Self::register_smoke`]
    /// with 8 clients × 13 000 ops (≥ 100k in total) in bursts of 4.
    #[must_use]
    pub fn register_soak(seed: u64) -> StoreConfig {
        StoreConfig {
            clients: 8,
            ops_per_client: 13_000,
            burst: 4,
            ..StoreConfig::register_smoke(seed)
        }
    }

    /// Total server processes: `shards × servers_per_shard`.
    #[must_use]
    pub fn servers_total(&self) -> u32 {
        self.shards * self.servers_per_shard
    }

    /// Flight-diagram lanes: every server, every client, and one monitor
    /// lane per shard.
    #[must_use]
    pub fn lanes(&self) -> usize {
        (self.servers_total() + self.clients + self.shards) as usize
    }

    /// The key word of `key`'s op events: a one-key run leaves them
    /// unkeyed, as single-register dumps always were (the field is elided).
    fn flight_key(&self, key: ObjId) -> u64 {
        if self.keys > 1 {
            u64::from(key.0)
        } else {
            KEY_NONE
        }
    }

    fn validate(&self) {
        assert!(self.shards >= 1, "the store needs at least one shard");
        assert!(self.servers_per_shard >= 1, "a shard needs a replica");
        assert!(
            self.servers_total() <= 64,
            "server pids must fit the 64-bit responder masks"
        );
        assert!(self.clients >= 1 && self.ops_per_client >= 1);
        assert!(self.keys >= 1, "the store needs at least one key");
        assert!(
            self.pipeline_depth >= 1,
            "pipeline depth 0 makes no progress"
        );
        assert!(self.burst >= 1);
        assert!(
            u64::from(self.pipeline_depth) <= self.burst,
            "in-flight ops beyond the burst size can never materialize"
        );
        assert!(
            u64::from(self.clients) * self.burst <= 64,
            "clients × burst must fit the monitor's 64-invocation window"
        );
        assert!(self.batch_max >= 1, "a batch holds at least one envelope");
        if let Some(d) = self.demo_shard {
            assert!(d < self.shards, "demo shard must be one of 0..shards");
            assert!(
                self.recovery.is_amnesia(),
                "a demo shard needs amnesia recovery — stable crashes never \
                 erase state, so skipping recovery would be inert"
            );
        }
    }
}

/// Run-level settings on top of the workload shape: how deep the ABD
/// preamble goes and how the run is watched. `Default` is plain ABD with no
/// live output.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Preamble iterations (`k = 1` is plain ABD; `k = 2` is O² of
    /// Algorithm 2). For `k > 1` each op draws its object random choice at
    /// burst setup, so the rng stream stays in program order.
    pub k: u32,
    /// Emit a live progress line to stderr every interval (`None` =
    /// silent). Read-only observation: never perturbs the fault schedule.
    pub watch: Option<Duration>,
    /// Append the watch snapshots as schema-versioned JSONL to this path: a
    /// `chaos_watch` header naming [`RunOptions::label`], then one
    /// `watch_tick` record per tick. Ticks use the `watch` interval when
    /// set, a default cadence otherwise.
    pub watch_out: Option<PathBuf>,
    /// Directory for watchdog stall dumps (`stall.flight.jsonl` plus a
    /// rendered `stall.diagram.txt`). `None` keeps a stall in memory only.
    pub flight_dump_dir: Option<PathBuf>,
    /// The run's config name, carried by the watch mirror's header.
    pub label: String,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            k: 1,
            watch: None,
            watch_out: None,
            flight_dump_dir: None,
            label: String::new(),
        }
    }
}

/// What one store run produced.
#[derive(Clone, Debug)]
pub struct StoreReport {
    /// Operations completed (`clients × ops_per_client`).
    pub ops: u64,
    /// Transport-level message statistics.
    pub stats: TransportStats,
    /// Fault-schedule coverage actually exercised.
    pub coverage: Coverage,
    /// The merged verdict across all per-shard monitors.
    pub monitor: MonitorReport,
    /// Call/return actions consumed across all shard monitors (= `2 ×
    /// ops`; deterministic).
    pub monitor_actions: u64,
    /// Wall time spent inside [`OnlineMonitor::observe`], summed over the
    /// shard monitors (timing-dependent).
    pub monitor_observe_ns: u64,
    /// The largest backlog any shard monitor ran behind its clients, in
    /// actions (timing-dependent).
    pub monitor_lag_ops_hwm: u64,
    /// Flight dump captured at the first violation anywhere, if any.
    pub violation_dump: Option<FlightDump>,
    /// `true` iff no operation completed for [`STALL_AFTER`](crate::STALL_AFTER)
    /// at some point.
    pub stalled: bool,
    /// Client retransmissions (timeout recoveries).
    pub retransmissions: u64,
    /// Operations whose pipeline start was deferred because their shard
    /// was degraded (recovering) with its in-flight cap reached.
    /// Timing-dependent; excluded from regression gating.
    pub degraded_ops: u64,
    /// Aggregate crash-recovery counters across every shard replica
    /// (`crashes`/`recoveries` deterministic for a seed; the WAL-shaped
    /// ones timing-dependent). All zero under stable recovery.
    pub recovery: RecoveryStats,
    /// Per-shard `(crashes, recoveries)`, index = shard. Deterministic for
    /// a seed: crash windows live in link-index space and every crash runs
    /// exactly one recovery.
    pub shard_recoveries: Vec<(u64, u64)>,
    /// End-to-end per-op latency distribution (µs).
    pub latency_us: HistogramSnapshot,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-server remote state — clock offset, last telemetry snapshot,
    /// goodbye-piggybacked dump — on socket runs (index = server pid).
    /// Empty in process, where no state is remote.
    pub remote_servers: Vec<RemoteServer>,
    /// The cross-process merged flight dump of a socket run: driver events
    /// plus every server's goodbye dump, clock-aligned and labeled
    /// `s<pid>`. `None` in process, where the ordinary flight recorder
    /// already sees every event.
    pub merged_flight: Option<FlightDump>,
}

impl StoreReport {
    /// Completed operations per wall-clock second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs one seeded store configuration on the in-process bus, with one
/// replica host per core (at most one per shard), under default
/// [`RunOptions`].
///
/// # Errors
///
/// Returns [`FaultConfigError`] if the fault probabilities are malformed.
///
/// # Panics
///
/// Panics on an invalid topology (see [`StoreConfig`] field docs) or if a
/// worker thread dies.
pub fn run_store(cfg: &StoreConfig) -> Result<StoreReport, FaultConfigError> {
    run_store_with(cfg, &RunOptions::default())
}

/// [`run_store`] under explicit run options.
///
/// # Errors
///
/// Returns [`FaultConfigError`] if the fault probabilities are malformed.
///
/// # Panics
///
/// Panics on an invalid topology, `opts.k == 0`, or if a worker thread
/// dies.
pub fn run_store_with(
    cfg: &StoreConfig,
    opts: &RunOptions,
) -> Result<StoreReport, FaultConfigError> {
    let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    run_store_on(cfg, opts, cores)
}

/// [`run_store_with`] on `hosts` replica hosts (clamped to `1..=shards`):
/// shard `s` lives on host `s % hosts`. The host count changes only which
/// thread serves a replica, never what any replica or link does, so the
/// report's deterministic parts do not depend on it.
pub(crate) fn run_store_on(
    cfg: &StoreConfig,
    opts: &RunOptions,
    hosts: usize,
) -> Result<StoreReport, FaultConfigError> {
    cfg.validate();
    assert!(opts.k >= 1, "ABD^k requires k ≥ 1");
    let started = Instant::now();
    let servers_total = cfg.servers_total();
    let spr = cfg.servers_per_shard;
    let hosts = hosts.clamp(1, cfg.shards as usize);
    let host_of = |pid: u32| (pid / spr) as usize % hosts;
    // Mailbox `h < hosts` is host h's; each client keeps its own after them.
    let mailbox_of: Vec<usize> = (0..servers_total)
        .map(host_of)
        .chain((0..cfg.clients as usize).map(|c| hosts + c))
        .collect();
    let recorder = Arc::new(FlightRecorder::new(4096));
    let (bus, receivers) = Bus::with_mailboxes(
        cfg.seed,
        cfg.faults,
        servers_total,
        &mailbox_of,
        cfg.recovery.is_amnesia(),
        Arc::clone(&recorder),
    )?;
    let bus = Arc::new(bus);
    let stop = Arc::new(AtomicBool::new(false));
    // One sink per shard: crash/recovery counters stay attributable to the
    // shard whose replicas produced them.
    let sinks: Vec<Arc<RecoverySink>> = (0..cfg.shards)
        .map(|_| Arc::new(RecoverySink::default()))
        .collect();

    let mut hosted: Vec<Vec<HostedReplica>> = vec![Vec::new(); hosts];
    for s in 0..servers_total {
        // The replica is key-agnostic (its store is a per-key map), so
        // shard membership is purely a property of who clients address:
        // replica s serves shard s / servers_per_shard. Recovery catch-up
        // stays within the shard — only these replicas hold the keys.
        let shard = s / spr;
        hosted[host_of(s)].push(HostedReplica {
            me: Pid(s),
            group: (shard * spr..(shard + 1) * spr).map(Pid).collect(),
            mode: match cfg.demo_shard {
                Some(d) if d == shard => RecoveryMode::demo_amnesia(),
                _ => cfg.recovery,
            },
            sink: Arc::clone(&sinks[shard as usize]),
        });
    }
    let mut rx_iter = receivers.into_iter();
    let mut servers = Vec::with_capacity(hosts);
    for replicas in hosted {
        let rx = rx_iter.next().expect("one receiver per host");
        let bus = Arc::clone(&bus);
        let stop = Arc::clone(&stop);
        let recorder = Arc::clone(&recorder);
        servers.push(thread::spawn(move || {
            host_loop(replicas, rx, bus.as_ref(), &stop, &recorder);
        }));
    }
    let client_rxs: Vec<Receiver<Envelope>> = rx_iter.collect();

    let telemetry = Arc::new(Telemetry::new(cfg.clients, cfg.shards));
    let watch_sinks = sinks.clone();
    let watcher = Watcher::spawn(WatchCtx {
        opts: opts.clone(),
        seed: cfg.seed,
        lanes: cfg.lanes(),
        started,
        telemetry: Arc::clone(&telemetry),
        recorder: Arc::clone(&recorder),
        recoveries: Box::new(move || {
            watch_sinks
                .iter()
                .map(|s| s.snapshot().recoveries)
                .sum::<u64>()
        }),
    });
    let core = drive_clients(cfg, opts.k, bus.as_ref(), client_rxs, &recorder, &telemetry);

    // Every amnesia signal is enqueued synchronously inside a client's
    // send, so by this point (clients joined inside `drive_clients`) all
    // crash events are in host mailboxes; hosts drain them before
    // honoring `stop`, keeping the recovery counters deterministic.
    stop.store(true, Ordering::Relaxed);
    for s in servers {
        s.join().expect("replica host thread");
    }
    bus.flush();
    let stalled = watcher.finish();
    let shard_recoveries: Vec<(u64, u64)> = sinks
        .iter()
        .map(|s| {
            let r = s.snapshot();
            (r.crashes, r.recoveries)
        })
        .collect();
    let recovery = sum_recovery(sinks.iter().map(|s| s.snapshot()));
    Ok(core.into_report(
        bus.stats(),
        bus.coverage(),
        recovery,
        shard_recoveries,
        stalled,
        started.elapsed(),
    ))
}

/// Folds per-shard recovery snapshots into one run-wide total, mirroring
/// it into the `store.recovery.*` counters.
fn sum_recovery(parts: impl Iterator<Item = RecoveryStats>) -> RecoveryStats {
    let mut total = RecoveryStats::default();
    for r in parts {
        total.crashes += r.crashes;
        total.recoveries += r.recoveries;
        total.wal_records_lost += r.wal_records_lost;
        total.wal_records_replayed += r.wal_records_replayed;
        total.state_queries += r.state_queries;
        total.catchup_aborted += r.catchup_aborted;
    }
    blunt_obs::static_counter!("store.recovery.crashes").add(total.crashes);
    blunt_obs::static_counter!("store.recovery.recoveries").add(total.recoveries);
    total
}

/// How long the driver waits for server `Goodbye` frames after `Shutdown`.
const GOODBYE_WAIT: Duration = Duration::from_secs(10);

/// Runs the store's client side against already-listening `chaos serve`
/// processes under default [`RunOptions`]: `addrs` lists every replica,
/// shard-major (`addrs[s·R..(s+1)·R]` is shard `s`'s replica set, matching
/// pid order).
///
/// # Errors
///
/// Returns [`FaultConfigError`] if the fault probabilities are malformed.
///
/// # Panics
///
/// Panics if `addrs` doesn't match the topology, on connection failure, or
/// if a worker thread dies.
pub fn run_store_net(cfg: &StoreConfig, addrs: &[Addr]) -> Result<StoreReport, FaultConfigError> {
    run_store_net_with(cfg, addrs, &RunOptions::default())
}

/// [`run_store_net`] under explicit run options.
///
/// # Errors
///
/// Returns [`FaultConfigError`] if the fault probabilities are malformed.
///
/// # Panics
///
/// Panics if `addrs` doesn't match the topology, `opts.k == 0`, on
/// connection failure, or if a worker thread dies.
pub fn run_store_net_with(
    cfg: &StoreConfig,
    addrs: &[Addr],
    opts: &RunOptions,
) -> Result<StoreReport, FaultConfigError> {
    cfg.validate();
    assert!(opts.k >= 1, "ABD^k requires k ≥ 1");
    assert_eq!(
        addrs.len(),
        cfg.servers_total() as usize,
        "one address per shard replica, shard-major"
    );
    let started = Instant::now();
    let recorder = Arc::new(FlightRecorder::new(4096));
    let (net, client_rxs) = NetClient::connect(
        &NetClientCfg {
            seed: cfg.seed,
            faults: cfg.faults,
            servers: addrs.to_vec(),
            clients: cfg.clients,
            // The driver owns every client→server link, so crash-window
            // exits are signaled from here as exempt frames ahead of the
            // triggering frame — exactly as the in-process bus enqueues
            // them.
            signal_crashes: cfg.recovery.is_amnesia(),
        },
        Arc::clone(&recorder),
    )?;

    let telemetry = Arc::new(Telemetry::new(cfg.clients, cfg.shards));
    let watch_net = Arc::clone(&net);
    let watcher = Watcher::spawn(WatchCtx {
        opts: opts.clone(),
        seed: cfg.seed,
        lanes: cfg.lanes(),
        started,
        telemetry: Arc::clone(&telemetry),
        recorder: Arc::clone(&recorder),
        // Recoveries happen in the serve processes; live counts come over
        // the telemetry channel.
        recoveries: Box::new(move || watch_net.remote_recoveries()),
    });
    let core = drive_clients(cfg, opts.k, net.as_ref(), client_rxs, &recorder, &telemetry);

    let stats = net.stats();
    let coverage = net.coverage();
    // Recoveries happen in the serve processes; their `Goodbye` frames
    // carry the counters home. Pids are shard-major, so goodbye index /
    // replicas-per-shard is the shard.
    let goodbyes = net.shutdown(GOODBYE_WAIT);
    let stalled = watcher.finish();
    let mut shard_recoveries = vec![(0u64, 0u64); cfg.shards as usize];
    let mut recovery = RecoveryStats::default();
    for (pid, g) in goodbyes.iter().enumerate() {
        if let Some(g) = g {
            let shard = pid / cfg.servers_per_shard as usize;
            shard_recoveries[shard].0 += g.crashes;
            shard_recoveries[shard].1 += g.recoveries;
            recovery.crashes += g.crashes;
            recovery.recoveries += g.recoveries;
            recovery.wal_records_lost += g.wal_lost;
            recovery.wal_records_replayed += g.wal_replayed;
        }
    }
    blunt_obs::static_counter!("store.recovery.crashes").add(recovery.crashes);
    blunt_obs::static_counter!("store.recovery.recoveries").add(recovery.recoveries);

    // Merge every server's goodbye-piggybacked dump into the driver's own,
    // clock-aligned by the Hello/HelloAck offset estimates and labeled
    // `s<pid>` — one cross-process space-time view of the whole run.
    let remote_servers = net.remote_snapshot();
    let mut merged = recorder.dump();
    for (sid, r) in remote_servers.iter().enumerate() {
        if let Some(d) = &r.dump {
            merged.merge_remote(&format!("s{sid}"), r.offset_us, d);
        }
    }
    let mut report = core.into_report(
        stats,
        coverage,
        recovery,
        shard_recoveries,
        stalled,
        started.elapsed(),
    );
    report.remote_servers = remote_servers;
    report.merged_flight = Some(merged);
    Ok(report)
}

/// Everything the client side of a run produces, transport-agnostic.
struct CoreOut {
    ops: u64,
    monitor: MonitorReport,
    monitor_actions: u64,
    monitor_observe_ns: u64,
    monitor_lag_ops_hwm: u64,
    violation_dump: Option<FlightDump>,
    retransmissions: u64,
    degraded_ops: u64,
    latency: Histogram,
}

impl CoreOut {
    fn into_report(
        self,
        stats: TransportStats,
        coverage: Coverage,
        recovery: RecoveryStats,
        shard_recoveries: Vec<(u64, u64)>,
        stalled: bool,
        elapsed: Duration,
    ) -> StoreReport {
        StoreReport {
            ops: self.ops,
            stats,
            coverage,
            monitor: self.monitor,
            monitor_actions: self.monitor_actions,
            monitor_observe_ns: self.monitor_observe_ns,
            monitor_lag_ops_hwm: self.monitor_lag_ops_hwm,
            violation_dump: self.violation_dump,
            stalled,
            retransmissions: self.retransmissions,
            degraded_ops: self.degraded_ops,
            recovery,
            shard_recoveries,
            latency_us: self.latency.snapshot(),
            elapsed,
            remote_servers: Vec::new(),
            merged_flight: None,
        }
    }
}

/// What every client thread of a run shares.
struct Clients<'a> {
    cfg: &'a StoreConfig,
    k: u32,
    ring_map: HashRing,
    transport: &'a dyn Transport,
    barrier: Barrier,
    mon_txs: Vec<Sender<Action>>,
    telemetry: &'a Telemetry,
    recorder: &'a FlightRecorder,
    retransmissions: AtomicU64,
    degraded_ops: AtomicU64,
    latency: Histogram,
}

/// Spawns per-shard monitors and the client threads, joins them, and merges
/// the shard verdicts. Shared by both tiers.
fn drive_clients(
    cfg: &StoreConfig,
    k: u32,
    transport: &dyn Transport,
    client_rxs: Vec<Receiver<Envelope>>,
    recorder: &Arc<FlightRecorder>,
    telemetry: &Arc<Telemetry>,
) -> CoreOut {
    assert_eq!(client_rxs.len(), cfg.clients as usize);
    let nodes = (cfg.servers_total() + cfg.clients) as usize;
    let dump_slot: Arc<Mutex<Option<FlightDump>>> = Arc::new(Mutex::new(None));

    let mut mon_txs = Vec::with_capacity(cfg.shards as usize);
    let mut monitors = Vec::with_capacity(cfg.shards as usize);
    for shard in 0..cfg.shards {
        let (tx, rx) = mpsc::channel::<Action>();
        mon_txs.push(tx);
        monitors.push(spawn_shard_monitor(
            shard,
            Arc::clone(recorder),
            Arc::clone(telemetry),
            nodes,
            rx,
            Arc::clone(&dump_slot),
        ));
    }

    let shared = Clients {
        cfg,
        k,
        ring_map: HashRing::new(cfg.seed, cfg.shards),
        transport,
        barrier: Barrier::new(cfg.clients as usize),
        mon_txs,
        telemetry,
        recorder,
        retransmissions: AtomicU64::new(0),
        degraded_ops: AtomicU64::new(0),
        latency: Histogram::unregistered(),
    };
    thread::scope(|scope| {
        for (c, rx) in client_rxs.into_iter().enumerate() {
            let c = u32::try_from(c).expect("client count fits u32");
            let shared = &shared;
            scope.spawn(move || store_client_loop(c, shared, rx));
        }
    });
    let Clients {
        mon_txs,
        retransmissions,
        degraded_ops,
        latency,
        ..
    } = shared;
    drop(mon_txs);
    let mut monitor = MonitorReport::default();
    let mut observe_ns: u64 = 0;
    let mut lag_hwm: u64 = 0;
    for h in monitors {
        let out = h.join().expect("shard monitor thread");
        monitor.segments_ok += out.report.segments_ok;
        monitor.violations.extend(out.report.violations);
        monitor.overflowed |= out.report.overflowed;
        observe_ns = observe_ns.saturating_add(out.observe_ns);
        lag_hwm = lag_hwm.max(out.lag_hwm);
    }

    let ops = u64::from(cfg.clients) * cfg.ops_per_client;
    blunt_obs::static_counter!("store.ops.completed").add(ops);
    let violation_dump = dump_slot.lock().expect("dump slot lock").take();
    CoreOut {
        ops,
        monitor,
        monitor_actions: telemetry.actions_seen(),
        monitor_observe_ns: observe_ns,
        monitor_lag_ops_hwm: lag_hwm,
        violation_dump,
        retransmissions: retransmissions.into_inner(),
        degraded_ops: degraded_ops.into_inner(),
        latency,
    }
}

/// One shard monitor's verdict and cost.
struct ShardMonitorOut {
    report: MonitorReport,
    /// Wall time inside `observe`.
    observe_ns: u64,
    /// Largest backlog behind this shard's clients, in actions.
    lag_hwm: u64,
}

/// One shard's monitor thread: consumes that shard's call/return stream
/// through the incremental checker; the first violation *anywhere* captures
/// one flight dump into the shared slot. Sound per shard because every op
/// on a key routes to exactly one shard (see the crate docs).
fn spawn_shard_monitor(
    shard: u32,
    recorder: Arc<FlightRecorder>,
    telemetry: Arc<Telemetry>,
    lanes: usize,
    rx: Receiver<Action>,
    dump_slot: Arc<Mutex<Option<FlightDump>>>,
) -> thread::JoinHandle<ShardMonitorOut> {
    thread::spawn(move || {
        let ring = recorder.register_current(&format!("monitor-s{shard}"));
        let mon_pid = u32::try_from(lanes).expect("node count fits u32") + shard;
        let mut m = OnlineMonitor::new(Val::Nil, lanes);
        let mut observe_ns: u64 = 0;
        let mut lag_hwm: u64 = 0;
        let mut cuts: u64 = 0;
        while let Ok(a) = rx.recv() {
            let t0 = Instant::now();
            let ok = m.observe(a);
            observe_ns = observe_ns
                .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            lag_hwm = lag_hwm.max(telemetry.on_observed(shard));
            let checked = m.segments_checked();
            if checked > cuts {
                cuts = checked;
                ring.record(FlightKind::MonitorCut, mon_pid, checked, 0);
            }
            if !ok {
                let mut slot = dump_slot.lock().expect("dump slot lock");
                if slot.is_none() {
                    // A lagging monitor may flag a window whose op events
                    // the clients' bounded rings have already evicted —
                    // replay the window into this ring so the dump always
                    // carries its own evidence.
                    if let Some(v) = m.violations().last() {
                        replay_window(&ring, v.window.actions());
                    }
                }
                ring.record(
                    FlightKind::MonitorViolation,
                    mon_pid,
                    m.violations_found().saturating_sub(1),
                    0,
                );
                if slot.is_none() {
                    // Capture now, while the offending ops are still in
                    // the rings.
                    *slot = Some(recorder.dump());
                }
            }
        }
        ShardMonitorOut {
            report: m.finish(),
            observe_ns,
            lag_hwm,
        }
    })
}

/// Re-records a violation window's actions into the monitor's ring,
/// attributed to their original client pids. By the time a lagging monitor
/// closes and rejects a segment, the clients may have recorded thousands
/// of newer events — enough to evict the offending ops from their bounded
/// rings — so the dump taken at detection replays the window itself
/// (≤ 64 invocations) immediately before the `monitor_violation` marker.
fn replay_window(ring: &FlightRing, actions: &[Action]) {
    let mut invs: HashMap<InvId, (u32, bool)> = HashMap::new();
    for action in actions {
        match action {
            Action::Call {
                inv,
                pid,
                method,
                arg,
                ..
            } => {
                let is_read = *method == MethodId::READ;
                invs.insert(*inv, (pid.0, is_read));
                ring.record(
                    if is_read {
                        FlightKind::OpStartRead
                    } else {
                        FlightKind::OpStartWrite
                    },
                    pid.0,
                    inv.0,
                    encode_int(arg),
                );
            }
            Action::Return { inv, val } => {
                let (pid, is_read) = invs.get(inv).copied().unwrap_or((0, true));
                ring.record(
                    if is_read {
                        FlightKind::OpCompleteRead
                    } else {
                        FlightKind::OpCompleteWrite
                    },
                    pid,
                    inv.0,
                    encode_int(val),
                );
            }
        }
    }
}

/// A register value as a flight-event word (`Nil` is encoded as absent).
fn encode_int(v: &Val) -> u64 {
    encode_val(match v {
        Val::Int(i) => Some(*i),
        _ => None,
    })
}

/// One operation drawn at burst setup, before any message moves.
struct OpSpec {
    idx: u64,
    key: ObjId,
    /// The shard owning `key`, looked up once when the op is drawn.
    shard: u32,
    is_read: bool,
    /// The object random step's pick among the `k` preamble results
    /// (always 0, and never drawn, at `k = 1`).
    choice: usize,
    /// Already counted toward `store.degraded_ops` (each deferred op
    /// counts once, however many fill passes skip it).
    deferred: bool,
}

/// Client `c`'s seeded stream: every random draw the client makes.
fn op_stream(seed: u64, c: u32) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x5704_E000_0000_0000 ^ u64::from(c).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Draws op `idx`'s spec: key, then read/write, then (for `k > 1`) the
/// object random choice — all from `rng`, in that order.
fn draw_op(
    rng: &mut SplitMix64,
    cfg: &StoreConfig,
    k: u32,
    ring_map: &HashRing,
    idx: u64,
) -> OpSpec {
    let key = ObjId(u32::try_from(rng.draw(cfg.keys as usize)).expect("key fits u32"));
    let is_read = rng.draw(1000) < usize::from(cfg.read_per_mille);
    let choice = if k > 1 { rng.draw(k as usize) } else { 0 };
    OpSpec {
        idx,
        key,
        shard: ring_map.shard_for(key),
        is_read,
        choice,
        deferred: false,
    }
}
/// Max ops a client keeps in flight on a *degraded* (recovering) shard.
/// One probe op keeps retransmission pressure on the shard — enough to
/// notice the moment it comes back — while the rest of the pipeline depth
/// serves healthy shards instead of head-of-line blocking behind the
/// recovery window.
const DEGRADED_INFLIGHT_CAP: u32 = 1;

/// Consecutive whole-backoff-window silences from a shard before the
/// client treats it as degraded. One silence is routine under light
/// faults (a dropped reply); two in a row — with a retransmission already
/// outstanding — means the shard is really not answering (crash window or
/// recovery in progress).
const DEGRADED_AFTER_STRIKES: u32 = 2;

/// Per-shard client-side liveness state: a deterministic exponential
/// backoff clock (doubling per silent window from `retransmit_after` up to
/// `retransmit_cap`, reset by any message from the shard's replicas) and
/// the degraded flag that caps pipeline fill. Purely timing-local: none of
/// this feeds the fault schedule, and deferral never changes which
/// envelopes an op sends — only when it starts — so per-link message
/// counts (and with them stats, coverage, and crash/recovery counts) stay
/// seed-deterministic.
struct ShardHealth {
    wait: Duration,
    /// When this shard's stalled ops are next retransmitted; `None` while
    /// the client has nothing in flight there.
    due: Option<Instant>,
    in_flight: u32,
    strikes: u32,
    degraded: bool,
}

impl ShardHealth {
    fn new(initial: Duration) -> ShardHealth {
        ShardHealth {
            wait: initial,
            due: None,
            in_flight: 0,
            strikes: 0,
            degraded: false,
        }
    }

    /// A message from one of this shard's replicas: evidence of progress.
    fn on_message(&mut self, initial: Duration, now: Instant) {
        self.wait = initial;
        self.strikes = 0;
        self.degraded = false;
        self.due = (self.in_flight > 0).then(|| now + self.wait);
    }
}

/// The per-op protocol state: either the real quorum machine or the
/// intentionally-broken single-server read.
enum Machine {
    Abd(ActiveOp),
    Broken { target: Pid },
}

/// One in-flight operation, keyed in the active map by its current `sn`.
struct InFlight {
    spec: OpSpec,
    inv: InvId,
    span: SpanCtx,
    machine: Machine,
    t0: Instant,
}

/// The pipelined client: draws a burst of op specs in program order, keeps
/// up to `pipeline_depth` of them in flight (never two on the same key),
/// and multiplexes every reply/ack back to its op by `sn`. All protocol
/// sends go through a per-client [`BatchingTransport`].
///
/// Liveness is **per shard** ([`ShardHealth`]): each shard has its own
/// backoff clock, timeouts retransmit only that shard's stalled ops, and a
/// shard that stays silent for [`DEGRADED_AFTER_STRIKES`] windows is
/// *degraded* — pipeline fill then keeps at most
/// [`DEGRADED_INFLIGHT_CAP`] ops in flight there (counted as
/// `store.degraded_ops` deferrals) so one recovering shard never
/// head-of-line blocks the others.
fn store_client_loop(c: u32, shared: &Clients<'_>, rx: Receiver<Envelope>) {
    let Clients {
        cfg,
        k,
        ref ring_map,
        transport,
        ref barrier,
        ref mon_txs,
        telemetry,
        recorder,
        ..
    } = *shared;
    let servers_total = cfg.servers_total();
    let me = Pid(servers_total + c);
    let ring = recorder.register_current(&format!("client-{}", me.0));
    let mut rng = op_stream(cfg.seed, c);
    let bt = BatchingTransport::new(transport, cfg.batch_max);
    let quorum = cfg.servers_per_shard / 2 + 1;
    let spr = cfg.servers_per_shard;
    let shard_servers: Vec<Vec<Pid>> = (0..cfg.shards)
        .map(|s| (s * spr..(s + 1) * spr).map(Pid).collect())
        .collect();
    let local = Histogram::unregistered();
    let initial_wait = cfg.retransmit_after.min(cfg.retransmit_cap);
    let mut retrans: u64 = 0;
    let mut deferred: u64 = 0;
    let mut sn_counter: u32 = 0;
    let mut done: u64 = 0;

    while done < cfg.ops_per_client {
        if done > 0 {
            barrier.wait();
        }
        let burst_n = cfg.burst.min(cfg.ops_per_client - done);
        // Nothing is in flight across a burst boundary, so the wholesale
        // reply-tag retirement socket transports perform here is safe —
        // and the batching layer flushes first (see `BatchingTransport`).
        bt.on_op_start(me);
        // All random draws happen here, in program order (see `draw_op`),
        // so the rng stream position is independent of reply scheduling.
        let mut pending: VecDeque<OpSpec> = (done..done + burst_n)
            .map(|idx| draw_op(&mut rng, cfg, k, ring_map, idx))
            .collect();
        // BTreeMap keeps timeout retransmission order deterministic.
        let mut active: BTreeMap<u32, InFlight> = BTreeMap::new();
        let mut active_keys: HashSet<u32> = HashSet::new();
        let mut health: Vec<ShardHealth> = (0..cfg.shards)
            .map(|_| ShardHealth::new(initial_wait))
            .collect();

        loop {
            // Fill the pipeline: first startable spec front-to-back,
            // skipping keys already in flight and shards that are degraded
            // with their in-flight cap reached. A skipped spec's key stays
            // pending, and any later same-key spec shares both its
            // key-active and shard-degraded status — per-key program order
            // holds.
            while active.len() < cfg.pipeline_depth as usize {
                let mut pos = None;
                for (i, s) in pending.iter_mut().enumerate() {
                    if active_keys.contains(&s.key.0) {
                        continue;
                    }
                    let h = &health[s.shard as usize];
                    if h.degraded && h.in_flight >= DEGRADED_INFLIGHT_CAP {
                        if !s.deferred {
                            s.deferred = true;
                            deferred += 1;
                            blunt_obs::static_counter!("store.degraded_ops").inc();
                        }
                        continue;
                    }
                    pos = Some(i);
                    break;
                }
                let Some(pos) = pos else {
                    break;
                };
                let spec = pending.remove(pos).expect("position from this deque");
                sn_counter += 1;
                let sn = sn_counter;
                let inv = InvId(u64::from(me.0) * 10_000_000 + spec.idx);
                let shard = spec.shard;
                let (method, arg) = if spec.is_read {
                    (MethodId::READ, Val::Nil)
                } else {
                    // Unique write values keep the checker's search shallow
                    // and make stale reads unambiguous.
                    let v = i64::from(c) * 1_000_000
                        + i64::try_from(spec.idx).expect("op index fits i64");
                    (MethodId::WRITE, Val::Int(v))
                };
                telemetry.on_call(c, shard);
                let _ = mon_txs[shard as usize].send(Action::Call {
                    inv,
                    pid: me,
                    obj: spec.key,
                    method,
                    arg: arg.clone(),
                });
                let span = SpanCtx::request(me.0, inv.0);
                ring.record_span_key(
                    if spec.is_read {
                        FlightKind::OpStartRead
                    } else {
                        FlightKind::OpStartWrite
                    },
                    me.0,
                    inv.0,
                    encode_int(&arg),
                    span.flight_word(),
                    cfg.flight_key(spec.key),
                );
                let t0 = Instant::now();
                let dsts = &shard_servers[shard as usize];
                let machine = if cfg.broken_reads && spec.is_read {
                    // The broken read queries ONE replica (rotating) and
                    // returns its value with no write-back — the per-shard
                    // monitor must flag the resulting inversions.
                    let target = dsts[usize::try_from(spec.idx).expect("op index") % dsts.len()];
                    bt.send(
                        Envelope::abd(me, target, AbdMsg::Query { obj: spec.key, sn }, false)
                            .with_span(span),
                    );
                    Machine::Broken { target }
                } else {
                    let kind = if spec.is_read {
                        OpKind::Read
                    } else {
                        OpKind::Write(arg)
                    };
                    let op = ActiveOp::start(inv, spec.key, kind, k, sn);
                    bt.broadcast_span(me, dsts, &AbdMsg::Query { obj: spec.key, sn }, false, span);
                    Machine::Abd(op)
                };
                active_keys.insert(spec.key.0);
                {
                    let h = &mut health[shard as usize];
                    h.in_flight += 1;
                    if h.due.is_none() {
                        h.due = Some(t0 + h.wait);
                    }
                }
                active.insert(
                    sn,
                    InFlight {
                        spec,
                        inv,
                        span,
                        machine,
                        t0,
                    },
                );
            }
            // The replies being waited on can't arrive until the requests
            // actually leave. Flushed before the idle check too: a drained
            // batch can complete an op on a quorum while its phase message
            // to the slowest replica still sits in the buffer, and that
            // message must leave (it is one of the link's scheduled sends).
            bt.flush_pending();
            if active.is_empty() {
                debug_assert!(pending.is_empty(), "startable ops exist while idle");
                break;
            }

            // Sleep until the earliest shard retransmission deadline; each
            // shard's backoff runs on its own clock.
            let now = Instant::now();
            let timeout = health
                .iter()
                .filter_map(|h| h.due)
                .map(|d| d.saturating_duration_since(now))
                .min()
                .unwrap_or(initial_wait);
            // Drain, then flush: everything already in the mailbox is
            // handled before anything more is sent, so the follow-ups of
            // replies that arrived together (next phases, refilled ops)
            // leave together in the next flush. A stale or mismatched
            // envelope skips only to the next drained one; the
            // retransmission sweep below runs after every drained batch.
            let first = match rx.recv_timeout(timeout) {
                Ok(env) => Some(env),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("transport closed while store operations were in flight")
                }
            };
            let queued = std::iter::from_fn(|| rx.try_recv().ok());
            for env in first.into_iter().chain(queued) {
                let src_shard =
                    (env.src.0 < servers_total).then(|| env.src.0 / cfg.servers_per_shard);
                ring.record_span(
                    FlightKind::BusDeliver,
                    me.0,
                    u64::from(env.src.0),
                    env.msg.flight_label(),
                    env.span.flight_word(),
                );
                // Any frame from a shard's replica is progress: reset
                // that shard's backoff and clear its degraded flag.
                if let Some(s) = src_shard {
                    health[s as usize].on_message(initial_wait, Instant::now());
                }
                let Payload::Abd(msg) = env.msg else {
                    continue; // control traffic never targets clients
                };
                match msg {
                    AbdMsg::Reply {
                        obj,
                        sn: msg_sn,
                        val,
                        ts,
                    } => {
                        let Some(mut fl) = active.remove(&msg_sn) else {
                            continue; // stale round, already finished
                        };
                        if fl.spec.key != obj {
                            active.insert(msg_sn, fl);
                            continue;
                        }
                        match &mut fl.machine {
                            Machine::Broken { .. } => {
                                complete_op(c, &fl, val, &local, &ring, shared, &mut active_keys);
                                let h = &mut health[fl.spec.shard as usize];
                                h.in_flight -= 1;
                                if h.in_flight == 0 {
                                    h.due = None;
                                }
                            }
                            Machine::Abd(op) => {
                                match op.on_reply(
                                    env.src,
                                    msg_sn,
                                    &val,
                                    ts,
                                    quorum,
                                    me,
                                    &mut sn_counter,
                                ) {
                                    ReplyEffect::StartUpdate {
                                        sn: new_sn,
                                        val,
                                        ts,
                                        ..
                                    } => {
                                        bt.broadcast_span(
                                            me,
                                            &shard_servers[fl.spec.shard as usize],
                                            &AbdMsg::Update {
                                                obj,
                                                sn: new_sn,
                                                val,
                                                ts,
                                            },
                                            false,
                                            fl.span,
                                        );
                                        active.insert(new_sn, fl);
                                    }
                                    ReplyEffect::NextQuery { sn: new_sn, .. } => {
                                        bt.broadcast_span(
                                            me,
                                            &shard_servers[fl.spec.shard as usize],
                                            &AbdMsg::Query { obj, sn: new_sn },
                                            false,
                                            fl.span,
                                        );
                                        active.insert(new_sn, fl);
                                    }
                                    ReplyEffect::NeedChoice { .. } => {
                                        // The object random step: its
                                        // choice was drawn at burst setup.
                                        let (new_sn, val, ts) =
                                            op.choose(fl.spec.choice, me, &mut sn_counter);
                                        bt.broadcast_span(
                                            me,
                                            &shard_servers[fl.spec.shard as usize],
                                            &AbdMsg::Update {
                                                obj,
                                                sn: new_sn,
                                                val,
                                                ts,
                                            },
                                            false,
                                            fl.span,
                                        );
                                        active.insert(new_sn, fl);
                                    }
                                    ReplyEffect::Ignored | ReplyEffect::Counted => {
                                        active.insert(msg_sn, fl);
                                    }
                                }
                            }
                        }
                    }
                    AbdMsg::Ack { obj, sn: msg_sn } => {
                        let Some(mut fl) = active.remove(&msg_sn) else {
                            continue;
                        };
                        if fl.spec.key != obj {
                            active.insert(msg_sn, fl);
                            continue;
                        }
                        let Machine::Abd(op) = &mut fl.machine else {
                            active.insert(msg_sn, fl);
                            continue;
                        };
                        match op.on_ack(env.src, msg_sn, quorum) {
                            AckEffect::Complete { ret } => {
                                complete_op(c, &fl, ret, &local, &ring, shared, &mut active_keys);
                                let h = &mut health[fl.spec.shard as usize];
                                h.in_flight -= 1;
                                if h.in_flight == 0 {
                                    h.due = None;
                                }
                            }
                            AckEffect::Ignored | AckEffect::Counted => {
                                active.insert(msg_sn, fl);
                            }
                        }
                    }
                    _ => {}
                }
            }
            // Retransmission sweep: every shard whose deadline passed gets
            // its stalled ops rebroadcast — exempt from fault fates, so
            // recovery traffic never consumes schedule indices — its
            // backoff doubled, and a strike toward degraded status. Other
            // shards' clocks are untouched: one silent shard no longer
            // triggers retransmission storms across the healthy ones.
            let now = Instant::now();
            for (shard_idx, h) in health.iter_mut().enumerate() {
                let Some(due) = h.due else {
                    continue;
                };
                if due > now || h.in_flight == 0 {
                    continue;
                }
                let shard_u32 = u32::try_from(shard_idx).expect("shard index fits u32");
                for (sn, fl) in &active {
                    if fl.spec.shard != shard_u32 {
                        continue;
                    }
                    match &fl.machine {
                        Machine::Abd(op) => {
                            if let Some(msg) = op.retransmission() {
                                retrans += 1;
                                blunt_obs::static_counter!("store.client.retransmissions").inc();
                                ring.record_span(
                                    FlightKind::OpRetransmit,
                                    me.0,
                                    u64::from(*sn),
                                    0,
                                    fl.span.flight_word(),
                                );
                                bt.broadcast_span(
                                    me,
                                    &shard_servers[fl.spec.shard as usize],
                                    &msg,
                                    true,
                                    fl.span,
                                );
                            }
                        }
                        Machine::Broken { target } => {
                            retrans += 1;
                            ring.record_span(
                                FlightKind::OpRetransmit,
                                me.0,
                                u64::from(*sn),
                                0,
                                fl.span.flight_word(),
                            );
                            bt.send(
                                Envelope::abd(
                                    me,
                                    *target,
                                    AbdMsg::Query {
                                        obj: fl.spec.key,
                                        sn: *sn,
                                    },
                                    true,
                                )
                                .with_span(fl.span),
                            );
                        }
                    }
                }
                h.strikes += 1;
                if h.strikes >= DEGRADED_AFTER_STRIKES {
                    h.degraded = true;
                }
                let next = h.wait.saturating_mul(2).min(cfg.retransmit_cap);
                if next == cfg.retransmit_cap && h.wait < cfg.retransmit_cap {
                    blunt_obs::static_counter!("store.client.backoff_max_reached").inc();
                }
                h.wait = next;
                h.due = Some(now + h.wait);
            }
        }
        done += burst_n;
    }
    shared.latency.merge(&local);
    shared.retransmissions.fetch_add(retrans, Ordering::Relaxed);
    shared.degraded_ops.fetch_add(deferred, Ordering::Relaxed);
}

/// Seals one finished operation: latency, flight event, monitor `Return`,
/// key release.
fn complete_op(
    c: u32,
    fl: &InFlight,
    ret: Val,
    local: &Histogram,
    ring: &FlightRing,
    shared: &Clients<'_>,
    active_keys: &mut HashSet<u32>,
) {
    let lat_us = u64::try_from(fl.t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    local.record(lat_us);
    let me = shared.cfg.servers_total() + c;
    ring.record_span_key(
        if fl.spec.is_read {
            FlightKind::OpCompleteRead
        } else {
            FlightKind::OpCompleteWrite
        },
        me,
        fl.inv.0,
        encode_int(&ret),
        fl.span.flight_word(),
        shared.cfg.flight_key(fl.spec.key),
    );
    shared.telemetry.on_return(c, fl.spec.shard, lat_us);
    let _ = shared.mon_txs[fl.spec.shard as usize].send(Action::Return {
        inv: fl.inv,
        val: ret,
    });
    active_keys.remove(&fl.spec.key.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `StoreConfig::smoke(seed)` under amnesia recovery with the chaos
    /// CLI's sharded crash cadence, at pipeline depth `depth`, on 1, 2 and
    /// `shards` replica hosts.
    fn layouts(depth: u32) -> Vec<StoreReport> {
        let mut cfg = StoreConfig::smoke(48879);
        cfg.recovery = RecoveryMode::amnesia();
        cfg.faults.crash_len = 4;
        cfg.faults.crash_period = 20 * u64::from(cfg.servers_total());
        cfg.pipeline_depth = depth;
        let runs: Vec<StoreReport> = [1, 2, cfg.shards as usize]
            .iter()
            .map(|&hosts| {
                run_store_on(&cfg, &RunOptions::default(), hosts).expect("valid fault config")
            })
            .collect();
        for r in &runs {
            assert!(r.monitor.clean(), "violations: {:?}", r.monitor.violations);
            assert_eq!(r.ops, 2_000);
            assert!(r.recovery.crashes >= 1, "no crash fired: {:?}", r.recovery);
            for &(crashes, recoveries) in &r.shard_recoveries {
                assert_eq!(crashes, recoveries);
            }
            assert_eq!(r.shard_recoveries, runs[0].shard_recoveries);
        }
        runs
    }

    /// How replicas are spread over host threads is invisible in the
    /// report's deterministic parts: one host for every shard, two, or
    /// one per shard give byte-identical schedule, coverage and
    /// recoveries.
    ///
    /// Amnesia-mode acks are exempt, so the link schedule counts only the
    /// replies to queries; with several ops in flight, whether a link's
    /// `i`-th fate falls on a query or an update is timing, and so is the
    /// reply count — on any layout, run to run. One op in flight per
    /// client fixes each link's query/update order, which makes the whole
    /// schedule a function of the seed; the smoke depth still pins the
    /// per-shard recoveries.
    #[test]
    fn host_count_does_not_change_the_deterministic_report() {
        let runs = layouts(1);
        for r in &runs[1..] {
            assert_eq!(format!("{:?}", r.stats), format!("{:?}", runs[0].stats));
            assert_eq!(
                format!("{:?}", r.coverage),
                format!("{:?}", runs[0].coverage)
            );
        }
        layouts(StoreConfig::smoke(0).pipeline_depth);
    }

    /// A replay of splitmix64 written out from its definition, with the
    /// same rejection-sampled uniform draw.
    struct Replay(u64);

    impl Replay {
        fn draw(&mut self, n: u64) -> u64 {
            let zone = u64::MAX - (u64::MAX % n);
            loop {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let x = z ^ (z >> 31);
                if x < zone {
                    return x % n;
                }
            }
        }
    }

    /// Every random draw of an op happens when its burst is set up, in
    /// program order: key, read/write, then the object random choice —
    /// which only exists for `k > 1`, so `k = 1` streams carry two draws
    /// per op.
    #[test]
    fn op_draws_are_key_then_read_write_then_choice_in_program_order() {
        let cfg = StoreConfig::smoke(0xD2A3);
        let ring_map = HashRing::new(cfg.seed, cfg.shards);
        for k in [1u32, 2, 3] {
            let c = 2;
            let mut rng = op_stream(cfg.seed, c);
            let mut replay = Replay(
                cfg.seed ^ 0x5704_E000_0000_0000 ^ u64::from(c).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut choices_seen = HashSet::new();
            for idx in 0..500 {
                let spec = draw_op(&mut rng, &cfg, k, &ring_map, idx);
                let key = replay.draw(u64::from(cfg.keys));
                let is_read = replay.draw(1000) < u64::from(cfg.read_per_mille);
                let choice = if k > 1 { replay.draw(u64::from(k)) } else { 0 };
                assert_eq!(spec.idx, idx);
                assert_eq!(u64::from(spec.key.0), key, "k={k} op {idx}: key");
                assert_eq!(spec.is_read, is_read, "k={k} op {idx}: read/write");
                assert_eq!(spec.choice as u64, choice, "k={k} op {idx}: choice");
                assert_eq!(spec.shard, ring_map.shard_for(spec.key));
                choices_seen.insert(spec.choice);
            }
            assert_eq!(choices_seen.len(), k as usize, "every choice is drawn");
        }
    }
}
