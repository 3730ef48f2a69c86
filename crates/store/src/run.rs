//! The store driver: sharded servers, per-shard monitors, pipelined
//! batched clients — over the in-process bus or the socket tier.
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
//! logic and differ only in transport.
//!
//! Determinism contract: the per-client rng stream is a pure function of
//! `(seed, client)` and is consumed in *program order* (key draw, then
//! read/write draw, per op at burst setup) — never in reply-arrival order —
//! so the draw sequence is schedule-independent. Pipelining changes only
//! *when* messages leave relative to each other, and batching changes only
//! how they are framed; fault fates are drawn per logical envelope in send
//! order either way (see [`crate::batch`]).

use std::collections::{BTreeMap, HashSet, VecDeque};
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
    Addr, Coverage, Envelope, FaultConfig, FaultConfigError, NetClient, NetClientCfg, Payload,
    SpanCtx, Transport, TransportStats,
};
use blunt_obs::flight::encode_val;
use blunt_obs::{FlightDump, FlightKind, FlightRecorder, FlightRing, Histogram, HistogramSnapshot};
use blunt_runtime::{
    host_loop, Bus, HostedReplica, MonitorReport, OnlineMonitor, RecoveryMode, RecoverySink,
    RecoveryStats,
};
use blunt_sim::rng::{RandomSource, SplitMix64};

use crate::batch::BatchingTransport;
use crate::ring::HashRing;

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

    /// Total server processes: `shards × servers_per_shard`.
    #[must_use]
    pub fn servers_total(&self) -> u32 {
        self.shards * self.servers_per_shard
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
    /// Call/return actions consumed across all shard monitors.
    pub monitor_actions: u64,
    /// Flight dump captured at the first violation anywhere, if any.
    pub violation_dump: Option<FlightDump>,
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
    /// exactly one recovery. Empty when the tier cannot attribute them
    /// (never — both tiers fill it; see `run_store` / `run_store_net`).
    pub shard_recoveries: Vec<(u64, u64)>,
    /// End-to-end per-op latency distribution (µs).
    pub latency_us: HistogramSnapshot,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
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
/// replica host per core (at most one per shard).
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
    let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    run_store_on(cfg, cores)
}

/// [`run_store`] on `hosts` replica hosts (clamped to `1..=shards`): shard
/// `s` lives on host `s % hosts`. The host count changes only which thread
/// serves a replica, never what any replica or link does, so the report's
/// deterministic parts do not depend on it.
pub(crate) fn run_store_on(
    cfg: &StoreConfig,
    hosts: usize,
) -> Result<StoreReport, FaultConfigError> {
    cfg.validate();
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

    let transport: Arc<dyn Transport> = Arc::clone(&bus) as Arc<dyn Transport>;
    let core = drive_clients(cfg, transport, client_rxs, Arc::clone(&recorder));

    // Every amnesia signal is enqueued synchronously inside a client's
    // send, so by this point (clients joined inside `drive_clients`) all
    // crash events are in host mailboxes; hosts drain them before
    // honoring `stop`, keeping the recovery counters deterministic.
    stop.store(true, Ordering::Relaxed);
    for s in servers {
        s.join().expect("replica host thread");
    }
    bus.flush();
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

/// Runs the store's client side against already-listening `chaos serve`
/// processes: `addrs` lists every replica, shard-major (`addrs[s·R..(s+1)·R]`
/// is shard `s`'s replica set, matching pid order).
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
    cfg.validate();
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

    let transport: Arc<dyn Transport> = Arc::clone(&net) as Arc<dyn Transport>;
    let core = drive_clients(cfg, transport, client_rxs, Arc::clone(&recorder));

    let stats = net.stats();
    let coverage = net.coverage();
    // Recoveries happen in the serve processes; their `Goodbye` frames
    // carry the counters home. Pids are shard-major, so goodbye index /
    // replicas-per-shard is the shard.
    let goodbyes = net.shutdown(Duration::from_secs(10));
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
    Ok(core.into_report(
        stats,
        coverage,
        recovery,
        shard_recoveries,
        started.elapsed(),
    ))
}

/// Everything the client side of a run produces, transport-agnostic.
struct CoreOut {
    ops: u64,
    monitor: MonitorReport,
    monitor_actions: u64,
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
        elapsed: Duration,
    ) -> StoreReport {
        StoreReport {
            ops: self.ops,
            stats,
            coverage,
            monitor: self.monitor,
            monitor_actions: self.monitor_actions,
            violation_dump: self.violation_dump,
            retransmissions: self.retransmissions,
            degraded_ops: self.degraded_ops,
            recovery,
            shard_recoveries,
            latency_us: self.latency.snapshot(),
            elapsed,
        }
    }
}

/// Spawns per-shard monitors and the client threads, joins them, and merges
/// the shard verdicts. Shared by both tiers.
fn drive_clients(
    cfg: &StoreConfig,
    transport: Arc<dyn Transport>,
    client_rxs: Vec<Receiver<Envelope>>,
    recorder: Arc<FlightRecorder>,
) -> CoreOut {
    assert_eq!(client_rxs.len(), cfg.clients as usize);
    let ring_map = Arc::new(HashRing::new(cfg.seed, cfg.shards));
    let nodes = (cfg.servers_total() + cfg.clients) as usize;
    let actions = Arc::new(AtomicU64::new(0));
    let dump_slot: Arc<Mutex<Option<FlightDump>>> = Arc::new(Mutex::new(None));

    let mut mon_txs = Vec::with_capacity(cfg.shards as usize);
    let mut monitors = Vec::with_capacity(cfg.shards as usize);
    for shard in 0..cfg.shards {
        let (tx, rx) = mpsc::channel::<Action>();
        mon_txs.push(tx);
        monitors.push(spawn_shard_monitor(
            shard,
            Arc::clone(&recorder),
            nodes,
            rx,
            Arc::clone(&actions),
            Arc::clone(&dump_slot),
        ));
    }
    let mon_txs = Arc::new(mon_txs);

    let barrier = Arc::new(Barrier::new(cfg.clients as usize));
    let retransmissions = Arc::new(AtomicU64::new(0));
    let degraded_ops = Arc::new(AtomicU64::new(0));
    let latency = Histogram::unregistered();
    let mut clients = Vec::with_capacity(cfg.clients as usize);
    for (c, rx) in client_rxs.into_iter().enumerate() {
        let c = u32::try_from(c).expect("client count fits u32");
        let cfg = cfg.clone();
        let ring_map = Arc::clone(&ring_map);
        let transport = Arc::clone(&transport);
        let barrier = Arc::clone(&barrier);
        let mon_txs = Arc::clone(&mon_txs);
        let retransmissions = Arc::clone(&retransmissions);
        let degraded_ops = Arc::clone(&degraded_ops);
        let latency = latency.clone();
        let recorder = Arc::clone(&recorder);
        clients.push(thread::spawn(move || {
            store_client_loop(
                c,
                &cfg,
                &ring_map,
                transport.as_ref(),
                rx,
                &barrier,
                &mon_txs,
                &retransmissions,
                &degraded_ops,
                &latency,
                &recorder,
            );
        }));
    }
    drop(mon_txs);
    for h in clients {
        h.join().expect("store client thread");
    }
    let mut monitor = MonitorReport::default();
    for h in monitors {
        let shard_report = h.join().expect("shard monitor thread");
        monitor.segments_ok += shard_report.segments_ok;
        monitor.violations.extend(shard_report.violations);
        monitor.overflowed |= shard_report.overflowed;
    }

    let ops = u64::from(cfg.clients) * cfg.ops_per_client;
    blunt_obs::static_counter!("store.ops.completed").add(ops);
    let violation_dump = dump_slot.lock().expect("dump slot lock").take();
    CoreOut {
        ops,
        monitor,
        monitor_actions: actions.load(Ordering::Relaxed),
        violation_dump,
        retransmissions: retransmissions.load(Ordering::Relaxed),
        degraded_ops: degraded_ops.load(Ordering::Relaxed),
        latency,
    }
}

/// One shard's monitor thread: consumes that shard's call/return stream
/// through the incremental checker; the first violation *anywhere* captures
/// one flight dump into the shared slot. Sound per shard because every op
/// on a key routes to exactly one shard (see the crate docs).
fn spawn_shard_monitor(
    shard: u32,
    recorder: Arc<FlightRecorder>,
    lanes: usize,
    rx: Receiver<Action>,
    actions: Arc<AtomicU64>,
    dump_slot: Arc<Mutex<Option<FlightDump>>>,
) -> thread::JoinHandle<MonitorReport> {
    thread::spawn(move || {
        let ring = recorder.register_current(&format!("monitor-s{shard}"));
        let mon_pid = u32::try_from(lanes).expect("node count fits u32") + shard;
        let mut m = OnlineMonitor::new(Val::Nil, lanes);
        let mut cuts: u64 = 0;
        while let Ok(a) = rx.recv() {
            let ok = m.observe(a);
            actions.fetch_add(1, Ordering::Relaxed);
            let checked = m.segments_checked();
            if checked > cuts {
                cuts = checked;
                ring.record(FlightKind::MonitorCut, mon_pid, checked, 0);
            }
            if !ok {
                ring.record(
                    FlightKind::MonitorViolation,
                    mon_pid,
                    m.violations_found().saturating_sub(1),
                    0,
                );
                let mut slot = dump_slot.lock().expect("dump slot lock");
                if slot.is_none() {
                    // Capture now, while the offending ops are still in
                    // the clients' bounded rings.
                    *slot = Some(recorder.dump());
                }
            }
        }
        m.finish()
    })
}

/// One operation drawn at burst setup, before any message moves.
struct OpSpec {
    idx: u64,
    key: ObjId,
    /// The shard owning `key`, looked up once when the op is drawn.
    shard: u32,
    is_read: bool,
    /// Already counted toward `store.degraded_ops` (each deferred op
    /// counts once, however many fill passes skip it).
    deferred: bool,
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
#[allow(clippy::too_many_arguments)] // mirrors the thread context it runs in
fn store_client_loop(
    c: u32,
    cfg: &StoreConfig,
    ring_map: &HashRing,
    transport: &dyn Transport,
    rx: Receiver<Envelope>,
    barrier: &Barrier,
    mon_txs: &[Sender<Action>],
    retransmissions: &AtomicU64,
    degraded_ops: &AtomicU64,
    latency: &Histogram,
    recorder: &FlightRecorder,
) {
    let servers_total = cfg.servers_total();
    let me = Pid(servers_total + c);
    let ring = recorder.register_current(&format!("client-{}", me.0));
    let mut rng = SplitMix64::new(
        cfg.seed ^ 0x5704_E000_0000_0000 ^ u64::from(c).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
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
    let mut op_idx: u64 = 0;
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
        // All random draws happen here, in program order: two per op, so
        // the rng stream position is independent of reply scheduling.
        let mut pending: VecDeque<OpSpec> = (0..burst_n)
            .map(|_| {
                let idx = op_idx;
                op_idx += 1;
                let key = ObjId(u32::try_from(rng.draw(cfg.keys as usize)).expect("key fits u32"));
                let is_read = rng.draw(1000) < usize::from(cfg.read_per_mille);
                OpSpec {
                    idx,
                    key,
                    shard: ring_map.shard_for(key),
                    is_read,
                    deferred: false,
                }
            })
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
                    encode_val(match &arg {
                        Val::Int(v) => Some(*v),
                        _ => None,
                    }),
                    span.flight_word(),
                    u64::from(spec.key.0),
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
                    let op = ActiveOp::start(inv, spec.key, kind, 1, sn);
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
            if active.is_empty() {
                debug_assert!(pending.is_empty(), "startable ops exist while idle");
                break;
            }
            // The replies being waited on can't arrive until the requests
            // actually leave.
            bt.flush_pending();

            // Sleep until the earliest shard retransmission deadline; each
            // shard's backoff runs on its own clock.
            let now = Instant::now();
            let timeout = health
                .iter()
                .filter_map(|h| h.due)
                .map(|d| d.saturating_duration_since(now))
                .min()
                .unwrap_or(initial_wait);
            match rx.recv_timeout(timeout) {
                Ok(env) => {
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
                                    complete_op(
                                        me,
                                        &fl,
                                        val,
                                        &local,
                                        &ring,
                                        mon_txs,
                                        &mut active_keys,
                                    );
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
                                            // Drawing here would make the rng
                                            // stream depend on arrival order;
                                            // the store pins k = 1 so this
                                            // state is unreachable.
                                            unreachable!("ABD with k = 1 has no object random step")
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
                                    complete_op(
                                        me,
                                        &fl,
                                        ret,
                                        &local,
                                        &ring,
                                        mon_txs,
                                        &mut active_keys,
                                    );
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
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("transport closed while store operations were in flight")
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
    latency.merge(&local);
    retransmissions.fetch_add(retrans, Ordering::Relaxed);
    degraded_ops.fetch_add(deferred, Ordering::Relaxed);
}

/// Seals one finished operation: latency, flight event, monitor `Return`,
/// key release.
fn complete_op(
    me: Pid,
    fl: &InFlight,
    ret: Val,
    local: &Histogram,
    ring: &FlightRing,
    mon_txs: &[Sender<Action>],
    active_keys: &mut HashSet<u32>,
) {
    let lat_us = u64::try_from(fl.t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    local.record(lat_us);
    ring.record_span_key(
        if fl.spec.is_read {
            FlightKind::OpCompleteRead
        } else {
            FlightKind::OpCompleteWrite
        },
        me.0,
        fl.inv.0,
        encode_val(match &ret {
            Val::Int(v) => Some(*v),
            _ => None,
        }),
        fl.span.flight_word(),
        u64::from(fl.spec.key.0),
    );
    let _ = mon_txs[fl.spec.shard as usize].send(Action::Return {
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
            .map(|&hosts| run_store_on(&cfg, hosts).expect("valid fault config"))
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
}
