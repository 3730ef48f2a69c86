//! The workload driver: real OS threads running the ABD client/server step
//! machines over a fault-injecting [`Transport`] (the in-process [`Bus`] or
//! the socket tier — see `crate::netrun`), observed by the
//! [`OnlineMonitor`].
//!
//! Topology: pids `0..servers` are servers, one replica host thread each
//! ([`crate::host`]); `servers..servers+clients` are client threads.
//! Clients issue `ops_per_client` sequential register operations each,
//! reporting `Call` before the first broadcast and `Return` after the
//! quorum completes; per-op latency goes into a thread-local [`Histogram`]
//! that is [`Histogram::merge`]d into the shared one exactly once at
//! thread exit (no hot-path contention).
//!
//! Liveness under faults comes from retransmission: when a client waits
//! longer than its current backoff for a response, it rebroadcasts the
//! in-flight exchange ([`ActiveOp::retransmission`]) as an *exempt* message
//! that bypasses the injector. The backoff is deterministic exponential —
//! starting at `retransmit_after`, doubling per consecutive timeout, capped
//! at `retransmit_cap`, reset by any received message — so a crashed or
//! slow quorum is probed geometrically rather than hammered. Exempt traffic
//! consumes no fault-schedule indices, keeping the schedule a pure function
//! of the seed.
//!
//! **Crash recovery.** Under [`RecoveryMode::Amnesia`] every server keeps a
//! write-ahead log and obeys the *write-ahead ack discipline*: an update is
//! acknowledged only once a WAL record with a timestamp covering it is
//! fsynced. When the bus raises the amnesia signal ([`Payload::Crash`]) at
//! a crash window's exit, the server erases its volatile state and its
//! unsynced WAL suffix, then recovers — the blackout window models the
//! outage itself; the power loss materializes at the reboot, when peers
//! are reachable again for catch-up and the recovered (or, under
//! `--demo-amnesia`, unrecovered) state is actually observable by clients.
//! Recovery replays the durable checkpoint, then catches up from
//! `quorum − 1` peers before serving buffered traffic (see
//! [`crate::host`]). The discipline makes replay alone sound — every
//! *acked* update is durable, and unacked state a reader observed is
//! re-made durable by that reader's own write-back quorum — so concurrent
//! recoveries need no coordination; the catch-up phase only restores
//! freshness. The argument lives in `docs/RUNTIME.md`.
//!
//! Clients run in barrier-separated **bursts** of `burst` ops: at each
//! barrier every in-flight operation has returned, so the monitor is
//! guaranteed a cut at least every `clients × burst` invocations — kept
//! under the checker's 64-invocation window by construction (asserted).

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use blunt_abd::client::{AckEffect, ActiveOp, OpKind, ReplyEffect};
use blunt_abd::msg::AbdMsg;
use blunt_core::history::Action;
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_obs::flight::{encode_val, KEY_NONE};
use blunt_obs::{
    FlightDump, FlightKind, FlightRecorder, FlightRing, Histogram, HistogramSnapshot,
    QuantileSketch,
};
use blunt_sim::rng::{RandomSource, SplitMix64};

use blunt_net::{SpanCtx, Transport};

use crate::bus::{Bus, BusStats, Envelope, Payload};
use crate::coverage::Coverage;
use crate::fault::{FaultConfig, FaultConfigError};
use crate::host::{host_loop, HostedReplica};
use crate::monitor::{MonitorReport, OnlineMonitor};
use crate::recovery::{RecoveryMode, RecoverySink, RecoveryStats};

/// Configuration of one chaos run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of ABD servers (replicas). Quorum is `⌊n/2⌋ + 1`.
    pub servers: u32,
    /// Number of client threads.
    pub clients: u32,
    /// Operations issued by each client.
    pub ops_per_client: u64,
    /// Preamble iterations (`k = 1` is plain ABD; `k = 2` is O² of
    /// Algorithm 2).
    pub k: u32,
    /// Ops per client between barriers. `clients × burst ≤ 64` is required
    /// (the monitor's window bound).
    pub burst: u64,
    /// Number of distinct registers (keys) the clients operate on, drawn
    /// uniformly per op from the client's seeded stream. `keys = 1` is the
    /// classic single-register workload and consumes **no** extra rng
    /// draws, so pre-keyed seeds replay byte-identically.
    pub keys: u32,
    /// ‰ of operations that are reads.
    pub read_per_mille: u16,
    /// The run seed: fault schedule, op mix, and object random choices all
    /// derive from it.
    pub seed: u64,
    /// Fault mix.
    pub faults: FaultConfig,
    /// Replace reads with the intentionally-broken single-server fast read
    /// (no quorum, no write-back) — the monitor must catch this.
    pub broken_reads: bool,
    /// Initial client wait for a response before retransmitting; doubles
    /// per consecutive timeout.
    pub retransmit_after: Duration,
    /// Upper bound on the exponential backoff.
    pub retransmit_cap: Duration,
    /// What a crash means for server state (see [`RecoveryMode`]).
    pub recovery: RecoveryMode,
    /// Emit a live progress snapshot to stderr every interval (`None` =
    /// silent). Read-only observation: never perturbs the fault schedule.
    pub watch: Option<Duration>,
    /// Mirror the watch snapshots as machine-readable JSONL to this path
    /// (schema-versioned; one `watch_tick` record per tick). Works with or
    /// without the stderr `watch` line; ticks use the `watch` interval when
    /// set, the default cadence otherwise.
    pub watch_out: Option<PathBuf>,
    /// Watchdog: if no operation completes for this long, mark the run
    /// stalled and capture a flight dump (written under
    /// [`RuntimeConfig::flight_dump_dir`] when set).
    pub stall_after: Option<Duration>,
    /// Directory for watchdog stall dumps (`stall.flight.jsonl` plus a
    /// rendered `stall.diagram.txt`). `None` keeps the stall in-memory only.
    pub flight_dump_dir: Option<PathBuf>,
}

impl RuntimeConfig {
    /// A small smoke configuration: faults on, a few thousand ops.
    #[must_use]
    pub fn smoke(seed: u64) -> RuntimeConfig {
        RuntimeConfig {
            servers: 3,
            clients: 4,
            ops_per_client: 500,
            k: 1,
            burst: 8,
            keys: 1,
            read_per_mille: 500,
            seed,
            faults: FaultConfig::chaos(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            watch: None,
            watch_out: None,
            stall_after: Some(Duration::from_secs(60)),
            flight_dump_dir: None,
        }
    }

    /// The acceptance soak shape: ≥ 8 clients, ≥ 100k total ops, full fault
    /// mix.
    #[must_use]
    pub fn soak(seed: u64, k: u32) -> RuntimeConfig {
        RuntimeConfig {
            servers: 3,
            clients: 8,
            ops_per_client: 13_000,
            k,
            burst: 4,
            keys: 1,
            read_per_mille: 500,
            seed,
            faults: FaultConfig::chaos(),
            broken_reads: false,
            retransmit_after: Duration::from_millis(1),
            retransmit_cap: Duration::from_millis(16),
            recovery: RecoveryMode::Stable,
            watch: None,
            watch_out: None,
            stall_after: Some(Duration::from_secs(60)),
            flight_dump_dir: None,
        }
    }

    /// The smoke shape with amnesia crashes and sound recovery.
    #[must_use]
    pub fn smoke_amnesia(seed: u64) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::smoke(seed);
        cfg.recovery = RecoveryMode::amnesia();
        cfg
    }

    /// The acceptance soak shape with amnesia crashes and sound recovery.
    #[must_use]
    pub fn soak_amnesia(seed: u64, k: u32) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::soak(seed, k);
        cfg.recovery = RecoveryMode::amnesia();
        cfg
    }
}

/// What the online monitor cost this run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonitorOverhead {
    /// Actions the monitor observed (= `2 × ops`; deterministic).
    pub actions: u64,
    /// Total wall time spent inside [`OnlineMonitor::observe`]
    /// (timing-dependent; bench-gated only under `--strict-times`).
    pub observe_ns: u64,
    /// High-water mark of the monitor's backlog — actions enqueued by
    /// clients but not yet observed, i.e. how far the monitor ran behind
    /// the frontier (timing-dependent).
    pub lag_ops_hwm: u64,
}

/// Live counters shared with the watch/watchdog thread. Pure observation:
/// nothing here feeds back into scheduling or the fault plan.
pub(crate) struct Telemetry {
    /// Operations completed so far.
    ops: AtomicU64,
    /// Operations invoked but not yet returned.
    in_flight: AtomicU64,
    /// Actions enqueued to the monitor channel.
    actions_sent: AtomicU64,
    /// Actions the monitor has observed.
    actions_seen: AtomicU64,
    /// Streaming per-op latency (µs), mergeable across threads.
    sketch: QuantileSketch,
}

impl Telemetry {
    pub(crate) fn new() -> Telemetry {
        Telemetry {
            ops: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            actions_sent: AtomicU64::new(0),
            actions_seen: AtomicU64::new(0),
            sketch: QuantileSketch::new(),
        }
    }

    /// Actions the monitor has observed (for the report's overhead block).
    pub(crate) fn actions_seen(&self) -> u64 {
        self.actions_seen.load(Ordering::Relaxed)
    }
}

/// The outcome of a chaos run.
#[derive(Debug)]
pub struct ChaosReport {
    /// Operations completed (= `clients × ops_per_client`).
    pub ops: u64,
    /// Deterministic fault counters from the bus.
    pub bus: BusStats,
    /// Which fault patterns the schedule actually exercised, per link
    /// (deterministic for a fixed seed and configuration).
    pub coverage: Coverage,
    /// The monitor's verdict.
    pub monitor: MonitorReport,
    /// What the monitor cost (`actions` deterministic, times not).
    pub monitor_overhead: MonitorOverhead,
    /// The flight-recorder window captured at the *first* monitor
    /// violation (`None` on clean runs).
    pub violation_dump: Option<FlightDump>,
    /// `true` iff the watchdog saw no completed operation for
    /// [`RuntimeConfig::stall_after`].
    pub stalled: bool,
    /// Crash-recovery counters (`crashes`/`recoveries` deterministic, the
    /// WAL-shaped ones timing-dependent — see [`RecoveryStats`]).
    pub recovery: RecoveryStats,
    /// Exempt rebroadcasts issued (timing-dependent; excluded from
    /// regression gating).
    pub retransmissions: u64,
    /// Merged per-op latency distribution, in microseconds.
    pub latency_us: HistogramSnapshot,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-server remote state — clock offset, last telemetry snapshot,
    /// goodbye-piggybacked dump — in multi-process runs (index = server
    /// pid). Empty for in-process runs, where no state is remote.
    pub remote_servers: Vec<blunt_net::RemoteServer>,
    /// The cross-process merged flight dump (driver events plus every
    /// remote server's dump, clock-aligned and process-labeled).
    /// `None` for in-process runs — the ordinary flight recorder already
    /// sees every event there.
    pub merged_flight: Option<FlightDump>,
}

impl ChaosReport {
    /// Throughput in completed operations per second.
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

fn client_rng(seed: u64, client: u32) -> SplitMix64 {
    SplitMix64::new(
        seed ^ 0xC11E_4775_0000_0000 ^ u64::from(client).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Runs one seeded chaos configuration to completion.
///
/// # Errors
///
/// Returns a [`FaultConfigError`] when `cfg.faults` is unusable for this
/// topology (overlapping crash stagger, zero periods, oversubscribed
/// rates) — the numbers are in the error.
///
/// # Panics
///
/// Panics if the configuration is degenerate (no servers/clients/ops) or if
/// `clients × burst` exceeds the monitor's 64-invocation window bound —
/// programmer errors, unlike the recoverable fault-config validation.
pub fn run_chaos(cfg: &RuntimeConfig) -> Result<ChaosReport, FaultConfigError> {
    assert!(cfg.servers >= 1 && cfg.clients >= 1 && cfg.ops_per_client >= 1);
    assert!(cfg.k >= 1, "ABD^k requires k ≥ 1");
    assert!(cfg.burst >= 1);
    assert!(
        cfg.keys >= 1,
        "the keyed workload needs at least one register"
    );
    assert!(
        u64::from(cfg.clients) * cfg.burst <= 64,
        "clients × burst must fit the monitor's 64-invocation window"
    );
    let started = Instant::now();
    let nodes = cfg.servers + cfg.clients;
    let quorum = cfg.servers / 2 + 1;
    let recorder = Arc::new(FlightRecorder::new(4096));
    let (bus, receivers) = Bus::new(
        cfg.seed,
        cfg.faults,
        cfg.servers,
        nodes,
        cfg.recovery.is_amnesia(),
        Arc::clone(&recorder),
    )?;
    let bus = Arc::new(bus);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.clients as usize));
    let retransmissions = Arc::new(AtomicU64::new(0));
    let recovery_sink = Arc::new(RecoverySink::default());
    let latency = Histogram::unregistered();
    let telemetry = Arc::new(Telemetry::new());

    let (mon_tx, mon_rx) = mpsc::channel::<Action>();
    let monitor = spawn_monitor(
        Arc::clone(&recorder),
        Arc::clone(&telemetry),
        nodes as usize,
        mon_rx,
    );

    let (watch_stop_tx, watch_stop_rx) = mpsc::channel::<()>();
    let stalled = Arc::new(AtomicBool::new(false));
    let watcher = if cfg.watch.is_some() || cfg.watch_out.is_some() || cfg.stall_after.is_some() {
        let telemetry = Arc::clone(&telemetry);
        let recorder = Arc::clone(&recorder);
        let sink = Arc::clone(&recovery_sink);
        let stalled = Arc::clone(&stalled);
        let cfg = cfg.clone();
        Some(thread::spawn(move || {
            watch_loop(
                &cfg,
                started,
                &telemetry,
                &recorder,
                &sink,
                &stalled,
                &watch_stop_rx,
                None,
            );
        }))
    } else {
        None
    };

    let mut rx_iter = receivers.into_iter();
    let mut servers = Vec::new();
    for s in 0..cfg.servers {
        let rx = rx_iter.next().expect("one receiver per node");
        let bus = Arc::clone(&bus);
        let stop = Arc::clone(&stop);
        let recorder = Arc::clone(&recorder);
        // One host per replica; single-shard topology: every server
        // replicates with every other.
        let replica = HostedReplica {
            me: Pid(s),
            group: (0..cfg.servers).map(Pid).collect(),
            mode: cfg.recovery,
            sink: Arc::clone(&recovery_sink),
        };
        servers.push(thread::spawn(move || {
            host_loop(vec![replica], rx, bus.as_ref(), &stop, &recorder);
        }));
    }
    let mut clients = Vec::new();
    for c in 0..cfg.clients {
        let rx = rx_iter.next().expect("one receiver per node");
        let bus = Arc::clone(&bus);
        let barrier = Arc::clone(&barrier);
        let retransmissions = Arc::clone(&retransmissions);
        let latency = latency.clone();
        let mon_tx = mon_tx.clone();
        let recorder = Arc::clone(&recorder);
        let telemetry = Arc::clone(&telemetry);
        let cfg = cfg.clone();
        clients.push(thread::spawn(move || {
            client_loop(
                c,
                &cfg,
                quorum,
                rx,
                bus.as_ref(),
                &barrier,
                &mon_tx,
                &retransmissions,
                &latency,
                &recorder,
                &telemetry,
            );
        }));
    }
    drop(mon_tx);

    for c in clients {
        c.join().expect("client thread");
    }
    // Every amnesia signal is enqueued synchronously inside a client's send,
    // so by this point all crash events are in server mailboxes; servers
    // drain them before honoring `stop`, which keeps the recovery counters
    // deterministic.
    stop.store(true, Ordering::Relaxed);
    for s in servers {
        s.join().expect("server thread");
    }
    bus.flush();
    let (monitor, observe_ns, lag_ops_hwm, violation_dump) =
        monitor.join().expect("monitor thread");
    drop(watch_stop_tx);
    if let Some(w) = watcher {
        w.join().expect("watch thread");
    }

    let ops = u64::from(cfg.clients) * cfg.ops_per_client;
    blunt_obs::static_counter!("runtime.ops.completed").add(ops);
    Ok(ChaosReport {
        ops,
        bus: bus.stats(),
        coverage: bus.coverage(),
        monitor,
        monitor_overhead: MonitorOverhead {
            actions: telemetry.actions_seen.load(Ordering::Relaxed),
            observe_ns,
            lag_ops_hwm,
        },
        violation_dump,
        stalled: stalled.load(Ordering::Relaxed),
        recovery: recovery_sink.snapshot(),
        retransmissions: retransmissions.load(Ordering::Relaxed),
        latency_us: latency.snapshot(),
        elapsed: started.elapsed(),
        remote_servers: Vec::new(),
        merged_flight: None,
    })
}

/// Spawns the online-monitor thread: it consumes the action stream, feeds
/// the incremental checker, and captures a flight dump at the first
/// violation. Returns `(report, observe_ns, lag_hwm, dump)` on join.
/// Shared by the in-process and multi-process drivers.
pub(crate) fn spawn_monitor(
    recorder: Arc<FlightRecorder>,
    telemetry: Arc<Telemetry>,
    lanes: usize,
    mon_rx: Receiver<Action>,
) -> thread::JoinHandle<(MonitorReport, u64, u64, Option<FlightDump>)> {
    thread::spawn(move || {
        let ring = recorder.register_current("monitor");
        let mon_pid = u32::try_from(lanes).expect("node count fits u32");
        let mut m = OnlineMonitor::new(Val::Nil, lanes);
        let mut observe_ns: u64 = 0;
        let mut lag_hwm: u64 = 0;
        let mut cuts: u64 = 0;
        let mut dump: Option<FlightDump> = None;
        while let Ok(a) = mon_rx.recv() {
            let t0 = Instant::now();
            let ok = m.observe(a);
            observe_ns = observe_ns
                .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let seen = telemetry.actions_seen.fetch_add(1, Ordering::Relaxed) + 1;
            let lag = telemetry
                .actions_sent
                .load(Ordering::Relaxed)
                .saturating_sub(seen);
            lag_hwm = lag_hwm.max(lag);
            let checked = m.segments_checked();
            if checked > cuts {
                cuts = checked;
                ring.record(FlightKind::MonitorCut, mon_pid, checked, 0);
            }
            if !ok {
                if dump.is_none() {
                    // A lagging monitor may flag a window whose op
                    // events the clients' bounded rings have already
                    // evicted — replay the window into this ring so
                    // the dump always carries its own evidence.
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
                if dump.is_none() {
                    // Capture now, while the offending ops are still
                    // in the rings.
                    dump = Some(recorder.dump());
                }
            }
        }
        (m.finish(), observe_ns, lag_hwm, dump)
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
                    encode_val(match arg {
                        Val::Int(v) => Some(*v),
                        _ => None,
                    }),
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
                    encode_val(match val {
                        Val::Int(v) => Some(*v),
                        _ => None,
                    }),
                );
            }
        }
    }
}

/// Schema version of the `--watch-out` JSONL mirror: a `chaos_watch`
/// header record followed by one `watch_tick` record per tick.
pub const WATCH_SCHEMA_VERSION: u64 = 1;

/// The combined watch/watchdog thread: prints a progress line every
/// [`RuntimeConfig::watch`] interval, mirrors it as JSONL to
/// [`RuntimeConfig::watch_out`], and captures a flight dump if no
/// operation completes for [`RuntimeConfig::stall_after`]. Exits when the
/// run drops its end of `stop_rx`. `remote_recoveries` lets multi-process
/// drivers fold live server-side telemetry into the recovery count (the
/// driver's own sink never sees a remote server's crashes).
#[allow(clippy::too_many_arguments)] // a thread entry point, not an API
pub(crate) fn watch_loop(
    cfg: &RuntimeConfig,
    started: Instant,
    t: &Telemetry,
    recorder: &FlightRecorder,
    sink: &RecoverySink,
    stalled: &AtomicBool,
    stop_rx: &Receiver<()>,
    remote_recoveries: Option<&(dyn Fn() -> u64 + Send + Sync)>,
) {
    let tick = cfg.watch.unwrap_or(Duration::from_millis(250));
    let mut last_ops: u64 = 0;
    let mut last_tick = started;
    let mut progressed_at = Instant::now();
    let mut dumped = false;
    let mut watch_file = cfg.watch_out.as_ref().and_then(|p| {
        let mut f = std::fs::File::create(p).ok()?;
        writeln!(
            f,
            "{{\"type\":\"chaos_watch\",\"schema_version\":{WATCH_SCHEMA_VERSION},\"seed\":{}}}",
            cfg.seed
        )
        .ok()?;
        Some(f)
    });
    loop {
        // A stopping run still writes one last tick: the mirror always
        // carries the run's final counters, even when the whole run fits
        // inside a single tick interval.
        let stopping = match stop_rx.recv_timeout(tick) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => true,
            Err(RecvTimeoutError::Timeout) => false,
        };
        let now = Instant::now();
        let ops = t.ops.load(Ordering::Relaxed);
        let dt = now.duration_since(last_tick).as_secs_f64().max(1e-9);
        let rate = (ops.saturating_sub(last_ops)) as f64 / dt;
        let lag = t
            .actions_sent
            .load(Ordering::Relaxed)
            .saturating_sub(t.actions_seen.load(Ordering::Relaxed));
        let recoveries = sink.snapshot().recoveries + remote_recoveries.map_or(0, |f| f());
        if cfg.watch.is_some() {
            eprintln!(
                "chaos[watch] t={:.1}s ops={ops} (+{rate:.0}/s) in_flight={} \
                 lat p50/p99={}µs/{}µs recoveries={recoveries} monitor_lag={lag}",
                now.duration_since(started).as_secs_f64(),
                t.in_flight.load(Ordering::Relaxed),
                t.sketch.quantile(0.5),
                t.sketch.quantile(0.99),
            );
        }
        if let Some(f) = watch_file.as_mut() {
            let write_tick = writeln!(
                f,
                "{{\"type\":\"watch_tick\",\"t_ms\":{},\"ops\":{ops},\"ops_per_sec\":{},\
                 \"in_flight\":{},\"lat_p50_us\":{},\"lat_p99_us\":{},\
                 \"recoveries\":{recoveries},\"monitor_lag\":{lag}}}",
                now.duration_since(started).as_millis(),
                rate.round().max(0.0) as u64,
                t.in_flight.load(Ordering::Relaxed),
                t.sketch.quantile(0.5),
                t.sketch.quantile(0.99),
            )
            .and_then(|()| f.flush());
            if write_tick.is_err() {
                // A dead mirror (disk full, deleted parent) must not kill
                // the watchdog; drop the file and keep watching.
                watch_file = None;
            }
        }
        if stopping {
            return;
        }
        if ops != last_ops {
            progressed_at = now;
        }
        last_ops = ops;
        last_tick = now;
        if let Some(limit) = cfg.stall_after {
            if !dumped && now.duration_since(progressed_at) >= limit {
                dumped = true;
                stalled.store(true, Ordering::Relaxed);
                eprintln!(
                    "chaos[watchdog] no operation completed for {limit:?}; capturing flight dump"
                );
                let dump = recorder.dump();
                if let Some(dir) = &cfg.flight_dump_dir {
                    let lanes = (cfg.servers + cfg.clients + 1) as usize;
                    let rendered = blunt_trace::flight_space_time(
                        &dump.last_n(800),
                        lanes,
                        &blunt_trace::DiagramOptions::default(),
                    );
                    let _ = std::fs::create_dir_all(dir);
                    // Process-unique stem: a second stalling run in the same
                    // process (e.g. a seed sweep) must not clobber the first
                    // dump's evidence.
                    let stem = blunt_obs::flight::unique_dump_stem("stall");
                    let _ =
                        std::fs::write(dir.join(format!("{stem}.flight.jsonl")), dump.to_jsonl());
                    let _ = std::fs::write(dir.join(format!("{stem}.diagram.txt")), rendered);
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // a thread entry point, not an API
pub(crate) fn client_loop(
    c: u32,
    cfg: &RuntimeConfig,
    quorum: u32,
    rx: Receiver<Envelope>,
    bus: &dyn Transport,
    barrier: &Barrier,
    mon_tx: &Sender<Action>,
    retransmissions: &AtomicU64,
    latency: &Histogram,
    recorder: &FlightRecorder,
    telemetry: &Telemetry,
) {
    let me = Pid(cfg.servers + c);
    let dsts: Vec<Pid> = server_pids(cfg).collect();
    let ring = recorder.register_current(&format!("client-{}", me.0));
    let mut rng = client_rng(cfg.seed, c);
    let mut sn_counter: u32 = 0;
    let local = Histogram::unregistered();
    let mut retrans: u64 = 0;

    for op_idx in 0..cfg.ops_per_client {
        if op_idx > 0 && op_idx % cfg.burst == 0 {
            barrier.wait();
        }
        // Retire the previous op's reply tags so late replies to finished
        // rounds count as tag mismatches, not deliveries (socket backends).
        bus.on_op_start(me);
        let inv = InvId(u64::from(c) * 10_000_000 + op_idx);
        // The key draw comes before the read/write draw and is *skipped
        // entirely* at `keys = 1`: a single-register config consumes the
        // exact rng stream it did before keys existed, so historical seeds
        // (and their gated baselines) replay byte-identically.
        let obj = if cfg.keys > 1 {
            ObjId(u32::try_from(rng.draw(cfg.keys as usize)).expect("key fits u32"))
        } else {
            ObjId(0)
        };
        let is_read = rng.draw(1000) < usize::from(cfg.read_per_mille);
        let (method, arg) = if is_read {
            (MethodId::READ, Val::Nil)
        } else {
            // Unique write values keep the checker's search shallow and
            // make stale reads unambiguous.
            let v = i64::from(c) * 1_000_000 + i64::try_from(op_idx).expect("op index fits i64");
            (MethodId::WRITE, Val::Int(v))
        };
        telemetry.actions_sent.fetch_add(1, Ordering::Relaxed);
        let _ = mon_tx.send(Action::Call {
            inv,
            pid: me,
            obj,
            method,
            arg: arg.clone(),
        });
        telemetry.in_flight.fetch_add(1, Ordering::Relaxed);
        // Every message this op sends — and every server-side event it
        // triggers, across process boundaries — carries this span.
        let span = SpanCtx::request(me.0, inv.0);
        // Op events carry their target register in keyed runs; the
        // single-register default stays `KEY_NONE` so pre-keyed dumps
        // serialize byte-identically (the field is elided).
        let key = if cfg.keys > 1 {
            u64::from(obj.0)
        } else {
            KEY_NONE
        };
        ring.record_span_key(
            if is_read {
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
            key,
        );
        let t0 = Instant::now();
        let ret = if cfg.broken_reads && is_read {
            broken_read(
                me,
                obj,
                op_idx,
                cfg,
                &rx,
                bus,
                &mut sn_counter,
                &mut retrans,
                &ring,
                span,
            )
        } else {
            let kind = if is_read {
                OpKind::Read
            } else {
                OpKind::Write(arg)
            };
            abd_op(
                me,
                obj,
                inv,
                kind,
                cfg,
                quorum,
                &rx,
                bus,
                &dsts,
                &mut rng,
                &mut sn_counter,
                &mut retrans,
                &ring,
                span,
            )
        };
        let lat_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        local.record(lat_us);
        telemetry.sketch.record(lat_us);
        ring.record_span_key(
            if is_read {
                FlightKind::OpCompleteRead
            } else {
                FlightKind::OpCompleteWrite
            },
            me.0,
            inv.0,
            encode_val(match &ret {
                Val::Int(v) => Some(*v),
                _ => None,
            }),
            span.flight_word(),
            key,
        );
        telemetry.in_flight.fetch_sub(1, Ordering::Relaxed);
        telemetry.ops.fetch_add(1, Ordering::Relaxed);
        telemetry.actions_sent.fetch_add(1, Ordering::Relaxed);
        let _ = mon_tx.send(Action::Return { inv, val: ret });
    }
    latency.merge(&local);
    retransmissions.fetch_add(retrans, Ordering::Relaxed);
}

fn server_pids(cfg: &RuntimeConfig) -> impl Iterator<Item = Pid> {
    (0..cfg.servers).map(Pid)
}

/// The client's deterministic exponential backoff: doubles per consecutive
/// timeout from `retransmit_after`, saturating at `retransmit_cap`; any
/// received message resets it (evidence of progress). Returns the next wait
/// and bumps the saturation counter on the transition to the cap.
fn next_backoff(wait: Duration, cfg: &RuntimeConfig) -> Duration {
    let next = wait.saturating_mul(2).min(cfg.retransmit_cap);
    if next == cfg.retransmit_cap && wait < cfg.retransmit_cap {
        blunt_obs::static_counter!("runtime.client.backoff_max_reached").inc();
    }
    next
}

/// Drives one full ABD (or ABD^k) operation through the client step machine
/// to completion, retransmitting with exponential backoff on timeout.
#[allow(clippy::too_many_arguments)] // mirrors the thread context it runs in
fn abd_op(
    me: Pid,
    obj: ObjId,
    inv: InvId,
    kind: OpKind,
    cfg: &RuntimeConfig,
    quorum: u32,
    rx: &Receiver<Envelope>,
    bus: &dyn Transport,
    dsts: &[Pid],
    rng: &mut SplitMix64,
    sn_counter: &mut u32,
    retrans: &mut u64,
    ring: &FlightRing,
    span: SpanCtx,
) -> Val {
    *sn_counter += 1;
    let sn = *sn_counter;
    let mut op = ActiveOp::start(inv, obj, kind, cfg.k, sn);
    bus.broadcast_span(me, dsts, &AbdMsg::Query { obj, sn }, false, span);
    let mut wait = cfg.retransmit_after.min(cfg.retransmit_cap);
    loop {
        match rx.recv_timeout(wait) {
            Ok(env) => {
                wait = cfg.retransmit_after.min(cfg.retransmit_cap);
                ring.record_span(
                    FlightKind::BusDeliver,
                    me.0,
                    u64::from(env.src.0),
                    env.msg.flight_label(),
                    env.span.flight_word(),
                );
                let Payload::Abd(msg) = env.msg else {
                    continue; // control traffic never targets clients
                };
                match msg {
                    AbdMsg::Reply {
                        obj: o,
                        sn: msg_sn,
                        val,
                        ts,
                    } if o == obj => {
                        match op.on_reply(env.src, msg_sn, &val, ts, quorum, me, sn_counter) {
                            ReplyEffect::NextQuery { sn, .. } => {
                                bus.broadcast_span(
                                    me,
                                    dsts,
                                    &AbdMsg::Query { obj, sn },
                                    false,
                                    span,
                                );
                            }
                            ReplyEffect::NeedChoice { choices, .. } => {
                                // The object random step, drawn from the
                                // client's seeded stream: one draw per op, so
                                // the stream position is schedule-independent.
                                let choice = rng.draw(choices as usize);
                                let (sn, val, ts) = op.choose(choice, me, sn_counter);
                                bus.broadcast_span(
                                    me,
                                    dsts,
                                    &AbdMsg::Update { obj, sn, val, ts },
                                    false,
                                    span,
                                );
                            }
                            ReplyEffect::StartUpdate { sn, val, ts, .. } => {
                                bus.broadcast_span(
                                    me,
                                    dsts,
                                    &AbdMsg::Update { obj, sn, val, ts },
                                    false,
                                    span,
                                );
                            }
                            ReplyEffect::Ignored | ReplyEffect::Counted => {}
                        }
                    }
                    AbdMsg::Ack { obj: o, sn: msg_sn } if o == obj => {
                        if let AckEffect::Complete { ret } = op.on_ack(env.src, msg_sn, quorum) {
                            return ret;
                        }
                    }
                    _ => {}
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if let Some(msg) = op.retransmission() {
                    *retrans += 1;
                    blunt_obs::static_counter!("runtime.client.retransmissions").inc();
                    let rsn = match &msg {
                        AbdMsg::Query { sn, .. }
                        | AbdMsg::Reply { sn, .. }
                        | AbdMsg::Update { sn, .. }
                        | AbdMsg::Ack { sn, .. } => *sn,
                    };
                    ring.record_span(
                        FlightKind::OpRetransmit,
                        me.0,
                        u64::from(rsn),
                        0,
                        span.flight_word(),
                    );
                    bus.broadcast_span(me, dsts, &msg, true, span);
                }
                wait = next_backoff(wait, cfg);
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("bus closed while an operation was in flight")
            }
        }
    }
}

/// The intentionally-broken read: query ONE server (rotating), return the
/// first reply's value, skip the write-back. Under drops a replica can miss
/// an update forever, so a client that writes and then fast-reads a stale
/// replica observes a new-old inversion in its own program order — exactly
/// what the monitor exists to catch.
#[allow(clippy::too_many_arguments)] // mirrors the thread context it runs in
fn broken_read(
    me: Pid,
    obj: ObjId,
    op_idx: u64,
    cfg: &RuntimeConfig,
    rx: &Receiver<Envelope>,
    bus: &dyn Transport,
    sn_counter: &mut u32,
    retrans: &mut u64,
    ring: &FlightRing,
    span: SpanCtx,
) -> Val {
    *sn_counter += 1;
    let sn = *sn_counter;
    let target = Pid(u32::try_from(op_idx % u64::from(cfg.servers)).expect("server index"));
    let msg = AbdMsg::Query { obj, sn };
    bus.send(Envelope::abd(me, target, msg.clone(), false).with_span(span));
    let mut wait = cfg.retransmit_after.min(cfg.retransmit_cap);
    loop {
        match rx.recv_timeout(wait) {
            Ok(env) => {
                wait = cfg.retransmit_after.min(cfg.retransmit_cap);
                ring.record_span(
                    FlightKind::BusDeliver,
                    me.0,
                    u64::from(env.src.0),
                    env.msg.flight_label(),
                    env.span.flight_word(),
                );
                if let Payload::Abd(AbdMsg::Reply {
                    obj: o,
                    sn: msg_sn,
                    val,
                    ..
                }) = env.msg
                {
                    if o == obj && msg_sn == sn {
                        return val;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                *retrans += 1;
                ring.record_span(
                    FlightKind::OpRetransmit,
                    me.0,
                    u64::from(sn),
                    0,
                    span.flight_word(),
                );
                bus.send(Envelope::abd(me, target, msg.clone(), true).with_span(span));
                wait = next_backoff(wait, cfg);
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("bus closed while a read was in flight")
            }
        }
    }
}
