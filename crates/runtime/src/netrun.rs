//! Multi-process chaos runs over the socket transport.
//!
//! The in-process [`crate::workload::run_chaos`] puts every node on a
//! thread sharing one [`crate::bus::Bus`]. This module splits the same run
//! across OS processes: each server runs [`run_net_server`] (the `chaos
//! serve` subcommand) — the *same* [`crate::host::host_loop`] over a
//! one-replica set, WAL, and amnesia recovery, but its mailbox is fed by a
//! socket listener and its replies leave through [`blunt_net::NetServer`] — while
//! the driver process runs [`run_chaos_net`]: the same client loops,
//! online monitor, flight recorder, and watchdog, sending through
//! [`blunt_net::NetClient`].
//!
//! The seeded fault schedule is split by link direction: the driver's
//! injector realizes client→server fates at its sockets, each server's
//! injector realizes server→client fates at its own, and both consume the
//! same per-link SplitMix64 streams they would in process — so a seed
//! exercises the same fault pattern whether the run is threaded or
//! distributed. What is *not* preserved across the boundary is realization
//! detail (a socket duplicate is two frames absorbed by dedup, not two
//! mailbox deliveries); `docs/TRANSPORT.md` has the full comparison.
//!
//! Recovery counters live in the server processes; they come back to the
//! driver in each server's `Goodbye` frame at shutdown and are aggregated
//! into the report's [`RecoveryStats`]. WAL/state-query detail that never
//! crosses the wire stays zero in the aggregate.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use blunt_core::history::Action;
use blunt_core::ids::Pid;
use blunt_net::{
    Addr, NetClient, NetClientCfg, NetServer, NetServerCfg, ServerGoodbye, ServerTelemetry,
    Transport,
};
use blunt_obs::flight::{FlightDump, SPAN_NONE};
use blunt_obs::{FlightKind, FlightRecorder, Histogram, QuantileSketch};

use crate::fault::{FaultConfig, FaultConfigError};
use crate::host::{host_loop, HostedReplica};
use crate::recovery::{RecoveryMode, RecoverySink, RecoveryStats};
use crate::workload::{
    client_loop, spawn_monitor, watch_loop, ChaosReport, MonitorOverhead, RuntimeConfig, Telemetry,
};

/// Configuration for one server process (`chaos serve`).
#[derive(Clone, Debug)]
pub struct NetServeConfig {
    /// Where this server listens.
    pub listen: Addr,
    /// This server's pid (`0..servers`).
    pub server_id: u32,
    /// Total number of servers in the run.
    pub servers: u32,
    /// Number of client threads the driver runs.
    pub clients: u32,
    /// Every server's listen address, index = pid (for peer catch-up).
    pub peers: Vec<Addr>,
    /// The run seed, shared with the driver.
    pub seed: u64,
    /// The fault mix, shared with the driver.
    pub faults: FaultConfig,
    /// What a crash means for this server's state.
    pub recovery: RecoveryMode,
    /// Replicas per shard for sharded (keyed-store) runs: server pids are
    /// shard-major, so this server's replica group is the `shard_size`
    /// consecutive pids containing `server_id`, and recovery catch-up asks
    /// only those peers. `None` means unsharded — the group is all servers.
    pub shard_size: Option<u32>,
    /// Directory for this process's own flight dump
    /// (`serve-<id>.flight.jsonl`), written when the serve loop exits —
    /// whether by the driver's `Shutdown` or by losing the driver
    /// connection mid-window. `None` skips the local file; the bounded
    /// dump still goes back piggybacked on `Goodbye`.
    pub dump_dir: Option<PathBuf>,
}

/// How often a serve process ships a cumulative [`ServerTelemetry`]
/// snapshot to its driver.
const TELEMETRY_TICK: Duration = Duration::from_millis(500);

/// How many trailing flight events a serve process piggybacks on its
/// `Goodbye` frame (bounded so a goodbye stays one modest frame).
const GOODBYE_DUMP_EVENTS: usize = 1024;

/// Folds successive flight-recorder snapshots into cumulative telemetry:
/// per-ring high-water seq marks make each event count once even though
/// snapshots overlap, and `WalFlush` events feed the fsync-latency sketch
/// (their `b` word is the fsync duration in µs).
struct FlightAggregator {
    /// Next unseen seq per ring (rings are bounded: eviction may skip
    /// seqs forward, which the high-water mark absorbs).
    seen: HashMap<String, u64>,
    fsync: QuantileSketch,
    fsync_count: u64,
    span_events: u64,
    events: u64,
}

impl FlightAggregator {
    fn new() -> FlightAggregator {
        FlightAggregator {
            seen: HashMap::new(),
            fsync: QuantileSketch::new(),
            fsync_count: 0,
            span_events: 0,
            events: 0,
        }
    }

    fn absorb(&mut self, dump: &FlightDump) {
        for e in &dump.events {
            let next = self.seen.entry(e.ring.clone()).or_insert(0);
            if e.seq < *next {
                continue;
            }
            *next = e.seq + 1;
            self.events += 1;
            if e.span != SPAN_NONE {
                self.span_events += 1;
            }
            if e.kind == FlightKind::WalFlush {
                self.fsync_count += 1;
                self.fsync.record(e.b);
            }
        }
    }

    fn snapshot(&self, sink: &RecoverySink) -> ServerTelemetry {
        let r = sink.snapshot();
        ServerTelemetry {
            recoveries: r.recoveries,
            crashes: r.crashes,
            fsync_count: self.fsync_count,
            fsync_p99_us: self.fsync.quantile(0.99),
            span_events: self.span_events,
            events: self.events,
        }
    }
}

/// What one server process did, reported after its driver says `Shutdown`.
#[derive(Debug)]
pub struct NetServeReport {
    /// Deterministic fault counters for this server's outbound links.
    pub stats: crate::bus::BusStats,
    /// Fault-pattern coverage of those links.
    pub coverage: crate::coverage::Coverage,
    /// This server's crash-recovery counters (also sent to the driver in
    /// the `Goodbye` frame).
    pub recovery: RecoveryStats,
}

/// Runs one server process to completion: bind, serve the ABD step machine
/// until the driver broadcasts `Shutdown`, then report.
///
/// # Errors
///
/// I/O errors from binding the listen address; fault-config validation
/// errors surface as [`io::ErrorKind::InvalidInput`] (the driver validates
/// the same config and reports the detailed error).
pub fn run_net_server(cfg: &NetServeConfig) -> io::Result<NetServeReport> {
    assert!(
        cfg.server_id < cfg.servers,
        "server id must be one of 0..servers"
    );
    assert_eq!(
        cfg.peers.len(),
        cfg.servers as usize,
        "one peer address per server"
    );
    let recorder = Arc::new(FlightRecorder::new(4096));
    let ncfg = NetServerCfg {
        listen: cfg.listen.clone(),
        me: Pid(cfg.server_id),
        servers: cfg.servers,
        clients: cfg.clients,
        peers: cfg.peers.clone(),
        seed: cfg.seed,
        faults: cfg.faults,
    };
    let (srv, rx) = NetServer::bind(&ncfg, Arc::clone(&recorder))?;
    let stop = srv.stop_flag();
    let sink = Arc::new(RecoverySink::default());

    // The telemetry thread: every tick, fold the recorder's current window
    // into the cumulative aggregate and ship a snapshot to the driver so
    // `--watch` sees live server-side numbers. Read-only observation — it
    // never touches the serve loop or the fault schedule.
    let (tele_stop_tx, tele_stop_rx) = mpsc::channel::<()>();
    let telemetry = {
        let srv = Arc::clone(&srv);
        let recorder = Arc::clone(&recorder);
        let sink = Arc::clone(&sink);
        thread::spawn(move || {
            let mut agg = FlightAggregator::new();
            loop {
                match tele_stop_rx.recv_timeout(TELEMETRY_TICK) {
                    Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return agg,
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                }
                agg.absorb(&recorder.dump());
                srv.telemetry(agg.snapshot(&sink));
            }
        })
    };

    let shard_size = match cfg.shard_size {
        Some(s) => {
            assert!(
                s >= 1 && s <= cfg.servers && cfg.servers.is_multiple_of(s),
                "shard size must divide the server count"
            );
            s
        }
        None => cfg.servers,
    };
    let shard_base = cfg.server_id / shard_size * shard_size;
    let group: Vec<Pid> = (shard_base..shard_base + shard_size).map(Pid).collect();
    let replica = HostedReplica {
        me: Pid(cfg.server_id),
        group,
        mode: cfg.recovery,
        sink: Arc::clone(&sink),
    };
    host_loop(vec![replica], rx, srv.as_ref(), &stop, &recorder);
    srv.flush();

    let _ = tele_stop_tx.send(());
    let mut agg = telemetry.join().expect("telemetry thread");

    // Drain the flight rings NOW, whatever ended the serve loop — the
    // driver's `Shutdown` or a lost driver connection mid-window. The full
    // dump goes to the local file (when configured), a bounded tail rides
    // the `Goodbye`, and the final telemetry numbers cover every event.
    let dump = recorder.dump();
    agg.absorb(&dump);
    if let Some(dir) = &cfg.dump_dir {
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(
            dir.join(format!("serve-{}.flight.jsonl", cfg.server_id)),
            dump.to_jsonl(),
        );
    }
    // Final snapshot before the goodbye on the same FIFO connection: the
    // driver stores it before it sees the goodbye, so summary telemetry is
    // complete even though the periodic tick is best-effort.
    let final_telemetry = agg.snapshot(&sink);
    srv.telemetry(final_telemetry);
    let recovery = sink.snapshot();
    srv.goodbye(
        ServerGoodbye {
            crashes: recovery.crashes,
            recoveries: recovery.recoveries,
            wal_lost: recovery.wal_records_lost,
            wal_replayed: recovery.wal_records_replayed,
            fsync_p99_us: final_telemetry.fsync_p99_us,
        },
        dump.last_n(GOODBYE_DUMP_EVENTS).to_jsonl(),
    );
    Ok(NetServeReport {
        stats: srv.stats(),
        coverage: srv.coverage(),
        recovery,
    })
}

/// Where the driver finds its servers.
#[derive(Clone, Debug)]
pub struct NetChaosTopology {
    /// One listen address per server, index = server pid.
    pub servers: Vec<Addr>,
}

/// How long the driver waits for server `Goodbye` stats after `Shutdown`.
const GOODBYE_WAIT: Duration = Duration::from_secs(10);

/// Runs the driver side of a multi-process chaos run: the same client
/// loops, monitor, and watchdog as [`crate::workload::run_chaos`], but
/// sending to external `chaos serve` processes at `topo.servers`.
///
/// # Errors
///
/// Returns a [`FaultConfigError`] when `cfg.faults` is unusable for this
/// topology — same validation as the in-process run.
///
/// # Panics
///
/// Panics on degenerate configurations (no servers/clients/ops, burst
/// violating the monitor window) and when `topo.servers` disagrees with
/// `cfg.servers` — programmer errors.
pub fn run_chaos_net(
    cfg: &RuntimeConfig,
    topo: &NetChaosTopology,
) -> Result<ChaosReport, FaultConfigError> {
    assert!(cfg.servers >= 1 && cfg.clients >= 1 && cfg.ops_per_client >= 1);
    assert!(cfg.k >= 1, "ABD^k requires k ≥ 1");
    assert!(cfg.burst >= 1);
    assert!(
        u64::from(cfg.clients) * cfg.burst <= 64,
        "clients × burst must fit the monitor's 64-invocation window"
    );
    assert_eq!(
        topo.servers.len(),
        cfg.servers as usize,
        "one server address per configured server"
    );
    let started = Instant::now();
    let nodes = cfg.servers + cfg.clients;
    let quorum = cfg.servers / 2 + 1;
    let recorder = Arc::new(FlightRecorder::new(4096));
    let ncfg = NetClientCfg {
        seed: cfg.seed,
        faults: cfg.faults,
        servers: topo.servers.clone(),
        clients: cfg.clients,
        // The driver owns every client→server link, so crash-window exits —
        // which the schedule ties to client-side sends — are signaled from
        // here, as exempt frames ahead of the triggering frame.
        signal_crashes: cfg.recovery.is_amnesia(),
    };
    let (net, receivers) = NetClient::connect(&ncfg, Arc::clone(&recorder))?;
    let barrier = Arc::new(Barrier::new(cfg.clients as usize));
    let retransmissions = Arc::new(AtomicU64::new(0));
    // Recoveries happen in the server processes; this sink exists only so
    // the watch line has something to read (it stays zero until goodbyes).
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
        let watch_net = Arc::clone(&net);
        Some(thread::spawn(move || {
            // Live recovery counts come over the telemetry channel — the
            // driver's own sink never sees a remote server's crashes.
            let remote = || watch_net.remote_recoveries();
            watch_loop(
                &cfg,
                started,
                &telemetry,
                &recorder,
                &sink,
                &stalled,
                &watch_stop_rx,
                Some(&remote),
            );
        }))
    } else {
        None
    };

    let mut clients = Vec::new();
    for (c, rx) in receivers.into_iter().enumerate() {
        let c = u32::try_from(c).expect("client index fits u32");
        let net = Arc::clone(&net);
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
                net.as_ref(),
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
    let goodbyes = net.shutdown(GOODBYE_WAIT);
    net.flush();
    let (monitor, observe_ns, lag_ops_hwm, violation_dump) =
        monitor.join().expect("monitor thread");
    drop(watch_stop_tx);
    if let Some(w) = watcher {
        w.join().expect("watch thread");
    }

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

    let ops = u64::from(cfg.clients) * cfg.ops_per_client;
    blunt_obs::static_counter!("runtime.ops.completed").add(ops);
    Ok(ChaosReport {
        ops,
        bus: net.stats(),
        coverage: net.coverage(),
        monitor,
        monitor_overhead: MonitorOverhead {
            actions: telemetry.actions_seen(),
            observe_ns,
            lag_ops_hwm,
        },
        violation_dump,
        stalled: stalled.load(Ordering::Relaxed),
        recovery: aggregate_goodbyes(&goodbyes),
        retransmissions: retransmissions.load(Ordering::Relaxed),
        latency_us: latency.snapshot(),
        elapsed: started.elapsed(),
        remote_servers,
        merged_flight: Some(merged),
    })
}

/// Sums server `Goodbye` stats into the report's [`RecoveryStats`].
/// Counters that never cross the wire (state queries, aborted catch-ups)
/// stay zero; a server that died without a goodbye contributes nothing.
fn aggregate_goodbyes(goodbyes: &[Option<ServerGoodbye>]) -> RecoveryStats {
    let mut total = RecoveryStats::default();
    for g in goodbyes.iter().flatten() {
        total.crashes += g.crashes;
        total.recoveries += g.recoveries;
        total.wal_records_lost += g.wal_lost;
        total.wal_records_replayed += g.wal_replayed;
    }
    total
}
