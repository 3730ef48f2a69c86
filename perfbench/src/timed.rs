//! Timed runs: one call into the store per repetition, with no tracing
//! beyond what the program always does. Each repetition yields the
//! end-to-end figures, the deltas of the program's global `blunt_obs`
//! counters, and the outcome of the per-run correctness checks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use blunt_net::Addr;
use blunt_obs::{HistogramSnapshot, Snapshot};
use blunt_runtime::{run_net_server, NetServeConfig};
use blunt_store::{run_store, run_store_net, StoreConfig, StoreReport};

use crate::procstat;
use crate::workload::Workload;

/// The global counters whose per-run deltas feed the per-layer metrics.
pub const COUNTERS: [&str; 19] = [
    "runtime.bus.delivered",
    "runtime.bus.lost",
    "store.batch.flushes",
    "store.batch.envelopes",
    "net.frames_sent",
    "net.bytes_sent",
    "net.batch.frames",
    "net.batch.envelopes",
    "net.rpc.dedup_drops",
    "net.rpc.tag_mismatch_drops",
    "runtime.storage.wal_appends",
    "runtime.storage.fsyncs",
    "runtime.recovery.recoveries",
    "runtime.recovery.state_queries",
    "runtime.recovery.catchup_aborted",
    "runtime.monitor.actions",
    "runtime.monitor.segments",
    "lincheck.wgl.checks",
    "lincheck.wgl.states",
];

/// How long a socket-tier driver waits for the servers' `Goodbye` frames
/// after `Shutdown` before giving up on the missing ones (the program's
/// own constant; a missing goodbye shows as a wait this long).
const GOODBYE_WAIT: Duration = Duration::from_secs(10);

/// What one repetition measured and checked.
#[derive(Debug)]
pub struct Rep {
    /// Ops the configuration asked for (`clients × ops_per_client`).
    pub attempted: u64,
    /// Wall time of the store call, seconds.
    pub wall_s: f64,
    /// Process CPU (user + system) spent during the call, seconds.
    pub cpu_s: f64,
    /// Shares of the host's CPU time during the call that were idle and
    /// stolen by the hypervisor (whole machine, not just this process).
    pub host_idle_steal: (f64, f64),
    /// The program's own report.
    pub report: StoreReport,
    /// Per-run deltas of [`COUNTERS`].
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-run delta of the `runtime.recovery.latency_us` histogram:
    /// `(sum µs, count)`.
    pub recovery_latency: (u64, u64),
    /// Ops that did not complete or sit in a segment the monitor flagged.
    pub failed_ops: u64,
    /// Every correctness check that failed, in words.
    pub failures: Vec<String>,
}

impl Rep {
    /// Counter delta by name (0 for names outside [`COUNTERS`]).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Directory (relative to the working directory) for run artifacts:
/// spans files and per-run socket directories.
pub const OUT_DIR: &str = ".bench_out";

static SOCKET_DIRS: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty socket directory for one socket-tier run, unique within
/// and across processes. The path is relative and short: Unix socket
/// paths must fit in 108 bytes wherever the checkout lives.
fn fresh_socket_dir() -> PathBuf {
    let n = SOCKET_DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(OUT_DIR).join(format!("uds-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("socket directory is creatable");
    dir
}

/// Runs `cfg` over Unix sockets: one `run_net_server` thread per replica
/// plus `run_store_net`, in a fresh socket directory removed afterwards.
/// Returns the report and whether every server's `Goodbye` reached the
/// driver.
///
/// A server thread returns only after writing its `Goodbye`; the driver
/// returns as soon as every goodbye has arrived, or after waiting
/// [`GOODBYE_WAIT`] for the missing ones. So all goodbyes arrived iff every
/// server returned cleanly and the driver did not sit out that wait.
fn run_uds(cfg: &StoreConfig) -> (StoreReport, bool) {
    let dir = fresh_socket_dir();
    let total = cfg.servers_total();
    let addrs: Vec<Addr> = (0..total)
        .map(|i| Addr::parse(dir.join(format!("s{i}.sock")).to_str().expect("UTF-8 path")))
        .collect();
    let servers: Vec<_> = (0..total)
        .map(|i| {
            let scfg = NetServeConfig {
                listen: addrs[i as usize].clone(),
                server_id: i,
                servers: total,
                clients: cfg.clients,
                peers: addrs.clone(),
                seed: cfg.seed,
                faults: cfg.faults,
                recovery: cfg.recovery,
                shard_size: Some(cfg.servers_per_shard),
                dump_dir: None,
            };
            thread::spawn(move || {
                let out = run_net_server(&scfg);
                (out.is_ok(), Instant::now())
            })
        })
        .collect();
    let report = run_store_net(cfg, &addrs).expect("workload fault configs are valid");
    let driver_done = Instant::now();
    let mut all_ok = true;
    let mut last_server = None::<Instant>;
    for s in servers {
        let (ok, at) = s.join().expect("server thread");
        all_ok &= ok;
        last_server = Some(last_server.map_or(at, |l| l.max(at)));
    }
    let waited = last_server.map_or(Duration::ZERO, |l| driver_done.saturating_duration_since(l));
    let _ = std::fs::remove_dir_all(&dir);
    (report, all_ok && waited < GOODBYE_WAIT / 2)
}

fn histogram<'a>(s: &'a Snapshot, name: &str) -> Option<&'a HistogramSnapshot> {
    s.histograms.iter().find(|(k, _)| k == name).map(|(_, h)| h)
}

/// Runs one repetition of `wl` with configuration `cfg` and checks it.
/// `timed` marks a measured repetition (as opposed to a set-up run of one
/// op per client), which must also show a recovery on every shard when
/// the workload crashes servers.
#[must_use]
pub fn run_rep(wl: Workload, cfg: &StoreConfig, ticks: u64, timed: bool) -> Rep {
    let before = blunt_obs::snapshot();
    let host0 = procstat::host_ticks();
    let cpu0 = procstat::cpu_seconds(ticks);
    let t0 = Instant::now();
    let (report, goodbyes_ok) = if wl.is_socket() {
        run_uds(cfg)
    } else {
        (
            run_store(cfg).expect("workload fault configs are valid"),
            true,
        )
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procstat::cpu_seconds(ticks) - cpu0;
    let host1 = procstat::host_ticks();
    let host_total = host1.0.saturating_sub(host0.0).max(1) as f64;
    let host_idle_steal = (
        host1.1.saturating_sub(host0.1) as f64 / host_total,
        host1.2.saturating_sub(host0.2) as f64 / host_total,
    );
    let after = blunt_obs::snapshot();

    let counters = COUNTERS
        .iter()
        .map(|&n| {
            let d = after.counter(n).unwrap_or(0) - before.counter(n).unwrap_or(0);
            (n, d)
        })
        .collect();
    let hist = |s: &Snapshot| {
        histogram(s, "runtime.recovery.latency_us").map_or((0, 0), |h| (h.sum, h.count))
    };
    let (a, b) = (hist(&after), hist(&before));
    let recovery_latency = (a.0 - b.0, a.1 - b.1);

    let attempted = u64::from(cfg.clients) * cfg.ops_per_client;
    let mut rep = Rep {
        attempted,
        wall_s,
        cpu_s,
        host_idle_steal,
        report,
        counters,
        recovery_latency,
        failed_ops: 0,
        failures: Vec::new(),
    };
    check(wl, cfg, goodbyes_ok, timed, &mut rep);
    rep
}

/// The per-run correctness checks. Each failure is recorded in words;
/// ops that did not complete or sit in a flagged segment count as failed.
fn check(wl: Workload, cfg: &StoreConfig, goodbyes_ok: bool, timed: bool, rep: &mut Rep) {
    let r = &rep.report;
    let mut failures = Vec::new();
    // Every completion records one latency sample, so the histogram count
    // is the number of ops that really completed.
    let completed = r.latency_us.count;
    let missing = rep.attempted.saturating_sub(completed);
    if missing > 0 || r.ops != rep.attempted {
        failures.push(format!(
            "ops completed {completed} (report says {}) != clients × ops_per_client {}",
            r.ops, rep.attempted
        ));
    }
    if r.monitor_actions != 2 * rep.attempted {
        failures.push(format!(
            "monitor saw {} actions, expected 2 × {}",
            r.monitor_actions, rep.attempted
        ));
    }
    let flagged: u64 = r
        .monitor
        .violations
        .iter()
        .map(|v| v.window.actions().iter().filter(|a| a.is_call()).count() as u64)
        .sum();
    if !r.monitor.clean() {
        failures.push(format!(
            "monitor verdict not clean: {} violation(s) covering {flagged} op(s), overflowed = {}",
            r.monitor.violations.len(),
            r.monitor.overflowed
        ));
    }
    if !wl.is_faulted() {
        let lost = rep.counter("runtime.bus.lost");
        if lost != 0 || r.stats.dropped != 0 {
            failures.push(format!(
                "fault-free run lost envelopes: runtime.bus.lost = {lost}, dropped = {}",
                r.stats.dropped
            ));
        }
    }
    if cfg.recovery.is_amnesia() {
        let rc = &r.recovery;
        if rc.crashes != rc.recoveries {
            failures.push(format!(
                "crashes {} != recoveries {}",
                rc.crashes, rc.recoveries
            ));
        }
        // A set-up run of one op per client never reaches a crash window.
        if timed {
            for (shard, &(_, rec)) in r.shard_recoveries.iter().enumerate() {
                if rec == 0 {
                    failures.push(format!("shard {shard} never recovered"));
                }
            }
        }
    }
    if wl.is_socket() && !goodbyes_ok {
        failures.push("not every server's Goodbye reached the driver".to_string());
    }
    rep.failed_ops = missing + flagged;
    rep.failures = failures;
}
