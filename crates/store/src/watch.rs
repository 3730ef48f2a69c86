//! Live run telemetry: the counters a run's watch/watchdog thread reads,
//! and the thread itself.
//!
//! Pure observation: nothing here feeds back into scheduling or the fault
//! plan, so a watched run and a silent run of the same seed produce the
//! same deterministic report.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use blunt_obs::{FlightRecorder, QuantileSketch};

use crate::run::RunOptions;

/// Schema version of the `--watch-out` JSONL mirror: per run, a
/// `chaos_watch` header record naming the config, followed by one
/// `watch_tick` record per tick. Several runs append to one file.
pub const WATCH_SCHEMA_VERSION: u64 = 2;

/// Watchdog: a run in which no operation completes for this long is marked
/// stalled and its flight window captured.
pub const STALL_AFTER: Duration = Duration::from_secs(60);

/// The watch cadence when only the JSONL mirror or the watchdog runs.
const DEFAULT_TICK: Duration = Duration::from_millis(250);

/// A counter on cache lines of its own. Every telemetry counter has a
/// single writer — one client, or one shard monitor — so keeping them
/// apart means the hot path never contends for a line another thread
/// writes.
#[derive(Default)]
#[repr(align(128))]
struct Cell(AtomicU64);

impl Cell {
    fn add(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

fn sum<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> u64 {
    cells.into_iter().map(Cell::get).sum()
}

/// Live counters shared by clients, shard monitors and the watch thread.
pub(crate) struct Telemetry {
    shards: usize,
    /// Per client: ops invoked (`Call` sent).
    calls: Vec<Cell>,
    /// Per client: ops completed (`Return` sent).
    returns: Vec<Cell>,
    /// Per client × shard (index `client × shards + shard`): actions the
    /// client sent to the shard's monitor.
    sent: Vec<Cell>,
    /// Per shard: actions the shard's monitor has observed.
    seen: Vec<Cell>,
    /// Per client: streaming per-op latency (µs), merged at each tick.
    sketches: Vec<QuantileSketch>,
}

impl Telemetry {
    pub(crate) fn new(clients: u32, shards: u32) -> Telemetry {
        let cells = |n: u32| (0..n).map(|_| Cell::default()).collect();
        Telemetry {
            shards: shards as usize,
            calls: cells(clients),
            returns: cells(clients),
            sent: cells(clients * shards),
            seen: cells(shards),
            sketches: (0..clients).map(|_| QuantileSketch::new()).collect(),
        }
    }

    /// Client `c` is about to send an op's `Call` to `shard`'s monitor.
    pub(crate) fn on_call(&self, c: u32, shard: u32) {
        self.calls[c as usize].add();
        self.sent[c as usize * self.shards + shard as usize].add();
    }

    /// Client `c` is about to send an op's `Return` to `shard`'s monitor.
    pub(crate) fn on_return(&self, c: u32, shard: u32, lat_us: u64) {
        self.sketches[c as usize].record(lat_us);
        self.returns[c as usize].add();
        self.sent[c as usize * self.shards + shard as usize].add();
    }

    /// `shard`'s monitor observed one action; returns its backlog now.
    pub(crate) fn on_observed(&self, shard: u32) -> u64 {
        let shard = shard as usize;
        self.seen[shard].add();
        let sent = sum(self.sent.iter().skip(shard).step_by(self.shards));
        sent.saturating_sub(self.seen[shard].get())
    }

    /// Actions observed across every shard monitor.
    pub(crate) fn actions_seen(&self) -> u64 {
        sum(&self.seen)
    }
}

/// The running watch/watchdog thread; [`Watcher::finish`] stops it.
pub(crate) struct Watcher {
    stop: mpsc::Sender<()>,
    stalled: Arc<AtomicBool>,
    handle: thread::JoinHandle<()>,
}

/// What a watcher needs to know about its run.
pub(crate) struct WatchCtx {
    pub(crate) opts: RunOptions,
    pub(crate) seed: u64,
    /// Diagram lanes for a stall dump.
    pub(crate) lanes: usize,
    pub(crate) started: Instant,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) recorder: Arc<FlightRecorder>,
    /// The run's live recovery count: the in-process recovery sinks, or
    /// the telemetry remote servers ship over the wire.
    pub(crate) recoveries: Box<dyn Fn() -> u64 + Send>,
}

impl Watcher {
    /// Starts the thread: a progress line every [`RunOptions::watch`]
    /// interval, a JSONL mirror appended to [`RunOptions::watch_out`], and a
    /// flight dump if no operation completes for [`STALL_AFTER`].
    pub(crate) fn spawn(ctx: WatchCtx) -> Watcher {
        let (stop, stop_rx) = mpsc::channel::<()>();
        let stalled = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stalled);
        let handle = thread::spawn(move || watch_loop(&ctx, &flag, &stop_rx));
        Watcher {
            stop,
            stalled,
            handle,
        }
    }

    /// Writes the final tick, joins the thread, and says whether the
    /// watchdog fired.
    pub(crate) fn finish(self) -> bool {
        drop(self.stop);
        self.handle.join().expect("watch thread");
        self.stalled.load(Ordering::Relaxed)
    }
}

/// The combined watch/watchdog loop. Exits when the run drops its end of
/// `stop_rx`.
fn watch_loop(ctx: &WatchCtx, stalled: &AtomicBool, stop_rx: &Receiver<()>) {
    let opts = &ctx.opts;
    let t = &ctx.telemetry;
    let tick = opts.watch.unwrap_or(DEFAULT_TICK);
    let mut last_ops: u64 = 0;
    let mut last_tick = ctx.started;
    let mut progressed_at = Instant::now();
    let mut dumped = false;
    // Appended, never truncated: several runs (a CLI config set) share one
    // mirror, each behind its own header.
    let mut watch_file = opts.watch_out.as_ref().and_then(|p| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
            .ok()?;
        let config = blunt_obs::Json::Str(opts.label.clone());
        writeln!(
            f,
            "{{\"type\":\"chaos_watch\",\"schema_version\":{WATCH_SCHEMA_VERSION},\
             \"config\":{config},\"seed\":{}}}",
            ctx.seed
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
        let ops = sum(&t.returns);
        let in_flight = sum(&t.calls).saturating_sub(ops);
        let sketch = QuantileSketch::new();
        for c in &t.sketches {
            sketch.merge(c);
        }
        let dt = now.duration_since(last_tick).as_secs_f64().max(1e-9);
        let rate = (ops.saturating_sub(last_ops)) as f64 / dt;
        let lag = sum(&t.sent).saturating_sub(t.actions_seen());
        let recoveries = (ctx.recoveries)();
        if opts.watch.is_some() {
            eprintln!(
                "chaos[watch] t={:.1}s ops={ops} (+{rate:.0}/s) in_flight={} \
                 lat p50/p99={}µs/{}µs recoveries={recoveries} monitor_lag={lag}",
                now.duration_since(ctx.started).as_secs_f64(),
                in_flight,
                sketch.quantile(0.5),
                sketch.quantile(0.99),
            );
        }
        if let Some(f) = watch_file.as_mut() {
            let write_tick = writeln!(
                f,
                "{{\"type\":\"watch_tick\",\"t_ms\":{},\"ops\":{ops},\"ops_per_sec\":{},\
                 \"in_flight\":{},\"lat_p50_us\":{},\"lat_p99_us\":{},\
                 \"recoveries\":{recoveries},\"monitor_lag\":{lag}}}",
                now.duration_since(ctx.started).as_millis(),
                rate.round().max(0.0) as u64,
                in_flight,
                sketch.quantile(0.5),
                sketch.quantile(0.99),
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
        if !dumped && now.duration_since(progressed_at) >= STALL_AFTER {
            dumped = true;
            stalled.store(true, Ordering::Relaxed);
            eprintln!(
                "chaos[watchdog] no operation completed for {STALL_AFTER:?}; capturing flight dump"
            );
            let dump = ctx.recorder.dump();
            if let Some(dir) = &opts.flight_dump_dir {
                let rendered = blunt_trace::flight_space_time(
                    &dump.last_n(800),
                    ctx.lanes,
                    &blunt_trace::DiagramOptions::default(),
                );
                let _ = std::fs::create_dir_all(dir);
                // Process-unique stem: a second stalling run in the same
                // process (e.g. a seed sweep) must not clobber the first
                // dump's evidence.
                let stem = blunt_obs::flight::unique_dump_stem("stall");
                let _ = std::fs::write(dir.join(format!("{stem}.flight.jsonl")), dump.to_jsonl());
                let _ = std::fs::write(dir.join(format!("{stem}.diagram.txt")), rendered);
            }
        }
    }
}
