//! One benchmark run: timed repetitions (and, with tracing, the layer
//! walk), the correctness checks, and the metrics they yield.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use blunt_net::FaultConfig;

use crate::stats::{beyond, interp_quantile, summarize, Summary};
use crate::timed::{self, Rep};
use crate::trace::{self, Traced, Untraced};
use crate::workload::{rep_seed, Workload, REP_OPS_PER_CLIENT};
use crate::{micro, procstat, walk};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Time budget for the timed repetitions.
    pub seconds: u64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics and the walk.
    pub trace: bool,
    /// Where the walk's spans go (`--trace 1` only).
    pub spans_out: PathBuf,
    /// Run sizes.
    pub sizes: Sizes,
}

/// How much work a run does. [`Sizes::FULL`] is the benchmark; tests use
/// tiny sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Ops per client in one timed repetition.
    pub rep_ops_per_client: u64,
    /// Set-up runs (1 op per client) whose median is `setup_s`.
    pub setup_runs: usize,
    /// Timed repetitions made even when the time budget is spent.
    pub min_reps: usize,
    /// Ops in one pass of the walk.
    pub walk_ops: u64,
    /// Pairs of (untraced, traced) walk passes.
    pub walk_pairs: usize,
    /// Calls per timed loop of the micro-benchmarks.
    pub micro_iters: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        rep_ops_per_client: REP_OPS_PER_CLIENT,
        setup_runs: 9,
        min_reps: 3,
        walk_ops: 2048,
        walk_pairs: 5,
        micro_iters: 100_000,
    };
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted across every checked store run.
    pub attempted: u64,
    /// Failed ops plus runs that failed a check.
    pub failed: u64,
    /// The metrics for this mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: per-metric spreads, sample counts, failures.
    pub notes: Vec<String>,
}

/// Ops and failures over every checked store run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, what: &str, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed_ops + u64::from(!rep.failures.is_empty());
        for f in &rep.failures {
            self.failures.push(format!("{what}: {f}"));
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn note(name: &str, unit: &str, s: &Summary) -> String {
    format!(
        "{name}: median {:.4} {unit} (q1 {:.4}, q3 {:.4}, n = {} reps)",
        s.median, s.q1, s.q3, s.n
    )
}

/// Runs the benchmark as `opts` says.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let wl = opts.workload;
    let sz = opts.sizes;
    let ticks = procstat::ticks_per_second();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let started = Instant::now();

    // Warm-up: page in code and grow allocator arenas before timing.
    let warm = wl.store_config(opts.seed, (sz.rep_ops_per_client / 4).max(1));
    tally.add("warm-up", &timed::run_rep(wl, &warm, ticks, false));

    let rep_cfg = wl.store_config(rep_seed(opts.seed, 0), sz.rep_ops_per_client);
    let mut setup_s = Vec::new();
    if !opts.trace {
        let cfg = wl.store_config(opts.seed, 1);
        for _ in 0..sz.setup_runs {
            let rep = timed::run_rep(wl, &cfg, ticks, false);
            tally.add("set-up run", &rep);
            setup_s.push(rep.wall_s);
        }
    }
    // With tracing, the walk gets most of the budget; the timed
    // repetitions there only supply counts and CPU per op.
    let budget = Duration::from_secs(if opts.trace {
        opts.seconds * 2 / 5
    } else {
        opts.seconds
    });
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < sz.min_reps || (started.elapsed() < budget && reps.len() < 200) {
        let i = reps.len() as u64;
        let cfg = wl.store_config(rep_seed(opts.seed, i), sz.rep_ops_per_client);
        let rep = timed::run_rep(wl, &cfg, ticks, true);
        tally.add(&format!("timed rep {i} (store seed {})", cfg.seed), &rep);
        reps.push(rep);
    }

    let ops: u64 = reps.iter().map(|r| r.attempted).sum();
    // On a shared VM the hypervisor can take a quarter of the machine's CPU
    // for tens of seconds, and the store's fixed retransmission timeout
    // turns that into retransmission storms that halve throughput. The
    // end-to-end figures come from the half of the repetitions during
    // which the host stole the least CPU time; the notes list every
    // repetition.
    let mut by_steal: Vec<&Rep> = reps.iter().collect();
    by_steal.sort_by(|a, b| a.host_idle_steal.1.total_cmp(&b.host_idle_steal.1));
    let kept = &by_steal[..reps.len().div_ceil(2)];
    let per_rep =
        |f: &dyn Fn(&Rep) -> f64| summarize(&kept.iter().map(|r| f(r)).collect::<Vec<_>>());
    let ops_per_s = per_rep(&|r| r.attempted as f64 / r.wall_s);
    let cpu_us_per_op = per_rep(&|r| r.cpu_s * 1e6 / r.attempted as f64);
    notes.push(format!(
        "timed reps: {} × ({} clients × {} ops) = {ops} ops; the {} with the least host steal \
         give the end-to-end figures",
        reps.len(),
        rep_cfg.clients,
        rep_cfg.ops_per_client,
        kept.len()
    ));
    for (i, r) in reps.iter().enumerate() {
        let lat = &r.report.latency_us;
        notes.push(format!(
            "rep {i}: {:.0} ops/s, {:.2} cpu us/op, {:.3} retransmissions/op, \
             p50/p99/p99.9 {:.0}/{:.0}/{:.0} us, host idle {:.1}% steal {:.1}%",
            r.attempted as f64 / r.wall_s,
            r.cpu_s * 1e6 / r.attempted as f64,
            r.report.retransmissions as f64 / r.attempted as f64,
            interp_quantile(lat, 0.5),
            interp_quantile(lat, 0.99),
            interp_quantile(lat, 0.999),
            100.0 * r.host_idle_steal.0,
            100.0 * r.host_idle_steal.1
        ));
    }
    notes.push(note("ops_per_s", "1/s", &ops_per_s));
    notes.push(note("cpu_us_per_op", "us", &cpu_us_per_op));
    let lat_mean = per_rep(&|r| r.report.latency_us.mean());
    notes.push(note("lat_mean_us", "us", &lat_mean));
    let samples = rep_cfg.ops_per_client * u64::from(rep_cfg.clients);
    let [p50, p99, p999] = [
        ("lat_p50_us", 0.5),
        ("lat_p99_us", 0.99),
        ("lat_p999_us", 0.999),
    ]
    .map(|(name, q)| {
        let s = per_rep(&|r| interp_quantile(&r.report.latency_us, q));
        notes.push(format!(
            "{}; {samples} samples per rep, {} beyond",
            note(name, "us", &s),
            beyond(&reps[0].report.latency_us, q)
        ));
        s.median
    });

    let mut metrics = Vec::new();
    let mut push = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit });
    };
    if opts.trace {
        per_layer(
            opts,
            &reps,
            (cpu_us_per_op.median, p99, p999),
            &mut tally,
            &mut notes,
            &mut push,
        );
    } else {
        push("ops_per_s", ops_per_s.median, "1/s");
        push("cpu_us_per_op", cpu_us_per_op.median, "us");
        push("lat_mean_us", lat_mean.median, "us");
        push("lat_p50_us", p50, "us");
        let setup = summarize(&setup_s);
        notes.push(note("setup_s", "s", &setup));
        push("setup_s", setup.median, "s");
        if wl.is_faulted() {
            let (sum, n) = reps.iter().fold((0, 0), |(s, n), r| {
                (s + r.recovery_latency.0, n + r.recovery_latency.1)
            });
            notes.push(format!(
                "recovery_mean_us: {:.1} us over {n} recoveries",
                ratio(sum as f64, n as f64)
            ));
        }
    }

    let share = ratio(tally.failed as f64, tally.attempted as f64);
    notes.push(format!(
        "failed_op_share: {share} ({} of {} attempted)",
        tally.failed, tally.attempted
    ));
    for f in &tally.failures {
        notes.push(format!("CHECK FAILED: {f}"));
    }
    Outcome {
        correct: tally.failures.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

/// Per-layer metrics: counts from the timed repetitions, the tail latency
/// quantiles (too unsteady on a shared host to bound), times from the walk
/// and the micro-benchmarks. The tuple holds `cpu_us_per_op`,
/// `lat_p99_us` and `lat_p999_us` of the timed repetitions.
fn per_layer(
    opts: &Options,
    reps: &[Rep],
    (cpu_us_per_op, p99, p999): (f64, f64, f64),
    tally: &mut Tally,
    notes: &mut Vec<String>,
    push: &mut impl FnMut(&'static str, f64, &'static str),
) {
    let wl = opts.workload;
    let sz = opts.sizes;
    let n = reps.len() as f64;
    let ops: f64 = reps.iter().map(|r| r.attempted as f64).sum();
    let sum = |name: &str| reps.iter().map(|r| r.counter(name) as f64).sum::<f64>();
    let sum_of = |f: &dyn Fn(&Rep) -> u64| reps.iter().map(|r| f(r) as f64).sum::<f64>();

    push(
        "bus.delivered_per_op",
        sum("runtime.bus.delivered") / ops,
        "count/op",
    );
    push(
        "client.retrans_per_op",
        sum_of(&|r| r.report.retransmissions) / ops,
        "count/op",
    );
    push(
        "client.degraded_ops",
        sum_of(&|r| r.report.degraded_ops) / n,
        "count/rep",
    );
    push(
        "batch.flushes_per_op",
        sum("store.batch.flushes") / ops,
        "count/op",
    );
    push(
        "batch.envelopes_per_flush",
        ratio(sum("store.batch.envelopes"), sum("store.batch.flushes")),
        "count",
    );
    push(
        "net.frames_per_op",
        sum("net.frames_sent") / ops,
        "count/op",
    );
    push("net.bytes_per_op", sum("net.bytes_sent") / ops, "B/op");
    push(
        "net.envelopes_per_frame",
        ratio(sum("net.batch.envelopes"), sum("net.batch.frames")),
        "count",
    );
    push(
        "net.dedup_drops",
        sum("net.rpc.dedup_drops") / n,
        "count/rep",
    );
    push(
        "net.tag_mismatch_drops",
        sum("net.rpc.tag_mismatch_drops") / n,
        "count/rep",
    );
    push(
        "storage.appends_per_op",
        sum("runtime.storage.wal_appends") / ops,
        "count/op",
    );
    push(
        "storage.fsyncs_per_op",
        sum("runtime.storage.fsyncs") / ops,
        "count/op",
    );
    push(
        "storage.records_per_fsync",
        ratio(
            sum("runtime.storage.wal_appends"),
            sum("runtime.storage.fsyncs"),
        ),
        "count",
    );
    let recoveries: Vec<f64> = reps
        .iter()
        .map(|r| r.report.recovery.recoveries as f64)
        .collect();
    push("recovery.count", summarize(&recoveries).median, "count/rep");
    push(
        "recovery.state_queries_per_recovery",
        ratio(
            sum("runtime.recovery.state_queries"),
            sum("runtime.recovery.recoveries"),
        ),
        "count",
    );
    push(
        "recovery.catchup_aborted",
        sum("runtime.recovery.catchup_aborted") / n,
        "count/rep",
    );
    push(
        "recovery.mean_us",
        ratio(
            sum_of(&|r| r.recovery_latency.0),
            sum_of(&|r| r.recovery_latency.1),
        ),
        "us",
    );
    push(
        "monitor.actions_per_op",
        sum("runtime.monitor.actions") / ops,
        "count/op",
    );
    push(
        "monitor.segments_per_op",
        sum("runtime.monitor.segments") / ops,
        "count/op",
    );
    push(
        "lincheck.wgl.states_per_check",
        ratio(sum("lincheck.wgl.states"), sum("lincheck.wgl.checks")),
        "count",
    );
    push(
        "process.cpu_util",
        ratio(
            reps.iter().map(|r| r.cpu_s).sum(),
            reps.iter().map(|r| r.wall_s).sum(),
        ),
        "cpu_s/s",
    );
    push("lat_p99_us", p99, "us");
    push("lat_p999_us", p999, "us");

    // The walk: untraced and traced passes alternate; the spans of the
    // last traced pass are kept and written out.
    let mut untraced_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut spans = Vec::new();
    let walk_check = |what: &str, p: &walk::Pass, tally: &mut Tally| {
        tally.attempted += sz.walk_ops;
        let mut bad = Vec::new();
        if p.ops != sz.walk_ops {
            bad.push(format!(
                "{what}: completed {} of {} ops",
                p.ops, sz.walk_ops
            ));
        }
        if !p.clean {
            bad.push(format!("{what}: monitor flagged the walk's history"));
        }
        tally.failed += sz.walk_ops - p.ops.min(sz.walk_ops) + u64::from(!bad.is_empty());
        tally.failures.extend(bad);
    };
    for _ in 0..sz.walk_pairs {
        let p = walk::run_pass(Untraced, wl, rep_seed(opts.seed, 0), sz.walk_ops);
        walk_check("untraced walk", &p, tally);
        untraced_ns.push(p.wall_ns as f64);
        let (p, s) =
            trace::record(|| walk::run_pass(Traced, wl, rep_seed(opts.seed, 0), sz.walk_ops));
        walk_check("traced walk", &p, tally);
        traced_ns.push(p.wall_ns as f64);
        spans = s;
    }
    let untraced = summarize(&untraced_ns).median;
    let traced = summarize(&traced_ns).median;
    let walk_ops = sz.walk_ops as f64;
    let by_name = trace::self_time_by_name(&spans);
    let calls = |name: &str| by_name.get(name).map_or(0.0, |&(c, _)| c as f64);
    let self_ns = |name: &str| by_name.get(name).map_or(0.0, |&(_, t)| t as f64);
    let mean = |name: &str| ratio(self_ns(name), calls(name));

    push(
        "walk.bus.send_recv_ns",
        ratio(self_ns("bus.send") + self_ns("bus.recv"), calls("bus.send")),
        "ns",
    );
    let iters = sz.micro_iters;
    let bus_2thr = if wl.is_socket() {
        0.0
    } else {
        micro::bus_send_2thr_ns(iters)
    };
    push("walk.bus.send_ns_2thr", bus_2thr, "ns");
    push("walk.ring.shard_for_ns", mean("ring.shard_for"), "ns");
    let cfg = wl.store_config(opts.seed, sz.rep_ops_per_client);
    push(
        "walk.batch.flush_ns",
        micro::batch_flush_ns(cfg.batch_max, iters / 16),
        "ns",
    );
    push("walk.net.frame_encode_ns", mean("net.frame_encode"), "ns");
    push("walk.net.frame_decode_ns", mean("net.frame_decode"), "ns");
    let (enc16, dec16) = if wl.is_socket() {
        micro::batch16_codec_ns(iters / 16)
    } else {
        (0.0, 0.0)
    };
    push("walk.net.batch16_encode_ns", enc16, "ns");
    push("walk.net.batch16_decode_ns", dec16, "ns");
    push("walk.net.rpc_ns", mean("net.rpc"), "ns");
    push(
        "walk.net.injector_decide_none_ns",
        micro::injector_decide_ns(&cfg, FaultConfig::none(), iters),
        "ns",
    );
    push(
        "walk.net.injector_decide_light_ns",
        micro::injector_decide_ns(&cfg, FaultConfig::light(), iters),
        "ns",
    );
    push(
        "walk.abd.op_round_ns",
        self_ns("abd.client") / walk_ops,
        "ns/op",
    );
    push("walk.abd.state_reply_ns", mean("abd.state_reply"), "ns");
    push("walk.abd.state_absorb_ns", mean("abd.state_absorb"), "ns");
    push("walk.storage.append_ns", mean("storage.append"), "ns");
    push("walk.storage.fsync_ns", mean("storage.fsync"), "ns");
    push("walk.monitor.observe_ns", mean("monitor.observe"), "ns");
    let (flight, inc, named, cached) = micro::obs_ns(iters);
    push("walk.obs.flight_record_ns", flight, "ns");
    push("walk.obs.counter_inc_ns", inc, "ns");
    push("walk.obs.histogram_record_ns", named, "ns");
    push("walk.obs.histogram_cached_ns", cached, "ns");
    let total_us = untraced / walk_ops / 1e3;
    push("walk.total_us_per_op", total_us, "us");
    push("walk.coord_us_per_op", cpu_us_per_op - total_us, "us");
    push(
        "walk.trace_overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
    push(
        "failed_op_share",
        ratio(tally.failed as f64, tally.attempted as f64),
        "share",
    );
    notes.push(format!(
        "walk: {} pairs of passes × {} ops; {} spans in the last traced pass",
        sz.walk_pairs,
        sz.walk_ops,
        spans.len()
    ));
    for (name, (c, t)) in &by_name {
        notes.push(format!(
            "walk self time {name}: {c} calls, {:.1} ns/call, {:.3} us/op",
            ratio(*t as f64, *c as f64),
            *t as f64 / walk_ops / 1e3
        ));
    }
    if let Some(dir) = opts.spans_out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&opts.spans_out, trace::to_jsonl(&spans)) {
        Ok(()) => notes.push(format!("spans written to {}", opts.spans_out.display())),
        Err(e) => notes.push(format!(
            "spans not written to {}: {e}",
            opts.spans_out.display()
        )),
    }
}
