//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a run header, human-readable notes, one
//! `metric` line per metric, and, as the last line, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value":
//! …, "unit": …}}}`. With `--trace 1` the walk's spans go to
//! `.bench_out/spans-<workload>.jsonl`. Exit status: 0 when every check
//! passed, 1 when a check failed, 2 on a usage error.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use blunt_perfbench::bench::{self, Options, Outcome, Sizes};
use blunt_perfbench::timed::OUT_DIR;
use blunt_perfbench::workload::{Workload, BURST, PIPELINE_DEPTH};

const USAGE: &str = "usage: perfbench --workload inproc_uniform|inproc_amnesia|uds_hot \
                     --seed N --seconds N --trace 0|1";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out: Path::new(OUT_DIR).join(format!("spans-{}.jsonl", workload.name())),
        sizes: Sizes::FULL,
    })
}

/// The commit of the working directory's checkout, when it is a git
/// checkout.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn header(opts: &Options) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let wl = opts.workload;
    let sz = opts.sizes;
    let cfg = wl.store_config(opts.seed, sz.rep_ops_per_client);
    let mut lines = vec![
        format!(
            "# perfbench workload={} seed={} seconds={} trace={}",
            wl.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        ),
        format!(
            "# host: nproc={nproc} kernel={kernel} profile={profile} rustc=\"{}\" commit={}",
            env!("PERFBENCH_RUSTC"),
            git_commit()
        ),
        format!(
            "# load: closed loop, {} clients, pipeline depth {PIPELINE_DEPTH}, burst {BURST}, \
             {} shards × {} replicas, {} keys, {}‰ reads, batch {}, recovery {:?}",
            cfg.clients,
            cfg.shards,
            cfg.servers_per_shard,
            cfg.keys,
            cfg.read_per_mille,
            cfg.batch_max,
            cfg.recovery
        ),
        format!(
            "# ops: timed rep = {} × {} ops, warm-up = {} × {} ops",
            cfg.clients,
            sz.rep_ops_per_client,
            cfg.clients,
            (sz.rep_ops_per_client / 4).max(1)
        ),
    ];
    if opts.trace {
        lines.push(format!(
            "# walk: {} pairs of passes × {} ops of client 0's stream",
            sz.walk_pairs, sz.walk_ops
        ));
    } else {
        lines.push(format!(
            "# set-up: {} runs × {} clients × 1 op",
            sz.setup_runs, cfg.clients
        ));
    }
    lines
}

/// The result line.
fn result_json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    for line in header(&opts) {
        println!("{line}");
    }
    let out = bench::run(&opts);
    for n in &out.notes {
        println!("# {n}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
