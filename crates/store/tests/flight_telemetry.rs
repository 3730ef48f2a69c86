//! The flight recorder and coverage telemetry, end to end through the
//! single-register store shape:
//!
//! - two same-seed runs produce byte-identical coverage (and summary-grade
//!   deterministic counters), proving the instrumentation draws no
//!   randomness and never perturbs the fault schedule;
//! - a run that the monitor flags auto-captures a flight dump at the
//!   moment of detection, and the dump's space-time rendering contains the
//!   violating operations themselves;
//! - `watch` streams without changing any deterministic result, and the
//!   `watch_out` mirror appends one header per run.

use std::time::Duration;

use blunt_core::history::Action;
use blunt_core::value::Val;
use blunt_store::{run_store, run_store_with, RunOptions, StoreConfig};
use blunt_trace::{flight_space_time, DiagramOptions};

fn small(seed: u64) -> StoreConfig {
    let mut cfg = StoreConfig::register_smoke(seed);
    cfg.ops_per_client = 150;
    cfg
}

#[test]
fn same_seed_runs_have_identical_coverage_and_deterministic_counters() {
    let a = run_store(&small(0xC0FF_EE00)).expect("run a");
    let b = run_store(&small(0xC0FF_EE00)).expect("run b");
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(
        a.coverage.to_json().to_string(),
        b.coverage.to_json().to_string(),
        "coverage must serialize byte-identically for a fixed seed"
    );
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.monitor_actions, 2 * a.ops);
    assert_eq!(b.monitor_actions, 2 * b.ops);
    // The full chaos mix at this length exercises every fate.
    assert_eq!(
        a.coverage.fates_exercised(),
        vec![
            "deliver",
            "drop",
            "duplicate",
            "reorder",
            "delay",
            "crash_drop",
            "partition_drop"
        ]
    );
    // Links are (src, dst)-sorted with first-transmission totals that
    // reconcile against the transport counters.
    let offered: u64 = a.coverage.links.iter().map(|l| l.offered).sum();
    assert_eq!(offered, a.stats.offered);
    let mut keys: Vec<(u32, u32)> = a.coverage.links.iter().map(|l| (l.src, l.dst)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
    keys.dedup();
    assert_eq!(keys.len(), a.coverage.links.len(), "one entry per link");
}

#[test]
fn violation_captures_a_flight_dump_containing_the_violating_ops() {
    // The proven catch configuration (mirrors register_soak's
    // broken_fast_read test): unsound single-server reads under the full
    // fault mix.
    let mut cfg = StoreConfig::register_smoke(0x0BAD_5EED);
    cfg.broken_reads = true;
    cfg.read_per_mille = 400;
    let report = run_store(&cfg).expect("run");
    assert!(
        !report.monitor.violations.is_empty(),
        "the broken read must be caught"
    );
    let dump = report
        .violation_dump
        .as_ref()
        .expect("a violation must auto-capture a flight dump");
    assert!(!dump.is_empty());

    let lanes = cfg.lanes();
    let rendered = flight_space_time(dump, lanes, &DiagramOptions::default());
    assert!(
        rendered.contains("VIOLATION seg"),
        "the monitor's violation event is in the window:\n{rendered}"
    );

    // The dump is captured at the instant the monitor flags the first
    // violation, and the window's own actions are replayed into the
    // monitor's ring just before it — so every operation of that
    // violation's window is in the dump: its returned values must appear
    // in the rendering.
    let window = &report.monitor.violations[0].window;
    let mut checked = 0;
    for action in window.actions() {
        if let Action::Return {
            val: Val::Int(v), ..
        } = action
        {
            assert!(
                rendered.contains(&format!("ret {v}")),
                "violating op returning {v} missing from flight rendering"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "violation window has value-returning ops");

    // Round trip: the dump survives JSONL serialization and re-renders
    // byte-identically.
    let reparsed = blunt_obs::FlightDump::parse(&dump.to_jsonl()).expect("round trip");
    assert_eq!(
        flight_space_time(&reparsed, lanes, &DiagramOptions::default()),
        rendered
    );
}

#[test]
fn watch_mode_streams_without_perturbing_determinism() {
    let silent = run_store(&small(0x7E1E_3E7A)).expect("silent run");
    let opts = RunOptions {
        watch: Some(Duration::from_millis(20)),
        ..RunOptions::default()
    };
    let watched = run_store_with(&small(0x7E1E_3E7A), &opts).expect("watched run");
    assert_eq!(silent.coverage, watched.coverage);
    assert_eq!(silent.stats, watched.stats);
    assert_eq!(silent.ops, watched.ops);
    assert!(!watched.stalled);
    assert!(watched.violation_dump.is_none(), "clean run, no dump");
}

#[test]
fn watch_out_appends_one_header_per_run() {
    let dir = std::env::temp_dir().join(format!("blunt-store-watch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("watch.jsonl");
    let _ = std::fs::remove_file(&path);
    for label in ["first", "second"] {
        let opts = RunOptions {
            watch_out: Some(path.clone()),
            label: label.to_string(),
            ..RunOptions::default()
        };
        run_store_with(&small(0x7E1E_0007), &opts).expect("watched run");
    }
    let text = std::fs::read_to_string(&path).expect("mirror written");
    let headers: Vec<String> = text
        .lines()
        .map(|l| blunt_obs::Json::parse(l).expect("JSON line"))
        .filter(|d| d.get("type").and_then(blunt_obs::Json::as_str) == Some("chaos_watch"))
        .map(|d| {
            assert_eq!(
                d.get("schema_version").and_then(blunt_obs::Json::as_u64),
                Some(blunt_store::WATCH_SCHEMA_VERSION)
            );
            d.get("config")
                .and_then(blunt_obs::Json::as_str)
                .expect("header names its config")
                .to_string()
        })
        .collect();
    assert_eq!(headers, ["first", "second"], "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
