//! The chaos CLI's single-register amnesia configs, built the way the CLI
//! builds them (`StoreConfig::register_smoke(seed ^ k)` under the amnesia
//! profile), pinned at seed 48879 to the counters `crates/bench/baseline.json`
//! gates: a driver change that would trip the bench-report gate fails
//! here first.

use blunt_runtime::{FaultConfig, RecoveryMode};
use blunt_store::{run_store_with, RunOptions, StoreConfig};

/// `smoke.abd_k{k}_amnesia` at seed 48879: (crash events, recoveries).
fn amnesia_counts(k: u32) -> (u64, u64) {
    let mut cfg = StoreConfig::register_smoke(48879 ^ u64::from(k));
    cfg.faults = FaultConfig::chaos();
    cfg.recovery = RecoveryMode::amnesia();
    let opts = RunOptions {
        k,
        ..RunOptions::default()
    };
    let r = run_store_with(&cfg, &opts).expect("valid fault config");
    assert!(
        r.monitor.clean(),
        "k={k} violations: {:?}",
        r.monitor.violations
    );
    assert_eq!(r.ops, 2_000);
    assert_eq!(r.monitor_actions, 4_000);
    assert_eq!(r.recovery.crashes, r.recovery.recoveries);
    (r.stats.crash_events, r.recovery.recoveries)
}

#[test]
fn register_amnesia_configs_recover_exactly_as_the_baseline_pins() {
    assert_eq!(amnesia_counts(1), (15, 15), "smoke.abd_k1_amnesia");
    assert_eq!(amnesia_counts(2), (24, 24), "smoke.abd_k2_amnesia");
}
