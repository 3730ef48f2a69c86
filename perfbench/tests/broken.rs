//! The per-run correctness checks catch a deliberately broken store: reads
//! that ask one replica and skip the write-back.

use blunt_perfbench::procstat::ticks_per_second;
use blunt_perfbench::timed::run_rep;
use blunt_perfbench::workload::Workload;

#[test]
fn checks_fail_on_broken_reads() {
    let wl = Workload::InprocUniform;
    // A stale read needs a read to overlap a write on the same key at a
    // replica the write has not reached yet, which depends on thread
    // timing; two hot keys make it likely, and a few seeds make it sure.
    let caught = (0..16).find_map(|seed| {
        let mut cfg = wl.store_config(seed, 3_000);
        cfg.keys = 2;
        cfg.broken_reads = true;
        let rep = run_rep(wl, &cfg, ticks_per_second(), true);
        rep.failures
            .iter()
            .any(|f| f.contains("monitor verdict not clean"))
            .then_some(rep)
    });
    let rep = caught.expect("broken reads went unnoticed on 16 seeds");
    assert!(rep.failed_ops > 0, "flagged segments count as failed ops");
}

#[test]
fn checks_pass_on_the_same_config_with_sound_reads() {
    let wl = Workload::InprocUniform;
    let mut cfg = wl.store_config(5, 3_000);
    cfg.keys = 2;
    let rep = run_rep(wl, &cfg, ticks_per_second(), true);
    assert!(rep.failures.is_empty(), "{:?}", rep.failures);
    assert_eq!(rep.failed_ops, 0);
}
