//! The benchmark's own arithmetic: interpolated quantiles, quartile
//! summaries, and the `/proc` parsers.

use blunt_obs::Histogram;
use blunt_perfbench::procstat::{parse_cpu_ticks, parse_host_ticks};
use blunt_perfbench::stats::{beyond, interp_quantile, summarize};

fn histogram(samples: &[u64]) -> blunt_obs::HistogramSnapshot {
    let h = Histogram::unregistered();
    for &s in samples {
        h.record(s);
    }
    h.snapshot()
}

#[test]
fn quantile_is_exact_for_a_single_valued_histogram() {
    for v in [0, 1, 7, 1000, 1 << 40] {
        let h = histogram(&[v; 37]);
        for q in [0.0, 0.01, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(interp_quantile(&h, q), v as f64, "value {v}, q {q}");
        }
    }
}

#[test]
fn quantile_is_monotone_in_q() {
    let samples: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 9000 + i % 3).collect();
    let h = histogram(&samples);
    let mut last = f64::NEG_INFINITY;
    for i in 0..=10_000 {
        let v = interp_quantile(&h, f64::from(i) / 10_000.0);
        assert!(
            v >= last,
            "quantile fell from {last} to {v} at q = {i}/10000"
        );
        last = v;
    }
    assert_eq!(interp_quantile(&h, 0.0), h.min as f64);
    assert_eq!(interp_quantile(&h, 1.0), h.max as f64);
}

#[test]
fn quantile_is_continuous_across_adjacent_bucket_edges() {
    // Buckets [512, 1024) and [1024, 2048), 100 samples each, spanning
    // their full width.
    let mut samples: Vec<u64> = (0..100).map(|i| 512 + i * 5).collect();
    samples.extend((0..100).map(|i| 1024 + i * 10));
    samples.push(2047);
    samples.push(512);
    let h = histogram(&samples);
    let edge = 101.0 / h.count as f64; // the rank where the first bucket ends
    let eps = 1e-9;
    let below = interp_quantile(&h, edge - eps);
    let above = interp_quantile(&h, edge + eps);
    assert!(
        (above - below).abs() < 1e-3,
        "jump at the bucket edge: {below} → {above}"
    );
    assert!((interp_quantile(&h, edge) - 1024.0).abs() < 1e-6);
}

#[test]
fn quantile_interpolates_inside_a_bucket() {
    // 100 samples spread over [1024, 2048): the median sits mid-bucket,
    // not on the bucket's lower bound.
    let samples: Vec<u64> = (0..100).map(|i| 1024 + i * 10).collect();
    let h = histogram(&samples);
    let p50 = interp_quantile(&h, 0.5);
    assert!(p50 > 1400.0 && p50 < 1600.0, "p50 = {p50}");
    assert_eq!(beyond(&h, 0.99), 1);
    assert_eq!(beyond(&h, 0.5), 50);
}

#[test]
fn quantile_of_an_empty_histogram_is_zero() {
    assert_eq!(interp_quantile(&histogram(&[]), 0.5), 0.0);
}

#[test]
fn summary_matches_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = summarize(&v);
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
    let s = summarize(&[5.0, 1.0, 3.0]);
    assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 5.0));
    let s = summarize(&[4.0]);
    assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
}

/// A `/proc/<pid>/stat` line for a process named `comm` with the given
/// `utime` and `stime`.
fn stat_line(comm: &str, utime: u64, stime: u64) -> String {
    // Fields 3..=13: state, ppid, pgrp, session, tty_nr, tpgid, flags,
    // minflt, cminflt, majflt, cmajflt; then utime, stime, and the rest.
    format!(
        "4242 ({comm}) S 1 4242 4242 0 -1 4194560 120 0 3 0 {utime} {stime} 0 0 20 0 31 0 \
         1234 5678 90 18446744073709551615"
    )
}

#[test]
fn stat_parser_reads_utime_and_stime() {
    assert_eq!(
        parse_cpu_ticks(&stat_line("perfbench", 17, 5)),
        Some((17, 5))
    );
}

#[test]
fn stat_parser_handles_spaces_and_parens_in_the_command_name() {
    for comm in [
        "a b c",
        "x) S 9 9 9",
        "))",
        "(",
        ") 1 2 3 4 5 6 7 8 9 10 11 12 13",
    ] {
        assert_eq!(
            parse_cpu_ticks(&stat_line(comm, 123, 456)),
            Some((123, 456)),
            "comm {comm:?}"
        );
    }
}

#[test]
fn stat_parser_rejects_truncated_lines() {
    assert_eq!(parse_cpu_ticks("4242 (x) S 1 2 3"), None);
    assert_eq!(parse_cpu_ticks("no parens at all"), None);
}

#[test]
fn host_stat_parser_reads_total_idle_and_steal() {
    let stat = "cpu  100 5 50 800 20 1 2 30 7 0\ncpu0 50 2 25 400 10 0 1 15 3 0\nintr 1 2 3\n";
    // total = user..steal (guest time is inside user), idle = idle + iowait.
    assert_eq!(parse_host_ticks(stat), Some((1008, 820, 30)));
    assert_eq!(parse_host_ticks("cpu0 1 2 3\n"), None);
    assert_eq!(parse_host_ticks("cpu  1 2 3\n"), None);
}

#[test]
fn own_stat_file_parses() {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    assert!(parse_cpu_ticks(&stat).is_some());
}
