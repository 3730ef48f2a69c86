//! Tiny runs of every workload, timed and traced: every metric that
//! `BENCHMARK.json` names is emitted with its unit, every check passes,
//! and the walk's spans add up.
//!
//! The store runs share the process-wide `blunt_obs` counters that the
//! checks read as deltas, so they run one after another in one test.

use std::path::{Path, PathBuf};

use blunt_obs::Json;
use blunt_perfbench::bench::{self, Options, Sizes};
use blunt_perfbench::trace::{self, self_times, Traced, SHARED_OP};
use blunt_perfbench::walk;
use blunt_perfbench::workload::Workload;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric of one kind in `BENCHMARK.json`.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(kind)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn tiny(wl: Workload) -> Sizes {
    Sizes {
        // Amnesia runs must be long enough to crash every shard once.
        rep_ops_per_client: if wl == Workload::InprocAmnesia {
            2_500
        } else {
            200
        },
        setup_runs: 2,
        min_reps: 1,
        walk_ops: 96,
        walk_pairs: 1,
        micro_iters: 256,
    }
}

fn spans_path(wl: Workload) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-spans-{}.jsonl", wl.name()))
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for wl in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload: wl,
                seed: 3,
                seconds: 1,
                trace,
                spans_out: spans_path(wl),
                sizes: tiny(wl),
            };
            let out = bench::run(&opts);
            assert!(
                out.correct && out.failed == 0,
                "{} trace={trace}: {:#?}",
                wl.name(),
                out.notes
            );
            assert!(out.attempted > 0);
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} trace={trace}", wl.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            if trace {
                let text = std::fs::read_to_string(&opts.spans_out).expect("spans file");
                let lines: Vec<Json> = text
                    .lines()
                    .map(|l| Json::parse(l).expect("span line parses"))
                    .collect();
                assert!(!lines.is_empty());
                for l in &lines {
                    for key in ["id", "op", "name", "start_ns", "end_ns"] {
                        assert!(l.get(key).is_some(), "span line lacks {key}");
                    }
                }
                let _ = std::fs::remove_file(&opts.spans_out);
            }
        }
    }
}

#[test]
fn walk_self_times_of_one_op_sum_to_its_measured_total() {
    for wl in Workload::ALL {
        let ops = 200;
        let (pass, spans) = trace::record(|| walk::run_pass(Traced, wl, 9, ops));
        assert_eq!(pass.ops, ops, "{}", wl.name());
        assert!(
            pass.clean,
            "{}: the walk's history must linearize",
            wl.name()
        );
        let selfs = self_times(&spans);
        let mut total = vec![0u64; ops as usize + 1];
        let mut self_sum = vec![0u64; ops as usize + 1];
        let mut names = std::collections::BTreeSet::new();
        for (s, t) in spans.iter().zip(&selfs) {
            let op = s.op as usize;
            assert!(op <= ops as usize);
            if let Some(parent) = s.parent {
                let p = &spans[parent as usize];
                assert_eq!(p.op, s.op, "a child works for its parent's op");
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            } else {
                total[op] += s.duration_ns();
            }
            self_sum[op] += t;
            names.insert(s.name);
        }
        for op in 1..=ops as usize {
            assert!(total[op] > 0, "{}: op {op} has no steps", wl.name());
            assert!(
                self_sum[op] <= total[op],
                "{}: op {op} self times {} exceed its total {}",
                wl.name(),
                self_sum[op],
                total[op]
            );
        }
        assert!(self_sum[SHARED_OP as usize] <= total[SHARED_OP as usize]);
        // Each workload crosses exactly its own layers.
        let crosses = |layer: &str| names.iter().any(|n| n.starts_with(layer));
        assert_eq!(crosses("bus."), !wl.is_socket(), "{}", wl.name());
        assert_eq!(crosses("net.frame"), wl.is_socket(), "{}", wl.name());
        assert_eq!(crosses("storage."), wl.is_faulted(), "{}", wl.name());
        for layer in ["abd.", "monitor.", "ring.", "batch.", "obs."] {
            assert!(crosses(layer), "{} never crossed {layer}", wl.name());
        }
    }
}
