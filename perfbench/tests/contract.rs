//! The benchmark's own checks: the metric vocabulary matches
//! `BENCHMARK.json`, every workload is correct at a second seed, every
//! reported tail has at least ten samples beyond it at the configured run
//! length, no two reported names carry the same series, and a traced run
//! prints every per-layer metric.
//!
//! These run the real workloads (about two minutes in all):
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::{Mutex, MutexGuard, OnceLock};

use backbone_server::json::{parse, Json};
use perfbench::stats::MIN_BEYOND;
use perfbench::{run, Config, Outcome, Workload, END_TO_END, PER_LAYER};

/// Seeds used while the benchmark was tuned start at 1; this one was not.
const SECOND_SEED: u64 = 1_000_003;

/// The workloads measure time: run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn at_repo_root() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    std::env::set_current_dir(root).expect("repository root");
}

fn benchmark_json() -> Json {
    at_repo_root();
    let text = std::fs::read_to_string("BENCHMARK.json").expect("BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run_seconds() -> f64 {
    benchmark_json()
        .get("run_seconds")
        .and_then(Json::as_int)
        .expect("run_seconds") as f64
}

/// Each workload once, untraced, at the configured run length.
fn untraced() -> &'static Vec<(Workload, Outcome)> {
    static RUNS: OnceLock<Vec<(Workload, Outcome)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let _one_at_a_time = serial();
        let seconds = run_seconds();
        Workload::ALL
            .iter()
            .map(|&workload| {
                let cfg = Config {
                    workload,
                    seed: SECOND_SEED,
                    seconds,
                    trace: false,
                };
                (workload, run(&cfg).expect("workload runs"))
            })
            .collect()
    })
}

fn report(out: &Outcome) -> Json {
    parse(&out.report_line()).expect("report line parses")
}

#[test]
fn vocabulary_matches_benchmark_json() {
    let doc = benchmark_json();
    let code: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&doc, "end_to_end"), code);
    let code: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&doc, "per_layer"), code);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a name is used twice"
    );
}

#[test]
fn every_workload_is_correct_at_a_second_seed() {
    for (workload, out) in untraced() {
        assert!(
            out.correct,
            "{} incorrect: {}",
            workload.name(),
            out.result_line()
        );
        assert_eq!(out.failed, 0, "{}", workload.name());
        assert!(out.attempted > 0, "{}", workload.name());
        for (name, value) in &out.metrics {
            assert!(*value > 0.0, "{} {name} = {value}", workload.name());
        }
    }
}

#[test]
fn every_reported_tail_has_ten_samples_beyond_it() {
    for (workload, out) in untraced() {
        let report = report(out);
        let Json::Obj(fields) = report.get("report").expect("report") else {
            panic!("report is not an object");
        };
        let mut tails = 0;
        for (key, value) in fields {
            let (Some(q), Some(beyond)) = (value.get("q"), value.get("beyond")) else {
                continue;
            };
            let q = match q {
                Json::Float(q) => *q,
                other => panic!("{key}: q is {other:?}"),
            };
            if q > 0.5 {
                tails += 1;
                let beyond = beyond.as_int().expect("beyond") as usize;
                assert!(
                    beyond >= MIN_BEYOND,
                    "{} {key}: p{} has {beyond} samples beyond it",
                    workload.name(),
                    q * 100.0
                );
            }
        }
        assert!(tails >= 1, "{} reports no tail", workload.name());
        if *workload == Workload::OltpWire {
            for key in ["write_p50_ms", "write_p99_ms", "txn.fsyncs_per_commit"] {
                assert!(
                    fields.iter().any(|(k, _)| k == key),
                    "oltp-wire: {key} missing"
                );
            }
        }
    }
}

#[test]
fn no_two_names_carry_the_same_series() {
    let runs = untraced();
    for (i, (a, _)) in END_TO_END.iter().enumerate() {
        for (b, _) in &END_TO_END[i + 1..] {
            let series = |name: &str| -> Vec<f64> {
                runs.iter()
                    .map(|(_, out)| out.metrics.iter().find(|(m, _)| *m == name).expect(name).1)
                    .collect()
            };
            assert_ne!(series(a), series(b), "{a} and {b} carry the same series");
        }
    }
}

/// Report keys each workload's traced run must print besides the shared
/// per-layer metrics.
fn traced_report_keys(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::OltpWire => &[
            "query.exec_ms.range_read",
            "store_bytes_per_row",
            "oltp-wire.unexplained_ms",
        ],
        Workload::ServeHot => &["serve-hot.unexplained_ms", "result_cache_hit_ratio"],
        Workload::OlapScan => &[
            "query.exec_ms.q1",
            "query.exec_ms.q3",
            "query.exec_ms.q5",
            "query.exec_ms.q6",
            "query.rows_in_per_row_out.q1",
            "query.rows_in_per_row_out.q3",
            "query.rows_in_per_row_out.q5",
            "query.rows_in_per_row_out.q6",
            "olap-scan.unexplained_ms",
        ],
        Workload::HybridSearch => &[
            "vector.ivf_search_us",
            "text.bm25_us",
            "text.postings_per_query",
            "hybrid.candidates_per_hit",
            "hybrid.filter_ms.prefilter",
            "hybrid.vector_ms.postfilter",
            "hybrid.text_ms.exactscan",
            "hybrid.complete_ms.postfilter",
            "recall_at_10",
            "hybrid-search.unexplained_ms",
        ],
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let _one_at_a_time = serial();
    at_repo_root();
    for workload in Workload::ALL {
        let cfg = Config {
            workload,
            seed: SECOND_SEED,
            seconds: 2.0,
            trace: true,
        };
        let out = run(&cfg).expect("traced run");
        assert!(out.correct, "{}: {}", workload.name(), out.result_line());
        let result = parse(&out.result_line()).expect("result parses");
        let metrics = result.get("metrics").expect("metrics");
        for (name, unit) in PER_LAYER {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        }
        let report = report(&out);
        let report = report.get("report").expect("report");
        for key in traced_report_keys(workload) {
            assert!(
                report.get(key).is_some(),
                "{}: {key} missing",
                workload.name()
            );
        }
        assert!(report.get("environment").is_some());
    }
}
