//! Smoke test of the benchmark itself: `perf --all --quick` (scales ÷40,
//! a fraction of a second per window) must print every metric that
//! `BENCHMARK.json` names, once per workload, finite and with its unit.

use exrquy_xqd::json::{parse, Value};
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names_of(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has `{key}`"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `workload` → `metric` → (value, unit, times printed), from the
/// `workload metric value unit` lines of `perf --all --quick`.
fn run_all(trace: &str) -> BTreeMap<String, BTreeMap<String, (f64, String, usize)>> {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "--all",
            "--quick",
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ])
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "perf --all --quick --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut seen: BTreeMap<String, BTreeMap<String, (f64, String, usize)>> = BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [workload, metric, value, unit] = f[..] {
            let entry = seen
                .entry(workload.to_string())
                .or_default()
                .entry(metric.to_string())
                .or_insert((0.0, String::new(), 0));
            *entry = (
                value.parse().expect("numeric value"),
                unit.to_string(),
                entry.2 + 1,
            );
        }
    }
    seen
}

/// Every metric `BENCHMARK.json` lists under `key` is printed exactly
/// once per workload by `--trace <trace>`, finite and with its unit.
fn check_metrics(
    key: &str,
    trace: &str,
) -> BTreeMap<String, BTreeMap<String, (f64, String, usize)>> {
    let spec = benchmark_json();
    let workloads = names_of(&spec, "workloads");
    assert_eq!(workloads.len(), 6);
    let named = names_of(&spec, key);
    // `--all` fails unless every workload reports `failed` = 0.
    let seen = run_all(trace);
    for (workload, _) in &workloads {
        let printed = seen
            .get(workload)
            .unwrap_or_else(|| panic!("{workload} printed no metrics with --trace {trace}"));
        assert_eq!(
            printed.len(),
            named.len(),
            "{workload} --trace {trace}: metrics printed differ from BENCHMARK.json `{key}`"
        );
        for (name, unit) in &named {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name `{name}` uses a character outside [A-Za-z0-9_.-]"
            );
            let (value, got_unit, times) = printed
                .get(name)
                .unwrap_or_else(|| panic!("{workload} did not print `{name}`"));
            assert_eq!(*times, 1, "{workload} printed `{name}` {times} times");
            assert!(value.is_finite(), "{workload} {name} = {value}");
            assert_eq!(got_unit, unit, "{workload} {name} unit");
        }
    }
    seen
}

#[test]
fn every_end_to_end_metric_is_printed_once_per_workload() {
    check_metrics("end_to_end", "0");
}

#[test]
fn every_per_layer_metric_is_printed_once_per_workload() {
    let seen = check_metrics("per_layer", "1");
    // The daemon's admission ledger balanced at shutdown.
    assert_eq!(seen["serve_mix"]["xqd.reconciles"].0, 1.0);
    assert_eq!(seen["serve_mix"]["xqd.failed"].0, 0.0);
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perf runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
