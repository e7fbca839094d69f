//! End-to-end metrics, the result line, run-set files and `--compare`.

use crate::stats::{geomean, iqr_share, median};
use crate::workload::Samples;
use exrquy_xqd::json::{obj, parse, Value};
use std::collections::BTreeMap;

/// Every end-to-end metric and its unit, in `BENCHMARK.json` order.
/// Always measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_ms_p50", "ms"),
    ("op_ms_geomean", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end metrics of one untraced window. `peak_rss_mb` is the
/// process' `VmHWM` as read when the window closed.
pub fn end_to_end(s: &Samples, setup_s: &[f64], peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    let op_medians: Vec<f64> = s.op_ms.iter().map(|ms| median(ms)).collect();
    let completed: usize = s.op_ms.iter().map(Vec::len).sum();
    let values = [
        median(setup_s),
        median(&s.pass_ms),
        geomean(&op_medians),
        s.cpu_s * 1e3 / completed as f64,
        peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .map(|(name, _)| *name)
        .zip(values)
        .collect()
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
    units: &[(&str, &str)],
) -> Value {
    let unit_of: BTreeMap<&str, &str> = units.iter().copied().collect();
    let metrics: BTreeMap<String, Value> = metrics
        .iter()
        .map(|(name, value)| {
            let entry = obj(vec![
                ("value", Value::Float(*value)),
                ("unit", Value::Str(unit_of[name].to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        ("metrics", Value::Object(metrics)),
    ])
}

/// `workload metric value unit`, one line per metric of a result.
pub fn metric_lines(workload: &str, result: &Value) -> String {
    let mut out = String::new();
    if let Some(metrics) = result.get("metrics").and_then(Value::as_object) {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("?");
            out.push_str(&format!("{workload} {name} {value} {unit}\n"));
        }
    }
    out
}

/// A run-set file (`--all --out`): `workload` → `metric` → the value of
/// every run, plus the header it was recorded under.
struct RunSet {
    header: String,
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    incorrect: usize,
}

fn load_run_set(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {}", e.message))?;
    let header = doc.get("header").map(Value::render).unwrap_or_default();
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    let mut values: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut incorrect = 0;
    for run in runs {
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        if run.get("correct") != Some(&Value::Bool(true)) {
            incorrect += 1;
        }
        let Some(metrics) = run.get("metrics").and_then(Value::as_object) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                values
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(RunSet {
        header,
        values,
        incorrect,
    })
}

/// `--compare a.json b.json`: one row per workload × end-to-end metric
/// with both medians, the ratio and its base, and a verdict against the
/// bounds of `BENCHMARK.json`. Returns whether every row is `ok`.
pub fn compare(benchmark_json: &str, a_path: &str, b_path: &str) -> Result<bool, String> {
    let spec = parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {}", e.message))?;
    let bounds = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no `end_to_end`")?;
    let (a, b) = (load_run_set(a_path)?, load_run_set(b_path)?);
    println!("a: {a_path} {}", a.header);
    println!("b: {b_path} {}", b.header);
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>16}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a (base a)"
    );
    let mut all_ok = a.incorrect + b.incorrect == 0;
    if !all_ok {
        println!(
            "runs with incorrect output: a {}, b {}",
            a.incorrect, b.incorrect
        );
    }
    for (workload, metrics) in &a.values {
        for bound in bounds {
            let name = bound.get("name").and_then(Value::as_str).unwrap_or("?");
            let limit = bound.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let lower_is_better = bound.get("better").and_then(Value::as_str) == Some("lower");
            let (Some(va), Some(vb)) = (
                metrics.get(name),
                b.values.get(workload).and_then(|m| m.get(name)),
            ) else {
                println!("{workload:<16} {name:<14} missing in one run set  unresolved");
                all_ok = false;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = if lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            // A spread wider than the bound cannot resolve a change of
            // the bound's size in either direction.
            let spread = iqr_share(va)
                .into_iter()
                .chain(iqr_share(vb))
                .fold(0.0, f64::max);
            let verdict = if spread > limit {
                "unresolved"
            } else if worse > limit {
                "regressed"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            println!(
                "{workload:<16} {name:<14} {ma:>12.4} {mb:>12.4} {:>9.4} ({ma:.4})  {verdict} (n={}/{}, bound {limit})",
                mb / ma,
                va.len(),
                vb.len()
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 0, &[("setup_s", 0.5)], END_TO_END);
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let text = metric_lines("w", &line);
        assert_eq!(text, "w setup_s 0.5 s\n");
    }

    #[test]
    fn end_to_end_metrics_are_all_reported() {
        let mut s = Samples::new(2);
        s.op_ms = vec![vec![1.0, 1.0], vec![4.0, 4.0]];
        s.pass_ms = vec![5.0, 5.0];
        s.cpu_s = 0.008;
        let m = end_to_end(&s, &[0.1, 0.3, 0.2], 12.5);
        assert_eq!(m.len(), END_TO_END.len());
        let get = |n: &str| m.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("op_ms_geomean"), 2.0);
        assert_eq!(get("pass_ms_p50"), 5.0);
        assert_eq!(get("cpu_ms_per_op"), 2.0);
        assert_eq!(get("peak_rss_mb"), 12.5);
    }
}
