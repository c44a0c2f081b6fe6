//! `procheck-benchmark compare`: two sets of results files side by side,
//! judged against the bounds in `BENCHMARK.json`.
//!
//! Per (workload, metric) each side's median and quartiles are printed
//! with the change of the medians. A row is *regressed* when the second
//! set's median is worse than the first's by more than the metric's
//! bound, and *unresolved* when either side's spread (quartile distance
//! over median) is wider than the bound — unless every run of the second
//! set reads better than every run of the first. Per-layer metrics have
//! no bound and are shown for information.

use crate::stats::{median, quartiles};
use procheck_telemetry::json::{parse, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

struct Spec {
    lower_is_better: bool,
    bound: Option<f64>,
}

fn specs(benchmark: &Value) -> Result<BTreeMap<String, Spec>, String> {
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let metrics = benchmark
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("a metric without `better`")?;
            out.insert(
                name.to_string(),
                Spec {
                    lower_is_better: better == "lower",
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// Metric values per (workload, metric) across `files`.
fn collect(files: &[String]) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for text in files {
        let doc = parse(text)?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a results file without `workload`")?;
        for (name, m) in doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("a results file without `metrics`")?
        {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// The comparison table of `base` against `head` (results file texts).
///
/// # Errors
///
/// Malformed `BENCHMARK.json` or results files.
pub fn compare(benchmark_json: &str, base: &[String], head: &[String]) -> Result<String, String> {
    let specs = specs(&parse(benchmark_json)?)?;
    let base = collect(base)?;
    let head = collect(head)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<28} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    for ((workload, metric), a) in &base {
        let (Some(b), Some(spec)) = (
            head.get(&(workload.clone(), metric.clone())),
            specs.get(metric),
        ) else {
            continue;
        };
        let (ma, mb) = (median(a), median(b));
        let (a1, a3) = quartiles(a);
        let (b1, b3) = quartiles(b);
        let change = (mb - ma) / ma.abs();
        let worse = if spec.lower_is_better {
            change
        } else {
            -change
        };
        let verdict = match spec.bound {
            None => "info",
            Some(bound) => {
                let wide = (a3 - a1) / ma.abs() > bound || (b3 - b1) / mb.abs() > bound;
                let b_always_better = a.iter().all(|x| {
                    b.iter()
                        .all(|y| if spec.lower_is_better { y < x } else { y > x })
                });
                if wide && !b_always_better {
                    "unresolved"
                } else if worse > bound {
                    "regressed"
                } else {
                    "ok"
                }
            }
        };
        let _ = writeln!(
            out,
            "{workload:<18} {metric:<28} {:>30} {:>30} {:>7.1}% {:>6}  {verdict}",
            format!("{ma:.4} [{a1:.4}, {a3:.4}]"),
            format!("{mb:.4} [{b1:.4}, {b3:.4}]"),
            change * 100.0,
            spec.bound.map_or("-".to_string(), |b| format!("{b}")),
        );
    }
    Ok(out)
}
