//! The telemetry payload of one pipeline run.
//!
//! [`to_json`] renders a finished run as the JSON object `table1` writes
//! for each analysed stack into `BENCH_telemetry_table1.json`:
//!
//! * `implementation` — the stack analysed (`closed-source`, `srsLTE`, `OAI`);
//! * `properties` — one row per property, in registry order, read off the
//!   run's [`AnalysisReport`] (Table II shape: states explored, CEGAR
//!   iterations, CPV queries, cache behaviour, wall-clock);
//! * `counters` — the run's [`Collector`] counters, sorted by name;
//! * `spans` — wall-clock microseconds per span name, summed over the
//!   run's spans and sorted by name.
//!
//! Everything except `spans`, the rows' `elapsed_ms` and the
//! `ident.symbols_interned` gauge is deterministic: identical for every
//! `threads` value and across runs on the same inputs. The gauge reads
//! the process-wide symbol table, so it also counts symbols that other
//! runs in the same process interned. A row's `elapsed_ms` is a single
//! sample — the wall-clock time of that one check — not a median.

use crate::pipeline::AnalysisReport;
use procheck_telemetry::{json, Collector, Event};
use std::collections::BTreeMap;

/// Renders one finished run: the property rows from `report`, the
/// counters and spans from the `collector` the run recorded into.
pub fn to_json(report: &AnalysisReport, collector: &Collector) -> String {
    let rows: Vec<String> = report
        .results
        .iter()
        .map(|r| {
            format!(
                "    {{\"property_id\": {}, \"outcome\": {}, \"states_explored\": {}, \
                 \"peak_queue\": {}, \"cegar_iterations\": {}, \"refinements\": {}, \
                 \"cpv_queries\": {}, \"nodes_reused\": {}, \"cache_hit\": {}, \
                 \"graph_cache_hit\": {}, \"elapsed_ms\": {:.3}}}",
                json::escape(r.property_id),
                json::escape(r.outcome.tag()),
                r.states_explored,
                r.peak_queue,
                r.cegar_iterations,
                r.refinements,
                r.cpv_queries,
                r.nodes_reused,
                r.cache_hit,
                r.graph_cache_hit
                    .map_or("null", |hit| if hit { "true" } else { "false" }),
                r.elapsed.as_secs_f64() * 1e3,
            )
        })
        .collect();
    let mut spans: BTreeMap<String, u64> = BTreeMap::new();
    for event in collector.events() {
        if let Event::Span { name, elapsed_us } = event {
            *spans.entry(name).or_default() += elapsed_us;
        }
    }
    format!(
        "{{\n  \"implementation\": {},\n  \"properties\": [\n{}\n  ],\n  \
         \"counters\": {},\n  \"spans\": {}\n}}\n",
        json::escape(report.implementation.name()),
        rows.join(",\n"),
        json_object(&collector.counters()),
        json_object(&spans),
    )
}

/// A name-to-count map as one JSON object on one line.
fn json_object(entries: &BTreeMap<String, u64>) -> String {
    let fields: Vec<String> = entries
        .iter()
        .map(|(name, value)| format!("{}: {value}", json::escape(name)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze_implementation, AnalysisConfig};
    use procheck_stack::quirks::Implementation;
    use procheck_telemetry::json::Value;

    fn run(ids: &[&'static str], threads: usize) -> (AnalysisReport, Collector) {
        let collector = Collector::enabled();
        let cfg = AnalysisConfig {
            property_filter: Some(ids.to_vec()),
            threads,
            collector: collector.clone(),
            ..AnalysisConfig::default()
        };
        let report = analyze_implementation(Implementation::Reference, &cfg);
        (report, collector)
    }

    /// The payload's top-level object, parsed with the crate's own parser.
    fn payload(report: &AnalysisReport, collector: &Collector) -> Value {
        json::parse(&to_json(report, collector)).expect("telemetry JSON parses")
    }

    /// Names of the payload's non-zero counters under `prefix`.
    fn nonzero_in_payload(value: &Value, prefix: &str) -> Vec<String> {
        value
            .get("counters")
            .and_then(Value::as_object)
            .expect("payload has counters")
            .iter()
            .filter(|(name, v)| name.starts_with(prefix) && v.as_u64() != Some(0))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// The checker-side counters and the per-property rows describe the
    /// same run, so their sums must agree.
    #[test]
    fn rows_sum_to_counter_totals() {
        let (report, collector) = run(&["S01", "S02", "S12"], 2);
        assert_eq!(report.results.len(), 3);
        let row_states: u64 = report.results.iter().map(|r| r.states_explored).sum();
        assert_eq!(row_states, collector.counter_value("smv.states_explored"));
        let row_iters: u64 = report
            .results
            .iter()
            .map(|r| r.cegar_iterations as u64)
            .sum();
        assert_eq!(row_iters, collector.counter_value("cegar.iterations"));
        let row_queries: u64 = report.results.iter().map(|r| r.cpv_queries as u64).sum();
        assert_eq!(row_queries, collector.counter_value("cpv.queries"));
        assert!(row_states > 0, "model checks explore states");
    }

    /// Cache hits in the rows agree with the compose counters: misses
    /// (builds) = rows with cache_hit=false among model properties.
    #[test]
    fn cache_hit_rows_match_compose_counters() {
        let (report, collector) = run(&["S01", "S02", "S03"], 1);
        let misses = report.results.iter().filter(|r| !r.cache_hit).count() as u64;
        assert_eq!(misses, collector.counter_value("compose.builds"));
        assert_eq!(
            report.results.len() as u64,
            collector.counter_value("compose.lookups")
        );
    }

    /// Graph-cache accounting in the rows agrees with the collector:
    /// designated builders = graphs explored, consulting rows = lookups,
    /// and the per-row node re-use sums to the counter total.
    #[test]
    fn graph_cache_rows_match_counters() {
        let (report, collector) = run(&["S01", "S07", "S08", "S12"], 2);
        let builders = report
            .results
            .iter()
            .filter(|r| r.graph_cache_hit == Some(false))
            .count() as u64;
        let consulted = report
            .results
            .iter()
            .filter(|r| r.graph_cache_hit.is_some())
            .count() as u64;
        let hits = collector.counter_value("graph_cache.hits");
        assert_eq!(builders, collector.counter_value("graph_cache.builds"));
        assert_eq!(consulted, collector.counter_value("graph_cache.lookups"));
        assert_eq!(hits, consulted - builders);
        let row_reuse: u64 = report.results.iter().map(|r| r.nodes_reused).sum();
        assert_eq!(
            row_reuse,
            collector.counter_value("graph_cache.nodes_reused")
        );
        assert!(hits > 0, "shared slices must produce graph-cache hits");
    }

    /// The interning layer is visible in the payload: the symbol gauge
    /// is populated and a `compile` span is recorded.
    #[test]
    fn interning_totals_reported() {
        let (report, collector) = run(&["S01", "S02"], 1);
        let builds = collector.counter_value("compile.builds");
        assert!(
            collector.counter_value("ident.symbols_interned") > 0,
            "symbol gauge must be recorded"
        );
        assert!(builds >= 1, "at least one model compiled");
        assert!(collector.counter_value("compile.lookups") >= builds);
        let value = payload(&report, &collector);
        assert!(
            value.get("spans").and_then(|s| s.get("compile")).is_some(),
            "compile span present in the payload's spans"
        );
        assert!(value
            .get("counters")
            .and_then(|c| c.get("ident.symbols_interned"))
            .is_some());
    }

    /// An explicit-only run records no symbolic (`backend.*`) work.
    #[test]
    fn explicit_runs_report_zero_backend_counters() {
        let (report, collector) = run(&["S01", "S02"], 1);
        assert!(nonzero_in_payload(&payload(&report, &collector), "backend.").is_empty());
    }

    /// A symbolic-backend run surfaces non-zero solver counters in the
    /// collector and the JSON payload.
    #[test]
    fn symbolic_runs_report_backend_counters() {
        let collector = Collector::enabled();
        let cfg = AnalysisConfig {
            property_filter: Some(vec!["S01", "S12"]),
            threads: 1,
            collector: collector.clone(),
            backend: crate::pipeline::BackendKind::Symbolic,
            ..AnalysisConfig::default()
        };
        let report = analyze_implementation(Implementation::Reference, &cfg);
        assert!(
            collector.counter_value("backend.clauses") > 0,
            "BMC encodings emit clauses"
        );
        assert!(
            collector.counter_value("backend.propagations") > 0,
            "solver propagates"
        );
        assert_eq!(
            collector.counter_value("backend.divergences"),
            0,
            "single backend cannot diverge"
        );
        assert!(to_json(&report, &collector).contains("\"backend.clauses\""));
    }

    /// A clean run reports no degraded outcome — in the report and in
    /// the payload's `degraded.*` counters.
    #[test]
    fn clean_runs_report_zero_degraded() {
        let (report, collector) = run(&["S01", "S02", "PR07"], 2);
        assert_eq!(report.degraded.total(), 0);
        assert!(nonzero_in_payload(&payload(&report, &collector), "degraded.").is_empty());
    }

    /// Rendered JSON parses with the crate's own parser and keeps the
    /// row count, the row keys, every counter and the spans.
    #[test]
    fn json_rendering_round_trips() {
        let (report, collector) = run(&["S01", "PR07"], 1);
        let value = payload(&report, &collector);
        let props = value.get("properties").and_then(Value::as_array).unwrap();
        assert_eq!(props.len(), 2);
        let first = props[0].as_object().unwrap();
        for key in [
            "property_id",
            "outcome",
            "states_explored",
            "cegar_iterations",
            "cache_hit",
            "elapsed_ms",
        ] {
            assert!(first.iter().any(|(k, _)| k == key), "row has {key}");
        }
        let counters: BTreeMap<String, u64> = value
            .get("counters")
            .and_then(Value::as_object)
            .expect("payload has counters")
            .iter()
            .map(|(name, v)| (name.clone(), v.as_u64().expect("counts are integers")))
            .collect();
        assert_eq!(counters, collector.counters(), "the collector's counters");
        assert!(counters["explore.levels"] >= 1, "BFS levels recorded");
        assert!(counters["explore.peak_level"] >= 1, "peak level recorded");
        let spans = value.get("spans").and_then(Value::as_object).unwrap();
        assert!(!spans.is_empty(), "spans recorded");
    }
}
