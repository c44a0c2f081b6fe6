//! The repository benchmark: four seeded analysis workloads, their
//! end-to-end metrics checked against a committed verdict table, and a
//! traced per-layer ledger. See `README.md` for the workloads, metrics
//! and how to run them.

pub mod compare;
pub mod expected;
pub mod ledger;
pub mod stats;
pub mod workload;

pub use workload::{run, Metric, Options, RunResult, Workload};

use workload::nproc;

use std::fmt::Write as _;

/// A metric value as JSON: all its digits, `null` if not finite.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The one-line summary a run prints last:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(&r.metrics)
    )
}

/// The results file of a run: the summary plus the checks' details, the
/// seed, the effective analysis configuration, the host's thread count
/// and the source revision.
pub fn results_json(opts: &Options, r: &RunResult, revision: &str) -> String {
    let c = &r.config;
    let mut failures = String::new();
    for (i, f) in r.check_failures.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(failures, "{sep}{}", procheck_telemetry::json::escape(f));
    }
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"revision\":{},\"requests\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
         \"verdict_mismatches\":{},\"failed_share\":{},\"check_failures\":[{failures}],\
         \"config\":{{\"imsi\":\"{}\",\"key_material\":{},\"state_limit\":{},\
         \"max_cegar_iterations\":{},\"property_filter\":{},\"threads\":{},\
         \"explore_threads\":{},\"graph_cache\":{},\"slice\":{},\"por\":{},\
         \"budget_unlimited\":{},\"store\":{},\"backend\":\"{:?}\",\"bmc_bound\":{}}},\
         \"metrics\":{}}}\n",
        opts.workload.name(),
        opts.seed,
        number(opts.seconds),
        opts.trace,
        nproc(),
        procheck_telemetry::json::escape(revision),
        r.requests,
        r.correct(),
        r.attempted,
        r.failed,
        r.verdict_mismatches,
        number(r.failed as f64 / r.attempted.max(1) as f64),
        c.imsi,
        c.key_material,
        c.state_limit,
        c.max_cegar_iterations,
        c.property_filter
            .as_ref()
            .map_or("null".to_string(), |ids| format!("{ids:?}")),
        c.threads,
        c.explore_threads,
        c.graph_cache,
        c.slice,
        c.por,
        c.budget.is_unlimited(),
        c.store_dir.is_some(),
        c.backend,
        c.bmc_bound,
        metrics_json(&r.metrics),
    )
}
