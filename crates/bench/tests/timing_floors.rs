//! Wall-clock floors for the explicit engine's exploration and queries,
//! and for the persistent store.
//!
//! Each gate takes one warm-up sample and then `SAMPLES` samples through
//! `procheck_bench::sample`, prints every sample, and fails when their
//! median falls below the gate's floor. The tests are ignored in the
//! default suite because they only mean something in an optimised build
//! on an otherwise idle machine:
//!
//! ```text
//! cargo test --release -p procheck-bench --test timing_floors -- \
//!     --ignored --test-threads=1 --nocapture
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use procheck::pipeline::{analyze_extracted, extract_models, AnalysisConfig};
use procheck_bench::{sample, Spread};
use procheck_props::{distinct_threat_configs, registry, Check};
use procheck_smv::checker::{
    build_reach_graph_budgeted, check_on_graph, CheckStats, CompiledModel, CompiledProperty,
    Property, QueryStats, DEFAULT_STATE_LIMIT,
};
use procheck_smv::{BudgetMeter, ReachGraph};
use procheck_stack::quirks::Implementation;
use procheck_threat::build_threat_model;

/// Explorer throughput, in states per second of building the full
/// graphs of the 17 distinct Reference threat configurations (294,770
/// states) one after another. The models are composed and compiled
/// before the clock starts, so the rate is the explorer's alone and
/// does not fall when the pipeline stops exploring early for the same
/// answers. The floor keeps the margin the gate had when it timed whole
/// analyses, 1.95M against medians of 3.89M and 4.14M (about 0.49): on
/// a 2-vCPU VM the median of ten runs of this gate was 4.20M, and the
/// floor is 0.49 of that. It stays above 1.95M and above the 1.39M of
/// the per-command kernel the enable tables replaced, so a kernel
/// revert still trips it.
const STATES_PER_SEC_FLOOR: f64 = 2_040_000.0;

/// Query-layer throughput, in queries answered per second: each of the
/// Reference registry's 9 precedence and 9 response properties asked
/// once, with no CEGAR mask, through `check_on_graph` on its threat
/// configuration's full graph. The models are composed and compiled and
/// the graphs built before the clock starts, so the rate is the
/// queries' alone. On a 2-vCPU VM two sets of ten runs of this gate
/// had medians of 4,930 and 5,530 queries/s (no run below 3,020),
/// against 1,030 and 1,300 (no run above 1,360) for the product-only
/// queries that early-exit graph searches and the first-fair-SCC
/// response replaced, alternating with them. The floor is 0.49 of the
/// lower median, the margin `states_per_sec` keeps, and over 1.7 times
/// the fastest product-only run, so a revert trips it.
const GRAPH_QUERIES_PER_SEC_FLOOR: f64 = 2_400.0;

/// Cold over warm wall-clock of a store-backed Reference analysis: an
/// unchanged warm run replays every verdict instead of exploring. An
/// absolute floor, with headroom for slow CI filesystems.
const WARM_SPEEDUP_FLOOR: f64 = 5.0;

/// A store directory under the system temp dir, removed when dropped —
/// also while a failing gate unwinds, so it leaves no store behind.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Takes one warm-up and then `SAMPLES` samples of `measure`, prints
/// every sample, and fails when their median is below `floor`.
fn assert_median_floor(name: &str, floor: f64, measure: impl FnMut() -> f64) {
    println!("available_parallelism = {}", hardware_threads());
    let samples = sample(measure);
    let shown: Vec<String> = samples.iter().map(|v| format!("{v:.2}")).collect();
    println!("{name}: samples {}", shown.join(", "));
    let median = Spread::of(&samples).median;
    let verdict = if median >= floor { "ok" } else { "BELOW FLOOR" };
    println!("{name}: median {median:.2}, floor {floor:.2} -> {verdict}");
    assert!(
        median >= floor,
        "{name}: median {median:.2} below its floor {floor:.2}"
    );
}

/// Every distinct full Reference threat model, composed and compiled.
fn reference_models() -> Vec<CompiledModel> {
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    distinct_threat_configs()
        .iter()
        .map(|cfg| {
            let model = build_threat_model(&models.ue, &models.mme, cfg);
            CompiledModel::new(&model).expect("registry models compile")
        })
        .collect()
}

/// One `states_per_sec` sample: every model's graph built to the end,
/// serially, over the time the builds took.
fn explored_states_per_sec(models: &[CompiledModel]) -> f64 {
    let meter = BudgetMeter::unlimited();
    let mut stats = CheckStats::default();
    let start = Instant::now();
    for model in models {
        build_reach_graph_budgeted(model, DEFAULT_STATE_LIMIT, &meter, &mut stats, 1)
            .expect("registry graphs fit the default limit");
    }
    stats.states as f64 / start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "timing floor: run in release with --ignored --test-threads=1"]
fn states_per_sec() {
    let models = reference_models();
    assert_eq!(models.len(), 17, "distinct Reference threat configurations");
    assert_median_floor("states_per_sec", STATES_PER_SEC_FLOOR, || {
        explored_states_per_sec(&models)
    });
}

/// A precedence or response property compiled against its threat
/// configuration's model, with that model's full graph.
type GraphQuery = (Arc<CompiledModel>, Arc<ReachGraph>, CompiledProperty);

/// The Reference registry's precedence and response properties, in
/// registry order, each with its configuration's full graph; a graph is
/// built once and shared by every property of its configuration.
fn reference_graph_queries() -> Vec<GraphQuery> {
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    let mut graphs = HashMap::new();
    registry()
        .iter()
        .filter_map(|p| {
            let Check::Model(property @ (Property::Precedence { .. } | Property::Response { .. })) =
                &p.check
            else {
                return None;
            };
            let cfg = p.slice.threat_config();
            let (model, graph) = graphs
                .entry(cfg.clone())
                .or_insert_with(|| {
                    let model =
                        CompiledModel::new(&build_threat_model(&models.ue, &models.mme, &cfg))
                            .expect("registry models compile");
                    let graph = build_reach_graph_budgeted(
                        &model,
                        DEFAULT_STATE_LIMIT,
                        &BudgetMeter::unlimited(),
                        &mut CheckStats::default(),
                        1,
                    )
                    .expect("registry graphs fit the default limit");
                    (Arc::new(model), Arc::new(graph))
                })
                .clone();
            let property = model
                .compile_property(property)
                .expect("registry properties compile");
            Some((model, graph, property))
        })
        .collect()
}

/// One `graph_queries_per_sec` sample: every query answered once,
/// serially, over the time the answers took.
fn graph_queries_answered_per_sec(queries: &[GraphQuery]) -> f64 {
    let meter = BudgetMeter::unlimited();
    let start = Instant::now();
    for (model, graph, property) in queries {
        check_on_graph(
            model,
            graph,
            property,
            &model.exclusion_set(),
            DEFAULT_STATE_LIMIT,
            &meter,
            &mut QueryStats::default(),
        )
        .expect("registry queries fit the default limit");
    }
    queries.len() as f64 / start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "timing floor: run in release with --ignored --test-threads=1"]
fn graph_queries_per_sec() {
    let queries = reference_graph_queries();
    assert_eq!(queries.len(), 18, "9 precedence and 9 response properties");
    assert_median_floor("graph_queries_per_sec", GRAPH_QUERIES_PER_SEC_FLOOR, || {
        graph_queries_answered_per_sec(&queries)
    });
}

#[test]
#[ignore = "timing floor: run in release with --ignored --test-threads=1"]
fn warm_speedup_vs_cold() {
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    let dir = TempDir(
        std::env::temp_dir().join(format!("procheck-timing-floors-{}", std::process::id())),
    );
    let cfg = AnalysisConfig {
        store_dir: Some(dir.0.clone()),
        ..AnalysisConfig::default()
    };
    let timed = || {
        let start = Instant::now();
        let report = analyze_extracted(Implementation::Reference, &models, &cfg);
        (start.elapsed().as_secs_f64(), report)
    };
    assert_median_floor("warm_speedup_vs_cold", WARM_SPEEDUP_FLOOR, || {
        // Every sample starts from an empty store.
        let _ = std::fs::remove_dir_all(&dir.0);
        let (cold_secs, _) = timed();
        let (warm_secs, warm) = timed();
        assert_eq!(
            warm.store_stats.hits, warm.store_stats.lookups,
            "the warm run must replay every verdict"
        );
        cold_secs / warm_secs
    });
}
