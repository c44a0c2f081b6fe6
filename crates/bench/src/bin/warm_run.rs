//! Warm-run demonstration and CI gate for the persistent analysis
//! store: the full registry cold → warm → after a one-transition FSM
//! mutation, with wall-clocks and re-check counts for each leg.
//!
//! Exits non-zero (assert) unless:
//!
//!   * the unchanged warm run hits on **every** verdict, composes no
//!     threat model, consults no graph slot, writes nothing, and
//!     renders byte-identical to the cold run;
//!   * the post-mutation run replays some verdicts warm (linkability
//!     keys and delta-disjoint cones survive) and renders
//!     byte-identical to a from-scratch run on the mutated models.
//!
//! The store directory comes from `PROCHECK_STORE` when set (CI points
//! it at a workspace path and uploads it as an artifact); otherwise a
//! temp directory is used and removed afterwards.

use procheck::pipeline::{analyze_extracted, extract_models, AnalysisConfig, AnalysisReport};
use procheck_stack::quirks::Implementation;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

fn render(report: &AnalysisReport) -> String {
    let mut out = String::new();
    for r in &report.results {
        let _ = writeln!(
            out,
            "{}|{:?}|iters={}|refs={}|cpv={}|cache_hit={}",
            r.property_id, r.outcome, r.cegar_iterations, r.refinements, r.cpv_queries, r.cache_hit
        );
    }
    out
}

fn main() {
    let defaults = AnalysisConfig::default();
    let (dir, keep): (PathBuf, bool) = match defaults.store_dir.clone() {
        Some(d) => (d, true),
        None => {
            let d = std::env::temp_dir().join(format!("procheck-warm-run-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            (d, false)
        }
    };
    let cfg = AnalysisConfig {
        store_dir: Some(dir.clone()),
        ..defaults
    };
    println!("store: {}", dir.display());

    let models = extract_models(Implementation::Reference, &cfg);

    let start = Instant::now();
    let cold = analyze_extracted(Implementation::Reference, &models, &cfg);
    let cold_secs = start.elapsed().as_secs_f64();
    let n = cold.results.len();
    println!(
        "run 1 (cold):    {cold_secs:.3}s  {} verdict hits, {} explorations, {} bytes written",
        cold.store_stats.hits, cold.graph_cache_stats.builds, cold.store_stats.bytes_written
    );
    assert_eq!(cold.degraded.total(), 0, "clean cold run");

    let start = Instant::now();
    let warm = analyze_extracted(Implementation::Reference, &models, &cfg);
    let warm_secs = start.elapsed().as_secs_f64();
    println!(
        "run 2 (warm):    {warm_secs:.3}s  {}/{} verdict hits, {} compositions, {} explorations, \
         {} writes  ({:.1}x vs cold)",
        warm.store_stats.hits,
        warm.store_stats.lookups,
        warm.cache_stats.builds,
        warm.graph_cache_stats.builds,
        warm.store_stats.writes,
        cold_secs / warm_secs.max(1e-9)
    );
    assert_eq!(
        warm.store_stats.hits, warm.store_stats.lookups,
        "unchanged warm run must hit on every verdict"
    );
    assert_eq!(warm.store_stats.hits as usize, n);
    assert_eq!(
        warm.cache_stats.lookups, 0,
        "the verdict index answers an unchanged run before composition"
    );
    assert_eq!(
        warm.graph_cache_stats.lookups, 0,
        "warm verdict hits never reach the graph layer"
    );
    assert_eq!(
        warm.store_stats.writes, 0,
        "a fully warm run writes nothing"
    );
    assert_eq!(
        render(&warm),
        render(&cold),
        "warm replay must be byte-identical"
    );

    // The paper's incremental scenario: a patched implementation whose
    // extracted UE machine differs by one transition. Linkability keys
    // (no FSM hash) and delta-disjoint cone slices replay warm; the
    // rest re-check.
    let mut mutated = models.clone();
    mutated.ue.add_transition(
        procheck_fsm::Transition::build("emm_deregistered", "emm_deregistered")
            .when("probe_request")
            .then("probe_reject"),
    );
    let start = Instant::now();
    let after = analyze_extracted(Implementation::Reference, &mutated, &cfg);
    let after_secs = start.elapsed().as_secs_f64();
    let rechecked = after.store_stats.lookups - after.store_stats.hits;
    println!(
        "run 3 (mutated): {after_secs:.3}s  {} of {n} properties re-checked, {} replayed warm",
        rechecked, after.store_stats.hits
    );
    assert!(
        after.store_stats.hits > 0,
        "delta-disjoint verdicts survive"
    );
    assert!(rechecked > 0, "a real mutation forces re-checking");
    let from_scratch = analyze_extracted(
        Implementation::Reference,
        &mutated,
        &AnalysisConfig {
            store_dir: None,
            ..cfg.clone()
        },
    );
    assert_eq!(
        render(&after),
        render(&from_scratch),
        "post-mutation warm report must equal a from-scratch run"
    );

    println!(
        "warm-run contract holds: full replay, zero compositions, explorations and writes, \
         byte-identical reports"
    );
    if !keep {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
