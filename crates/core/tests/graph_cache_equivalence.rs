//! The reachability-graph cache must be invisible in results: a run
//! that explores each threat model once and answers properties as graph
//! queries returns byte-identical verdicts, counterexample traces, and
//! CEGAR outcomes to a run that re-explores per property — at any
//! thread count. Only the exploration *accounting* may differ (that is
//! the point of the cache).

use procheck::pipeline::{analyze_implementation, AnalysisConfig, AnalysisReport, BackendKind};
use procheck::report::PropertyResult;
use procheck_stack::quirks::Implementation;

/// Lowest acceptable threat-model composition hit rate for a
/// full-registry run: the measured 0.673077 less 25%.
const COMPOSE_HIT_RATE_FLOOR: f64 = 0.504808;

/// Everything checked for equivalence across cache modes: identity,
/// outcome (including every counterexample step and command label via
/// `Debug`), and the CEGAR trajectory. Exploration accounting
/// (`states_explored`, `peak_queue`, `nodes_reused`, `graph_cache_hit`)
/// legitimately differs between modes and is asserted separately.
fn fingerprint(r: &PropertyResult) -> String {
    format!(
        "{}|{:?}|{}|{}|{}|{}",
        r.property_id, r.outcome, r.cegar_iterations, r.refinements, r.cpv_queries, r.cache_hit,
    )
}

fn run(graph_cache: bool, threads: usize) -> AnalysisReport {
    analyze_implementation(
        Implementation::Reference,
        &AnalysisConfig {
            graph_cache,
            threads,
            state_limit: 2_000_000,
            // Hermetic against an ambient PROCHECK_STORE: stored
            // verdicts would bypass the graph cache under test.
            store_dir: None,
            // And against an ambient PROCHECK_BACKEND: only the explicit
            // engine consults the graph cache, and `Both` doubles the
            // composition lookups asserted below.
            backend: BackendKind::Explicit,
            ..AnalysisConfig::default()
        },
    )
}

#[test]
fn cached_and_uncached_runs_agree_on_every_property() {
    let baseline = run(false, 1);
    assert!(
        baseline.results.len() >= 62,
        "full registry must be checked"
    );
    let expected: Vec<String> = baseline.results.iter().map(fingerprint).collect();
    for (graph_cache, threads) in [(false, 4), (true, 1), (true, 4)] {
        let report = run(graph_cache, threads);
        let got: Vec<String> = report.results.iter().map(fingerprint).collect();
        assert_eq!(
            expected, got,
            "graph_cache={graph_cache} threads={threads} diverged from the uncached serial run"
        );
    }
}

#[test]
fn cache_accounting_matches_each_mode() {
    let uncached = run(false, 1);
    let cached = run(true, 1);

    // Off means off: nothing consults the graph cache. (`nodes_reused`
    // can still be non-zero — even a private graph answers its CEGAR
    // re-checks as queries instead of re-exploring.)
    assert_eq!(uncached.graph_cache_stats.lookups, 0);
    assert_eq!(uncached.graph_cache_stats.builds, 0);
    assert!(uncached.results.iter().all(|r| r.graph_cache_hit.is_none()));

    // On means shared: fewer explorations than consulting properties,
    // one designated builder per distinct configuration, and real node
    // re-use on the hit rows.
    let stats = &cached.graph_cache_stats;
    assert!(stats.builds > 0, "model properties must build graphs");
    assert!(stats.hits() > 0, "shared slices must produce hits");
    assert!(stats.hit_rate() > 0.5, "most lookups must be hits");
    let builders = cached
        .results
        .iter()
        .filter(|r| r.graph_cache_hit == Some(false))
        .count();
    let hits = cached
        .results
        .iter()
        .filter(|r| r.graph_cache_hit == Some(true))
        .count();
    assert_eq!(builders, stats.builds);
    assert_eq!(hits, stats.hits());
    assert!(cached
        .results
        .iter()
        .filter(|r| r.graph_cache_hit == Some(true))
        .all(|r| r.states_explored == 0 && r.nodes_reused > 0));

    // The tentpole claim: exploring once per distinct configuration
    // visits strictly fewer states than exploring once per property.
    // Measured floor: the registry's 17 distinct threat configurations
    // sum to 294,770 reachable states (each contains a `verified`
    // property, so every space is explored in full) vs 565,503 for one
    // build per property — a 1.9x drop here, 2.3x vs the seed's
    // per-CEGAR-iteration re-exploration. The margin asserted below is
    // deliberately looser than the measurement so registry growth does
    // not flake the suite.
    let total = |r: &AnalysisReport| r.results.iter().map(|x| x.states_explored).sum::<u64>();
    let (cached_states, uncached_states) = (total(&cached), total(&uncached));
    assert!(
        cached_states * 3 < uncached_states * 2,
        "cached run must explore < 2/3 of the states ({cached_states} vs {uncached_states})"
    );

    // Threat-model composition is shared per distinct configuration in
    // both modes: 17 builds for 52 lookups.
    for (mode, report) in [("uncached", &uncached), ("cached", &cached)] {
        let rate = report.cache_stats.hit_rate();
        assert!(
            rate >= COMPOSE_HIT_RATE_FLOOR,
            "{mode} run: composition hit rate {rate:.6} below {COMPOSE_HIT_RATE_FLOOR}"
        );
    }
}
