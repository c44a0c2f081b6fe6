//! Cone-of-influence slicing must be invisible in results: a run that
//! projects each property onto its cone returns byte-identical
//! verdicts, counterexample traces, and CEGAR outcomes to an unsliced
//! run — at any thread count, with or without the graph cache. Only the
//! exploration *accounting* may differ (that is the point of slicing).

use std::collections::HashMap;

use procheck::cegar::{cegar_check_backend_budgeted, CegarOutcome, FinalVerdict};
use procheck::pipeline::{
    analyze_implementation, extract_models, AnalysisConfig, AnalysisReport, BackendKind,
};
use procheck::report::PropertyResult;
use procheck_props::{registry, Check};
use procheck_smv::budget::BudgetMeter;
use procheck_smv::checker::{build_reach_graph_budgeted, CheckStats, CompiledModel, Property};
use procheck_smv::coi::{expand_counterexample, slice_for_property};
use procheck_smv::reach::STUTTER_CMD;
use procheck_smv::{ExplicitBackend, ReachGraph};
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;
use procheck_threat::{build_threat_model, StepSemantics, ThreatConfig};

/// Everything checked for equivalence across slicing modes: identity,
/// outcome (including every counterexample step and command label via
/// `Debug`), and the CEGAR trajectory. Exploration accounting
/// (`states_explored`, `peak_queue`, `graph_cache_hit`) legitimately
/// differs between modes and is asserted separately.
fn fingerprint(r: &PropertyResult) -> String {
    format!(
        "{}|{:?}|{}|{}|{}|{}",
        r.property_id, r.outcome, r.cegar_iterations, r.refinements, r.cpv_queries, r.cache_hit,
    )
}

fn run(slice: bool, threads: usize) -> AnalysisReport {
    analyze_implementation(
        Implementation::Reference,
        &AnalysisConfig {
            slice,
            threads,
            state_limit: 2_000_000,
            // Hermetic against an ambient PROCHECK_STORE: replayed
            // verdicts would skip the explorations under test.
            store_dir: None,
            ..AnalysisConfig::default()
        },
    )
}

/// The sliced runs, serial and at 4 property threads, against the
/// unsliced serial baseline: no verdict, trace step, or CEGAR counter
/// may move.
#[test]
fn reduced_and_unreduced_runs_agree_on_every_property() {
    let baseline = run(false, 1);
    assert!(
        baseline.results.len() >= 62,
        "full registry must be checked"
    );
    let expected: Vec<String> = baseline.results.iter().map(fingerprint).collect();
    for threads in [1, 4] {
        let report = run(true, threads);
        let got: Vec<String> = report.results.iter().map(fingerprint).collect();
        assert_eq!(
            expected, got,
            "sliced run at threads={threads} diverged from the unsliced serial run"
        );
        assert_eq!(report.degraded.total(), 0, "clean runs stay clean");
    }
}

/// The tentpole claim: cone-of-influence slicing visits strictly fewer
/// distinct states than the full per-configuration exploration, and a
/// full-registry run stays under an absolute ceiling on distinct states
/// explored.
#[test]
fn slicing_reduces_distinct_states_explored() {
    let states_with = |slice: bool| {
        let collector = Collector::enabled();
        let report = analyze_implementation(
            Implementation::Reference,
            &AnalysisConfig {
                slice,
                threads: 1,
                state_limit: 2_000_000,
                collector: collector.clone(),
                store_dir: None,
                ..AnalysisConfig::default()
            },
        );
        assert_eq!(report.degraded.total(), 0);
        collector.counter_value("smv.states_explored")
    };
    let unsliced = states_with(false);
    let sliced = states_with(true);
    println!("states explored: sliced={sliced} unsliced={unsliced}");
    // Measured: 239,638 sliced vs 265,415 unsliced (9.7%). The floor
    // asserted here is looser (4%) so registry growth does not flake
    // the suite; the 280,000 ceiling pins the absolute number, so a
    // change that rebuilds graphs or weakens the slices fails here.
    assert!(
        sliced * 25 < unsliced * 24,
        "slicing must cut the distinct states explored by at least 4% \
         ({sliced} vs {unsliced})"
    );
    assert!(
        sliced <= 280_000,
        "a full-registry run explored {sliced} distinct states, above the 280,000 ceiling"
    );
}

/// Exploring only as far as each verdict needs: a default run at one
/// worker stays under a per-stack ceiling on distinct states explored.
/// The ceilings sit above the measured counts (Reference 239,638, srsLTE
/// 151,709, OAI 163,432) and well below what exploring every graph to
/// the end costs (268,993, 451,197 and 407,625), so a run that stops
/// exploring early only where its invariants and goals allow passes, and
/// one that explores every graph eagerly fails.
#[test]
fn default_runs_stay_under_state_ceilings() {
    for (implementation, ceiling) in [
        (Implementation::Reference, 245_000),
        (Implementation::Srs, 160_000),
        (Implementation::Oai, 170_000),
    ] {
        let collector = Collector::enabled();
        let report = analyze_implementation(
            implementation,
            &AnalysisConfig {
                threads: 1,
                collector: collector.clone(),
                // Hermetic against the CI legs' knobs: the ceilings
                // measure the default (sliced, explicit, storeless) run.
                slice: true,
                backend: BackendKind::Explicit,
                store_dir: None,
                ..AnalysisConfig::default()
            },
        );
        assert_eq!(report.degraded.total(), 0, "{implementation:?}");
        let states = collector.counter_value("smv.states_explored");
        println!("{implementation:?}: {states} states explored");
        assert!(
            states <= ceiling,
            "{implementation:?} explored {states} distinct states, above the {ceiling} ceiling"
        );
    }
}

/// A serial, unbudgeted build of `model`'s graph.
fn explore(model: &CompiledModel, limit: usize) -> ReachGraph {
    let meter = BudgetMeter::unlimited();
    build_reach_graph_budgeted(model, limit, &meter, &mut CheckStats::default(), 1)
        .expect("registry model explores")
}

/// The CEGAR loop over a prebuilt graph, unbudgeted and untraced.
fn cegar_on_graph(
    model: &CompiledModel,
    graph: &ReachGraph,
    p: &Property,
    sem: &StepSemantics,
    limit: usize,
) -> CegarOutcome {
    cegar_check_backend_budgeted(
        model,
        &ExplicitBackend { graph },
        p,
        sem,
        limit,
        16,
        &BudgetMeter::unlimited(),
        &Collector::disabled(),
    )
    .unwrap()
}

/// The table-driven packed explorer agrees with direct guard evaluation
/// on a real registry model: at every node, the successors are exactly
/// the commands whose compiled guard holds on the node's state, in
/// ascending order, each leading to the updated state, with the stutter
/// only where no guard holds.
#[test]
fn registry_successors_equal_direct_guard_evaluation() {
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    let cfg = registry()[0].slice.threat_config();
    let model = build_threat_model(&models.ue, &models.mme, &cfg);
    let compiled = CompiledModel::new(&model).unwrap();
    let graph = explore(&compiled, 2_000_000);
    for id in 0..graph.node_count() as u32 {
        let state = graph.state_of(id);
        let enabled: Vec<u32> = (0..compiled.command_count())
            .filter(|&i| compiled.commands()[i].guard.eval(&state))
            .map(|i| i as u32)
            .collect();
        let succ: Vec<(u32, u32)> = graph.successors(id).collect();
        if enabled.is_empty() {
            assert_eq!(succ, vec![(STUTTER_CMD, id)], "node {id}: stutter");
            continue;
        }
        let cmds: Vec<u32> = succ.iter().map(|&(cmd, _)| cmd).collect();
        assert_eq!(cmds, enabled, "node {id}: enabled commands");
        for (cmd, next) in succ {
            let mut want = state.clone();
            for &(v, x) in &compiled.commands()[cmd as usize].updates {
                want[v.index()] = x.0;
            }
            assert_eq!(graph.state_of(next), want, "node {id}, command {cmd}");
        }
    }
}

/// The sliced CEGAR loop must match the full one refinement by
/// refinement, over the *real* registry: for every model-checked
/// property with a proper cone (the lenient slice, not the pipeline's
/// profitability-filtered one, so refinement-bearing properties like
/// the replay family are exercised too), run CEGAR on the full graph
/// and on the cone projection and demand the same verdict (with the
/// re-expanded trace byte-equal to the full run's, re-expanded at the
/// call site as the pipeline does), the same iteration
/// count, the same refinement sequence, and the same CPV traffic.
#[test]
fn sliced_cegar_matches_full_refinement_by_refinement() {
    const LIMIT: usize = 2_000_000;
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    assert!(models.extraction_errors.is_empty(), "clean extraction");
    let all = registry();
    // Full graphs are shared per threat configuration, exactly like the
    // pipeline's cache.
    let mut full_graphs: HashMap<ThreatConfig, (CompiledModel, procheck_smv::ReachGraph)> =
        HashMap::new();
    let mut sliced_count = 0usize;
    let mut refining_count = 0usize;
    for prop in &all {
        let Check::Model(p) = &prop.check else {
            continue;
        };
        let threat_cfg = prop.slice.threat_config();
        let (compiled, full_graph) = match full_graphs.entry(threat_cfg.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let model = build_threat_model(&models.ue, &models.mme, &threat_cfg);
                let compiled = CompiledModel::new(&model).unwrap();
                let graph = explore(&compiled, LIMIT);
                e.insert((compiled, graph))
            }
        };
        let cp = match compiled.compile_property(p) {
            Ok(cp) => cp,
            Err(_) => continue, // vocabulary gap: the pipeline reports "not applicable"
        };
        let Some(sliced) = slice_for_property(compiled, &cp) else {
            continue;
        };
        sliced_count += 1;
        let sliced_graph = explore(&sliced.model, LIMIT);
        assert!(
            sliced_graph.node_count() <= full_graph.node_count(),
            "{}: projection may never enlarge the reachable space",
            prop.id
        );
        let sem = StepSemantics::new(threat_cfg.clone());
        let full = cegar_on_graph(compiled, full_graph, p, &sem, LIMIT);
        let mut reduced = cegar_on_graph(&sliced.model, &sliced_graph, p, &sem, LIMIT);
        reduced.verdict = match reduced.verdict {
            FinalVerdict::Attack(ce) => FinalVerdict::Attack(expand_counterexample(compiled, &ce)),
            FinalVerdict::GoalReachable(ce) => {
                FinalVerdict::GoalReachable(expand_counterexample(compiled, &ce))
            }
            v => v,
        };
        assert_eq!(
            full.verdict, reduced.verdict,
            "{}: verdict (incl. re-expanded trace)",
            prop.id
        );
        assert_eq!(full.iterations, reduced.iterations, "{}", prop.id);
        assert_eq!(full.refinements, reduced.refinements, "{}", prop.id);
        assert_eq!(full.cpv_queries, reduced.cpv_queries, "{}", prop.id);
        assert_eq!(full.cpv_steps, reduced.cpv_steps, "{}", prop.id);
        if !full.refinements.is_empty() {
            refining_count += 1;
        }
    }
    println!("sliced={sliced_count} refining={refining_count}");
    assert!(
        sliced_count >= 10,
        "a healthy share of the registry must have proper cones (got {sliced_count})"
    );
    assert!(
        refining_count >= 1,
        "at least one sliced property must exercise a CEGAR refinement"
    );
}
