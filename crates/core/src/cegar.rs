//! The CEGAR loop between model checker and cryptographic protocol
//! verifier (paper §III-E, §IV-B).
//!
//! 1. The threat-instrumented model and a property go to the model
//!    checker.
//! 2. On a counterexample, every adversarial step is submitted to the
//!    CPV's Dolev–Yao derivability check.
//! 3. If all steps conform to the cryptographic assumptions the
//!    counterexample is a real attack; otherwise the offending adversary
//!    action is excluded ("we refine the property to ensure that the
//!    adversary does not exercise the offending action") and the loop
//!    repeats.
//!
//! Termination: each refinement removes at least one command from the
//! finite command set, so the loop runs at most `|commands|` iterations
//! (bounded further by `max_iterations`).

use procheck_cpv::term::Term;
use procheck_ident::Sym;
use procheck_smv::budget::BudgetMeter;
use procheck_smv::checker::{
    build_reach_graph_budgeted, CheckError, CheckStats, CompiledModel, Property, QueryStats,
    Verdict,
};
use procheck_smv::model::Model;
use procheck_smv::trace::Counterexample;
use procheck_smv::{BackendVerdict, CheckBackend, ExplicitBackend};
use procheck_telemetry::Collector;
use procheck_threat::StepSemantics;
use serde::Serialize;

/// Final verdict of a CEGAR run.
#[derive(Debug, Clone, PartialEq)]
pub enum FinalVerdict {
    /// The property holds on all crypto-feasible behaviour.
    Verified,
    /// A crypto-feasible counterexample was found: a real attack.
    Attack(Counterexample),
    /// (Reachability goals) the goal is reachable via feasible steps.
    GoalReachable(Counterexample),
    /// (Reachability goals) the goal is unreachable.
    GoalUnreachable,
    /// The iteration bound was exhausted before convergence.
    Inconclusive,
    /// A *bounded* backend searched every behaviour of length ≤ `k`
    /// and found no crypto-feasible violation. Settled, but strictly
    /// weaker than [`FinalVerdict::Verified`]: longer behaviours are
    /// unexamined, so this never counts as a proof on its own.
    BoundReached(usize),
}

/// One refinement performed by the loop.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Refinement {
    /// The excluded adversary command label.
    pub excluded_command: String,
    /// The term the CPV could not derive.
    pub underivable: Term,
}

/// Outcome of [`cegar_check`].
#[derive(Debug, Clone, PartialEq)]
pub struct CegarOutcome {
    /// The final verdict.
    pub verdict: FinalVerdict,
    /// Model-checker invocations performed (1 = no refinement needed).
    pub iterations: usize,
    /// The refinements applied, in order.
    pub refinements: Vec<Refinement>,
    /// Counterexamples submitted to the cryptographic protocol verifier
    /// (one query per candidate trace).
    pub cpv_queries: usize,
    /// Adversarial steps the CPV checked across all queries.
    pub cpv_steps: usize,
    /// Exploration charged to this call: the one reachability-graph
    /// build when the loop explored privately ([`cegar_check`]), or zero
    /// when the backend answers from elsewhere
    /// ([`cegar_check_backend_budgeted`] — a shared graph's build is
    /// charged once at the cache, not per property).
    pub explore: CheckStats,
    /// Graph-query totals summed over all iterations: cached nodes
    /// re-used instead of re-explored, states a graph search or response
    /// product interned, and the query BFS peak (`peak_queue` is a max
    /// across iterations).
    pub query: QueryStats,
}

impl CegarOutcome {
    /// True if the loop performed at least one refinement — i.e. the
    /// optimistic model produced a spurious counterexample first, as in
    /// the paper's narrative.
    pub fn refined(&self) -> bool {
        !self.refinements.is_empty()
    }
}

/// Runs the model-checker ⇄ CPV loop for one property on a model it
/// compiles and explores *privately*: one fresh [`ReachGraph`] is
/// re-queried across refinement iterations. The graph build and every
/// refinement query charge `meter`.
///
/// Records per-loop telemetry on `collector`: `cegar.runs`,
/// `cegar.iterations`, `cegar.refinements`, `cpv.queries`, `cpv.steps`,
/// the checker's `smv.*` counters for the one graph build, and
/// `graph_cache.nodes_reused` for the per-iteration graph queries.
/// Counter totals depend only on the model and property, never on
/// scheduling, so parallel callers summing into one collector stay
/// deterministic.
///
/// Callers checking many properties against one threat configuration
/// should share the graph through the pipeline's cache and call
/// [`cegar_check_backend_budgeted`] with its
/// [`LazyGraph`](procheck_smv::LazyGraph) instead.
///
/// [`ReachGraph`]: procheck_smv::reach::ReachGraph
///
/// # Errors
///
/// Propagates [`CheckError`] from the model checker (invalid model,
/// state-limit blowup, exhausted budget); the `smv.*` counters still
/// reflect the partial exploration in that case.
pub fn cegar_check(
    model: &Model,
    property: &Property,
    semantics: &StepSemantics,
    state_limit: usize,
    max_iterations: usize,
    meter: &BudgetMeter,
    collector: &Collector,
) -> Result<CegarOutcome, CheckError> {
    // Flush the loop's counter families even when we fail before it
    // starts, so pre-loop errors stay visible in telemetry.
    let abort = |e: CheckError| {
        collector.add("cegar.runs", 1);
        collector.add("cegar.iterations", 1);
        collector.add("cegar.refinements", 0);
        collector.add("cpv.queries", 0);
        collector.add("cpv.steps", 0);
        collector.add("smv.checks", 1);
        Err(e)
    };
    // An invalid model, then bad property vocabulary, are rejected
    // before paying for exploration (same errors, same precedence as the
    // historical per-iteration model checks).
    let compiled = {
        let _span = collector.span("compile");
        match CompiledModel::new(model) {
            Ok(c) => c,
            Err(e) => return abort(e),
        }
    };
    if let Err(e) = compiled.compile_property(property) {
        return abort(e);
    }
    let mut build = CheckStats::default();
    let built = {
        let _span = collector.span("graph.build");
        build_reach_graph_budgeted(&compiled, state_limit, meter, &mut build, 1)
    };
    collector.add("smv.states_explored", build.states);
    collector.add("smv.transitions", build.transitions);
    collector.record_max("smv.peak_queue", build.peak_queue);
    let graph = match built {
        Ok(g) => g,
        Err(e) => return abort(e),
    };
    let mut outcome = cegar_check_backend_budgeted(
        &compiled,
        &ExplicitBackend { graph: &graph },
        property,
        semantics,
        state_limit,
        max_iterations,
        meter,
        collector,
    )?;
    // The build was ours, so this call is charged for it.
    outcome.explore = build;
    Ok(outcome)
}

/// The CEGAR loop over an arbitrary [`CheckBackend`]: asks `backend`
/// about `property` on `model`, validates each counterexample with the
/// CPV, and widens the exclusion mask per refinement.
///
/// With an [`ExplicitBackend`] over an already-explored graph, or the
/// per-`ThreatConfig` cache's [`LazyGraph`](procheck_smv::LazyGraph),
/// refinements never rebuild or re-explore anything: excluding an
/// adversary command only
/// sets its bit in a [`procheck_ident::CmdIdSet`] mask for the next
/// query, and the checker synthesizes the deadlock stutter exactly where
/// the filtered model would have one, so verdicts, traces, and
/// refinement sequences are identical to a loop that re-explored a
/// command-filtered model each iteration. The returned outcome's
/// `explore` is zero — exploration is charged wherever the graph was
/// built — while `query` accounts for the graph re-use (also recorded as
/// `graph_cache.nodes_reused` on `collector`).
///
/// `model` may be a cone-of-influence projection
/// ([`procheck_smv::coi::slice_for_property`]): CPV checks and
/// refinements work on trace labels, which the projection keeps, so the
/// loop runs exactly as on the full model, and the caller re-expands a
/// surviving counterexample with
/// [`procheck_smv::coi::expand_counterexample`].
///
/// The bounded symbolic engine (`procheck_symbolic::BmcBackend`) needs
/// no prebuilt graph. A backend answer of
/// [`BackendVerdict::BoundReached`] ends the loop with
/// [`FinalVerdict::BoundReached`] — there is no counterexample to refine
/// and no proof to report.
///
/// # Errors
///
/// Propagates the backend's [`CheckError`]s, including
/// [`CheckError::Budget`] and [`CheckError::BackendDivergence`] for
/// counterexamples that fail replay validation. Every exit path flushes
/// the loop's counters.
#[allow(clippy::too_many_arguments)]
pub fn cegar_check_backend_budgeted(
    model: &CompiledModel,
    backend: &dyn CheckBackend,
    property: &Property,
    semantics: &StepSemantics,
    state_limit: usize,
    max_iterations: usize,
    meter: &BudgetMeter,
    collector: &Collector,
) -> Result<CegarOutcome, CheckError> {
    let mut excluded = model.exclusion_set();
    let mut refinements = Vec::new();
    let mut query = QueryStats::default();
    let mut cpv_queries = 0usize;
    let mut cpv_steps = 0usize;
    // One closure so every exit path (including errors) flushes the
    // same counter set.
    let record = |iterations: usize,
                  refinements: usize,
                  cpv_queries: usize,
                  cpv_steps: usize,
                  query: &QueryStats| {
        collector.add("cegar.runs", 1);
        collector.add("cegar.iterations", iterations as u64);
        collector.add("cegar.refinements", refinements as u64);
        collector.add("cpv.queries", cpv_queries as u64);
        collector.add("cpv.steps", cpv_steps as u64);
        collector.add("smv.checks", iterations as u64);
        collector.add("graph_cache.nodes_reused", query.nodes_reused);
        collector.record_max("smv.peak_queue", query.peak_queue);
    };
    // Compile once; every refinement iteration re-queries the compiled
    // form with a wider mask — no per-iteration name resolution.
    let compiled_property = match model.compile_property(property) {
        Ok(p) => p,
        Err(e) => {
            record(1, 0, 0, 0, &query);
            return Err(e);
        }
    };
    for iteration in 1..=max_iterations.max(1) {
        let verdict = match backend.answer(
            model,
            &compiled_property,
            &excluded,
            state_limit,
            meter,
            &mut query,
        ) {
            Ok(BackendVerdict::Definite(v)) => v,
            Ok(BackendVerdict::BoundReached(k)) => {
                record(iteration, refinements.len(), cpv_queries, cpv_steps, &query);
                return Ok(CegarOutcome {
                    verdict: FinalVerdict::BoundReached(k),
                    iterations: iteration,
                    refinements,
                    cpv_queries,
                    cpv_steps,
                    explore: CheckStats::default(),
                    query,
                });
            }
            Err(e) => {
                record(iteration, refinements.len(), cpv_queries, cpv_steps, &query);
                return Err(e);
            }
        };
        let trace = match verdict {
            Verdict::Holds => {
                record(iteration, refinements.len(), cpv_queries, cpv_steps, &query);
                return Ok(CegarOutcome {
                    verdict: FinalVerdict::Verified,
                    iterations: iteration,
                    refinements,
                    cpv_queries,
                    cpv_steps,
                    explore: CheckStats::default(),
                    query,
                });
            }
            Verdict::Unreachable => {
                record(iteration, refinements.len(), cpv_queries, cpv_steps, &query);
                return Ok(CegarOutcome {
                    verdict: FinalVerdict::GoalUnreachable,
                    iterations: iteration,
                    refinements,
                    cpv_queries,
                    cpv_steps,
                    explore: CheckStats::default(),
                    query,
                });
            }
            Verdict::Violated(ce) | Verdict::Reachable(ce) => ce,
        };
        let labels: Vec<&str> = trace.command_labels();
        let validation = semantics.validate_trace(&labels);
        cpv_queries += 1;
        cpv_steps += validation.adversarial_steps;
        if validation.feasible {
            let verdict = match check_kind(property) {
                Kind::Reachability => FinalVerdict::GoalReachable(trace),
                Kind::Other => FinalVerdict::Attack(trace),
            };
            record(iteration, refinements.len(), cpv_queries, cpv_steps, &query);
            return Ok(CegarOutcome {
                verdict,
                iterations: iteration,
                refinements,
                cpv_queries,
                cpv_steps,
                explore: CheckStats::default(),
                query,
            });
        }
        let (_, label, required) = validation
            .first_infeasible
            .expect("infeasible validation names a step");
        for id in model.commands_labeled(Sym::intern(&label)) {
            excluded.insert(id);
        }
        refinements.push(Refinement {
            excluded_command: label,
            underivable: required,
        });
    }
    record(
        max_iterations,
        refinements.len(),
        cpv_queries,
        cpv_steps,
        &query,
    );
    Ok(CegarOutcome {
        verdict: FinalVerdict::Inconclusive,
        iterations: max_iterations,
        refinements,
        cpv_queries,
        cpv_steps,
        explore: CheckStats::default(),
        query,
    })
}

enum Kind {
    Reachability,
    Other,
}

fn check_kind(p: &Property) -> Kind {
    match p {
        Property::Reachable { .. } => Kind::Reachability,
        _ => Kind::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procheck_fsm::{Fsm, Transition};
    use procheck_smv::expr::Expr;
    use procheck_threat::{build_threat_model, ThreatConfig};

    /// [`cegar_check`] serial and unbudgeted, without telemetry.
    fn one_shot(model: &Model, p: &Property, sem: &StepSemantics) -> CegarOutcome {
        cegar_check(
            model,
            p,
            sem,
            1_000_000,
            16,
            &BudgetMeter::unlimited(),
            &Collector::disabled(),
        )
        .unwrap()
    }

    /// Miniature UE/MME pair where the only way to reach `emm_registered`
    /// with a *forged* message is crypto-infeasible, but a replay works.
    fn mini_models() -> (Fsm, Fsm) {
        let mut ue = Fsm::new("ue");
        ue.set_initial("emm_deregistered");
        ue.add_transition(
            Transition::build("emm_deregistered", "emm_registered_initiated")
                .when("attach_enabled")
                .then("attach_request"),
        );
        ue.add_transition(
            Transition::build("emm_registered_initiated", "emm_registered")
                .when("authentication_request")
                .when("aka_mac_valid=true")
                .when("sqn_ok=true")
                .then("authentication_response"),
        );
        let mut mme = Fsm::new("mme");
        mme.set_initial("mme_deregistered");
        mme.add_transition(
            Transition::build("mme_deregistered", "mme_wait_auth_response")
                .when("attach_request")
                .then("authentication_request"),
        );
        (ue, mme)
    }

    #[test]
    fn cegar_refines_forged_steps_and_converges() {
        let (ue, mme) = mini_models();
        let cfg = ThreatConfig::lte(); // optimistic_crypto on
        let model = build_threat_model(&ue, &mme, &cfg);
        let sem = StepSemantics::new(cfg);
        // "A stale challenge is never accepted": the optimistic model can
        // blame a forged challenge first (spurious); after refinement the
        // genuine replay remains.
        let p = Property::invariant("no_stale", Expr::var_ne("last_auth_sqn", "stale"));
        let outcome = one_shot(&model, &p, &sem);
        let FinalVerdict::Attack(trace) = &outcome.verdict else {
            panic!("expected an attack, got {:?}", outcome.verdict);
        };
        // The surviving trace uses a replay, never a forge.
        assert!(trace.command_labels().iter().all(|l| !l.contains("forge")));
        assert!(trace
            .command_labels()
            .iter()
            .any(|l| l.contains("replay_old_unconsumed")));
    }

    #[test]
    fn refinements_are_recorded() {
        let (ue, mme) = mini_models();
        let cfg = ThreatConfig::lte();
        let model = build_threat_model(&ue, &mme, &cfg);
        let sem = StepSemantics::new(cfg);
        // Reach `last_auth_sqn=fresh` via adversary only: the adversary
        // cannot produce a *fresh-looking accepted* challenge without the
        // key, so the forge is excluded; the legit MME path remains, so
        // the goal is still reachable — but only through feasible steps.
        let p = Property::reachable("fresh", Expr::var_eq("last_auth_sqn", "fresh"));
        let outcome = one_shot(&model, &p, &sem);
        match &outcome.verdict {
            FinalVerdict::GoalReachable(trace) => {
                assert!(trace.command_labels().iter().all(|l| !l.contains("forge")));
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    /// Deterministic refinement: the *only* path to the goal is a forged
    /// challenge, which the CPV refutes — the paper's spurious-
    /// counterexample narrative in miniature.
    #[test]
    fn cegar_excludes_infeasible_forgery_and_verifies() {
        let mut ue = Fsm::new("ue");
        ue.set_initial("emm_deregistered");
        ue.add_transition(
            Transition::build("emm_deregistered", "emm_registered")
                .when("authentication_request")
                .when("aka_mac_valid=true")
                .when("sqn_ok=true")
                .then("authentication_response"),
        );
        let mut mme = Fsm::new("mme");
        mme.set_initial("mme_deregistered");
        // The network never issues a challenge: only forgery could do it.
        mme.add_transition(
            Transition::build("mme_deregistered", "mme_deregistered")
                .when("authentication_response")
                .then("null_action"),
        );
        let cfg = ThreatConfig::lte();
        let model = build_threat_model(&ue, &mme, &cfg);
        let sem = StepSemantics::new(cfg);
        let p = Property::invariant(
            "never_registered",
            Expr::var_ne("ue_state", "emm_registered"),
        );
        let outcome = one_shot(&model, &p, &sem);
        assert_eq!(outcome.verdict, FinalVerdict::Verified);
        assert!(
            outcome.refined(),
            "the forge counterexample must be refined away"
        );
        assert!(outcome.iterations >= 2);
        assert!(outcome.refinements[0].excluded_command.contains("forge"));
    }

    /// The shared-graph loop must be indistinguishable from the
    /// private-exploration loop: same verdicts, traces, refinement
    /// sequences, CPV traffic, and query work — only the exploration
    /// charge moves to wherever the graph was built.
    #[test]
    fn on_graph_loop_matches_private_loop() {
        use procheck_smv::checker::build_reach_graph_budgeted;
        let (ue, mme) = mini_models();
        for p in [
            Property::invariant("no_stale", Expr::var_ne("last_auth_sqn", "stale")),
            Property::reachable("fresh", Expr::var_eq("last_auth_sqn", "fresh")),
        ] {
            let cfg = ThreatConfig::lte();
            let model = build_threat_model(&ue, &mme, &cfg);
            let sem = StepSemantics::new(cfg);
            let private = one_shot(&model, &p, &sem);
            let compiled = CompiledModel::new(&model).unwrap();
            let meter = BudgetMeter::unlimited();
            let mut build = CheckStats::default();
            let graph =
                build_reach_graph_budgeted(&compiled, 1_000_000, &meter, &mut build, 1).unwrap();
            let shared = cegar_check_backend_budgeted(
                &compiled,
                &ExplicitBackend { graph: &graph },
                &p,
                &sem,
                1_000_000,
                16,
                &meter,
                &Collector::disabled(),
            )
            .unwrap();
            assert_eq!(private.verdict, shared.verdict);
            assert_eq!(private.iterations, shared.iterations);
            assert_eq!(private.refinements, shared.refinements);
            assert_eq!(private.cpv_queries, shared.cpv_queries);
            assert_eq!(private.cpv_steps, shared.cpv_steps);
            assert_eq!(private.query, shared.query, "same queries must run");
            assert_eq!(
                shared.explore,
                CheckStats::default(),
                "shared-graph runs are not charged for exploration"
            );
            assert_eq!(private.explore, graph.build_stats());
        }
    }

    /// The one-shot loop records the checker's counters for its private
    /// build and queries on the collector; a disabled collector yields
    /// the identical outcome.
    #[test]
    fn one_shot_records_collector_counters() {
        let (ue, mme) = mini_models();
        let cfg = ThreatConfig::lte();
        let model = build_threat_model(&ue, &mme, &cfg);
        let sem = StepSemantics::new(cfg);
        let p = Property::invariant("no_stale", Expr::var_ne("last_auth_sqn", "stale"));
        let collector = Collector::enabled();
        let meter = BudgetMeter::unlimited();
        let traced = cegar_check(&model, &p, &sem, 1_000_000, 16, &meter, &collector).unwrap();
        assert_eq!(
            collector.counter_value("smv.checks"),
            traced.iterations as u64
        );
        assert_eq!(
            collector.counter_value("smv.states_explored"),
            traced.explore.states
        );
        assert_eq!(
            collector.counter_value("smv.transitions"),
            traced.explore.transitions
        );
        assert_eq!(
            collector.counter_value("smv.peak_queue"),
            traced.explore.peak_queue.max(traced.query.peak_queue)
        );
        assert_eq!(one_shot(&model, &p, &sem), traced);
    }

    /// A model whose state needs more than 64 bits is rejected by the
    /// private loop with the explorer's width error, before anything is
    /// explored, and the loop's counters still flush.
    #[test]
    fn models_over_64_bits_are_rejected_with_the_explorers_error() {
        use procheck_smv::checker::build_reach_graph_budgeted;
        let wide = crate::cache::tests::too_wide();
        let p = Property::reachable("moved", Expr::var_eq("x0", "v1"));
        let collector = Collector::enabled();
        let meter = BudgetMeter::unlimited();
        let sem = StepSemantics::new(ThreatConfig::lte());
        let err = cegar_check(&wide, &p, &sem, 1000, 16, &meter, &collector).unwrap_err();
        let compiled = CompiledModel::new(&wide).unwrap();
        let mut stats = CheckStats::default();
        let direct = build_reach_graph_budgeted(&compiled, 1000, &meter, &mut stats, 1);
        assert_eq!(Err(err.clone()), direct.map(|_| ()));
        let CheckError::InvalidModel(problems) = &err else {
            panic!("{err:?}")
        };
        assert!(
            problems[0].starts_with("a state needs 66 bits, over the 64 of a packed key: x0 6,"),
            "{problems:?}"
        );
        assert_eq!(collector.counter_value("cegar.runs"), 1);
        assert_eq!(collector.counter_value("smv.states_explored"), 0);
    }

    #[test]
    fn holds_without_refinement_when_forge_disabled() {
        let (ue, mme) = mini_models();
        let cfg = ThreatConfig::lte_with_freshness_limit().without_forge();
        let model = build_threat_model(&ue, &mme, &cfg);
        let sem = StepSemantics::new(cfg);
        let p = Property::invariant("no_stale", Expr::var_ne("last_auth_sqn", "stale"));
        let outcome = one_shot(&model, &p, &sem);
        assert_eq!(outcome.verdict, FinalVerdict::Verified);
        assert_eq!(outcome.iterations, 1);
        assert!(!outcome.refined());
    }
}
