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

use crate::cache::record_extent;
use procheck_cpv::term::Term;
use procheck_ident::Sym;
use procheck_smv::budget::BudgetMeter;
use procheck_smv::checker::{CheckError, CheckStats, CompiledModel, Property, QueryStats, Verdict};
use procheck_smv::model::Model;
use procheck_smv::trace::Counterexample;
use procheck_smv::{BackendVerdict, CheckBackend, LazyGraph};
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
    /// Exploration charged to this call: how far the private graph of
    /// [`cegar_check`] was explored, or zero when the backend answers
    /// from elsewhere ([`cegar_check_backend_budgeted`] — a shared
    /// graph's exploration is charged once at the cache, not per
    /// property).
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
/// compiles and explores *privately*: one fresh [`LazyGraph`] is
/// re-queried across refinement iterations and explored only as far as
/// they need, exactly as the pipeline's shared graph slots are. Every
/// query charges `meter`.
///
/// Records per-loop telemetry on `collector`: `cegar.runs`,
/// `cegar.iterations`, `cegar.refinements`, `cpv.queries`, `cpv.steps`,
/// the checker's `smv.*` and `explore.*` counters and the `graph.build`
/// span for what the private graph explored, and
/// `graph_cache.nodes_reused` for the per-iteration graph queries.
/// Counter totals depend only on the model and property, never on
/// scheduling, so parallel callers summing into one collector stay
/// deterministic.
///
/// Callers checking many properties against one threat configuration
/// should share the graph through the pipeline's cache and call
/// [`cegar_check_backend_budgeted`] with its [`LazyGraph`] instead.
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
    // An invalid model, then bad property vocabulary, then a state too
    // wide to pack are rejected before anything is explored (same errors,
    // same precedence as the historical per-iteration model checks).
    let compiled = {
        let _span = collector.span("compile");
        CompiledModel::new(model)
    };
    let prepared = compiled.and_then(|compiled| {
        compiled.compile_property(property)?;
        let graph = LazyGraph::new(&compiled, state_limit)?;
        Ok((compiled, graph))
    });
    let (compiled, graph) = match prepared {
        Ok(prepared) => prepared,
        Err(e) => {
            record_loop(collector, 1, 0, 0, 0, &QueryStats::default());
            return Err(e);
        }
    };
    let outcome = cegar_check_backend_budgeted(
        &compiled,
        &graph,
        property,
        semantics,
        state_limit,
        max_iterations,
        meter,
        collector,
    );
    // The graph was ours, so this call is charged for what it explored.
    let extent = graph.extent();
    record_extent(&extent, collector);
    outcome.map(|outcome| CegarOutcome {
        explore: extent.stats,
        ..outcome
    })
}

/// The CEGAR loop over an arbitrary [`CheckBackend`]: asks `backend`
/// about `property` on `model`, validates each counterexample with the
/// CPV, and widens the exclusion mask per refinement.
///
/// With an [`ExplicitBackend`](procheck_smv::ExplicitBackend) over an
/// already-explored graph, or the per-`ThreatConfig` cache's
/// [`LazyGraph`], refinements never rebuild or re-explore anything:
/// excluding an adversary command only sets its bit in a
/// [`procheck_ident::CmdIdSet`] mask for the next query, and the checker
/// synthesizes the deadlock stutter exactly where
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
#[allow(clippy::too_many_arguments)] // `benchmark/src/ledger.rs` calls it with these eight
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
    let mut refinements = Vec::new();
    let mut query = QueryStats::default();
    let (mut cpv_queries, mut cpv_steps) = (0, 0);
    // Model-checker invocations: 1 when the property is rejected before
    // the first, `max_iterations` when the bound runs out.
    let mut iterations = 1;
    let verdict = 'settle: {
        // Compile once; every refinement iteration re-queries the compiled
        // form with a wider mask — no per-iteration name resolution.
        let compiled_property = match model.compile_property(property) {
            Ok(p) => p,
            Err(e) => break 'settle Err(e),
        };
        let mut excluded = model.exclusion_set();
        for iteration in 1..=max_iterations.max(1) {
            iterations = iteration;
            let answer = backend.answer(
                model,
                &compiled_property,
                &excluded,
                state_limit,
                meter,
                &mut query,
            );
            let trace = match answer {
                Ok(BackendVerdict::Definite(Verdict::Holds)) => {
                    break 'settle Ok(FinalVerdict::Verified)
                }
                Ok(BackendVerdict::Definite(Verdict::Unreachable)) => {
                    break 'settle Ok(FinalVerdict::GoalUnreachable)
                }
                Ok(BackendVerdict::Definite(Verdict::Violated(ce) | Verdict::Reachable(ce))) => ce,
                Ok(BackendVerdict::BoundReached(k)) => {
                    break 'settle Ok(FinalVerdict::BoundReached(k))
                }
                Err(e) => break 'settle Err(e),
            };
            let validation = semantics.validate_trace(&trace.command_labels());
            cpv_queries += 1;
            cpv_steps += validation.adversarial_steps;
            if validation.feasible {
                break 'settle Ok(match property {
                    Property::Reachable { .. } => FinalVerdict::GoalReachable(trace),
                    _ => FinalVerdict::Attack(trace),
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
        iterations = max_iterations;
        Ok(FinalVerdict::Inconclusive)
    };
    record_loop(
        collector,
        iterations,
        refinements.len(),
        cpv_queries,
        cpv_steps,
        &query,
    );
    Ok(CegarOutcome {
        verdict: verdict?,
        iterations,
        refinements,
        cpv_queries,
        cpv_steps,
        explore: CheckStats::default(),
        query,
    })
}

/// Records one run of the loop on `collector`: `cegar.runs`,
/// `cegar.iterations`, `cegar.refinements`, `cpv.queries`, `cpv.steps`,
/// `smv.checks` (one per iteration), and the query totals as
/// `graph_cache.nodes_reused` and `smv.peak_queue`.
fn record_loop(
    collector: &Collector,
    iterations: usize,
    refinements: usize,
    cpv_queries: usize,
    cpv_steps: usize,
    query: &QueryStats,
) {
    collector.add("cegar.runs", 1);
    collector.add("cegar.iterations", iterations as u64);
    collector.add("cegar.refinements", refinements as u64);
    collector.add("cpv.queries", cpv_queries as u64);
    collector.add("cpv.steps", cpv_steps as u64);
    collector.add("smv.checks", iterations as u64);
    collector.add("graph_cache.nodes_reused", query.nodes_reused);
    collector.record_max("smv.peak_queue", query.peak_queue);
}

#[cfg(test)]
mod tests {
    use super::*;
    use procheck_fsm::{Fsm, Transition};
    use procheck_smv::checker::build_reach_graph_budgeted;
    use procheck_smv::expr::Expr;
    use procheck_smv::ExplicitBackend;
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
    /// charge moves to wherever the graph was built. The private loop is
    /// charged what its lazy graph explored, never more than the full
    /// graph.
    #[test]
    fn on_graph_loop_matches_private_loop() {
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
            let lazy = LazyGraph::new(&compiled, 1_000_000).unwrap();
            let on_lazy = cegar_check_backend_budgeted(
                &compiled,
                &lazy,
                &p,
                &sem,
                1_000_000,
                16,
                &meter,
                &Collector::disabled(),
            )
            .unwrap();
            assert_eq!(
                private,
                CegarOutcome {
                    explore: private.explore,
                    ..on_lazy
                }
            );
            assert_eq!(private.explore, lazy.extent().stats);
            assert!(private.explore.states <= graph.build_stats().states);
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

    /// `st` starts at `a`. Two forged (crypto-infeasible) commands lead
    /// to `b` under different labels, so reaching `b` takes two
    /// refinements to rule out; a plaintext injection (feasible) leads to
    /// `c`; nothing leads to `d`.
    fn exits_model() -> Model {
        use procheck_smv::GuardedCmd;
        let mut m = Model::new("exits");
        m.declare_var("st", &["a", "b", "c", "d"], &["a"]);
        for (label, to) in [
            (FORGE_0, "b"),
            ("adv:forge:emm_information:-:-#1", "b"),
            (INJECT, "c"),
        ] {
            m.add_command(GuardedCmd::new(label, Expr::var_eq("st", "a")).set("st", to));
        }
        m
    }

    const FORGE_0: &str = "adv:forge:emm_information:-:-#0";
    const INJECT: &str = "adv:inject_plain:attach_reject:-:-#2";

    /// A backend that answers from a script, one entry per call, and
    /// counts one reused node per call.
    struct Scripted(std::cell::RefCell<Vec<Result<BackendVerdict, CheckError>>>);

    impl CheckBackend for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn answer(
            &self,
            _: &CompiledModel,
            _: &procheck_smv::CompiledProperty,
            _: &procheck_ident::CmdIdSet,
            _: usize,
            _: &BudgetMeter,
            stats: &mut QueryStats,
        ) -> Result<BackendVerdict, CheckError> {
            stats.nodes_reused += 1;
            self.0.borrow_mut().remove(0)
        }
    }

    /// Every exit of the loop: the outcome (verdict kind with the trace's
    /// labels, iterations, refinements, CPV traffic, query stats) or the
    /// error, and the counters flushed on the collector.
    #[test]
    fn every_exit_flushes_the_same_counters() {
        use procheck_smv::trace::TraceStep;
        let model = exits_model();
        let compiled = CompiledModel::new(&model).expect("valid");
        let meter = BudgetMeter::unlimited();
        let graph =
            build_reach_graph_budgeted(&compiled, 1000, &meter, &mut CheckStats::default(), 1)
                .expect("four states at most");
        let explicit = ExplicitBackend { graph: &graph };
        let sem = StepSemantics::new(ThreatConfig::lte());
        let forged = || {
            let step = |label: &str| TraceStep {
                label: label.to_string(),
                state: Default::default(),
            };
            Ok(BackendVerdict::Definite(Verdict::Violated(
                Counterexample {
                    steps: vec![step("init"), step(FORGE_0)],
                    lasso_start: None,
                },
            )))
        };
        let scripted = |second| Scripted(std::cell::RefCell::new(vec![forged(), second]));
        let bound = scripted(Ok(BackendVerdict::BoundReached(7)));
        let failing = scripted(Err(CheckError::StateLimit(5)));
        let not_b = Property::invariant("not_b", Expr::var_ne("st", "b"));
        let cases: [(&str, &dyn CheckBackend, Property, usize); 8] = [
            ("verified", &explicit, not_b.clone(), 16),
            (
                "goal unreachable",
                &explicit,
                Property::reachable("d", Expr::var_eq("st", "d")),
                16,
            ),
            (
                "attack",
                &explicit,
                Property::invariant("not_c", Expr::var_ne("st", "c")),
                16,
            ),
            (
                "goal reachable",
                &explicit,
                Property::reachable("c", Expr::var_eq("st", "c")),
                16,
            ),
            ("bound reached", &bound, not_b.clone(), 16),
            ("inconclusive", &explicit, not_b.clone(), 2),
            (
                "vocabulary error",
                &explicit,
                Property::invariant("ghost", Expr::var_eq("ghost", "a")),
                16,
            ),
            ("backend error", &failing, not_b, 16),
        ];
        let counters = [
            "cegar.runs",
            "cegar.iterations",
            "cegar.refinements",
            "cpv.queries",
            "cpv.steps",
            "smv.checks",
            "graph_cache.nodes_reused",
            "smv.peak_queue",
        ];
        let outcome = |verdict: &str, iterations, refined: &[&str], cpv, query| {
            Ok((
                verdict.to_string(),
                iterations,
                refined.iter().map(|l| l.to_string()).collect::<Vec<_>>(),
                cpv,
                query,
            ))
        };
        let query = |nodes_reused, product_states, transitions, peak_queue| QueryStats {
            nodes_reused,
            product_states,
            transitions,
            peak_queue,
        };
        let forges = [FORGE_0, "adv:forge:emm_information:-:-#1"];
        let expected = [
            (
                outcome("Verified", 3, &forges, (2, 2), query(6, 4, 3, 1)),
                [1, 3, 2, 2, 2, 3, 6, 1],
            ),
            (
                outcome("GoalUnreachable", 1, &[], (0, 0), query(3, 0, 0, 0)),
                [1, 1, 0, 0, 0, 1, 3, 0],
            ),
            (
                outcome("Attack: init, INJECT", 1, &[], (1, 1), query(3, 0, 0, 0)),
                [1, 1, 0, 1, 1, 1, 3, 0],
            ),
            (
                outcome(
                    "GoalReachable: init, INJECT",
                    1,
                    &[],
                    (1, 1),
                    query(3, 0, 0, 0),
                ),
                [1, 1, 0, 1, 1, 1, 3, 0],
            ),
            (
                outcome(
                    "BoundReached(7)",
                    2,
                    &forges[..1],
                    (1, 1),
                    query(2, 0, 0, 0),
                ),
                [1, 2, 1, 1, 1, 2, 2, 0],
            ),
            (
                outcome("Inconclusive", 2, &forges, (2, 2), query(4, 2, 1, 1)),
                [1, 2, 2, 2, 2, 2, 4, 1],
            ),
            (
                Err(CheckError::InvalidModel(vec![
                    "`property` references undeclared `ghost`".to_string(),
                ])),
                [1, 1, 0, 0, 0, 1, 0, 0],
            ),
            (Err(CheckError::StateLimit(5)), [1, 2, 1, 1, 1, 2, 2, 0]),
        ];
        for ((name, backend, p, max_iterations), (want, want_counters)) in
            cases.into_iter().zip(expected)
        {
            let collector = Collector::enabled();
            let got = cegar_check_backend_budgeted(
                &compiled,
                backend,
                &p,
                &sem,
                1000,
                max_iterations,
                &meter,
                &collector,
            )
            .map(|o| {
                assert_eq!(o.explore, CheckStats::default(), "{name}");
                let verdict = match &o.verdict {
                    FinalVerdict::Attack(ce) => format!("Attack: {}", labels(ce)),
                    FinalVerdict::GoalReachable(ce) => format!("GoalReachable: {}", labels(ce)),
                    v => format!("{v:?}"),
                };
                let refined: Vec<String> = o
                    .refinements
                    .iter()
                    .map(|r| r.excluded_command.clone())
                    .collect();
                (
                    verdict,
                    o.iterations,
                    refined,
                    (o.cpv_queries, o.cpv_steps),
                    o.query,
                )
            });
            assert_eq!(got, want, "{name}");
            let flushed = counters.map(|c| collector.counter_value(c));
            assert_eq!(flushed, want_counters, "{name}: {counters:?}");
        }
    }

    /// A trace's step labels, with [`INJECT`] abbreviated.
    fn labels(ce: &Counterexample) -> String {
        let all: Vec<&str> = ce.steps.iter().map(|s| s.label.as_str()).collect();
        all.join(", ").replace(INJECT, "INJECT")
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
