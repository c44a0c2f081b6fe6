//! Differential property test across the [`CheckBackend`] seam: random
//! small models are checked by the explicit-state engine and the
//! bounded symbolic (BMC) engine, under random CEGAR-style exclusion
//! masks, and the answers must agree whenever agreement is decidable:
//!
//! * the BMC engine is refutation-only, so a `Definite` answer from it
//!   is always a violation/witness and must match the explicit verdict
//!   class, with a trace that replays step by step on the *source*
//!   model;
//! * a `BoundReached(k)` answer is consistent with an explicit pass,
//!   and with an explicit violation **only** when every explicit
//!   counterexample needs more than `k` transitions — the explicit
//!   engine's traces are shortest (BFS) for safety and
//!   shortest-prefix lassos for response, so an explicit trace within
//!   the bound that BMC misses is a completeness bug, not slack.
//!
//! This is the executable form of the Both-mode agreement table in the
//! pipeline (`procheck-core`), pinned here against adversarial models
//! rather than the curated registry.

use std::collections::BTreeMap;

use procheck_ident::Sym;
use procheck_smv::budget::BudgetMeter;
use procheck_smv::checker::{
    build_reach_graph_budgeted, check_on_graph, CheckStats, CompiledModel, Property, QueryStats,
    Verdict,
};
use procheck_smv::expr::Expr;
use procheck_smv::model::{GuardedCmd, Model};
use procheck_smv::trace::Counterexample;
use procheck_smv::{BackendVerdict, CheckBackend};
use procheck_symbolic::BmcBackend;
use proptest::prelude::*;

const DOMAIN: [&str; 3] = ["v0", "v1", "v2"];
const LIMIT: usize = 100_000;
const BOUND: usize = 12;

/// Random guarded-command models with unique labels, mirroring the
/// generator in `reduction_prop.rs` (2–5 three-valued variables, up to
/// 13 commands), optionally with a fairness constraint so the response
/// lasso search exercises its fairness clauses.
fn arb_model() -> impl Strategy<Value = Model> {
    let n_vars = 2usize..5;
    let cmds = proptest::collection::vec(
        (
            0usize..5, // guard var
            0usize..3, // guard value
            0usize..5, // update var
            0usize..3, // update value
        ),
        1..14,
    );
    let fair = proptest::option::of(0usize..3);
    (n_vars, cmds, fair).prop_map(|(vars, cmds, fair)| {
        let mut model = Model::new("random");
        for i in 0..vars {
            model.declare_var(&format!("x{i}"), &DOMAIN, &[DOMAIN[0]]);
        }
        for (i, (gv, gx, uv, ux)) in cmds.into_iter().enumerate() {
            let gv = gv % vars;
            let uv = uv % vars;
            model.add_command(
                GuardedCmd::new(format!("c{i}"), Expr::var_eq(format!("x{gv}"), DOMAIN[gx]))
                    .set(format!("x{uv}"), DOMAIN[ux]),
            );
        }
        if let Some(fx) = fair {
            model.add_fairness(Expr::var_ne("x0", DOMAIN[fx]));
        }
        model
    })
}

/// All four property classes over `x0`/`x1`.
fn property_of(kind: usize) -> Property {
    match kind {
        0 => Property::invariant("p", Expr::var_ne("x0", DOMAIN[2])),
        1 => Property::reachable("p", Expr::var_eq("x0", DOMAIN[1])),
        2 => Property::precedence(
            "p",
            Expr::var_eq("x0", DOMAIN[2]),
            Expr::var_eq("x1", DOMAIN[1]),
        ),
        _ => Property::response(
            "p",
            Expr::var_eq("x0", DOMAIN[1]),
            Expr::var_eq("x0", DOMAIN[0]),
        ),
    }
}

/// Evaluates a source expression against a rendered trace state.
fn eval(e: &Expr, state: &BTreeMap<String, String>) -> bool {
    match e {
        Expr::True => true,
        Expr::False => false,
        Expr::Eq(v, x) => state[v.as_str()] == x.as_str(),
        Expr::Ne(v, x) => state[v.as_str()] != x.as_str(),
        Expr::In(v, xs) => xs.iter().any(|x| state[v.as_str()] == x.as_str()),
        Expr::And(es) => es.iter().all(|e| eval(e, state)),
        Expr::Or(es) => es.iter().any(|e| eval(e, state)),
        Expr::Not(e) => !eval(e, state),
        Expr::Implies(a, b) => !eval(a, state) || eval(b, state),
    }
}

/// Step-by-step replay of a rendered counterexample against the source
/// model (same discipline as `reduction_prop.rs`): initial assignment,
/// guard truth, exact updates, stutter-in-place.
fn assert_valid_in_source(model: &Model, ce: &Counterexample) -> Result<(), TestCaseError> {
    let first = &ce.steps[0];
    prop_assert_eq!(first.label.as_str(), "init");
    for var in model.vars() {
        prop_assert_eq!(
            first.state[var.name.as_str()].as_str(),
            DOMAIN[0],
            "bmc trace must start in the initial assignment"
        );
    }
    for w in ce.steps.windows(2) {
        let (prev, next) = (&w[0], &w[1]);
        if next.label == "stutter" {
            prop_assert_eq!(
                &prev.state,
                &next.state,
                "stutter steps leave state unchanged"
            );
            continue;
        }
        let cmd = model
            .commands()
            .iter()
            .find(|c| c.label.as_str() == next.label)
            .expect("bmc labels name real commands");
        prop_assert!(
            eval(&cmd.guard, &prev.state),
            "guard of {} must hold in the preceding state",
            next.label
        );
        for var in model.vars() {
            let expect = cmd
                .updates
                .get(&var.name)
                .map(|v| v.as_str())
                .unwrap_or_else(|| prev.state[var.name.as_str()].as_str());
            prop_assert_eq!(
                next.state[var.name.as_str()].as_str(),
                expect,
                "step {} must apply exactly the command's updates",
                next.label
            );
        }
    }
    if let Some(l) = ce.lasso_start {
        prop_assert!(l < ce.steps.len());
        prop_assert_eq!(
            &ce.steps[l].state,
            &ce.steps[ce.steps.len() - 1].state,
            "lasso must close on its start state"
        );
    }
    Ok(())
}

proptest! {
    // Pinned in the source: the vendored proptest reads no
    // `PROPTEST_CASES` override. 512 cases take well under a second.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The two engines agree on every random model, property class, and
    /// exclusion mask, under the Both-mode agreement rules.
    #[test]
    fn backends_agree_on_random_models(
        model in arb_model(),
        kind in 0usize..4,
        excl in proptest::collection::vec(0usize..14, 0..3),
    ) {
        let compiled = CompiledModel::new(&model).expect("generated models are valid");
        let prop = property_of(kind);
        let cp = compiled.compile_property(&prop).expect("vars always exist");
        let mut stats = CheckStats::default();
        let graph = build_reach_graph_budgeted(
            &compiled,
            LIMIT,
            &BudgetMeter::unlimited(),
            &mut stats,
            1,
        )
        .expect("random 3^4 models are far below the limit");
        let n_cmds = model.commands().len();
        let mut excluded = compiled.exclusion_set();
        for i in &excl {
            let sym = Sym::intern(&format!("c{}", i % n_cmds));
            for id in compiled.commands_labeled(sym) {
                excluded.insert(id);
            }
        }

        let mut qs = QueryStats::default();
        let meter = BudgetMeter::unlimited();
        let explicit = check_on_graph(&compiled, &graph, &cp, &excluded, LIMIT, &meter, &mut qs)
            .expect("within limit");

        let bmc = BmcBackend::new(BOUND);
        let mut qs = QueryStats::default();
        let symbolic = bmc
            .answer(&compiled, &cp, &excluded, LIMIT, &BudgetMeter::unlimited(), &mut qs)
            .expect("bmc on toy models never exhausts a budget or diverges");

        match (&explicit, &symbolic) {
            // Explicit pass: the bounded engine must come up empty.
            (Verdict::Holds, BackendVerdict::BoundReached(_))
            | (Verdict::Unreachable, BackendVerdict::BoundReached(_)) => {}
            (Verdict::Holds, BackendVerdict::Definite(v))
            | (Verdict::Unreachable, BackendVerdict::Definite(v)) => {
                prop_assert!(
                    false,
                    "bmc refutes a property the explicit engine proved: {v:?}"
                );
            }
            // Explicit violation/witness: BMC may miss it only when it
            // genuinely needs more transitions than the bound.
            (Verdict::Violated(ce), BackendVerdict::BoundReached(k))
            | (Verdict::Reachable(ce), BackendVerdict::BoundReached(k)) => {
                prop_assert!(
                    ce.steps.len() - 1 > *k,
                    "explicit found a {}-transition trace but bmc gave up at bound {}",
                    ce.steps.len() - 1,
                    k
                );
            }
            (Verdict::Violated(_), BackendVerdict::Definite(Verdict::Violated(bce))) => {
                assert_valid_in_source(&model, bce)?;
                if matches!(prop, Property::Response { .. }) {
                    prop_assert!(bce.lasso_start.is_some(), "response violations are lassos");
                }
            }
            (Verdict::Reachable(_), BackendVerdict::Definite(Verdict::Reachable(bce))) => {
                assert_valid_in_source(&model, bce)?;
            }
            (e, s) => {
                prop_assert!(false, "verdict class diverges: explicit={e:?} bmc={s:?}");
            }
        }
    }
}
