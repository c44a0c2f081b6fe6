//! Property-based equivalence of cone-of-influence slicing: for random
//! small models, the sliced graph must answer every query like the full
//! graph — the same verdict class, with the re-expanded counterexample
//! exactly as long as the full model's (shortest paths survive
//! projection) and semantically valid step by step against the *source*
//! model — including under CEGAR-style label-exclusion masks.

use std::collections::BTreeMap;

use procheck_ident::Sym;
use procheck_smv::checker::{
    build_reach_graph_budgeted, check_on_graph, CheckStats, CompiledModel, Property, QueryStats,
};
use procheck_smv::coi::{expand_counterexample, slice_for_property};
use procheck_smv::expr::Expr;
use procheck_smv::model::{GuardedCmd, Model};
use procheck_smv::trace::Counterexample;
use procheck_smv::{BudgetMeter, ReachGraph};
use proptest::prelude::*;

const DOMAIN: [&str; 3] = ["v0", "v1", "v2"];
const LIMIT: usize = 100_000;

/// Random guarded-command models with unique labels. The checked
/// property observes `x0` only, while guards and updates scatter across
/// all variables — commands updating only `x1..` are exactly what the
/// cone of influence drops, so a healthy share of generated models have
/// a proper slice.
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
    (n_vars, cmds).prop_map(|(vars, cmds)| {
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
        model
    })
}

/// The three sliceable property classes, all observing only `x0`.
/// (Response properties are never sliced — pinned separately below.)
fn property_of(kind: usize) -> Property {
    match kind {
        0 => Property::invariant("p", Expr::var_ne("x0", DOMAIN[2])),
        1 => Property::reachable("p", Expr::var_eq("x0", DOMAIN[1])),
        _ => Property::precedence(
            "p",
            Expr::var_eq("x0", DOMAIN[2]),
            Expr::var_eq("x0", DOMAIN[1]),
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

/// Checks that an expanded counterexample is a genuine behaviour of the
/// *source* model: starts in the (singleton) initial assignment, and
/// every step either stutters in place or fires a command whose guard
/// held in the previous state and whose updates produce exactly the
/// next state.
fn assert_valid_in_source(model: &Model, ce: &Counterexample) -> Result<(), TestCaseError> {
    let first = &ce.steps[0];
    prop_assert_eq!(first.label.as_str(), "init");
    for var in model.vars() {
        prop_assert_eq!(
            first.state[var.name.as_str()].as_str(),
            DOMAIN[0],
            "expanded trace must start in the initial assignment"
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
            .expect("expanded labels name real commands");
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
    Ok(())
}

fn build_graph(model: &CompiledModel) -> ReachGraph {
    let mut stats = CheckStats::default();
    build_reach_graph_budgeted(model, LIMIT, &BudgetMeter::unlimited(), &mut stats, 1)
        .expect("random 3^4 models are far below the limit")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Slicing preserves every query answer: verdict class, trace
    /// length, and (after re-expansion) a step-by-step valid behaviour
    /// of the source model — with and without CEGAR-style exclusion
    /// masks.
    #[test]
    fn sliced_query_equals_full_query(
        model in arb_model(),
        kind in 0usize..3,
        excl in proptest::collection::vec(0usize..14, 0..3),
    ) {
        let compiled = CompiledModel::new(&model).expect("generated models are valid");
        let prop = property_of(kind);
        let cp = compiled.compile_property(&prop).expect("x0 always exists");
        let Some(sliced) = slice_for_property(&compiled, &cp) else {
            // Saturated cone: nothing to compare, the pipeline uses the
            // full graph.
            return Ok(());
        };
        let scp = sliced
            .model
            .compile_property(&prop)
            .expect("in-cone property recompiles against the slice");
        let full_graph = build_graph(&compiled);
        let sliced_graph = build_graph(&sliced.model);
        prop_assert!(
            sliced_graph.node_count() <= full_graph.node_count(),
            "projection may never enlarge the reachable space"
        );
        let n_cmds = model.commands().len();
        let excluded_labels: Vec<String> =
            excl.iter().map(|i| format!("c{}", i % n_cmds)).collect();
        for labels in [&[][..], &excluded_labels[..]] {
            let mut fex = compiled.exclusion_set();
            let mut sex = sliced.model.exclusion_set();
            for l in labels {
                let sym = Sym::intern(l);
                for id in compiled.commands_labeled(sym) {
                    fex.insert(id);
                }
                for id in sliced.model.commands_labeled(sym) {
                    sex.insert(id);
                }
            }
            let mut qs = QueryStats::default();
            let meter = BudgetMeter::unlimited();
            let full_v = check_on_graph(&compiled, &full_graph, &cp, &fex, LIMIT, &meter, &mut qs)
                .expect("within limit");
            let mut qs = QueryStats::default();
            let sliced_v = check_on_graph(
                &sliced.model,
                &sliced_graph,
                &scp,
                &sex,
                LIMIT,
                &meter,
                &mut qs,
            )
            .expect("within limit");
            prop_assert_eq!(
                std::mem::discriminant(&full_v),
                std::mem::discriminant(&sliced_v),
                "verdict class diverges under exclusions {:?}: full={:?} sliced={:?}",
                labels,
                &full_v,
                &sliced_v
            );
            if let (Some(fce), Some(sce)) = (full_v.trace(), sliced_v.trace()) {
                let expanded = expand_counterexample(&compiled, sce);
                prop_assert_eq!(
                    fce.steps.len(),
                    expanded.steps.len(),
                    "shortest counterexamples survive projection ({:?})",
                    labels
                );
                prop_assert_eq!(fce.lasso_start, expanded.lasso_start);
                assert_valid_in_source(&model, &expanded)?;
            }
        }
    }

    /// Response properties are never sliced: their fairness/lasso
    /// machinery needs the full model.
    #[test]
    fn response_properties_never_slice(model in arb_model()) {
        let compiled = CompiledModel::new(&model).expect("generated models are valid");
        let prop = Property::response(
            "p",
            Expr::var_eq("x0", DOMAIN[1]),
            Expr::var_eq("x0", DOMAIN[0]),
        );
        let cp = compiled.compile_property(&prop).expect("x0 always exists");
        prop_assert!(slice_for_property(&compiled, &cp).is_none());
    }
}
