//! Property-based tests for the explicit-state checker: internal
//! consistency laws and counterexample validity on random models.

use procheck_smv::checker::{check_bounded, CheckStats, Property, Verdict};
use procheck_smv::expr::Expr;
use procheck_smv::model::{GuardedCmd, Model};
use proptest::prelude::*;
use std::collections::BTreeMap;

const DOMAIN: [&str; 3] = ["v0", "v1", "v2"];

#[derive(Debug, Clone)]
struct RandomModel {
    model: Model,
    atom: Expr,
}

fn arb_model() -> impl Strategy<Value = RandomModel> {
    let n_vars = 2usize..4;
    let cmds = proptest::collection::vec(
        (
            0usize..3, // guard var
            0usize..3, // guard value
            0usize..3, // update var
            0usize..3, // update value
        ),
        1..10,
    );
    (n_vars, cmds, 0usize..3, 0usize..3).prop_map(|(vars, cmds, pv, pi)| {
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
        let atom = Expr::var_eq(format!("x{}", pv % vars), DOMAIN[pi]);
        RandomModel { model, atom }
    })
}

/// Evaluates an atomic equality expression against a trace state.
fn holds_in(expr: &Expr, state: &BTreeMap<String, String>) -> bool {
    match expr {
        Expr::Eq(v, x) => state
            .get(v.as_str())
            .map(|s| s == x.as_str())
            .unwrap_or(false),
        Expr::Not(inner) => !holds_in(inner, state),
        _ => panic!("test oracle only evaluates atoms"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Duality: `AG p` holds iff `EF ¬p` is unreachable.
    #[test]
    fn invariant_reachability_duality(rm in arb_model()) {
        let inv = check_bounded(
            &rm.model,
            &Property::invariant("p", rm.atom.clone()),
            100_000,
            &mut CheckStats::default(),
        ).unwrap();
        let reach = check_bounded(
            &rm.model,
            &Property::reachable("notp", Expr::not(rm.atom.clone())),
            100_000,
            &mut CheckStats::default(),
        ).unwrap();
        match (inv, reach) {
            (Verdict::Holds, Verdict::Unreachable) => {}
            (Verdict::Violated(_), Verdict::Reachable(_)) => {}
            (a, b) => prop_assert!(false, "duality broken: {a:?} vs {b:?}"),
        }
    }

    /// A reachability witness really ends in a goal state, and every step
    /// follows a declared command (or a stutter).
    #[test]
    fn witnesses_are_valid_executions(rm in arb_model()) {
        let verdict = check_bounded(
            &rm.model,
            &Property::reachable("goal", rm.atom.clone()),
            100_000,
            &mut CheckStats::default(),
        ).unwrap();
        let Verdict::Reachable(ce) = verdict else { return Ok(()) };
        let last = ce.steps.last().expect("non-empty trace");
        prop_assert!(holds_in(&rm.atom, &last.state), "final state misses the goal");
        for pair in ce.steps.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            if next.label == "stutter" {
                prop_assert_eq!(&prev.state, &next.state);
                continue;
            }
            let cmd = rm.model.commands().iter()
                .find(|c| c.label.as_str() == next.label)
                .expect("labelled command exists");
            for (var, value) in &cmd.updates {
                prop_assert_eq!(&next.state[var.as_str()], value.as_str(), "update not applied");
            }
            for (var, value) in &prev.state {
                if !cmd.updates.contains_key(&procheck_ident::Sym::intern(var)) {
                    prop_assert_eq!(&next.state[var], value, "frame violated");
                }
            }
        }
    }

    /// `G (p → F p)` is a tautology: discharged in the trigger state.
    #[test]
    fn response_self_discharge(rm in arb_model()) {
        let verdict = check_bounded(
            &rm.model,
            &Property::response("taut", rm.atom.clone(), rm.atom.clone()),
            100_000,
            &mut CheckStats::default(),
        ).unwrap();
        prop_assert_eq!(verdict, Verdict::Holds);
    }

    /// Precedence with an unsatisfiable event is a tautology.
    #[test]
    fn precedence_false_event(rm in arb_model()) {
        let verdict = check_bounded(
            &rm.model,
            &Property::precedence("taut", Expr::False, rm.atom.clone()),
            100_000,
            &mut CheckStats::default(),
        ).unwrap();
        prop_assert_eq!(verdict, Verdict::Holds);
    }

    /// Checking is deterministic: two runs agree exactly.
    #[test]
    fn checking_is_deterministic(rm in arb_model()) {
        let p = Property::invariant("p", rm.atom.clone());
        let a = check_bounded(&rm.model, &p, 100_000, &mut CheckStats::default()).unwrap();
        let b = check_bounded(&rm.model, &p, 100_000, &mut CheckStats::default()).unwrap();
        prop_assert_eq!(a, b);
    }
}
