//! Cone-of-influence slicing: project a compiled model onto the
//! variables a property can observe, directly or transitively.
//!
//! A property's *support* is the set of variables its expressions read.
//! The *cone of influence* closes that set under dependency: a command
//! is **kept** iff it updates an in-cone variable, and every kept
//! command's guard variables join the cone (they steer when in-cone
//! updates fire), to a fixpoint. Everything else — out-of-cone
//! variables, and commands whose updates only touch them — is dropped
//! from the projected [`CompiledModel`], shrinking the packed
//! state-arena layout and the per-property reachable space.
//!
//! The projection is *verdict- and trace-preserving* for the safety
//! classes (invariant, reachability, precedence), including under CEGAR
//! exclusion masks:
//!
//! * the sliced BFS visits exactly the first occurrences of the full
//!   BFS's projected states, in the same order, so scans find the same
//!   first bad state;
//! * the first bad node's parent chain uses only kept commands (a
//!   dropped command cannot change an in-cone variable, so its edges are
//!   projection-preserving and never first-reach a fresh projection);
//! * CEGAR exclusions name trace labels, which are kept-command labels,
//!   so full and sliced loops exclude the same commands.
//!
//! Response properties are never sliced: their verdicts additionally
//! read fairness constraints and lasso structure over the full state.
//! Traces found on the sliced model mention only kept variables;
//! [`expand_counterexample`] replays them against the full model at the
//! report edge so everything user-visible stays in full-variable form.
//!
//! The pipeline's `AnalysisConfig::slice` flag switches slicing on or off.

use crate::checker::{CCmd, CExpr, CProp, CVar, CompiledModel, CompiledProperty};
use crate::fxhash::{FxBuildHasher, FxHashMap};
use crate::trace::{Counterexample, TraceStep};
use procheck_ident::{Sym, VarId};
use std::collections::BTreeSet;

type Value = crate::reach::Value;

/// The identity of a cone: which of the full model's variables and
/// commands survive the projection (both ascending, in source index
/// space). Two properties over the same threat configuration with equal
/// signatures see the *same* sliced model, so a graph cache can key
/// slots by `(ThreatConfig, ConeSig)` and share one exploration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConeSig {
    /// Kept variable indices of the full model, ascending.
    pub kept_vars: Vec<u32>,
    /// Kept command indices of the full model, ascending.
    pub kept_cmds: Vec<u32>,
}

impl ConeSig {
    /// Number of variables in the cone.
    pub fn var_count(&self) -> usize {
        self.kept_vars.len()
    }

    /// Number of commands kept by the projection.
    pub fn cmd_count(&self) -> usize {
        self.kept_cmds.len()
    }
}

/// A model projected onto one property's cone of influence.
pub struct SlicedModel {
    /// The projected model: kept variables and commands only, in source
    /// order, with the source labels, domains, and value ids. Fairness
    /// constraints are deliberately absent — response properties (the
    /// only consumers of fairness) are never sliced.
    pub model: CompiledModel,
    /// The cone's identity, usable as a cache key.
    pub sig: ConeSig,
}

/// Collects the variables an expression reads.
fn expr_support(e: &CExpr, out: &mut BTreeSet<VarId>) {
    match e {
        CExpr::True | CExpr::False => {}
        CExpr::Eq(v, _) | CExpr::Ne(v, _) | CExpr::In(v, _) => {
            out.insert(*v);
        }
        CExpr::And(xs) | CExpr::Or(xs) => {
            for x in xs {
                expr_support(x, out);
            }
        }
        CExpr::Not(x) => expr_support(x, out),
    }
}

/// The property's support set: every variable its compiled expressions
/// read. This is the seed of the cone-of-influence closure.
pub(crate) fn property_support(prop: &CompiledProperty) -> BTreeSet<VarId> {
    let mut s = BTreeSet::new();
    match &prop.kind {
        CProp::Invariant { holds } => expr_support(holds, &mut s),
        CProp::Reachable { goal } => expr_support(goal, &mut s),
        CProp::Response { trigger, response } => {
            expr_support(trigger, &mut s);
            expr_support(response, &mut s);
        }
        CProp::Precedence {
            event,
            requires_before,
        } => {
            expr_support(event, &mut s);
            expr_support(requires_before, &mut s);
        }
    }
    s
}

/// Rewrites an in-cone expression into the sliced variable index space.
/// Every variable it reads is in the cone by closure, so the remap never
/// misses.
fn remap_expr(e: &CExpr, remap: &[Option<VarId>]) -> CExpr {
    let var = |v: &VarId| remap[v.index()].expect("cone closure covers guard variables");
    match e {
        CExpr::True => CExpr::True,
        CExpr::False => CExpr::False,
        CExpr::Eq(v, x) => CExpr::Eq(var(v), *x),
        CExpr::Ne(v, x) => CExpr::Ne(var(v), *x),
        CExpr::In(v, xs) => CExpr::In(var(v), xs.clone()),
        CExpr::And(xs) => CExpr::And(xs.iter().map(|x| remap_expr(x, remap)).collect()),
        CExpr::Or(xs) => CExpr::Or(xs.iter().map(|x| remap_expr(x, remap)).collect()),
        CExpr::Not(x) => CExpr::Not(Box::new(remap_expr(x, remap))),
    }
}

/// Projects `full` onto the cone of influence of `prop`, or `None` when
/// the projection would not be sound or would not reduce anything:
///
/// * response properties (fairness/lasso structure needs the full
///   model);
/// * models with duplicate command labels (trace re-expansion and CEGAR
///   exclusion equivalence both key on labels; generated threat models
///   always label uniquely);
/// * a cone already covering every variable.
pub fn slice_for_property(full: &CompiledModel, prop: &CompiledProperty) -> Option<SlicedModel> {
    if matches!(prop.kind, CProp::Response { .. }) {
        return None;
    }
    let mut labels = BTreeSet::new();
    for cmd in &full.commands {
        if !labels.insert(cmd.label) {
            return None;
        }
    }

    // Closure: keep any command updating an in-cone variable; kept
    // guards pull their variables into the cone; repeat to fixpoint.
    // Commands with no in-cone update are projection-preserving
    // self-loops from the cone's point of view and are dropped.
    let mut in_cone = vec![false; full.num_vars()];
    for v in property_support(prop) {
        in_cone[v.index()] = true;
    }
    let mut kept = vec![false; full.commands.len()];
    loop {
        let mut changed = false;
        for (i, cmd) in full.commands.iter().enumerate() {
            if kept[i] || !cmd.updates.iter().any(|(v, _)| in_cone[v.index()]) {
                continue;
            }
            kept[i] = true;
            changed = true;
            let mut guard_vars = BTreeSet::new();
            expr_support(&cmd.guard, &mut guard_vars);
            for v in guard_vars {
                in_cone[v.index()] = true;
            }
        }
        if !changed {
            break;
        }
    }
    if in_cone.iter().all(|&b| b) {
        return None;
    }

    let kept_vars: Vec<usize> = (0..full.num_vars()).filter(|&i| in_cone[i]).collect();
    let mut remap: Vec<Option<VarId>> = vec![None; full.num_vars()];
    for (new, &old) in kept_vars.iter().enumerate() {
        remap[old] = Some(VarId::new(new));
    }

    let vars: Vec<CVar> = kept_vars
        .iter()
        .map(|&old| {
            let src = &full.vars[old];
            CVar {
                name: src.name,
                domain: src.domain.clone(),
                init: src.init.clone(),
            }
        })
        .collect();
    let mut var_index = FxHashMap::with_capacity_and_hasher(vars.len(), FxBuildHasher::default());
    for (i, v) in vars.iter().enumerate() {
        var_index.insert(v.name, VarId::new(i));
    }
    let val_index = kept_vars
        .iter()
        .map(|&old| full.val_index[old].clone())
        .collect();

    let kept_cmds: Vec<usize> = (0..full.commands.len()).filter(|&i| kept[i]).collect();
    let commands: Vec<CCmd> = kept_cmds
        .iter()
        .map(|&old| {
            let src = &full.commands[old];
            CCmd {
                label: src.label,
                guard: remap_expr(&src.guard, &remap),
                // A kept command may also write out-of-cone variables;
                // those updates vanish with their targets.
                updates: src
                    .updates
                    .iter()
                    .filter_map(|&(v, x)| remap[v.index()].map(|nv| (nv, x)))
                    .collect(),
            }
        })
        .collect();

    let sig = ConeSig {
        kept_vars: kept_vars.iter().map(|&i| i as u32).collect(),
        kept_cmds: kept_cmds.iter().map(|&i| i as u32).collect(),
    };
    Some(SlicedModel {
        model: CompiledModel {
            vars,
            var_index,
            val_index,
            commands,
            fairness: Vec::new(),
        },
        sig,
    })
}

/// Re-expands a counterexample found on a sliced model into the
/// full-variable form the unsliced checker would have produced, by
/// replaying the trace's command labels against the full model:
///
/// * the root is the first full initial state (in the full model's
///   enumeration order, which is its intern order) whose kept-variable
///   projection matches the sliced trace's first state — exactly where
///   the full exploration's parent chain bottoms out;
/// * each subsequent step applies the labeled command's constant updates
///   (`stutter` leaves the state unchanged), so out-of-cone variables
///   evolve precisely as the full run would have evolved them.
///
/// Labels are preserved verbatim, so CEGAR feasibility checks see the
/// same label sequence whether they run before or after expansion.
pub fn expand_counterexample(full: &CompiledModel, ce: &Counterexample) -> Counterexample {
    let Some(first) = ce.steps.first() else {
        return ce.clone();
    };
    let matches_first = |s: &[Value]| {
        first.state.iter().all(|(name, value)| {
            let vi = full.var_index[&Sym::intern(name)];
            full.vars[vi.index()].domain[s[vi.index()] as usize].as_str() == value
        })
    };
    let mut state = full
        .initial_states()
        .into_iter()
        .find(|s| matches_first(s))
        .expect("sliced trace roots at the projection of a full initial state");
    let mut steps = Vec::with_capacity(ce.steps.len());
    steps.push(TraceStep {
        label: first.label.clone(),
        state: full.assignment(&state),
    });
    for step in &ce.steps[1..] {
        if step.label != "stutter" {
            let cmd = full
                .commands
                .iter()
                .find(|c| c.label.as_str() == step.label)
                .expect("trace labels name full-model commands");
            for &(v, x) in &cmd.updates {
                state[v.index()] = x.0;
            }
        }
        steps.push(TraceStep {
            label: step.label.clone(),
            state: full.assignment(&state),
        });
    }
    Counterexample {
        steps,
        lasso_start: ce.lasso_start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetMeter;
    use crate::checker::{
        build_reach_graph_budgeted, check_bounded, check_on_graph, CheckStats, Property,
        QueryStats, Verdict,
    };
    use crate::expr::Expr;
    use crate::model::{GuardedCmd, Model};

    /// Two independent one-way toggles: a property over `a` must slice
    /// `b` (and its command) away.
    fn two_toggles() -> Model {
        let mut m = Model::new("tt");
        m.declare_var("a", &["0", "1"], &["0"]);
        m.declare_var("b", &["0", "1"], &["0"]);
        m.add_command(GuardedCmd::new("set_a", Expr::var_eq("a", "0")).set("a", "1"));
        m.add_command(GuardedCmd::new("set_b", Expr::var_eq("b", "0")).set("b", "1"));
        m
    }

    #[test]
    fn cone_drops_independent_variable() {
        let c = CompiledModel::new(&two_toggles()).unwrap();
        let p = c
            .compile_property(&Property::reachable("a1", Expr::var_eq("a", "1")))
            .unwrap();
        assert_eq!(
            property_support(&p).into_iter().collect::<Vec<_>>(),
            vec![VarId::new(0)]
        );
        let sliced = slice_for_property(&c, &p).expect("b is out of cone");
        assert_eq!(sliced.sig.kept_vars, vec![0]);
        assert_eq!(sliced.sig.kept_cmds, vec![0]);
        assert_eq!(sliced.model.num_vars(), 1);
        assert_eq!(sliced.model.command_count(), 1);
    }

    #[test]
    fn transitive_guard_dependencies_enter_the_cone() {
        let mut m = Model::new("chain");
        m.declare_var("x", &["0", "1"], &["0"]);
        m.declare_var("y", &["0", "1"], &["0"]);
        m.declare_var("z", &["0", "1"], &["0"]);
        m.add_command(GuardedCmd::new("arm", Expr::var_eq("x", "0")).set("x", "1"));
        m.add_command(GuardedCmd::new("drive", Expr::var_eq("x", "1")).set("y", "1"));
        m.add_command(GuardedCmd::new("noise", Expr::var_eq("z", "0")).set("z", "1"));
        let c = CompiledModel::new(&m).unwrap();
        let p = c
            .compile_property(&Property::reachable("y1", Expr::var_eq("y", "1")))
            .unwrap();
        let sliced = slice_for_property(&c, &p).expect("z is out of cone");
        // y's updater `drive` is kept; its guard pulls in x, keeping
        // `arm` too; z and `noise` go.
        assert_eq!(sliced.sig.kept_vars, vec![0, 1]);
        assert_eq!(sliced.sig.kept_cmds, vec![0, 1]);
    }

    #[test]
    fn sliced_query_matches_full_with_expanded_trace() {
        let m = two_toggles();
        let c = CompiledModel::new(&m).unwrap();
        let p = Property::reachable("a1", Expr::var_eq("a", "1"));
        let full = check_bounded(&m, &p, 1000, &mut CheckStats::default()).unwrap();
        let cp = c.compile_property(&p).unwrap();
        let sliced = slice_for_property(&c, &cp).unwrap();
        let scp = sliced.model.compile_property(&p).unwrap();
        let mut stats = CheckStats::default();
        let meter = BudgetMeter::unlimited();
        let g = build_reach_graph_budgeted(&sliced.model, 1000, &meter, &mut stats, 1).unwrap();
        assert_eq!(g.node_count(), 2, "sliced space is the `a` toggle alone");
        let mut q = QueryStats::default();
        let v = check_on_graph(
            &sliced.model,
            &g,
            &scp,
            &sliced.model.exclusion_set(),
            1000,
            &meter,
            &mut q,
        )
        .unwrap();
        let (Verdict::Reachable(full_ce), Verdict::Reachable(sliced_ce)) = (full, v) else {
            panic!("both runs must reach a=1");
        };
        assert_eq!(expand_counterexample(&c, &sliced_ce), full_ce);
    }

    #[test]
    fn response_properties_are_never_sliced() {
        let c = CompiledModel::new(&two_toggles()).unwrap();
        let p = c
            .compile_property(&Property::response(
                "r",
                Expr::var_eq("a", "0"),
                Expr::var_eq("a", "1"),
            ))
            .unwrap();
        assert!(slice_for_property(&c, &p).is_none());
    }

    #[test]
    fn duplicate_labels_refuse_to_slice() {
        let mut m = two_toggles();
        // A second command reusing `set_a`'s label breaks label-keyed
        // replay, so the slicer must fall back to the full model.
        m.add_command(GuardedCmd::new("set_a", Expr::var_eq("b", "1")).set("b", "0"));
        let c = CompiledModel::new(&m).unwrap();
        let p = c
            .compile_property(&Property::reachable("a1", Expr::var_eq("a", "1")))
            .unwrap();
        assert!(slice_for_property(&c, &p).is_none());
    }

    #[test]
    fn full_cone_returns_none() {
        let c = CompiledModel::new(&two_toggles()).unwrap();
        let p = c
            .compile_property(&Property::invariant(
                "both",
                Expr::And(vec![Expr::var_ne("a", "1"), Expr::var_ne("b", "1")]),
            ))
            .unwrap();
        assert!(slice_for_property(&c, &p).is_none());
    }
}
