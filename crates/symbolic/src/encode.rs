//! Bounded model checking: bit-blasting a [`CompiledModel`] +
//! [`CompiledProperty`] into CNF at a fixed unrolling bound `K`.
//!
//! # Encoding
//!
//! State variable `v` with domain size `|D_v|` becomes one-hot booleans
//! `x[t][v][d]` per time step `t ∈ 0..=K` (at-least-one clause plus a
//! ladder at-most-one per `(t, v)`). Initial states constrain `t = 0` to
//! the declared initial values. Each step `t ∈ 0..K` gets one selector
//! per non-excluded command plus a *stutter* selector, under an
//! exactly-one constraint:
//!
//! * `c[t][j] → guard_j(t)` (guards translated by Tseitin, full `⟺`);
//! * `c[t][j] → x[t+1][v][d]` per update `(v, d)` of command `j`;
//! * `stutter[t] → ¬guard_j(t)` for every non-excluded `j` — the
//!   stutter fires exactly where the explicit engine synthesizes its
//!   deadlock self-loop, and nowhere else;
//! * frame: `x[t][v][d] → x[t+1][v][d] ∨ ⋁ {c[t][j] : j updates v}` —
//!   a value persists unless *some* selected command writes the
//!   variable (explanation-style frame axioms, one clause per
//!   `(t, v, d)` instead of per command pair).
//!
//! The CEGAR exclusion mask is honoured structurally: excluded commands
//! get no selector and do not appear in the stutter's guard-negation
//! list, which reproduces the masked semantics of the explicit engine's
//! graph searches and response product exactly.
//!
//! # Property schemas (violation = satisfying assignment)
//!
//! * **Invariant** — `⋁_t ¬holds(t)`; **Reachable** — `⋁_t goal(t)`.
//! * **Precedence** — prefix flags `nb[t]` ("no `requires_before` seen
//!   through `t`", one-directional: `nb[t] → nb[t-1] ∧ ¬before(t)`) and
//!   `v[t] → event(t) ∧ nb[t]`, asserting `⋁_t v[t]`.
//! * **Response** — a lasso: loop selectors `L[l]` (`l < K`, at least
//!   one) with `L[l] → s_l = s_K`; pending flags
//!   `p[t] → (p[t-1] ∨ trigger(t)) ∧ ¬response(t)` held true along the
//!   loop (`L[l] → p[t]` for `t ∈ [l, K]`); every fairness constraint
//!   satisfied somewhere on the loop
//!   (`L[l] → ⋁_{t ∈ (l, K]} fair(t)`). One-directional pending
//!   definitions are sound: asserting `p` along the loop forces a real
//!   trigger with no discharging response into the path itself.
//!
//! The engine is **refutation-only**: SAT decodes to a counterexample
//! (replay-validated in [`crate::replay`] before anything escapes);
//! UNSAT means *no violation within `K` steps* — reported as
//! [`BmcAnswer::BoundReached`], never as a proof.

use crate::cnf::{Cnf, Lit};
use crate::solver::{SolveOutcome, Solver, SolverStats};
use procheck_ident::{CmdId, CmdIdSet};
use procheck_smv::budget::BudgetMeter;
use procheck_smv::checker::{CExpr, CProp, CheckError, CompiledModel, CompiledProperty};
use procheck_smv::reach::Value;

/// A decoded bounded path: dense states plus the command fired into
/// each state (`None` = stutter; index 0 is the initial state and has
/// no command).
#[derive(Debug, Clone)]
pub struct BmcPath {
    /// States `s_0..s_n` as dense value vectors.
    pub states: Vec<Vec<Value>>,
    /// `fired[t]` is the command producing `states[t + 1]`.
    pub fired: Vec<Option<CmdId>>,
    /// Loop start for response lassos (`states[lasso_start] ==
    /// states.last()`); `None` for finite prefixes.
    pub lasso_start: Option<usize>,
}

/// The bounded engine's raw answer.
#[derive(Debug)]
pub enum BmcAnswer {
    /// A violating path was found and decoded.
    Violation(BmcPath),
    /// Every behaviour of length ≤ bound is violation-free.
    BoundReached(usize),
}

/// Runs one bounded check of `property` on `model` with the commands in
/// `excluded` removed, at unrolling bound `bound`. Solver work counters
/// accumulate into `stats`; conflicts are charged against `meter`.
///
/// # Errors
///
/// [`CheckError::Budget`] when the meter trips mid-solve.
pub fn bmc_check(
    model: &CompiledModel,
    property: &CompiledProperty,
    excluded: &CmdIdSet,
    bound: usize,
    meter: &BudgetMeter,
    stats: &mut SolverStats,
) -> Result<BmcAnswer, CheckError> {
    // Probe before encoding: an already-tripped meter (zero deadline,
    // exhausted run-level cap) must degrade the check, not let a cheap
    // solve slip through between billing points.
    if meter.is_limited() {
        meter.charge_and_probe(0).map_err(CheckError::Budget)?;
    }
    let is_response = matches!(property.kind(), CProp::Response { .. });
    // A lasso needs at least one real step to close a loop.
    if is_response && bound == 0 {
        return Ok(BmcAnswer::BoundReached(0));
    }
    let k = bound;
    let mut enc = Encoder::new(model, excluded, k);
    enc.encode_transitions();
    let extras = enc.encode_property(property);
    let mut solver = Solver::from_cnf(&enc.cnf);
    let mut budget_err = None;
    let outcome = solver.solve(&mut |conflicts| {
        if !meter.is_limited() {
            return true;
        }
        match meter.charge_and_probe(conflicts) {
            Ok(()) => true,
            Err(e) => {
                budget_err = Some(e);
                false
            }
        }
    });
    stats.absorb(solver.stats());
    match outcome {
        SolveOutcome::Unsat => Ok(BmcAnswer::BoundReached(k)),
        SolveOutcome::Interrupted => Err(CheckError::Budget(
            budget_err.expect("interrupt implies a tripped meter"),
        )),
        SolveOutcome::Sat(assignment) => {
            let path = enc.decode(&assignment, property, &extras)?;
            Ok(BmcAnswer::Violation(path))
        }
    }
}

/// Per-property auxiliary literals the decoder needs back.
struct PropertyExtras {
    /// Response loop selectors `L[l]`, indexed by `l`.
    loop_selectors: Vec<Lit>,
}

struct Encoder<'m> {
    model: &'m CompiledModel,
    k: usize,
    /// Non-excluded command indices, in declaration order.
    enabled: Vec<usize>,
    cnf: Cnf,
    /// `state[t][v][d]`: one-hot value literals.
    state: Vec<Vec<Vec<Lit>>>,
    /// `selector[t][j]` for `j < enabled.len()`, then the stutter
    /// selector last.
    selectors: Vec<Vec<Lit>>,
    true_lit: Lit,
}

impl<'m> Encoder<'m> {
    fn new(model: &'m CompiledModel, excluded: &CmdIdSet, k: usize) -> Self {
        let mut cnf = Cnf::new();
        let true_lit = Lit::pos(cnf.fresh());
        cnf.add(vec![true_lit]);
        let enabled: Vec<usize> = (0..model.commands().len())
            .filter(|&j| !excluded.contains(CmdId::new(j)))
            .collect();
        let mut state = Vec::with_capacity(k + 1);
        for _ in 0..=k {
            let step: Vec<Vec<Lit>> = model
                .vars()
                .iter()
                .map(|v| (0..v.domain.len()).map(|_| Lit::pos(cnf.fresh())).collect())
                .collect();
            state.push(step);
        }
        // One-hot per (t, v).
        for step in &state {
            for values in step {
                cnf.exactly_one(values);
            }
        }
        // Initial states: t = 0 takes one of each variable's init values.
        for (v, var) in model.vars().iter().enumerate() {
            let init: Vec<Lit> = var.init.iter().map(|d| state[0][v][d.index()]).collect();
            cnf.add(init);
        }
        Encoder {
            model,
            k,
            enabled,
            cnf,
            state,
            selectors: Vec::new(),
            true_lit,
        }
    }

    /// Tseitin-translates `e` over step `t`'s state literals, returning
    /// a literal equivalent to the expression (full `⟺`).
    fn expr_lit(&mut self, e: &CExpr, t: usize) -> Lit {
        match e {
            CExpr::True => self.true_lit,
            CExpr::False => self.true_lit.negate(),
            CExpr::Eq(v, d) => self.state[t][v.index()][d.index()],
            CExpr::Ne(v, d) => self.state[t][v.index()][d.index()].negate(),
            CExpr::In(v, ds) => {
                if ds.is_empty() {
                    return self.true_lit.negate();
                }
                let lits: Vec<Lit> = ds
                    .iter()
                    .map(|d| self.state[t][v.index()][d.index()])
                    .collect();
                if lits.len() == 1 {
                    lits[0]
                } else {
                    self.cnf.or_lit(&lits)
                }
            }
            CExpr::And(xs) => {
                if xs.is_empty() {
                    return self.true_lit;
                }
                let lits: Vec<Lit> = xs.iter().map(|x| self.expr_lit(x, t)).collect();
                if lits.len() == 1 {
                    lits[0]
                } else {
                    self.cnf.and_lit(&lits)
                }
            }
            CExpr::Or(xs) => {
                if xs.is_empty() {
                    return self.true_lit.negate();
                }
                let lits: Vec<Lit> = xs.iter().map(|x| self.expr_lit(x, t)).collect();
                if lits.len() == 1 {
                    lits[0]
                } else {
                    self.cnf.or_lit(&lits)
                }
            }
            CExpr::Not(x) => self.expr_lit(x, t).negate(),
        }
    }

    fn encode_transitions(&mut self) {
        // `model` has lifetime 'm, decoupled from `&mut self`, so its
        // expressions can feed `expr_lit` without cloning.
        let model = self.model;
        let commands = model.commands();
        let enabled = self.enabled.clone();
        for t in 0..self.k {
            // Guard literals for this step, shared by the selector
            // implications and the stutter's negation list.
            let guards: Vec<Lit> = enabled
                .iter()
                .map(|&j| self.expr_lit(&commands[j].guard, t))
                .collect();
            let mut sels: Vec<Lit> = (0..enabled.len())
                .map(|_| Lit::pos(self.cnf.fresh()))
                .collect();
            let stutter = Lit::pos(self.cnf.fresh());
            // Selector semantics.
            for (jj, &j) in enabled.iter().enumerate() {
                let sel = sels[jj];
                self.cnf.add(vec![sel.negate(), guards[jj]]);
                for &(v, d) in &commands[j].updates {
                    let next = self.state[t + 1][v.index()][d.index()];
                    self.cnf.add(vec![sel.negate(), next]);
                }
            }
            for &g in &guards {
                self.cnf.add(vec![stutter.negate(), g.negate()]);
            }
            // Frame: a value persists unless a selected command writes
            // the variable.
            for (v, var) in model.vars().iter().enumerate() {
                let writers: Vec<Lit> = enabled
                    .iter()
                    .enumerate()
                    .filter(|&(_, &j)| commands[j].updates.iter().any(|(uv, _)| uv.index() == v))
                    .map(|(jj, _)| sels[jj])
                    .collect();
                for d in 0..var.domain.len() {
                    let mut clause = vec![self.state[t][v][d].negate(), self.state[t + 1][v][d]];
                    clause.extend_from_slice(&writers);
                    self.cnf.add(clause);
                }
            }
            sels.push(stutter);
            self.cnf.exactly_one(&sels);
            self.selectors.push(sels);
        }
    }

    fn encode_property(&mut self, property: &CompiledProperty) -> PropertyExtras {
        let mut extras = PropertyExtras {
            loop_selectors: Vec::new(),
        };
        match property.kind() {
            CProp::Invariant { holds } => {
                let bad: Vec<Lit> = (0..=self.k)
                    .map(|t| self.expr_lit(holds, t).negate())
                    .collect();
                self.cnf.add(bad);
            }
            CProp::Reachable { goal } => {
                let hits: Vec<Lit> = (0..=self.k).map(|t| self.expr_lit(goal, t)).collect();
                self.cnf.add(hits);
            }
            CProp::Precedence {
                event,
                requires_before,
            } => {
                let before = requires_before;
                let mut nb_prev: Option<Lit> = None;
                let mut violations = Vec::with_capacity(self.k + 1);
                for t in 0..=self.k {
                    let b = self.expr_lit(before, t);
                    let e = self.expr_lit(event, t);
                    let nb = Lit::pos(self.cnf.fresh());
                    self.cnf.add(vec![nb.negate(), b.negate()]);
                    if let Some(prev) = nb_prev {
                        self.cnf.add(vec![nb.negate(), prev]);
                    }
                    nb_prev = Some(nb);
                    let v = Lit::pos(self.cnf.fresh());
                    self.cnf.add(vec![v.negate(), e]);
                    self.cnf.add(vec![v.negate(), nb]);
                    violations.push(v);
                }
                self.cnf.add(violations);
            }
            CProp::Response { trigger, response } => {
                // Pending obligation, one-directional:
                // p[t] → (p[t-1] ∨ trigger(t)) ∧ ¬response(t).
                let mut pending = Vec::with_capacity(self.k + 1);
                let mut p_prev: Option<Lit> = None;
                for t in 0..=self.k {
                    let trig = self.expr_lit(trigger, t);
                    let resp = self.expr_lit(response, t);
                    let p = Lit::pos(self.cnf.fresh());
                    self.cnf.add(vec![p.negate(), resp.negate()]);
                    match p_prev {
                        None => self.cnf.add(vec![p.negate(), trig]),
                        Some(prev) => self.cnf.add(vec![p.negate(), prev, trig]),
                    }
                    p_prev = Some(p);
                    pending.push(p);
                }
                // Fairness witnesses per step (t ≥ 1: loop states).
                let model = self.model;
                let fairness: Vec<Vec<Lit>> = model
                    .fairness_exprs()
                    .iter()
                    .map(|f| (1..=self.k).map(|t| self.expr_lit(f, t)).collect())
                    .collect();
                let loops: Vec<Lit> = (0..self.k).map(|_| Lit::pos(self.cnf.fresh())).collect();
                for (l, &ll) in loops.iter().enumerate() {
                    // Loop closure: s_l = s_K (one direction suffices
                    // under one-hot).
                    for (v, var) in model.vars().iter().enumerate() {
                        for d in 0..var.domain.len() {
                            self.cnf.add(vec![
                                ll.negate(),
                                self.state[l][v][d].negate(),
                                self.state[self.k][v][d],
                            ]);
                        }
                    }
                    // Obligation held along the whole loop.
                    for &p in &pending[l..=self.k] {
                        self.cnf.add(vec![ll.negate(), p]);
                    }
                    // Every fairness constraint satisfied on the loop.
                    for f in &fairness {
                        let mut clause = vec![ll.negate()];
                        clause.extend_from_slice(&f[l..]); // f[i] is step i+1
                        self.cnf.add(clause);
                    }
                }
                self.cnf.add(loops.clone());
                extras.loop_selectors = loops;
            }
        }
        extras
    }

    /// Reads the solver model back into a dense path and truncates it
    /// at the earliest violation (safety kinds) or annotates the loop
    /// (response).
    fn decode(
        &self,
        assignment: &[bool],
        property: &CompiledProperty,
        extras: &PropertyExtras,
    ) -> Result<BmcPath, CheckError> {
        let lit_true = |l: Lit| assignment[l.var() as usize] != l.is_neg();
        let mut states: Vec<Vec<Value>> = Vec::with_capacity(self.k + 1);
        for step in &self.state {
            let mut s = Vec::with_capacity(step.len());
            for values in step {
                let d = values.iter().position(|&l| lit_true(l)).ok_or_else(|| {
                    CheckError::BackendDivergence(
                        "bmc decode: one-hot state variable has no true value".into(),
                    )
                })?;
                s.push(d as Value);
            }
            states.push(s);
        }
        let mut fired: Vec<Option<CmdId>> = Vec::with_capacity(self.k);
        for sels in &self.selectors {
            let which = sels.iter().position(|&l| lit_true(l)).ok_or_else(|| {
                CheckError::BackendDivergence("bmc decode: step fired no selector".into())
            })?;
            fired.push(if which == self.enabled.len() {
                None
            } else {
                Some(CmdId::new(self.enabled[which]))
            });
        }
        match property.kind() {
            CProp::Invariant { holds } => {
                let t = (0..states.len())
                    .find(|&t| !holds.eval(&states[t]))
                    .ok_or_else(|| {
                        CheckError::BackendDivergence(
                            "bmc decode: SAT path has no invariant violation".into(),
                        )
                    })?;
                states.truncate(t + 1);
                fired.truncate(t);
                Ok(BmcPath {
                    states,
                    fired,
                    lasso_start: None,
                })
            }
            CProp::Reachable { goal } => {
                let t = (0..states.len())
                    .find(|&t| goal.eval(&states[t]))
                    .ok_or_else(|| {
                        CheckError::BackendDivergence(
                            "bmc decode: SAT path never reaches the goal".into(),
                        )
                    })?;
                states.truncate(t + 1);
                fired.truncate(t);
                Ok(BmcPath {
                    states,
                    fired,
                    lasso_start: None,
                })
            }
            CProp::Precedence {
                event,
                requires_before,
            } => {
                let mut clean = true;
                let mut hit = None;
                for (t, s) in states.iter().enumerate() {
                    clean = clean && !requires_before.eval(s);
                    if clean && event.eval(s) {
                        hit = Some(t);
                        break;
                    }
                }
                let t = hit.ok_or_else(|| {
                    CheckError::BackendDivergence(
                        "bmc decode: SAT path has no precedence violation".into(),
                    )
                })?;
                states.truncate(t + 1);
                fired.truncate(t);
                Ok(BmcPath {
                    states,
                    fired,
                    lasso_start: None,
                })
            }
            CProp::Response { .. } => {
                let l = extras
                    .loop_selectors
                    .iter()
                    .position(|&ll| lit_true(ll))
                    .ok_or_else(|| {
                        CheckError::BackendDivergence(
                            "bmc decode: response lasso selected no loop point".into(),
                        )
                    })?;
                Ok(BmcPath {
                    states,
                    fired,
                    lasso_start: Some(l),
                })
            }
        }
    }
}
