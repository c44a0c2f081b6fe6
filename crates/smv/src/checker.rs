//! Explicit-state checking engine.
//!
//! Every state is one packed `u64` key: each variable's value index sits
//! in its own bit field, and a model whose fields need more than 64 bits
//! is rejected with [`CheckError::InvalidModel`] naming each variable's
//! width (the symbolic backend in `procheck-symbolic` still checks it).
//! The engine is split into an *explore* phase and an *evaluate* phase:
//!
//! * [`build_reach_graph_budgeted`] runs one flagless BFS over the model
//!   and produces a [`ReachGraph`] — packed state
//!   arena, CSR successor adjacency, BFS parents. The BFS is a resumable
//!   packed explorer, so a [`crate::lazy::LazyGraph`] can run the same
//!   search only as far as its queries need.
//! * [`check_on_graph`] answers any [`Property`] as a *query* over that
//!   graph, over the cached adjacency (no guard re-evaluation, no
//!   re-interning of model states): invariants and reachability are
//!   direct scans in BFS order; precedence is a breadth-first search of
//!   the graph through the states where its prerequisite does not hold,
//!   stopping at the first event it reaches; response runs a product BFS
//!   that carries the one-bit obligation monitor and stops at the first
//!   fair cycle of pending states. Response violations are reachable
//!   cycles whose states all carry an undischarged obligation and which
//!   satisfy every fairness constraint (`JUSTICE`-style, as in nuXmv).
//!
//! Queries also accept a set of *excluded command labels* so a CEGAR
//! refinement can re-query the same cached graph instead of re-exploring
//! a filtered copy of the model: an invariant or goal under a mask is a
//! graph search too, excluded edges are skipped by the search or product
//! BFS, and a node whose outgoing commands are all excluded receives the
//! same stutter self-loop a fresh exploration of the filtered model would
//! give it. [`check_bounded`] composes the two phases for one-shot
//! callers and behaves exactly like the historical single-pass checker.

use crate::budget::{BudgetExceeded, BudgetMeter, PROBE_STRIDE};
use crate::expr::Expr;
use crate::fxhash::{FxBuildHasher, FxHashMap};
use crate::model::Model;
use crate::reach::{PackLayout, ReachGraph, NO_PARENT, STUTTER_CMD};
use crate::trace::{Counterexample, TraceStep};
use procheck_ident::{CmdId, CmdIdSet, Sym, ValId, VarId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem;

/// Default bound on explored product states.
pub const DEFAULT_STATE_LIMIT: usize = 4_000_000;

/// Cap on up-front visited-table/queue allocation. Exact domain-product
/// bounds below this are allocated exactly; anything larger starts here
/// and grows, so a sliced model with a huge *declared* product but a
/// small *reachable* set does not pay for the difference.
const PRESIZE_CAP: usize = 1 << 16;

/// A property to check against a model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Property {
    /// `AG holds` — the expression is true in every reachable state.
    Invariant {
        /// Property name (for reports).
        name: String,
        /// The invariant expression.
        holds: Expr,
    },
    /// `EF goal` — is the goal reachable? (Attack-goal queries.)
    Reachable {
        /// Property name.
        name: String,
        /// The goal expression.
        goal: Expr,
    },
    /// `G (trigger → F response)` — every trigger is eventually answered.
    Response {
        /// Property name.
        name: String,
        /// The triggering condition.
        trigger: Expr,
        /// The discharging condition.
        response: Expr,
    },
    /// `event` never occurs before `requires_before` has occurred
    /// (correspondence / authentication-precedence properties).
    Precedence {
        /// Property name.
        name: String,
        /// The guarded event.
        event: Expr,
        /// The prerequisite.
        requires_before: Expr,
    },
}

impl Property {
    /// Convenience constructor for [`Property::Invariant`].
    pub fn invariant(name: impl Into<String>, holds: Expr) -> Self {
        Property::Invariant {
            name: name.into(),
            holds,
        }
    }

    /// Convenience constructor for [`Property::Reachable`].
    pub fn reachable(name: impl Into<String>, goal: Expr) -> Self {
        Property::Reachable {
            name: name.into(),
            goal,
        }
    }

    /// Convenience constructor for [`Property::Response`].
    pub fn response(name: impl Into<String>, trigger: Expr, response: Expr) -> Self {
        Property::Response {
            name: name.into(),
            trigger,
            response,
        }
    }

    /// Convenience constructor for [`Property::Precedence`].
    pub fn precedence(name: impl Into<String>, event: Expr, requires_before: Expr) -> Self {
        Property::Precedence {
            name: name.into(),
            event,
            requires_before,
        }
    }

    /// The property's name.
    pub fn name(&self) -> &str {
        match self {
            Property::Invariant { name, .. }
            | Property::Reachable { name, .. }
            | Property::Response { name, .. }
            | Property::Precedence { name, .. } => name,
        }
    }
}

/// Outcome of a check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds on all reachable behaviour.
    Holds,
    /// The property is violated; a counterexample is attached.
    Violated(Counterexample),
    /// (Reachability only) the goal is reachable; a witness is attached.
    Reachable(Counterexample),
    /// (Reachability only) the goal is unreachable.
    Unreachable,
}

impl Verdict {
    /// The attached trace, if any.
    pub fn trace(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Violated(ce) | Verdict::Reachable(ce) => Some(ce),
            _ => None,
        }
    }
}

/// Errors from the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The model failed validation.
    InvalidModel(Vec<String>),
    /// The reachable product exceeded the state limit.
    StateLimit(usize),
    /// A run-level [`crate::budget::Budget`] dimension was exhausted
    /// mid-exploration; partial stats were absorbed before returning.
    Budget(BudgetExceeded),
    /// A panic was caught and isolated to one unit of work (a cache
    /// build or a property check); the payload message is preserved.
    Panic(String),
    /// Two checking backends disagreed on the same property (`Both`
    /// mode), or a symbolic counterexample failed replay validation on
    /// the source model. Never resolved by picking a winner: the
    /// message names both verdicts and the run fails loudly.
    BackendDivergence(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::InvalidModel(problems) => {
                write!(f, "invalid model: {}", problems.join("; "))
            }
            CheckError::StateLimit(n) => write!(f, "state limit of {n} states exceeded"),
            CheckError::Budget(e) => write!(f, "analysis budget exhausted: {e}"),
            CheckError::Panic(msg) => write!(f, "isolated panic: {msg}"),
            CheckError::BackendDivergence(msg) => write!(f, "backend divergence: {msg}"),
        }
    }
}

impl Error for CheckError {}

/// Per-check telemetry accumulated by the engine. Deterministic for a
/// given model and property: none of the fields depend on scheduling or
/// wall-clock, so a caller summing these across a run gets the same
/// totals at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckStats {
    /// Distinct product states interned.
    pub states: u64,
    /// Successor edges generated (fired commands, including stutters).
    pub transitions: u64,
    /// High-water mark of the BFS frontier queue.
    pub peak_queue: u64,
}

impl CheckStats {
    /// Folds another check's stats into this one (`peak_queue` by max,
    /// the monotonic counters by sum).
    pub fn absorb(&mut self, other: CheckStats) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.peak_queue = self.peak_queue.max(other.peak_queue);
    }
}

/// Telemetry from answering a property as a query over a cached
/// [`ReachGraph`]. Deterministic for a given
/// graph, property, and exclusion set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Cached graph nodes consulted instead of being re-explored: the
    /// nodes a scan read, or the states a graph search or the response
    /// product interned.
    pub nodes_reused: u64,
    /// States a graph search (precedence, or an invariant or goal under
    /// a CEGAR mask) or the response product interned before it
    /// answered; 0 for direct scans.
    pub product_states: u64,
    /// Edges a graph search or the response product traversed.
    pub transitions: u64,
    /// High-water mark of a graph search's or the response product's
    /// BFS frontier.
    pub peak_queue: u64,
}

impl QueryStats {
    /// Folds another query's stats into this one (`peak_queue` by max,
    /// the monotonic counters by sum).
    pub fn absorb(&mut self, other: QueryStats) {
        self.nodes_reused += other.nodes_reused;
        self.product_states += other.product_states;
        self.transitions += other.transitions;
        self.peak_queue = self.peak_queue.max(other.peak_queue);
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

type Value = crate::reach::Value;
type State = Vec<Value>;

/// Index-resolved expression: variable names and symbolic values are
/// replaced by typed dense indices ([`VarId`], [`ValId`]), so evaluation
/// is array indexing with no string hashing on the hot path. Public so
/// alternative backends (the BMC engine in `procheck-symbolic`) can
/// translate the same compiled form instead of re-resolving names.
#[derive(Debug, Clone)]
pub enum CExpr {
    True,
    False,
    Eq(VarId, ValId),
    Ne(VarId, ValId),
    In(VarId, Vec<ValId>),
    And(Vec<CExpr>),
    Or(Vec<CExpr>),
    Not(Box<CExpr>),
}

impl CExpr {
    /// Evaluates the expression in a dense state vector.
    pub fn eval(&self, s: &[Value]) -> bool {
        match self {
            CExpr::True => true,
            CExpr::False => false,
            CExpr::Eq(v, x) => s[v.index()] == x.0,
            CExpr::Ne(v, x) => s[v.index()] != x.0,
            CExpr::In(v, xs) => xs.contains(&ValId(s[v.index()])),
            CExpr::And(xs) => xs.iter().all(|x| x.eval(s)),
            CExpr::Or(xs) => xs.iter().any(|x| x.eval(s)),
            CExpr::Not(x) => !x.eval(s),
        }
    }
}

/// A command with indices resolved.
#[derive(Debug)]
pub struct CCmd {
    /// The command's label (unique in generated threat models).
    pub label: Sym,
    /// The compiled guard expression.
    pub guard: CExpr,
    /// Variable assignments applied when the command fires; variables
    /// not mentioned keep their value.
    pub updates: Vec<(VarId, ValId)>,
}

/// A compiled variable: interned name and domain for trace resolution,
/// initial values as dense indices for exploration.
#[derive(Debug)]
pub struct CVar {
    /// The variable's interned name.
    pub name: Sym,
    /// The declared domain, in [`ValId`] order.
    pub domain: Vec<Sym>,
    /// The initial values (one state per combination across variables).
    pub init: Vec<ValId>,
}

/// A model with every name resolved to a dense index, built **once** per
/// model and reused by every query and CEGAR iteration on it. Owns its
/// tables (no borrow of the source [`Model`]), so caches can hold it next
/// to the model and the reachability graph.
#[derive(Debug)]
pub struct CompiledModel {
    pub(crate) vars: Vec<CVar>,
    pub(crate) var_index: FxHashMap<Sym, VarId>,
    pub(crate) val_index: Vec<FxHashMap<Sym, ValId>>,
    pub(crate) commands: Vec<CCmd>,
    pub(crate) fairness: Vec<CExpr>,
}

/// A property with its expressions compiled against one
/// [`CompiledModel`]'s tables. Compile once, query any number of times —
/// including across CEGAR iterations — with zero further string
/// resolution.
#[derive(Debug)]
pub struct CompiledProperty {
    pub(crate) kind: CProp,
}

impl CompiledProperty {
    /// The compiled property kind, for backends translating the same
    /// compiled form the explicit engine queries.
    pub fn kind(&self) -> &CProp {
        &self.kind
    }
}

/// The compiled shape of a [`Property`]: the same four temporal
/// patterns, with every expression index-resolved.
#[derive(Debug)]
pub enum CProp {
    Invariant {
        holds: CExpr,
    },
    Reachable {
        goal: CExpr,
    },
    Response {
        trigger: CExpr,
        response: CExpr,
    },
    Precedence {
        event: CExpr,
        requires_before: CExpr,
    },
}

impl CompiledModel {
    /// Validates and compiles a model.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::InvalidModel`] with the model's validation
    /// problems (same strings, same order as [`Model::validate`]).
    pub fn new(model: &Model) -> Result<Self, CheckError> {
        let problems = model.validate();
        if !problems.is_empty() {
            return Err(CheckError::InvalidModel(problems));
        }
        let mut var_index =
            FxHashMap::with_capacity_and_hasher(model.vars().len(), FxBuildHasher::default());
        let mut val_index = Vec::with_capacity(model.vars().len());
        let mut vars = Vec::with_capacity(model.vars().len());
        for (i, v) in model.vars().iter().enumerate() {
            var_index.insert(v.name, VarId::new(i));
            let mut m =
                FxHashMap::with_capacity_and_hasher(v.domain.len(), FxBuildHasher::default());
            for (j, &value) in v.domain.iter().enumerate() {
                m.insert(value, ValId::new(j));
            }
            vars.push(CVar {
                name: v.name,
                domain: v.domain.clone(),
                init: v.init.iter().map(|s| m[s]).collect(),
            });
            val_index.push(m);
        }
        let mut c = CompiledModel {
            vars,
            var_index,
            val_index,
            commands: Vec::new(),
            fairness: Vec::new(),
        };
        c.commands = model
            .commands()
            .iter()
            .map(|cmd| CCmd {
                label: cmd.label,
                guard: c.compile(&cmd.guard),
                updates: cmd
                    .updates
                    .iter()
                    .map(|(var, value)| {
                        let vi = c.var_index[var];
                        (vi, c.val_index[vi.index()][value])
                    })
                    .collect(),
            })
            .collect();
        c.fairness = model.fairness().iter().map(|f| c.compile(f)).collect();
        Ok(c)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The compiled variables, in [`VarId`] order.
    pub fn vars(&self) -> &[CVar] {
        &self.vars
    }

    /// The compiled commands, in [`CmdId`] order.
    pub fn commands(&self) -> &[CCmd] {
        &self.commands
    }

    /// The compiled fairness constraints (`JUSTICE`-style: each must
    /// hold infinitely often along any counted infinite behaviour).
    pub fn fairness_exprs(&self) -> &[CExpr] {
        &self.fairness
    }

    /// Number of commands; [`CmdId`]s index `0..command_count()` in the
    /// source model's declaration order.
    pub fn command_count(&self) -> usize {
        self.commands.len()
    }

    /// The label of a command.
    pub fn command_label(&self, id: CmdId) -> Sym {
        self.commands[id.index()].label
    }

    /// All command ids carrying the given label (labels are unique in
    /// generated threat models, but the engine does not assume it).
    pub fn commands_labeled(&self, label: Sym) -> impl Iterator<Item = CmdId> + '_ {
        self.commands
            .iter()
            .enumerate()
            .filter(move |(_, c)| c.label == label)
            .map(|(i, _)| CmdId::new(i))
    }

    /// An empty exclusion mask sized for this model's commands.
    pub fn exclusion_set(&self) -> CmdIdSet {
        CmdIdSet::with_capacity(self.commands.len())
    }

    /// Validates a property's expressions against the compiled domains
    /// and compiles them for querying.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::InvalidModel`] listing the property's
    /// vocabulary problems (same strings and order as the name-based
    /// checker produced).
    pub fn compile_property(&self, property: &Property) -> Result<CompiledProperty, CheckError> {
        let kind = match property {
            Property::Invariant { holds, .. } => CProp::Invariant {
                holds: self.compile_checked(holds)?,
            },
            Property::Reachable { goal, .. } => CProp::Reachable {
                goal: self.compile_checked(goal)?,
            },
            Property::Response {
                trigger, response, ..
            } => CProp::Response {
                trigger: self.compile_checked(trigger)?,
                response: self.compile_checked(response)?,
            },
            Property::Precedence {
                event,
                requires_before,
                ..
            } => CProp::Precedence {
                event: self.compile_checked(event)?,
                requires_before: self.compile_checked(requires_before)?,
            },
        };
        Ok(CompiledProperty { kind })
    }

    /// Compiles an expression against the declared domains. The model has
    /// already been validated, so lookups cannot fail.
    fn compile(&self, e: &Expr) -> CExpr {
        match e {
            Expr::True => CExpr::True,
            Expr::False => CExpr::False,
            Expr::Eq(v, x) => {
                let vi = self.var_index[v];
                CExpr::Eq(vi, self.val_index[vi.index()][x])
            }
            Expr::Ne(v, x) => {
                let vi = self.var_index[v];
                CExpr::Ne(vi, self.val_index[vi.index()][x])
            }
            Expr::In(v, xs) => {
                let vi = self.var_index[v];
                CExpr::In(
                    vi,
                    xs.iter().map(|x| self.val_index[vi.index()][x]).collect(),
                )
            }
            Expr::And(xs) => CExpr::And(xs.iter().map(|x| self.compile(x)).collect()),
            Expr::Or(xs) => CExpr::Or(xs.iter().map(|x| self.compile(x)).collect()),
            Expr::Not(x) => CExpr::Not(Box::new(self.compile(x))),
            Expr::Implies(a, b) => {
                CExpr::Or(vec![CExpr::Not(Box::new(self.compile(a))), self.compile(b)])
            }
        }
    }

    /// Capacity hint for exploration: the exact product of declared
    /// domain sizes (×2 for the monitor flag) when that is small, else
    /// [`PRESIZE_CAP`], never beyond the state limit.
    fn capacity_hint(&self, limit: usize) -> usize {
        let mut bound = 2usize;
        for v in &self.vars {
            bound = bound.saturating_mul(v.domain.len().max(1));
            if bound >= PRESIZE_CAP {
                return PRESIZE_CAP.min(limit);
            }
        }
        bound.min(limit)
    }

    /// Every initial state (the cross-product of per-variable initial
    /// value lists), as dense value vectors in exploration order.
    pub fn initial_states(&self) -> Vec<State> {
        let mut states: Vec<State> = vec![Vec::new()];
        for v in &self.vars {
            let mut next = Vec::with_capacity(states.len() * v.init.len());
            for s in &states {
                for init in &v.init {
                    let mut s2 = s.clone();
                    s2.push(init.0);
                    next.push(s2);
                }
            }
            states = next;
        }
        states
    }

    /// Validates that a property expression only references declared
    /// variables and in-domain values; compiles it on success. The
    /// problem strings match [`Model::validate_property_expr`] exactly.
    fn compile_checked(&self, e: &Expr) -> Result<CExpr, CheckError> {
        let mut problems = Vec::new();
        self.validate_expr(e, &mut problems);
        if !problems.is_empty() {
            return Err(CheckError::InvalidModel(problems));
        }
        Ok(self.compile(e))
    }

    fn validate_expr(&self, e: &Expr, problems: &mut Vec<String>) {
        let ctx = "property";
        match e {
            Expr::True | Expr::False => {}
            Expr::Eq(v, x) | Expr::Ne(v, x) => match self.var_index.get(v) {
                None => problems.push(format!("`{ctx}` references undeclared `{v}`")),
                Some(vi) if !self.val_index[vi.index()].contains_key(x) => {
                    problems.push(format!("`{ctx}` compares `{v}` to out-of-domain `{x}`"))
                }
                _ => {}
            },
            Expr::In(v, xs) => match self.var_index.get(v) {
                None => problems.push(format!("`{ctx}` references undeclared `{v}`")),
                Some(vi) => {
                    for x in xs {
                        if !self.val_index[vi.index()].contains_key(x) {
                            problems
                                .push(format!("`{ctx}` tests `{v}` against out-of-domain `{x}`"));
                        }
                    }
                }
            },
            Expr::And(xs) | Expr::Or(xs) => {
                for x in xs {
                    self.validate_expr(x, problems);
                }
            }
            Expr::Not(x) => self.validate_expr(x, problems),
            Expr::Implies(a, b) => {
                self.validate_expr(a, problems);
                self.validate_expr(b, problems);
            }
        }
    }

    /// The trace label for a fired command id (`STUTTER_CMD` →
    /// `"stutter"`).
    pub fn label_of(&self, cmd: u32) -> &'static str {
        if cmd == STUTTER_CMD {
            "stutter"
        } else {
            self.commands[cmd as usize].label.as_str()
        }
    }

    /// Renders a dense state vector as the name→value assignment traces
    /// carry.
    pub fn assignment(&self, s: &[Value]) -> BTreeMap<String, String> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (
                    v.name.as_str().to_string(),
                    v.domain[s[i] as usize].as_str().to_string(),
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Explore phase: building the reachable graph
// ---------------------------------------------------------------------------

/// Explores the compiled model's reachable state space once, by one
/// serial BFS over packed `u64` keys, and returns it as a
/// [`ReachGraph`] ready for any number of property queries. Exploration
/// cost is absorbed into `stats` — on the error paths too, so callers
/// see how far an aborted build got.
///
/// The live [`BudgetMeter`] is charged for freshly interned states every
/// [`PROBE_STRIDE`] pops, and exhaustion aborts this build without
/// touching any other work sharing the meter.
///
/// The last argument is a worker count that nothing reads. It stays in
/// the signature only because the repository benchmark (`benchmark/`)
/// passes it.
///
/// # Errors
///
/// [`CheckError::InvalidModel`] when a state of `model` needs more than
/// 64 bits, before anything is explored; [`CheckError::StateLimit`] past
/// `limit`; [`CheckError::Budget`] when the meter trips.
pub fn build_reach_graph_budgeted(
    model: &CompiledModel,
    limit: usize,
    meter: &BudgetMeter,
    stats: &mut CheckStats,
    _explore_threads: usize,
) -> Result<ReachGraph, CheckError> {
    let mut explorer = PackedExplorer::new(model, limit)?;
    let explored = explorer.advance(meter, |_| false);
    if explored.is_ok() {
        explorer.charge_tail(meter);
    }
    stats.absorb(explorer.stats());
    explored.map(|_| explorer.finish())
}

/// A guard lowered against a [`PackLayout`]: every atom carries its
/// variable's field mask precomputed, so evaluation on the raw packed
/// key is an AND plus a compare — no per-atom layout lookup, no unpack
/// into a scratch vector. Exploration lowers the guard conjuncts the
/// [`EnableTables`] cannot table; queries lower their predicates once and
/// evaluate them on every node's key.
pub(crate) enum PGuard {
    True,
    False,
    /// `key & mask == bits` — equality against one variable's field.
    EqBits {
        mask: u64,
        bits: u64,
    },
    /// `key & mask != bits`.
    NeBits {
        mask: u64,
        bits: u64,
    },
    /// Membership via a value bitset (fields up to 6 bits wide, so every
    /// domain index fits a `u64` bitset).
    InSmall {
        shift: u8,
        mask: u64,
        allowed: u64,
    },
    /// Membership fallback for fields wider than 6 bits.
    InWide {
        shift: u8,
        mask: u64,
        values: Vec<Value>,
    },
    And(Vec<PGuard>),
    Or(Vec<PGuard>),
    Not(Box<PGuard>),
}

impl PGuard {
    pub(crate) fn eval(&self, key: u64) -> bool {
        match self {
            PGuard::True => true,
            PGuard::False => false,
            PGuard::EqBits { mask, bits } => key & mask == *bits,
            PGuard::NeBits { mask, bits } => key & mask != *bits,
            PGuard::InSmall {
                shift,
                mask,
                allowed,
            } => (allowed >> ((key >> shift) & mask)) & 1 != 0,
            PGuard::InWide {
                shift,
                mask,
                values,
            } => values.contains(&(((key >> shift) & mask) as Value)),
            PGuard::And(xs) => xs.iter().all(|x| x.eval(key)),
            PGuard::Or(xs) => xs.iter().any(|x| x.eval(key)),
            PGuard::Not(x) => !x.eval(key),
        }
    }
}

pub(crate) fn lower_guard(e: &CExpr, l: &PackLayout) -> PGuard {
    match e {
        CExpr::True => PGuard::True,
        CExpr::False => PGuard::False,
        CExpr::Eq(v, x) => {
            let (shift, width) = l.field(v.index());
            let mask = if width == 0 {
                0
            } else {
                (u64::MAX >> (64 - u32::from(width))) << shift
            };
            let bits = u64::from(x.0) << shift;
            if bits & !mask != 0 {
                // The value does not fit the field: unrepresentable, so
                // no packed state can ever equal it.
                PGuard::False
            } else {
                PGuard::EqBits { mask, bits }
            }
        }
        CExpr::Ne(v, x) => match lower_guard(&CExpr::Eq(*v, *x), l) {
            PGuard::False => PGuard::True,
            PGuard::EqBits { mask, bits } => PGuard::NeBits { mask, bits },
            _ => unreachable!("Eq lowers to False or EqBits"),
        },
        CExpr::In(v, xs) => {
            let (shift, width) = l.field(v.index());
            let mask = if width == 0 {
                0
            } else {
                u64::MAX >> (64 - u32::from(width))
            };
            if width <= 6 {
                let mut allowed = 0u64;
                for x in xs {
                    if u64::from(x.0) <= mask {
                        allowed |= 1u64 << x.0;
                    }
                }
                PGuard::InSmall {
                    shift,
                    mask,
                    allowed,
                }
            } else {
                PGuard::InWide {
                    shift,
                    mask,
                    values: xs.iter().map(|x| x.0).collect(),
                }
            }
        }
        CExpr::And(xs) => PGuard::And(xs.iter().map(|x| lower_guard(x, l)).collect()),
        CExpr::Or(xs) => PGuard::Or(xs.iter().map(|x| lower_guard(x, l)).collect()),
        CExpr::Not(x) => PGuard::Not(Box::new(lower_guard(x, l))),
    }
}

/// A command's updates lowered against a [`PackLayout`]: firing it on a
/// packed state is one `(key & clear) | set`.
struct PackedCmd {
    clear: u64,
    set: u64,
}

/// The packed explorer's guard kernel: a state's enabled commands by
/// table lookup instead of per-command guard evaluation.
///
/// Every guard splits into its top-level conjuncts. A conjunct that
/// reads one variable becomes a column of that variable's table, whose
/// row `v` is the word of commands the conjunct admits when the variable
/// holds `v`; a conjunct that reads none folds into `base`. A state's
/// enabled word is then `base & row[f0][v0] & row[f1][v1] & …`, one AND
/// per tabled field and word. Conjuncts over several variables stay as
/// residual [`PGuard`]s, evaluated only for commands the tables leave
/// enabled, so any guard shape explores through the same kernel. Words
/// are `ceil(commands / 64)` wide: there is no command-count cap.
/// Singleton-domain variables occupy no key bits and always hold value
/// 0, so they never get a table and constant conjuncts see them as 0.
struct EnableTables {
    /// `u64` words per enabled-command word (two for the registry's
    /// threat models, which reach 123 commands).
    words: usize,
    /// Every command, minus those with a conjunct that is always false.
    base: Vec<u64>,
    /// Per tabled field: `(shift, value mask, offset of row 0 in rows)`.
    fields: Vec<(u8, u64, usize)>,
    /// Field `f`'s row for value `v` is `rows[offset + v * words..]`.
    rows: Vec<u64>,
    /// `(command, its multi-variable conjuncts)`, ascending by command.
    residual: Vec<(usize, PGuard)>,
}

/// `e`'s top-level conjuncts (nested `And`s flattened).
fn conjuncts<'a>(e: &'a CExpr, out: &mut Vec<&'a CExpr>) {
    match e {
        CExpr::And(xs) => xs.iter().for_each(|x| conjuncts(x, out)),
        _ => out.push(e),
    }
}

impl EnableTables {
    fn new(c: &CompiledModel, layout: &PackLayout) -> Self {
        let n = c.commands.len();
        let words = n.div_ceil(64);
        let mut base = vec![0u64; words];
        for i in 0..n {
            base[i / 64] |= 1 << (i % 64);
        }
        // Per variable: its rows, allocated when a conjunct first reads it.
        let mut tables: Vec<Vec<u64>> = vec![Vec::new(); c.num_vars()];
        let mut residual = Vec::new();
        // Conjuncts are tabled by evaluating them on a state that is 0
        // everywhere but the tabled variable.
        let mut state: State = vec![0; c.num_vars()];
        let mut parts = Vec::new();
        for (i, cmd) in c.commands.iter().enumerate() {
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            parts.clear();
            conjuncts(&cmd.guard, &mut parts);
            let mut multi = Vec::new();
            for &e in &parts {
                let read = guard_read_mask(e, layout);
                if read == 0 {
                    if !e.eval(&state) {
                        base[w] &= !bit;
                    }
                } else if let Some(v) = (0..c.num_vars()).find(|&v| layout.field_mask(v) == read) {
                    let values = 1usize << layout.field(v).1;
                    let rows = &mut tables[v];
                    if rows.is_empty() {
                        *rows = vec![u64::MAX; values * words];
                    }
                    for x in 0..values {
                        state[v] = x as Value;
                        if !e.eval(&state) {
                            rows[x * words + w] &= !bit;
                        }
                    }
                    state[v] = 0;
                } else {
                    multi.push(lower_guard(e, layout));
                }
            }
            if !multi.is_empty() {
                residual.push((i, PGuard::And(multi)));
            }
        }
        let mut fields = Vec::new();
        let mut rows = Vec::new();
        for (v, table) in tables.into_iter().enumerate() {
            if !table.is_empty() {
                let (shift, width) = layout.field(v);
                fields.push((shift, (1u64 << width) - 1, rows.len()));
                rows.extend(table);
            }
        }
        EnableTables {
            words,
            base,
            fields,
            rows,
            residual,
        }
    }

    /// Writes the enabled-command word of `key` to `out`: the table rows
    /// of every field ANDed onto `base`, then residual conjuncts
    /// evaluated for the commands still enabled.
    #[inline]
    fn enabled(&self, key: u64, out: &mut [u64]) {
        out.copy_from_slice(&self.base);
        for &(shift, mask, offset) in &self.fields {
            let row = offset + ((key >> shift) & mask) as usize * self.words;
            for (o, r) in out.iter_mut().zip(&self.rows[row..row + self.words]) {
                *o &= r;
            }
        }
        for (i, guard) in &self.residual {
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            if out[w] & bit != 0 && !guard.eval(key) {
                out[w] &= !bit;
            }
        }
    }
}

/// Union of the packed-key field masks a compiled guard reads. Singleton
/// (zero-width) fields contribute nothing: their value is constant, so
/// the enable tables fold a conjunct over them into `base`.
fn guard_read_mask(e: &CExpr, l: &PackLayout) -> u64 {
    match e {
        CExpr::True | CExpr::False => 0,
        CExpr::Eq(v, _) | CExpr::Ne(v, _) | CExpr::In(v, _) => l.field_mask(v.index()),
        CExpr::And(xs) | CExpr::Or(xs) => xs.iter().fold(0, |m, x| m | guard_read_mask(x, l)),
        CExpr::Not(x) => guard_read_mask(x, l),
    }
}

/// Calls `f` with the index of every set bit of a multi-word bitset, in
/// ascending order.
#[inline]
fn for_each_bit(word: &[u64], mut f: impl FnMut(usize)) {
    for (w, &bits) in word.iter().enumerate() {
        let mut m = bits;
        while m != 0 {
            f(w * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// What the packed explorer builds once per graph: every command's
/// lowered updates and the enable tables.
struct PackedKernel {
    cmds: Vec<PackedCmd>,
    tables: EnableTables,
}

impl PackedKernel {
    fn new(c: &CompiledModel, layout: &PackLayout) -> Self {
        let cmds: Vec<PackedCmd> = c
            .commands
            .iter()
            .map(|cmd| {
                let updates: Vec<(usize, Value)> = cmd
                    .updates
                    .iter()
                    .map(|&(vi, value)| (vi.index(), value.0))
                    .collect();
                let (clear, set) = layout.update_masks(&updates);
                PackedCmd { clear, set }
            })
            .collect();
        PackedKernel {
            cmds,
            tables: EnableTables::new(c, layout),
        }
    }
}

/// Hasher for the packed-key index. `FxHasher` hashes a `u64` as
/// `key * SEED`, and the map takes the bucket index from the hash's low
/// bits — which depend only on the key's low bits, i.e. on the first
/// few packed fields, so states differing only in later fields pile
/// into few buckets. Rotating the product brings its high bits, which
/// every key bit reaches, down into the bucket bits.
#[derive(Default)]
struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0xf135_7aea_2e62_a9c5).rotate_left(26);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Packed key → node id.
type PackedIndex = HashMap<u64, u32, BuildHasherDefault<PackedKeyHasher>>;

/// Interner for the packed exploration path: one `u64` key per state,
/// BFS parent info recorded on first sight.
struct PackedFrontier {
    layout: PackLayout,
    keys: Vec<u64>,
    index: PackedIndex,
    parent_node: Vec<u32>,
    parent_cmd: Vec<u32>,
}

impl PackedFrontier {
    fn with_capacity(layout: PackLayout, cap: usize) -> Self {
        PackedFrontier {
            layout,
            keys: Vec::with_capacity(cap),
            index: PackedIndex::with_capacity_and_hasher(cap, Default::default()),
            parent_node: Vec::with_capacity(cap),
            parent_cmd: Vec::with_capacity(cap),
        }
    }

    fn intern_key(&mut self, key: u64, parent: (u32, u32)) -> u32 {
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.keys.len() as u32;
                self.keys.push(key);
                e.insert(id);
                self.parent_node.push(parent.0);
                self.parent_cmd.push(parent.1);
                id
            }
        }
    }
}

/// The packed explorer: one serial BFS over packed `u64` keys, expanding
/// successors straight from the raw key. The enabled commands come from
/// the per-field [`EnableTables`] and updates apply as precomputed
/// `(clear, set)` masks, so nothing is unpacked and no guard is evaluated
/// per command.
///
/// The search is resumable. The struct holds the frontier, the CSR
/// arrays, the work counters, the pop cursor and the level bookkeeping,
/// and [`PackedExplorer::advance`] pops nodes until the BFS ends or a
/// pop interns a node its caller is looking for. [`build_reach_graph_budgeted`] advances
/// it to the end in one call; a [`crate::lazy::LazyGraph`] advances it
/// only as far as its queries need. Probe placement (state limit per
/// pop, budget every [`PROBE_STRIDE`] pops) does not depend on where the
/// search paused, so a BFS run to the end is node for node, edge for
/// edge and level for level the same graph, with the same partial stats
/// on the error paths.
pub(crate) struct PackedExplorer {
    kernel: PackedKernel,
    /// Scratch enabled-command word for the node being expanded.
    word: Vec<u64>,
    frontier: PackedFrontier,
    limit: usize,
    init_count: u32,
    succ_off: Vec<u32>,
    succ_cmd: Vec<u32>,
    succ_node: Vec<u32>,
    transitions: u64,
    peak_queue: u64,
    /// Interned states already charged to the budget meter.
    charged: usize,
    /// The next node to pop: nodes below it are expanded, nodes from it
    /// on are the frontier (pop order equals intern order, so the queue
    /// is implicit and each node's CSR offsets seal as it is popped).
    next: usize,
    level_end: usize,
    levels: u32,
    peak_level: u64,
}

impl PackedExplorer {
    /// An explorer with the initial states interned and nothing popped.
    ///
    /// # Errors
    ///
    /// [`CheckError::InvalidModel`] when a state of `c` needs more than
    /// 64 bits; the message names the total and every variable's width.
    pub(crate) fn new(c: &CompiledModel, limit: usize) -> Result<Self, CheckError> {
        let layout = PackLayout::for_model(c)?;
        let cap = c.capacity_hint(limit);
        let kernel = PackedKernel::new(c, &layout);
        let word = vec![0u64; kernel.tables.words];
        let mut frontier = PackedFrontier::with_capacity(layout, cap);
        for s in c.initial_states() {
            let key = frontier.layout.pack(&s);
            frontier.intern_key(key, (NO_PARENT, NO_PARENT));
        }
        let init_count = frontier.keys.len() as u32;
        let mut succ_off = Vec::with_capacity(cap + 1);
        succ_off.push(0);
        Ok(PackedExplorer {
            kernel,
            word,
            frontier,
            limit,
            init_count,
            succ_off,
            succ_cmd: Vec::new(),
            succ_node: Vec::new(),
            transitions: 0,
            peak_queue: u64::from(init_count),
            charged: 0,
            next: 0,
            level_end: 0,
            levels: 0,
            peak_level: 0,
        })
    }

    /// Pops nodes until the BFS ends (`None`), or until a pop interns a
    /// node whose key satisfies `found`, checked in id order: the id of
    /// the first such node.
    ///
    /// # Errors
    ///
    /// [`CheckError::StateLimit`] past the limit; [`CheckError::Budget`]
    /// when the meter trips. Either leaves the explorer as it was at the
    /// failing pop: every node interned before it stays readable.
    pub(crate) fn advance(
        &mut self,
        meter: &BudgetMeter,
        found: impl Fn(u64) -> bool,
    ) -> Result<Option<u32>, CheckError> {
        let budgeted = meter.is_limited();
        let f = &mut self.frontier;
        while self.next < f.keys.len() {
            if self.next == self.level_end {
                self.level_end = f.keys.len();
                self.levels += 1;
                self.peak_level = self.peak_level.max((self.level_end - self.next) as u64);
            }
            if f.keys.len() > self.limit {
                return Err(CheckError::StateLimit(self.limit));
            }
            if budgeted && self.next.is_multiple_of(PROBE_STRIDE) {
                let fresh = (f.keys.len() - self.charged) as u64;
                self.charged = f.keys.len();
                meter.charge_and_probe(fresh).map_err(CheckError::Budget)?;
            }
            let id = self.next as u32;
            self.next += 1;
            let key = f.keys[id as usize];
            self.kernel.tables.enabled(key, &mut self.word);
            let first_edge = self.succ_cmd.len();
            let first_new = f.keys.len();
            for_each_bit(&self.word, |i| {
                let pc = &self.kernel.cmds[i];
                let sid = f.intern_key((key & pc.clear) | pc.set, (id, i as u32));
                self.succ_cmd.push(i as u32);
                self.succ_node.push(sid);
            });
            if self.succ_cmd.len() == first_edge {
                self.succ_cmd.push(STUTTER_CMD);
                self.succ_node.push(id);
            }
            self.transitions += (self.succ_cmd.len() - first_edge) as u64;
            self.succ_off.push(self.succ_cmd.len() as u32);
            self.peak_queue = self.peak_queue.max((f.keys.len() - self.next) as u64);
            if let Some(hit) = (first_new..f.keys.len()).find(|&n| found(f.keys[n])) {
                return Ok(Some(hit as u32));
            }
        }
        Ok(None)
    }

    /// Charges the interned states the meter has not seen yet, without
    /// failing: work that completed (or paused) is never failed
    /// retroactively, but the next probe sharing the meter sees an
    /// accurate run total.
    pub(crate) fn charge_tail(&mut self, meter: &BudgetMeter) {
        if meter.is_limited() {
            let _ = meter.charge_and_probe((self.len() - self.charged) as u64);
            self.charged = self.len();
        }
    }

    /// Interned states so far.
    pub(crate) fn len(&self) -> usize {
        self.frontier.keys.len()
    }

    /// The packed keys interned so far, in BFS (id) order.
    pub(crate) fn keys(&self) -> &[u64] {
        &self.frontier.keys
    }

    /// The layout the keys are packed with.
    pub(crate) fn layout(&self) -> &PackLayout {
        &self.frontier.layout
    }

    /// BFS levels entered so far, and the widest of them.
    pub(crate) fn levels(&self) -> (u32, u64) {
        (self.levels, self.peak_level)
    }

    /// What the search has cost so far.
    pub(crate) fn stats(&self) -> CheckStats {
        CheckStats {
            states: self.len() as u64,
            transitions: self.transitions,
            peak_queue: self.peak_queue,
        }
    }

    /// The BFS path to `target`, from its interned parents.
    pub(crate) fn path_to(&self, c: &CompiledModel, target: u32) -> Vec<TraceStep> {
        let f = &self.frontier;
        rebuild_path(
            c,
            |id, out| f.layout.unpack(f.keys[id as usize], out),
            &f.parent_node,
            &f.parent_cmd,
            target,
        )
    }

    /// The finished graph, its arrays moved out of the explorer. Call
    /// once, after [`PackedExplorer::advance`] has run to the end of the
    /// BFS.
    pub(crate) fn finish(&mut self) -> ReachGraph {
        debug_assert_eq!(self.next, self.len(), "finish() before the BFS ended");
        let stats = self.stats();
        let f = &mut self.frontier;
        ReachGraph {
            layout: f.layout.clone(),
            keys: mem::take(&mut f.keys),
            parent_node: mem::take(&mut f.parent_node),
            parent_cmd: mem::take(&mut f.parent_cmd),
            succ_off: mem::take(&mut self.succ_off),
            succ_cmd: mem::take(&mut self.succ_cmd),
            succ_node: mem::take(&mut self.succ_node),
            init_count: self.init_count,
            levels: self.levels,
            peak_level: self.peak_level,
            stats,
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluate phase: property queries over a cached graph
// ---------------------------------------------------------------------------

/// Whether a query's CEGAR mask removes the edge fired by `cmd`. The
/// deadlock stutter is never masked.
fn masked(excluded: Option<&CmdIdSet>, cmd: u32) -> bool {
    cmd != STUTTER_CMD && excluded.is_some_and(|mask| mask.contains(CmdId::new(cmd as usize)))
}

/// What a query that interned `nodes` states cost.
fn query_stats(nodes: usize, transitions: u64, peak_queue: u64) -> QueryStats {
    QueryStats {
        nodes_reused: nodes as u64,
        product_states: nodes as u64,
        transitions,
        peak_queue,
    }
}

/// [`GraphSearch::index`] entry of a graph node not seen yet.
const UNSEEN: u32 = u32::MAX;

/// [`GraphSearch::index`] entry of a graph node seen and not allowed.
const BLOCKED: u32 = u32::MAX - 1;

/// The nodes one [`search_graph`] has interned, with their BFS parents.
struct GraphSearch {
    /// Graph node → search id, or [`UNSEEN`] / [`BLOCKED`].
    index: Vec<u32>,
    /// Search id → graph node, in intern (BFS) order.
    nodes: Vec<u32>,
    parent_node: Vec<u32>,
    parent_cmd: Vec<u32>,
}

impl GraphSearch {
    /// Interns graph node `gid` unless it is interned already or
    /// `allowed` rejects its key; true when it is fresh and `target`
    /// matches it.
    fn visit(
        &mut self,
        g: &ReachGraph,
        gid: u32,
        parent: (u32, u32),
        allowed: &impl Fn(u64) -> bool,
        target: &impl Fn(u64) -> bool,
    ) -> bool {
        let slot = &mut self.index[gid as usize];
        if *slot != UNSEEN {
            return false;
        }
        let key = g.keys[gid as usize];
        if !allowed(key) {
            *slot = BLOCKED;
            return false;
        }
        *slot = self.nodes.len() as u32;
        self.nodes.push(gid);
        self.parent_node.push(parent.0);
        self.parent_cmd.push(parent.1);
        target(key)
    }
}

/// Breadth-first search of the graph's own adjacency with the commands
/// in `excluded` removed, through `allowed` nodes only, that stops at the
/// first node it interns whose key satisfies `target` and returns that
/// node's BFS path.
///
/// The search interns the initial nodes in id order and expands each
/// node's unmasked edges in CSR order. With every node allowed, as for
/// masked invariants and goals, it interns the command-filtered model's
/// nodes in the order, and with the parents, a fresh exploration of
/// that model would, so its first target is the one that exploration
/// reaches first. A node whose every command is masked stutters back to
/// itself, as the filtered model would. A precedence allows the nodes
/// where its prerequisite does not hold: the product's "prerequisite
/// seen" flag never turns off, so a flag-off product node only ever has
/// a flag-off parent, and the flag-off half of the product is this
/// search, node for node.
///
/// `stats` counts the nodes the search interned, on every path. The
/// state limit is tested before each pop and the budget probed every
/// [`PROBE_STRIDE`] pops, so a target interned before either trips is
/// an answer.
///
/// # Errors
///
/// [`CheckError::StateLimit`] past `limit` interned nodes;
/// [`CheckError::Budget`] when the meter trips.
#[allow(clippy::too_many_arguments)]
fn search_graph(
    c: &CompiledModel,
    g: &ReachGraph,
    excluded: Option<&CmdIdSet>,
    allowed: impl Fn(u64) -> bool,
    target: impl Fn(u64) -> bool,
    limit: usize,
    meter: &BudgetMeter,
    stats: &mut QueryStats,
) -> Result<Option<Counterexample>, CheckError> {
    let mut s = GraphSearch {
        index: vec![UNSEEN; g.node_count()],
        nodes: Vec::new(),
        parent_node: Vec::new(),
        parent_cmd: Vec::new(),
    };
    let mut hit = (0..g.init_count())
        .any(|gid| s.visit(g, gid, (NO_PARENT, NO_PARENT), &allowed, &target))
        .then(|| s.nodes.len() as u32 - 1);
    let mut peak_queue = s.nodes.len() as u64;
    let mut transitions = 0u64;
    let budgeted = meter.is_limited();
    let mut charged = 0usize;
    let mut next = 0usize;
    while hit.is_none() && next < s.nodes.len() {
        if s.nodes.len() > limit {
            stats.absorb(query_stats(s.nodes.len(), transitions, peak_queue));
            return Err(CheckError::StateLimit(limit));
        }
        if budgeted && next.is_multiple_of(PROBE_STRIDE) {
            let fresh = (s.nodes.len() - charged) as u64;
            charged = s.nodes.len();
            if let Err(e) = meter.charge_and_probe(fresh) {
                stats.absorb(query_stats(s.nodes.len(), transitions, peak_queue));
                return Err(CheckError::Budget(e));
            }
        }
        let pid = next as u32;
        next += 1;
        let gid = s.nodes[pid as usize];
        let mut any = false;
        for (cmd, succ) in g.successors(gid) {
            if masked(excluded, cmd) {
                continue;
            }
            any = true;
            transitions += 1;
            if s.visit(g, succ, (pid, cmd), &allowed, &target) {
                hit = Some(s.nodes.len() as u32 - 1);
                break;
            }
        }
        if !any {
            // Every outgoing command is excluded: the filtered model
            // stutters back to this node, which is interned already.
            transitions += 1;
        }
        peak_queue = peak_queue.max((s.nodes.len() - next) as u64);
    }
    if budgeted {
        // Tail charge: keep the shared run total accurate without
        // failing work that already completed.
        let _ = meter.charge_and_probe((s.nodes.len() - charged) as u64);
    }
    stats.absorb(query_stats(s.nodes.len(), transitions, peak_queue));
    Ok(hit.map(|id| Counterexample {
        steps: rebuild_path(
            c,
            |id, out| g.load_state(s.nodes[id as usize], out),
            &s.parent_node,
            &s.parent_cmd,
            id,
        ),
        lasso_start: None,
    }))
}

/// The product of a cached graph with a response property's obligation
/// monitor. Ephemeral: built per query, in the same BFS order a direct
/// product exploration of the (possibly command-filtered) model would
/// use, so lasso traces are bit-identical to the single-pass checker's.
struct ProductGraph {
    /// Interned (graph node, obligation pending) pairs, in BFS order.
    nodes: Vec<(u32, bool)>,
    /// BFS parent product id, [`NO_PARENT`] for roots.
    parent_node: Vec<u32>,
    /// Command index of the edge from the BFS parent.
    parent_cmd: Vec<u32>,
    /// Node `pid`'s edges are `edges[edge_off[pid]..edge_off[pid + 1]]`.
    edge_off: Vec<u32>,
    /// `(command index, product id)` edges out of pending nodes, the only
    /// ones a fair cycle uses, in pop order.
    edges: Vec<(u32, u32)>,
}

impl ProductGraph {
    /// The edges out of `pid`: all of them if its obligation is pending,
    /// none otherwise.
    fn out(&self, pid: u32) -> &[(u32, u32)] {
        let lo = self.edge_off[pid as usize] as usize;
        let hi = self.edge_off[pid as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Whether `pid` carries an undischarged obligation.
    fn pending(&self, pid: u32) -> bool {
        self.nodes[pid as usize].1
    }
}

/// Interns `(gid, flag)`. `index` is dense over the pairs: entry
/// `2 * gid + flag` holds the product id, `u32::MAX` while unseen.
fn product_intern(
    pg: &mut ProductGraph,
    index: &mut [u32],
    gid: u32,
    flag: bool,
    parent: (u32, u32),
) -> u32 {
    let slot = &mut index[2 * gid as usize + usize::from(flag)];
    if *slot != u32::MAX {
        return *slot;
    }
    let id = pg.nodes.len() as u32;
    *slot = id;
    pg.nodes.push((gid, flag));
    pg.parent_node.push(parent.0);
    pg.parent_cmd.push(parent.1);
    id
}

/// BFS over the cached adjacency carrying the response monitor, whose
/// obligation is pending in a state that triggers without responding and
/// stays pending until a state responds: pending' = (pending ∨
/// trigger(s')) ∧ ¬response(s'). `trigger` and `response` are the
/// predicates' values per graph node. `excluded` masks command ids a
/// CEGAR refinement has removed; a node whose outgoing commands are all
/// masked gets the stutter self-loop the filtered model would have.
fn product_bfs(
    g: &ReachGraph,
    excluded: Option<&CmdIdSet>,
    trigger: &[bool],
    response: &[bool],
    limit: usize,
    meter: &BudgetMeter,
    stats: &mut QueryStats,
) -> Result<ProductGraph, CheckError> {
    let step =
        |pending: bool, gid: u32| (pending || trigger[gid as usize]) && !response[gid as usize];
    let cap = g.node_count().max(1);
    let mut pg = ProductGraph {
        nodes: Vec::with_capacity(cap),
        parent_node: Vec::with_capacity(cap),
        parent_cmd: Vec::with_capacity(cap),
        edge_off: Vec::with_capacity(cap + 1),
        edges: Vec::new(),
    };
    pg.edge_off.push(0);
    let mut index = vec![u32::MAX; 2 * g.node_count()];
    let mut transitions = 0u64;

    for gid in 0..g.init_count() {
        product_intern(
            &mut pg,
            &mut index,
            gid,
            step(false, gid),
            (NO_PARENT, NO_PARENT),
        );
    }
    let mut peak_queue = pg.nodes.len() as u64;
    let budgeted = meter.is_limited();
    let mut charged = 0usize;
    let mut next = 0usize;
    while next < pg.nodes.len() {
        if pg.nodes.len() > limit {
            stats.absorb(query_stats(pg.nodes.len(), transitions, peak_queue));
            return Err(CheckError::StateLimit(limit));
        }
        if budgeted && next.is_multiple_of(PROBE_STRIDE) {
            let fresh = (pg.nodes.len() - charged) as u64;
            charged = pg.nodes.len();
            if let Err(e) = meter.charge_and_probe(fresh) {
                stats.absorb(query_stats(pg.nodes.len(), transitions, peak_queue));
                return Err(CheckError::Budget(e));
            }
        }
        let pid = next as u32;
        next += 1;
        let (gid, pending) = pg.nodes[pid as usize];
        let mut any = false;
        for (cmd, succ) in g.successors(gid) {
            if masked(excluded, cmd) {
                continue;
            }
            any = true;
            transitions += 1;
            let sid = product_intern(&mut pg, &mut index, succ, step(pending, succ), (pid, cmd));
            if pending {
                pg.edges.push((cmd, sid));
            }
        }
        if !any {
            // Every outgoing command is excluded: the refined model
            // deadlocks here and stutters, exactly as a fresh exploration
            // of the command-filtered model would.
            transitions += 1;
            let sid = product_intern(
                &mut pg,
                &mut index,
                gid,
                step(pending, gid),
                (pid, STUTTER_CMD),
            );
            if pending {
                pg.edges.push((STUTTER_CMD, sid));
            }
        }
        pg.edge_off.push(pg.edges.len() as u32);
        peak_queue = peak_queue.max((pg.nodes.len() - next) as u64);
    }
    if budgeted {
        // Tail charge: keep the shared run total accurate without
        // failing work that already completed.
        let _ = meter.charge_and_probe((pg.nodes.len() - charged) as u64);
    }
    stats.absorb(query_stats(pg.nodes.len(), transitions, peak_queue));
    Ok(pg)
}

/// A compiled expression's value in every graph node, in id order: the
/// expression is lowered once and read straight off the keys.
fn node_values<'a>(g: &'a ReachGraph, e: &CExpr) -> impl Iterator<Item = bool> + 'a {
    let guard = lower_guard(e, &g.layout);
    g.keys.iter().map(move |&key| guard.eval(key))
}

/// Evaluates a compiled expression in every graph node, in id order.
fn eval_nodes(g: &ReachGraph, e: &CExpr) -> Vec<bool> {
    node_values(g, e).collect()
}

/// Rebuilds the BFS-shortest path to `target` from the graph's own
/// parent pointers (no re-search).
fn rebuild_graph_path(c: &CompiledModel, g: &ReachGraph, target: u32) -> Vec<TraceStep> {
    rebuild_path(
        c,
        |id, out| g.load_state(id, out),
        &g.parent_node,
        &g.parent_cmd,
        target,
    )
}

/// Rebuilds the BFS-shortest path to `target` from BFS parent arrays,
/// loading each node's state with `load`.
fn rebuild_path(
    c: &CompiledModel,
    load: impl Fn(u32, &mut [Value]),
    parent_node: &[u32],
    parent_cmd: &[u32],
    target: u32,
) -> Vec<TraceStep> {
    let mut cur: State = vec![0; c.num_vars()];
    let mut rev = Vec::new();
    let mut id = target;
    loop {
        load(id, &mut cur);
        let parent = parent_node[id as usize];
        let label = if parent == NO_PARENT {
            "init".to_string()
        } else {
            c.label_of(parent_cmd[id as usize]).to_string()
        };
        rev.push(TraceStep {
            label,
            state: c.assignment(&cur),
        });
        if parent == NO_PARENT {
            break;
        }
        id = parent;
    }
    rev.reverse();
    rev
}

/// Scans graph nodes in BFS (id) order for the first state where `e`
/// evaluates to `bad`; the trace comes straight from the graph's parent
/// pointers.
fn scan_graph(
    c: &CompiledModel,
    g: &ReachGraph,
    stats: &mut QueryStats,
    e: &CExpr,
    bad: bool,
) -> Option<Counterexample> {
    let hit = node_values(g, e).position(|v| v == bad);
    stats.nodes_reused += hit.map_or(g.node_count(), |id| id + 1) as u64;
    hit.map(|id| Counterexample {
        steps: rebuild_graph_path(c, g, id as u32),
        lasso_start: None,
    })
}

/// Answers a compiled property as a query over a cached graph.
///
/// `excluded` is the [`CmdId`] bitset mask of commands removed by CEGAR
/// refinement; the query behaves exactly as if those commands had been
/// deleted from the model and the state space re-explored (same
/// verdicts, same traces), but touches only the cached adjacency and
/// never resolves a name. `model` must be the compiled form of the model
/// the graph was built from.
///
/// Unmasked invariants and goals scan the graph in id order. Precedence,
/// and invariants and goals under a mask, search the graph's adjacency
/// breadth-first and stop at their first match. Response builds the
/// product with its obligation monitor and stops at the first fair cycle
/// of pending states. The states a search or product interns are
/// charged against `meter`, so a CEGAR re-query can exhaust the run's
/// budget just like a graph build can.
///
/// # Errors
///
/// Returns [`CheckError::InvalidModel`] on a model/graph shape mismatch;
/// [`CheckError::StateLimit`] if a search or product BFS exceeds `limit`
/// states before it answers; [`CheckError::Budget`] when the meter
/// trips.
#[allow(clippy::too_many_arguments)]
pub fn check_on_graph(
    c: &CompiledModel,
    g: &ReachGraph,
    property: &CompiledProperty,
    excluded: &CmdIdSet,
    limit: usize,
    meter: &BudgetMeter,
    stats: &mut QueryStats,
) -> Result<Verdict, CheckError> {
    if c.num_vars() != g.num_vars() {
        return Err(CheckError::InvalidModel(vec![format!(
            "graph/model mismatch: graph has {} variables, model declares {}",
            g.num_vars(),
            c.num_vars()
        )]));
    }
    let excluded_cmds: Option<&CmdIdSet> = if excluded.is_empty() {
        None
    } else {
        Some(excluded)
    };
    // The first node, in the filtered model's BFS order, that matches
    // `e == hit`. No refinement: every graph node is reachable, so that
    // is a straight scan in id order.
    let first = |e: &CExpr, hit: bool, stats: &mut QueryStats| match excluded_cmds {
        None => Ok(scan_graph(c, g, stats, e, hit)),
        Some(mask) => {
            let e = lower_guard(e, &g.layout);
            search_graph(
                c,
                g,
                Some(mask),
                |_| true,
                |key| e.eval(key) == hit,
                limit,
                meter,
                stats,
            )
        }
    };
    match &property.kind {
        CProp::Invariant { holds } => {
            Ok(first(holds, false, stats)?.map_or(Verdict::Holds, Verdict::Violated))
        }
        CProp::Reachable { goal } => {
            Ok(first(goal, true, stats)?.map_or(Verdict::Unreachable, Verdict::Reachable))
        }
        CProp::Precedence {
            event,
            requires_before,
        } => {
            // Violation: the event in a state reached without the
            // prerequisite holding in it or any state before it.
            let event = lower_guard(event, &g.layout);
            let before = lower_guard(requires_before, &g.layout);
            let violation = search_graph(
                c,
                g,
                excluded_cmds,
                |key| !before.eval(key),
                |key| event.eval(key),
                limit,
                meter,
                stats,
            )?;
            Ok(violation.map_or(Verdict::Holds, Verdict::Violated))
        }
        CProp::Response { trigger, response } => {
            check_response_on_graph(c, g, trigger, response, excluded_cmds, limit, meter, stats)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_response_on_graph(
    c: &CompiledModel,
    g: &ReachGraph,
    trigger: &CExpr,
    response: &CExpr,
    excluded: Option<&CmdIdSet>,
    limit: usize,
    meter: &BudgetMeter,
    stats: &mut QueryStats,
) -> Result<Verdict, CheckError> {
    let pg = product_bfs(
        g,
        excluded,
        &eval_nodes(g, trigger),
        &eval_nodes(g, response),
        limit,
        meter,
        stats,
    )?;
    // Fairness constraints were compiled with the model — evaluating
    // them here touches no string table.
    let fairness: Vec<Vec<bool>> = c.fairness.iter().map(|f| eval_nodes(g, f)).collect();
    // A fair cycle of pending nodes: a cyclic SCC in which every
    // fairness constraint holds on some member.
    let fair = |scc: &[u32]| {
        scc_has_cycle(&pg, scc)
            && fairness.iter().all(|f_at| {
                scc.iter()
                    .any(|&pid| f_at[pg.nodes[pid as usize].0 as usize])
            })
    };
    let Some(scc) = first_pending_scc(&pg, fair) else {
        return Ok(Verdict::Holds);
    };
    let entry = scc[0];
    let prefix = rebuild_path(
        c,
        |pid, out| g.load_state(pg.nodes[pid as usize].0, out),
        &pg.parent_node,
        &pg.parent_cmd,
        entry,
    );
    let cycle = build_fair_cycle(c, g, &pg, &scc, entry, &fairness);
    let lasso_start = prefix.len() - 1;
    let mut steps = prefix;
    steps.extend(cycle);
    Ok(Verdict::Violated(Counterexample {
        steps,
        lasso_start: Some(lasso_start),
    }))
}

// ---------------------------------------------------------------------------
// Public one-shot API
// ---------------------------------------------------------------------------

/// Checks a property with an explicit state limit, accumulating
/// exploration telemetry into `stats`. `stats` grows even on the error
/// path (the state-limit case records how many states were interned
/// before the limit tripped), so CEGAR callers can keep one accumulator
/// across refinement iterations.
///
/// Internally this is explore + evaluate: it builds a private
/// [`ReachGraph`] and answers the property as a query over it. Callers
/// checking many properties against one model should build the graph
/// once ([`build_reach_graph_budgeted`]) and use [`check_on_graph`]
/// instead.
///
/// # Errors
///
/// Returns [`CheckError::InvalidModel`] if the model references
/// undeclared variables or out-of-domain values, then if a state needs
/// more than 64 bits, and [`CheckError::StateLimit`] if exploration
/// exceeds `limit` states. This API never panics.
pub fn check_bounded(
    model: &Model,
    property: &Property,
    limit: usize,
    stats: &mut CheckStats,
) -> Result<Verdict, CheckError> {
    let c = CompiledModel::new(model)?;
    // Reject bad property vocabulary before paying for exploration,
    // preserving the historical error precedence (model problems, then
    // property problems, then state-limit blowups).
    let cp = c.compile_property(property)?;
    let meter = BudgetMeter::unlimited();
    let g = build_reach_graph_budgeted(&c, limit, &meter, stats, 1)?;
    let mut q = QueryStats::default();
    let verdict = check_on_graph(&c, &g, &cp, &c.exclusion_set(), limit, &meter, &mut q)?;
    stats.absorb(CheckStats {
        states: q.product_states,
        transitions: q.transitions,
        peak_queue: q.peak_queue,
    });
    Ok(verdict)
}

// ---------------------------------------------------------------------------
// Cycle machinery on the product graph
// ---------------------------------------------------------------------------

/// Tarjan SCC over the pending nodes (iterative), started from each
/// pending node in id order: the first SCC it emits that `accept`
/// passes, or `None` once every SCC has failed it.
fn first_pending_scc(pg: &ProductGraph, accept: impl Fn(&[u32]) -> bool) -> Option<Vec<u32>> {
    let n = pg.nodes.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;

    struct Frame {
        node: u32,
        edge: usize,
    }

    for start in 0..n as u32 {
        if !pg.pending(start) || index[start as usize] != u32::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame {
            node: start,
            edge: 0,
        }];
        index[start as usize] = next_index;
        low[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(frame) = call.last_mut() {
            let u = frame.node;
            let edges = pg.out(u);
            if frame.edge < edges.len() {
                let (_, v) = edges[frame.edge];
                frame.edge += 1;
                if !pg.pending(v) {
                    continue;
                }
                if index[v as usize] == u32::MAX {
                    index[v as usize] = next_index;
                    low[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    call.push(Frame { node: v, edge: 0 });
                } else if on_stack[v as usize] {
                    low[u as usize] = low[u as usize].min(index[v as usize]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    let p = parent.node;
                    low[p as usize] = low[p as usize].min(low[u as usize]);
                }
                if low[u as usize] == index[u as usize] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        scc.push(w);
                        if w == u {
                            break;
                        }
                    }
                    if accept(&scc) {
                        return Some(scc);
                    }
                }
            }
        }
    }
    None
}

/// Whether an SCC of pending nodes holds a cycle: more than one member,
/// or a self-loop.
fn scc_has_cycle(pg: &ProductGraph, scc: &[u32]) -> bool {
    if scc.len() > 1 {
        return true;
    }
    let u = scc[0];
    pg.out(u).iter().any(|&(_, v)| v == u)
}

/// Builds a cycle within the SCC starting and ending at `entry`, visiting
/// a witness state for every fairness constraint (each constraint given
/// as its per-graph-node truth table).
fn build_fair_cycle(
    c: &CompiledModel,
    g: &ReachGraph,
    pg: &ProductGraph,
    scc: &[u32],
    entry: u32,
    fairness: &[Vec<bool>],
) -> Vec<TraceStep> {
    use std::collections::HashSet;
    let members: HashSet<u32> = scc.iter().copied().collect();
    let fair_at = |f_at: &[bool], pid: u32| f_at[pg.nodes[pid as usize].0 as usize];

    // BFS within the SCC from `from` to the first node satisfying `pred`,
    // returning the steps taken (labels + states), excluding `from`.
    let bfs = |from: u32, pred: &dyn Fn(u32) -> bool| -> Vec<(u32, u32)> {
        let mut prev: HashMap<u32, (u32, u32)> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        let mut found = None;
        // Note: `from` itself only counts if it has a self-edge path; we
        // look for the first satisfying node reached by ≥1 edge.
        'outer: while let Some(u) = queue.pop_front() {
            for &(cmd, v) in pg.out(u) {
                if !members.contains(&v) {
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(v) {
                    e.insert((u, cmd));
                    if pred(v) {
                        found = Some(v);
                        break 'outer;
                    }
                    queue.push_back(v);
                }
            }
        }
        let Some(found) = found else {
            return Vec::new();
        };
        // Walk parent pointers back to `from`. The target may equal
        // `from` (a self-loop / cycle back to the start), so the walk is
        // do-while-shaped: always take at least one edge.
        let mut rev = Vec::new();
        let mut cur = found;
        loop {
            let (p, cmd) = prev[&cur];
            rev.push((cmd, cur));
            if p == from || rev.len() > pg.nodes.len() {
                break;
            }
            cur = p;
        }
        rev.reverse();
        rev
    };

    let mut pos = entry;
    let mut segments: Vec<(u32, u32)> = Vec::new();
    for f_at in fairness {
        if fair_at(f_at, pos) {
            continue; // already satisfied here
        }
        let seg = bfs(pos, &|pid| fair_at(f_at, pid));
        if let Some(&(_, last)) = seg.last() {
            pos = last;
        }
        segments.extend(seg);
    }
    // Close the loop back to entry.
    if pos != entry || segments.is_empty() {
        let seg = bfs(pos, &|pid| pid == entry);
        segments.extend(seg);
    }
    let mut cur: State = vec![0; g.num_vars()];
    segments
        .into_iter()
        .map(|(cmd, pid)| {
            g.load_state(pg.nodes[pid as usize].0, &mut cur);
            TraceStep {
                label: c.label_of(cmd).to_string(),
                state: c.assignment(&cur),
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::GuardedCmd;

    /// `check_bounded` with the error path unwrapped — every model in
    /// this module is valid and far below the default state limit.
    fn chk(m: &Model, p: &Property) -> Verdict {
        bounded(m, p, DEFAULT_STATE_LIMIT).expect("test model valid")
    }

    /// `check_bounded` with a throwaway stats accumulator.
    fn bounded(m: &Model, p: &Property, limit: usize) -> Result<Verdict, CheckError> {
        check_bounded(m, p, limit, &mut CheckStats::default())
    }

    /// Compiles `m` and explores it serially, unbudgeted.
    fn graph(m: &Model, limit: usize, stats: &mut CheckStats) -> Result<ReachGraph, CheckError> {
        let c = CompiledModel::new(m)?;
        build_reach_graph_budgeted(&c, limit, &BudgetMeter::unlimited(), stats, 1)
    }

    /// An unbudgeted query over a cached graph.
    fn query(
        c: &CompiledModel,
        g: &ReachGraph,
        p: &CompiledProperty,
        excluded: &CmdIdSet,
        q: &mut QueryStats,
    ) -> Result<Verdict, CheckError> {
        check_on_graph(c, g, p, excluded, 1000, &BudgetMeter::unlimited(), q)
    }

    /// A 3-state token ring: idle -> req -> done -> idle.
    fn ring(with_drop: bool) -> Model {
        let mut m = Model::new("ring");
        m.declare_var("st", &["idle", "req", "done"], &["idle"]);
        m.add_command(GuardedCmd::new("request", Expr::var_eq("st", "idle")).set("st", "req"));
        m.add_command(GuardedCmd::new("serve", Expr::var_eq("st", "req")).set("st", "done"));
        m.add_command(GuardedCmd::new("reset", Expr::var_eq("st", "done")).set("st", "idle"));
        if with_drop {
            // The adversary may hold the system in `req` forever.
            m.add_command(GuardedCmd::new("adv_drop", Expr::var_eq("st", "req")).set("st", "req"));
        }
        m
    }

    #[test]
    fn invariant_holds() {
        let m = ring(false);
        let v = chk(
            &m,
            &Property::invariant("no_ghost", Expr::var_ne("st", "done")),
        );
        assert!(matches!(v, Verdict::Violated(_)), "done is reachable");
        let v2 = chk(
            &m,
            &Property::invariant("domain", Expr::var_in("st", ["idle", "req", "done"])),
        );
        assert_eq!(v2, Verdict::Holds);
    }

    #[test]
    fn invariant_counterexample_is_shortest_path() {
        let m = ring(false);
        let Verdict::Violated(ce) = chk(
            &m,
            &Property::invariant("never_done", Expr::var_ne("st", "done")),
        ) else {
            panic!("expected violation");
        };
        assert_eq!(ce.command_labels(), vec!["request", "serve"]);
        assert_eq!(ce.final_value("st"), Some("done"));
        assert!(!ce.is_lasso());
    }

    #[test]
    fn reachability() {
        let m = ring(false);
        assert!(matches!(
            chk(
                &m,
                &Property::reachable("can_serve", Expr::var_eq("st", "done"))
            ),
            Verdict::Reachable(_)
        ));
        let mut m2 = Model::new("m2");
        m2.declare_var("x", &["a", "b"], &["a"]);
        assert_eq!(
            chk(&m2, &Property::reachable("never_b", Expr::var_eq("x", "b"))),
            Verdict::Unreachable
        );
    }

    #[test]
    fn response_holds_without_adversary() {
        let m = ring(false);
        let p = Property::response(
            "served",
            Expr::var_eq("st", "req"),
            Expr::var_eq("st", "done"),
        );
        assert_eq!(chk(&m, &p), Verdict::Holds);
    }

    #[test]
    fn response_violated_by_adversary_stall() {
        let m = ring(true);
        let p = Property::response(
            "served",
            Expr::var_eq("st", "req"),
            Expr::var_eq("st", "done"),
        );
        let Verdict::Violated(ce) = chk(&m, &p) else {
            panic!("adversary stall must violate response");
        };
        assert!(ce.is_lasso());
        // The loop consists of adv_drop firings.
        let lasso = ce.lasso_start.unwrap();
        assert!(ce.steps[lasso + 1..].iter().all(|s| s.label == "adv_drop"));
    }

    #[test]
    fn fairness_excludes_pure_stall_loops() {
        let mut m = ring(true);
        // Fairness: the service fires infinitely often — excludes the
        // pure-drop loop (no state in the drop cycle satisfies st=done).
        m.add_fairness(Expr::var_eq("st", "done"));
        let p = Property::response(
            "served",
            Expr::var_eq("st", "req"),
            Expr::var_eq("st", "done"),
        );
        assert_eq!(chk(&m, &p), Verdict::Holds);
    }

    #[test]
    fn deadlock_stutter_violates_response() {
        let mut m = Model::new("dead");
        m.declare_var("st", &["waiting", "go"], &["waiting"]);
        // No command at all: the system deadlocks in `waiting`.
        let p = Property::response(
            "go_happens",
            Expr::var_eq("st", "waiting"),
            Expr::var_eq("st", "go"),
        );
        let Verdict::Violated(ce) = chk(&m, &p) else {
            panic!("deadlock must violate response");
        };
        assert!(ce.steps.iter().any(|s| s.label == "stutter"));
    }

    #[test]
    fn precedence_detects_missing_prerequisite() {
        let mut m = Model::new("prec");
        m.declare_var("st", &["start", "auth", "data"], &["start"]);
        m.add_command(GuardedCmd::new("skip_auth", Expr::var_eq("st", "start")).set("st", "data"));
        m.add_command(GuardedCmd::new("auth", Expr::var_eq("st", "start")).set("st", "auth"));
        m.add_command(GuardedCmd::new("then_data", Expr::var_eq("st", "auth")).set("st", "data"));
        let p = Property::precedence(
            "auth_before_data",
            Expr::var_eq("st", "data"),
            Expr::var_eq("st", "auth"),
        );
        let Verdict::Violated(ce) = chk(&m, &p) else {
            panic!("skip path must violate precedence");
        };
        assert_eq!(ce.command_labels(), vec!["skip_auth"]);
    }

    #[test]
    fn precedence_holds_when_ordered() {
        let mut m = Model::new("prec2");
        m.declare_var("st", &["start", "auth", "data"], &["start"]);
        m.add_command(GuardedCmd::new("auth", Expr::var_eq("st", "start")).set("st", "auth"));
        m.add_command(GuardedCmd::new("then_data", Expr::var_eq("st", "auth")).set("st", "data"));
        let p = Property::precedence(
            "auth_before_data",
            Expr::var_eq("st", "data"),
            Expr::var_eq("st", "auth"),
        );
        assert_eq!(chk(&m, &p), Verdict::Holds);
    }

    #[test]
    fn multiple_initial_states_explored() {
        let mut m = Model::new("multi");
        m.declare_var("x", &["a", "b", "c"], &["a", "b"]);
        let v = chk(&m, &Property::reachable("from_b", Expr::var_eq("x", "b")));
        assert!(matches!(v, Verdict::Reachable(_)));
        assert_eq!(
            chk(&m, &Property::reachable("c", Expr::var_eq("x", "c"))),
            Verdict::Unreachable
        );
    }

    #[test]
    fn state_limit_enforced() {
        let mut m = Model::new("big");
        // 8 independent 4-valued variables -> 4^8 = 65536 states.
        let domain = ["0", "1", "2", "3"];
        for i in 0..8 {
            m.declare_var(&format!("v{i}"), &domain, &["0"]);
        }
        for i in 0..8 {
            for (a, b) in [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")] {
                m.add_command(
                    GuardedCmd::new(format!("v{i}_{a}to{b}"), Expr::var_eq(format!("v{i}"), a))
                        .set(format!("v{i}"), b),
                );
            }
        }
        let err = bounded(&m, &Property::invariant("x", Expr::True), 1000).unwrap_err();
        assert!(matches!(err, CheckError::StateLimit(1000)));
        // And with an adequate limit it completes.
        let ok = bounded(&m, &Property::invariant("x", Expr::True), 100_000).unwrap();
        assert_eq!(ok, Verdict::Holds);
    }

    #[test]
    fn invalid_model_rejected() {
        let mut m = Model::new("bad");
        m.declare_var("x", &["a"], &["a"]);
        m.add_command(GuardedCmd::new("boom", Expr::var_eq("ghost", "1")));
        let err = bounded(&m, &Property::invariant("x", Expr::True), 100).unwrap_err();
        assert!(matches!(err, CheckError::InvalidModel(_)));
    }

    /// Exploration telemetry lives on the graph a build returns, never
    /// in process-wide state: 4096 lattice states.
    #[test]
    fn telemetry_counts_explored_states() {
        let c = CompiledModel::new(&lattice()).expect("valid");
        let mut stats = CheckStats::default();
        let g = build_reach_graph_budgeted(&c, 1_000_000, &BudgetMeter::unlimited(), &mut stats, 1)
            .expect("fits");
        assert_eq!(g.build_stats().states, 4096);
        assert_eq!(g.build_stats(), stats);
    }

    #[test]
    fn explore_stats_counts() {
        let m = ring(false);
        let g = graph(&m, 1000, &mut CheckStats::default()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn check_stats_match_exploration() {
        let m = ring(false);
        let p = Property::invariant("domain", Expr::var_in("st", ["idle", "req", "done"]));
        let mut stats = CheckStats::default();
        let verdict = check_bounded(&m, &p, 1000, &mut stats).unwrap();
        assert_eq!(verdict, Verdict::Holds);
        assert_eq!(stats.states, 3);
        assert_eq!(stats.transitions, 3);
        assert!(stats.peak_queue >= 1);

        // The accumulator folds across checks: a second check doubles the
        // monotonic counters and keeps the peak as a max.
        let first = stats;
        check_bounded(&m, &p, 1000, &mut stats).unwrap();
        assert_eq!(stats.states, first.states * 2);
        assert_eq!(stats.transitions, first.transitions * 2);
        assert_eq!(stats.peak_queue, first.peak_queue);
    }

    #[test]
    fn stats_recorded_even_when_state_limit_trips() {
        let mut m = Model::new("big");
        let domain = ["0", "1", "2", "3"];
        for i in 0..8 {
            m.declare_var(&format!("v{i}"), &domain, &["0"]);
        }
        for i in 0..8 {
            for (a, b) in [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")] {
                m.add_command(
                    GuardedCmd::new(format!("v{i}_{a}to{b}"), Expr::var_eq(format!("v{i}"), a))
                        .set(format!("v{i}"), b),
                );
            }
        }
        let mut stats = CheckStats::default();
        let err =
            check_bounded(&m, &Property::invariant("x", Expr::True), 1000, &mut stats).unwrap_err();
        assert!(matches!(err, CheckError::StateLimit(1000)));
        assert!(stats.states > 1000, "partial exploration must be visible");
    }

    // --- explore-once / query-many -------------------------------------

    /// Every property kind answered as a graph query must match a direct
    /// (explore-per-check) run exactly, traces included.
    #[test]
    fn graph_queries_match_direct_checks() {
        for with_drop in [false, true] {
            let mut m = ring(with_drop);
            m.add_fairness(Expr::var_eq("st", "done"));
            let g = graph(&m, 1000, &mut CheckStats::default()).unwrap();
            let props = [
                Property::invariant("inv", Expr::var_ne("st", "done")),
                Property::invariant("dom", Expr::var_in("st", ["idle", "req", "done"])),
                Property::reachable("done", Expr::var_eq("st", "done")),
                Property::reachable("ghost", Expr::var_eq("st", "idle")),
                Property::response(
                    "served",
                    Expr::var_eq("st", "req"),
                    Expr::var_eq("st", "done"),
                ),
                Property::precedence(
                    "req_first",
                    Expr::var_eq("st", "done"),
                    Expr::var_eq("st", "req"),
                ),
            ];
            let c = CompiledModel::new(&m).unwrap();
            for p in &props {
                let direct = bounded(&m, p, 1000).unwrap();
                let cp = c.compile_property(p).unwrap();
                let mut q = QueryStats::default();
                let cached = query(&c, &g, &cp, &c.exclusion_set(), &mut q).unwrap();
                assert_eq!(direct, cached, "{} (with_drop={with_drop})", p.name());
                assert!(q.nodes_reused > 0, "query must report reuse");
            }
        }
    }

    /// Excluding command ids from a query must be indistinguishable
    /// from deleting those commands from the model and re-exploring.
    #[test]
    fn excluded_query_matches_filtered_model() {
        let full = ring(true); // request, serve, reset, adv_drop
        let filtered = ring(false); // identical minus adv_drop
        let g = graph(&full, 1000, &mut CheckStats::default()).unwrap();
        let props = [
            Property::invariant("inv", Expr::var_ne("st", "done")),
            Property::reachable("done", Expr::var_eq("st", "done")),
            Property::response(
                "served",
                Expr::var_eq("st", "req"),
                Expr::var_eq("st", "done"),
            ),
            Property::precedence(
                "req_first",
                Expr::var_eq("st", "done"),
                Expr::var_eq("st", "req"),
            ),
        ];
        let c = CompiledModel::new(&full).unwrap();
        let mut mask = c.exclusion_set();
        for id in c.commands_labeled(Sym::intern("adv_drop")) {
            mask.insert(id);
        }
        for p in &props {
            let direct = bounded(&filtered, p, 1000).unwrap();
            let cp = c.compile_property(p).unwrap();
            let mut q = QueryStats::default();
            let masked = query(&c, &g, &cp, &mask, &mut q).unwrap();
            assert_eq!(direct, masked, "{} (mask)", p.name());
            assert!(q.nodes_reused > 0, "masked query must report reuse");
        }
    }

    /// A node whose every command is excluded must deadlock-stutter in
    /// the query, exactly as the filtered model would.
    #[test]
    fn excluding_all_commands_synthesizes_stutter() {
        let m = ring(false);
        let g = graph(&m, 1000, &mut CheckStats::default()).unwrap();
        let c = CompiledModel::new(&m).unwrap();
        let mut mask = c.exclusion_set();
        for id in c.commands_labeled(Sym::intern("serve")) {
            mask.insert(id);
        }
        let p = Property::response(
            "served",
            Expr::var_eq("st", "req"),
            Expr::var_eq("st", "done"),
        );
        let cp = c.compile_property(&p).unwrap();
        let mut q = QueryStats::default();
        let Verdict::Violated(ce) = query(&c, &g, &cp, &mask, &mut q).unwrap() else {
            panic!("removing serve must stall the ring");
        };
        assert!(ce.is_lasso());
        assert!(ce.steps.iter().any(|s| s.label == "stutter"));

        // Reference: the same model with `serve` actually deleted.
        let mut stalled = Model::new("ring");
        stalled.declare_var("st", &["idle", "req", "done"], &["idle"]);
        stalled
            .add_command(GuardedCmd::new("request", Expr::var_eq("st", "idle")).set("st", "req"));
        stalled.add_command(GuardedCmd::new("reset", Expr::var_eq("st", "done")).set("st", "idle"));
        let Verdict::Violated(ref_ce) = bounded(&stalled, &p, 1000).unwrap() else {
            panic!("reference model must also stall");
        };
        assert_eq!(ce.command_labels(), ref_ce.command_labels());
        assert_eq!(ce.lasso_start, ref_ce.lasso_start);
    }

    /// Eleven variables of 64 values each, `x0` stepping from `v0` to
    /// `v1`: a state needs 66 bits.
    pub(crate) fn too_wide() -> Model {
        let mut m = Model::new("wide");
        for i in 0..11 {
            declare(&mut m, &format!("x{i}"), 64);
        }
        m.add_command(GuardedCmd::new("step", Expr::var_eq("x0", "v0")).set("x0", "v1"));
        m
    }

    /// The one problem a model too wide for a packed key is rejected
    /// with.
    fn width_error(problem: &str) -> CheckError {
        CheckError::InvalidModel(vec![problem.to_string()])
    }

    /// A model whose state needs more than 64 bits is rejected before
    /// anything is explored, by the graph build and by the one-shot
    /// check alike, with the total and each variable's width.
    #[test]
    fn models_over_64_bits_are_rejected_with_their_widths() {
        let m = too_wide();
        let want = width_error(
            "a state needs 66 bits, over the 64 of a packed key: \
             x0 6, x1 6, x2 6, x3 6, x4 6, x5 6, x6 6, x7 6, x8 6, x9 6, x10 6",
        );
        let mut stats = CheckStats::default();
        assert_eq!(graph(&m, 1000, &mut stats).unwrap_err(), want);
        assert_eq!(stats, CheckStats::default(), "nothing explored");
        let p = Property::reachable("moved", Expr::var_eq("x0", "v1"));
        assert_eq!(bounded(&m, &p, 1000).unwrap_err(), want);
        // Property problems still come first.
        let bad = Property::reachable("ghost", Expr::var_eq("ghost", "v1"));
        assert_eq!(
            bounded(&m, &bad, 1000).unwrap_err(),
            width_error("`property` references undeclared `ghost`")
        );
    }

    /// A model that packs into exactly 64 bits explores like any other;
    /// one more two-valued variable makes it 65 bits, and it is rejected.
    #[test]
    fn sixty_four_bits_explore_and_sixty_five_are_rejected() {
        // Eight 8-bit counters: `c0` steps round its 256 values, and `c7`,
        // the top field, jumps to its highest value when `c0` does.
        let mut m = Model::new("exactly_64");
        for i in 0..8 {
            declare(&mut m, &format!("c{i}"), 256);
        }
        for j in 0..256 {
            m.add_command(
                GuardedCmd::new(format!("c0_{j}"), Expr::var_eq("c0", format!("v{j}")))
                    .set("c0", format!("v{}", (j + 1) % 256)),
            );
        }
        m.add_command(GuardedCmd::new("c7_top", Expr::var_eq("c0", "v255")).set("c7", "v255"));
        let g = graph(&m, 1_000_000, &mut CheckStats::default()).expect("64 bits fit");
        assert_eq!(g.node_count(), 512, "every c0 value with c7 at v0 and v255");
        assert_successors_match_guards(&CompiledModel::new(&m).expect("valid"), &g);
        assert_eq!(g.state_of(511)[7], 255, "the top field round-trips");

        m.declare_var("one_more", &["a", "b"], &["a"]);
        assert_eq!(
            graph(&m, 1_000_000, &mut CheckStats::default()).unwrap_err(),
            width_error(
                "a state needs 65 bits, over the 64 of a packed key: \
                 c0 8, c1 8, c2 8, c3 8, c4 8, c5 8, c6 8, c7 8, one_more 1"
            )
        );
    }

    /// Structural sanity of the cached graph on the ring: the CSR
    /// successor view covers every edge, and the build stats count them.
    #[test]
    fn reach_graph_structure_is_consistent() {
        let m = ring(true);
        let g = graph(&m, 1000, &mut CheckStats::default()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.init_count(), 1);
        let mut fwd = Vec::new();
        for u in 0..g.node_count() as u32 {
            for (_, v) in g.successors(u) {
                assert!(
                    (v as usize) < g.node_count(),
                    "edge {u} -> {v} leaves the graph"
                );
                fwd.push((u, v));
            }
        }
        assert_eq!(g.edge_count(), fwd.len());
        assert_eq!(g.build_stats().states, g.node_count() as u64);
        assert_eq!(g.build_stats().transitions, g.edge_count() as u64);
    }

    /// The graph build honours the state limit exactly like the
    /// single-pass exploration did.
    #[test]
    fn graph_build_honours_state_limit() {
        let mut m = Model::new("big");
        let domain = ["0", "1", "2", "3"];
        for i in 0..8 {
            m.declare_var(&format!("v{i}"), &domain, &["0"]);
        }
        for i in 0..8 {
            for (a, b) in [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")] {
                m.add_command(
                    GuardedCmd::new(format!("v{i}_{a}to{b}"), Expr::var_eq(format!("v{i}"), a))
                        .set(format!("v{i}"), b),
                );
            }
        }
        let mut stats = CheckStats::default();
        let err = graph(&m, 1000, &mut stats).unwrap_err();
        assert!(matches!(err, CheckError::StateLimit(1000)));
        assert!(stats.states > 1000, "partial exploration must be visible");
    }

    /// Compiling a property validates it with the full check's error
    /// precedence, without exploring anything.
    #[test]
    fn validate_property_matches_check_errors() {
        let m = ring(false);
        let c = CompiledModel::new(&m).unwrap();
        assert!(c
            .compile_property(&Property::invariant("ok", Expr::var_eq("st", "idle")))
            .is_ok());
        let bad = Property::invariant("bad", Expr::var_eq("ghost", "1"));
        let via_validate = c.compile_property(&bad).unwrap_err();
        let via_check = bounded(&m, &bad, 1000).unwrap_err();
        assert_eq!(via_validate, via_check);
    }

    /// 12 one-way boolean toggles: 2^12 = 4096 reachable states, enough
    /// to cross several [`PROBE_STRIDE`] windows.
    fn lattice() -> Model {
        let mut m = Model::new("lattice");
        for i in 0..12 {
            let name = format!("b{i}");
            m.declare_var(&name, &["0", "1"], &["0"]);
            m.add_command(
                GuardedCmd::new(format!("set{i}"), Expr::var_eq(name.clone(), "0"))
                    .set(name.clone(), "1"),
            );
        }
        m
    }

    #[test]
    fn budget_total_state_cap_degrades_build_deterministically() {
        use crate::budget::Budget;
        let budget = Budget::unlimited().with_total_states(2000);
        let run = || {
            let c = CompiledModel::new(&lattice()).expect("valid");
            let meter = budget.start();
            let mut stats = CheckStats::default();
            let err = build_reach_graph_budgeted(&c, 1_000_000, &meter, &mut stats, 1)
                .expect_err("cap below 4096 reachable states");
            (err, stats)
        };
        let (err, stats) = run();
        assert_eq!(
            err,
            CheckError::Budget(BudgetExceeded::TotalStates { limit: 2000 })
        );
        assert!(
            stats.states > 0 && stats.transitions > 0,
            "partial stats absorbed on the budget path: {stats:?}"
        );
        // Count-based exhaustion is reproducible: same trip point, same
        // partial stats, every run.
        let (err2, stats2) = run();
        assert_eq!(err, err2);
        assert_eq!(stats, stats2);
    }

    #[test]
    fn budget_zero_deadline_degrades_build() {
        use crate::budget::Budget;
        let c = CompiledModel::new(&lattice()).expect("valid");
        let meter = Budget::unlimited()
            .with_deadline(std::time::Duration::ZERO)
            .start();
        let mut stats = CheckStats::default();
        let err = build_reach_graph_budgeted(&c, 1_000_000, &meter, &mut stats, 1)
            .expect_err("deadline already passed");
        assert!(matches!(
            err,
            CheckError::Budget(BudgetExceeded::Deadline { .. })
        ));
    }

    /// Charging a budget that never trips leaves the build identical to
    /// an unlimited one.
    #[test]
    fn unlimited_budget_matches_unbudgeted_build() {
        use crate::budget::Budget;
        let c = CompiledModel::new(&lattice()).expect("valid");
        let mut s1 = CheckStats::default();
        let g1 = build_reach_graph_budgeted(&c, 1_000_000, &BudgetMeter::unlimited(), &mut s1, 1)
            .expect("fits");
        let mut s2 = CheckStats::default();
        let meter = Budget::unlimited().with_total_states(1_000_000).start();
        let g2 = build_reach_graph_budgeted(&c, 1_000_000, &meter, &mut s2, 1).expect("fits");
        assert_eq!(g1.node_count(), 4096);
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(s1, s2);
    }

    #[test]
    fn budget_charges_product_queries_too() {
        use crate::budget::Budget;
        let m = ring(true);
        let c = CompiledModel::new(&m).expect("valid");
        let mut build = CheckStats::default();
        let g = build_reach_graph_budgeted(&c, 1000, &BudgetMeter::unlimited(), &mut build, 1)
            .expect("tiny");
        let p = c
            .compile_property(&Property::response(
                "served",
                Expr::var_eq("st", "req"),
                Expr::var_eq("st", "done"),
            ))
            .expect("valid property");
        // Saturate the cap up front: the query's first probe must trip.
        let meter = Budget::unlimited().with_total_states(10).start();
        meter.charge_and_probe(10).expect("exactly at cap");
        let mut q = QueryStats::default();
        let err = check_on_graph(&c, &g, &p, &c.exclusion_set(), 1000, &meter, &mut q)
            .expect_err("query budget exhausted");
        assert_eq!(
            err,
            CheckError::Budget(BudgetExceeded::TotalStates { limit: 10 })
        );
    }

    // --- the packed kernel against direct guard evaluation --------------

    /// Values `v0..v{n}` as owned names.
    fn values(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("v{i}")).collect()
    }

    /// Declares `name` over `v0..v{n}` starting at `v0`.
    fn declare(m: &mut Model, name: &str, n: usize) {
        let domain = values(n);
        let refs: Vec<&str> = domain.iter().map(String::as_str).collect();
        m.declare_var(name, &refs, &["v0"]);
    }

    /// Guards of every shape the enable tables must handle: `Eq`, `Ne`
    /// and `In` on a narrow (3-bit) and a wide (7-bit) field, `Or`, `Not`
    /// and `Implies` across two variables (residual conjuncts), constant
    /// `True`/`False` conjuncts, a singleton-domain variable, two
    /// literals on one variable, and a command mixing tabled and residual
    /// conjuncts. Counter commands walk `n` and `w` through their domains
    /// so the shapes are tested on 1,000 reachable states.
    fn guard_shapes() -> Model {
        let mut m = Model::new("guard_shapes");
        declare(&mut m, "n", 5);
        declare(&mut m, "w", 100);
        declare(&mut m, "b", 2);
        m.declare_var("s", &["only"], &["only"]);
        for i in 0..5 {
            m.add_command(
                GuardedCmd::new(format!("n{i}"), Expr::var_eq("n", format!("v{i}")))
                    .set("n", format!("v{}", (i + 1) % 5)),
            );
        }
        for i in 0..100 {
            m.add_command(
                GuardedCmd::new(format!("w{i}"), Expr::var_eq("w", format!("v{i}")))
                    .set("w", format!("v{}", (i + 1) % 100)),
            );
        }
        let shapes = [
            Expr::var_eq("n", "v2"),
            Expr::var_ne("n", "v3"),
            Expr::var_in("n", ["v0", "v4"]),
            Expr::var_eq("w", "v77"),
            Expr::var_ne("w", "v5"),
            Expr::var_in("w", ["v3", "v50", "v64", "v99"]),
            Expr::or([Expr::var_eq("n", "v1"), Expr::var_eq("w", "v10")]),
            Expr::not(Expr::and([
                Expr::var_eq("b", "v1"),
                Expr::var_in("n", ["v1", "v2"]),
            ])),
            Expr::implies(Expr::var_eq("b", "v1"), Expr::var_ne("w", "v0")),
            Expr::and([Expr::True, Expr::var_eq("n", "v0")]),
            Expr::and([Expr::False, Expr::var_eq("n", "v0")]),
            Expr::var_eq("s", "only"),
            Expr::var_ne("s", "only"),
            Expr::and([Expr::var_eq("s", "only"), Expr::var_eq("b", "v0")]),
            Expr::or([Expr::var_ne("s", "only"), Expr::var_eq("w", "v9")]),
            Expr::and([Expr::var_ne("n", "v0"), Expr::var_ne("n", "v1")]),
            Expr::and([Expr::var_in("w", values(50)), Expr::var_ne("w", "v20")]),
            Expr::not(Expr::or([Expr::var_eq("n", "v0"), Expr::var_eq("n", "v1")])),
            Expr::and([
                Expr::var_eq("n", "v2"),
                Expr::or([Expr::var_eq("b", "v0"), Expr::var_eq("w", "v3")]),
                Expr::and([Expr::var_ne("w", "v4"), Expr::True]),
            ]),
            Expr::True,
            Expr::False,
        ];
        for (i, guard) in shapes.into_iter().enumerate() {
            let flip = if i % 2 == 0 { "v1" } else { "v0" };
            m.add_command(GuardedCmd::new(format!("shape{i}"), guard).set("b", flip));
        }
        m
    }

    /// 200 commands (four enable words), with residual guards past the
    /// second word, stepping `x`, `y` and `z` through their domains.
    fn two_hundred_commands() -> Model {
        let mut m = Model::new("wide_command_set");
        declare(&mut m, "x", 10);
        declare(&mut m, "y", 20);
        declare(&mut m, "z", 10);
        let v = |i: usize| format!("v{i}");
        for i in 0..200 {
            let (var, other, size, j) = match i {
                0..100 => ("x", "y", 10, i),
                100..150 => ("y", "z", 20, i - 100),
                _ => ("z", "x", 10, i - 150),
            };
            let at = Expr::var_eq(var, v(j % size));
            let guard = if i >= 128 && i % 3 == 0 {
                Expr::or([at, Expr::var_eq(other, "v3")])
            } else {
                Expr::and([at, Expr::var_ne(other, v(j / size + 5))])
            };
            m.add_command(GuardedCmd::new(format!("c{i}"), guard).set(var, v((j + 1) % size)));
        }
        m
    }

    /// Two variables, three initial states, no commands: every node is a
    /// deadlock.
    fn no_commands() -> Model {
        let mut m = Model::new("no_commands");
        m.declare_var("p", &["a", "b", "c"], &["a", "b", "c"]);
        m.declare_var("q", &["only"], &["only"]);
        m
    }

    /// The explored successors of every node are exactly the commands
    /// whose compiled guard holds on the node's state, in ascending
    /// order, each leading to the updated state; the stutter appears
    /// only when no guard holds.
    fn assert_successors_match_guards(c: &CompiledModel, g: &ReachGraph) {
        for id in 0..g.node_count() as u32 {
            let s = g.state_of(id);
            let want: Vec<u32> = (0..c.command_count())
                .filter(|&i| c.commands()[i].guard.eval(&s))
                .map(|i| i as u32)
                .collect();
            let got: Vec<(u32, u32)> = g.successors(id).collect();
            if want.is_empty() {
                assert_eq!(got, vec![(STUTTER_CMD, id)], "node {id}: stutter");
                continue;
            }
            let cmds: Vec<u32> = got.iter().map(|&(cmd, _)| cmd).collect();
            assert_eq!(cmds, want, "node {id} {s:?}: enabled commands");
            for (cmd, succ) in got {
                let mut next = s.clone();
                for &(v, x) in &c.commands()[cmd as usize].updates {
                    next[v.index()] = x.0;
                }
                assert_eq!(g.state_of(succ), next, "node {id} cmd {cmd}: successor");
            }
        }
    }

    #[test]
    fn packed_successors_equal_direct_guard_evaluation() {
        for (model, states) in [
            (guard_shapes(), 1000),
            (two_hundred_commands(), 2000),
            (no_commands(), 3),
            (ring(true), 3),
            (lattice(), 4096),
        ] {
            let c = CompiledModel::new(&model).expect("valid");
            let g = build_reach_graph_budgeted(
                &c,
                1_000_000,
                &BudgetMeter::unlimited(),
                &mut CheckStats::default(),
                1,
            )
            .expect("fits");
            assert_eq!(g.node_count(), states, "{}", model.name());
            assert_successors_match_guards(&c, &g);
        }
    }

    /// Packed queries read predicates straight off the keys: each shape
    /// must agree with `CExpr::eval` on the unpacked state at every node.
    #[test]
    fn packed_predicates_equal_direct_evaluation() {
        let m = guard_shapes();
        let c = CompiledModel::new(&m).expect("valid");
        let g = graph(&m, 1_000_000, &mut CheckStats::default()).expect("fits");
        let mut shapes: Vec<Expr> = m.commands().iter().map(|cmd| cmd.guard.clone()).collect();
        shapes.push(Expr::var_in("b", ["v1"]));
        shapes.push(Expr::var_in("w", values(100)));
        shapes.push(Expr::var_in("w", Vec::<String>::new()));
        for shape in &shapes {
            let e = c.compile(shape);
            let direct: Vec<bool> = (0..g.node_count() as u32)
                .map(|id| e.eval(&g.state_of(id)))
                .collect();
            assert_eq!(eval_nodes(&g, &e), direct, "{shape:?}");
        }
    }

    /// `FxHasher` maps a `u64` to `key * SEED`, so keys differing only
    /// above bit 16 share their low 16 hash bits — the bits a hash map's
    /// bucket index comes from. The packed-key hasher must spread them.
    #[test]
    fn packed_key_hasher_spreads_high_fields_over_buckets() {
        use crate::fxhash::FxBuildHasher;
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let packed = BuildHasherDefault::<PackedKeyHasher>::default();
        for shift in [32u32, 17] {
            let keys: Vec<u64> = (0..4096u64).map(|i| 0x5a5a | (i << shift)).collect();
            let buckets = |h: &dyn Fn(u64) -> u64| -> usize {
                keys.iter()
                    .map(|&k| h(k) & 0xffff)
                    .collect::<HashSet<_>>()
                    .len()
            };
            let fx = buckets(&|k| FxBuildHasher::default().hash_one(k));
            let spread = buckets(&|k| packed.hash_one(k));
            assert_eq!(fx, 1, "bits {shift}..: FxHasher ignores high fields");
            assert!(spread >= 4000, "bits {shift}..: only {spread} of 4096");
        }
    }

    // --- the queries against the product path they replaced ------------

    /// The product of a graph with the one-bit monitor, one edge list per
    /// node: the product-only query path, kept as the reference the graph
    /// searches and the early-exit response are tested against.
    struct RefProduct {
        nodes: Vec<(u32, bool)>,
        parent: Vec<Option<(u32, u32)>>,
        edges: Vec<Vec<(u32, u32)>>,
    }

    /// The whole product BFS, every edge recorded, under `excluded`.
    fn ref_product(
        g: &ReachGraph,
        excluded: Option<&CmdIdSet>,
        init_flag: impl Fn(u32) -> bool,
        step_flag: impl Fn(bool, u32) -> bool,
    ) -> RefProduct {
        let mut pg = RefProduct {
            nodes: Vec::new(),
            parent: Vec::new(),
            edges: Vec::new(),
        };
        let mut index = vec![u32::MAX; 2 * g.node_count()];
        let mut intern = |pg: &mut RefProduct, gid: u32, flag: bool, parent| {
            let slot = &mut index[2 * gid as usize + usize::from(flag)];
            if *slot == u32::MAX {
                *slot = pg.nodes.len() as u32;
                pg.nodes.push((gid, flag));
                pg.parent.push(parent);
                pg.edges.push(Vec::new());
            }
            *slot
        };
        for gid in 0..g.init_count() {
            intern(&mut pg, gid, init_flag(gid), None);
        }
        let mut next = 0;
        while next < pg.nodes.len() {
            let pid = next as u32;
            next += 1;
            let (gid, flag) = pg.nodes[pid as usize];
            let mut any = false;
            for (cmd, succ) in g.successors(gid) {
                if cmd != STUTTER_CMD
                    && excluded.is_some_and(|m| m.contains(CmdId::new(cmd as usize)))
                {
                    continue;
                }
                any = true;
                let sid = intern(&mut pg, succ, step_flag(flag, succ), Some((pid, cmd)));
                pg.edges[pid as usize].push((cmd, sid));
            }
            if !any {
                let sid = intern(&mut pg, gid, step_flag(flag, gid), Some((pid, STUTTER_CMD)));
                pg.edges[pid as usize].push((STUTTER_CMD, sid));
            }
        }
        pg
    }

    /// The path to a product node from the product BFS parents.
    fn ref_path(c: &CompiledModel, g: &ReachGraph, pg: &RefProduct, target: u32) -> Vec<TraceStep> {
        let mut rev = Vec::new();
        let mut id = Some(target);
        while let Some(pid) = id {
            let label = match pg.parent[pid as usize] {
                Some((_, cmd)) => c.label_of(cmd).to_string(),
                None => "init".to_string(),
            };
            rev.push(TraceStep {
                label,
                state: c.assignment(&g.state_of(pg.nodes[pid as usize].0)),
            });
            id = pg.parent[pid as usize].map(|(p, _)| p);
        }
        rev.reverse();
        rev
    }

    /// The first product node, in id order, matching `bad`.
    fn ref_scan(
        c: &CompiledModel,
        g: &ReachGraph,
        pg: &RefProduct,
        bad: impl Fn(u32, bool) -> bool,
    ) -> Option<Counterexample> {
        let pid = pg.nodes.iter().position(|&(gid, flag)| bad(gid, flag))?;
        Some(Counterexample {
            steps: ref_path(c, g, pg, pid as u32),
            lasso_start: None,
        })
    }

    /// Every SCC of the subgraph induced by `mask`, in Tarjan's emission
    /// order.
    fn ref_sccs(pg: &RefProduct, mask: &[bool]) -> Vec<Vec<u32>> {
        let n = pg.nodes.len();
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::new();
        let mut next_index = 0u32;
        let mut sccs = Vec::new();
        for start in 0..n as u32 {
            if !mask[start as usize] || index[start as usize] != u32::MAX {
                continue;
            }
            let mut call = vec![(start, 0usize)];
            index[start as usize] = next_index;
            low[start as usize] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start as usize] = true;
            while let Some(frame) = call.last_mut() {
                let u = frame.0;
                let edges = &pg.edges[u as usize];
                if frame.1 < edges.len() {
                    let (_, v) = edges[frame.1];
                    frame.1 += 1;
                    if !mask[v as usize] {
                        continue;
                    }
                    if index[v as usize] == u32::MAX {
                        index[v as usize] = next_index;
                        low[v as usize] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v as usize] = true;
                        call.push((v, 0));
                    } else if on_stack[v as usize] {
                        low[u as usize] = low[u as usize].min(index[v as usize]);
                    }
                } else {
                    call.pop();
                    if let Some(&(p, _)) = call.last() {
                        low[p as usize] = low[p as usize].min(low[u as usize]);
                    }
                    if low[u as usize] == index[u as usize] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            scc.push(w);
                            if w == u {
                                break;
                            }
                        }
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }

    /// A cycle in `scc` from and back to `entry` through a witness of
    /// every fairness constraint.
    fn ref_fair_cycle(
        c: &CompiledModel,
        g: &ReachGraph,
        pg: &RefProduct,
        scc: &[u32],
        entry: u32,
        fairness: &[Vec<bool>],
    ) -> Vec<TraceStep> {
        let members: std::collections::HashSet<u32> = scc.iter().copied().collect();
        let fair_at = |f_at: &[bool], pid: u32| f_at[pg.nodes[pid as usize].0 as usize];
        let bfs = |from: u32, pred: &dyn Fn(u32) -> bool| -> Vec<(u32, u32)> {
            let mut prev: HashMap<u32, (u32, u32)> = HashMap::new();
            let mut queue = VecDeque::from([from]);
            let mut found = None;
            'outer: while let Some(u) = queue.pop_front() {
                for &(cmd, v) in &pg.edges[u as usize] {
                    if members.contains(&v) && !prev.contains_key(&v) {
                        prev.insert(v, (u, cmd));
                        if pred(v) {
                            found = Some(v);
                            break 'outer;
                        }
                        queue.push_back(v);
                    }
                }
            }
            let Some(mut cur) = found else {
                return Vec::new();
            };
            let mut rev = Vec::new();
            loop {
                let (p, cmd) = prev[&cur];
                rev.push((cmd, cur));
                if p == from || rev.len() > pg.nodes.len() {
                    break;
                }
                cur = p;
            }
            rev.reverse();
            rev
        };
        let mut pos = entry;
        let mut segments = Vec::new();
        for f_at in fairness {
            if fair_at(f_at, pos) {
                continue;
            }
            let seg = bfs(pos, &|pid| fair_at(f_at, pid));
            if let Some(&(_, last)) = seg.last() {
                pos = last;
            }
            segments.extend(seg);
        }
        if pos != entry || segments.is_empty() {
            segments.extend(bfs(pos, &|pid| pid == entry));
        }
        segments
            .into_iter()
            .map(|(cmd, pid)| TraceStep {
                label: c.label_of(cmd).to_string(),
                state: c.assignment(&g.state_of(pg.nodes[pid as usize].0)),
            })
            .collect()
    }

    /// A query answered the product-only way: unmasked invariants and
    /// goals scan the graph; everything else builds the whole product,
    /// scans it or computes every SCC, and takes the first cyclic fair
    /// one.
    fn reference_check(
        c: &CompiledModel,
        g: &ReachGraph,
        p: &CompiledProperty,
        excluded: &CmdIdSet,
    ) -> Verdict {
        let mask = (!excluded.is_empty()).then_some(excluded);
        match (&p.kind, mask) {
            (CProp::Invariant { holds }, None) => {
                scan_graph(c, g, &mut QueryStats::default(), holds, false)
                    .map_or(Verdict::Holds, Verdict::Violated)
            }
            (CProp::Reachable { goal }, None) => {
                scan_graph(c, g, &mut QueryStats::default(), goal, true)
                    .map_or(Verdict::Unreachable, Verdict::Reachable)
            }
            (CProp::Invariant { holds }, Some(_)) => {
                let holds_at = eval_nodes(g, holds);
                let pg = ref_product(g, mask, |_| false, |_, _| false);
                ref_scan(c, g, &pg, |gid, _| !holds_at[gid as usize])
                    .map_or(Verdict::Holds, Verdict::Violated)
            }
            (CProp::Reachable { goal }, Some(_)) => {
                let goal_at = eval_nodes(g, goal);
                let pg = ref_product(g, mask, |_| false, |_, _| false);
                ref_scan(c, g, &pg, |gid, _| goal_at[gid as usize])
                    .map_or(Verdict::Unreachable, Verdict::Reachable)
            }
            (
                CProp::Precedence {
                    event,
                    requires_before,
                },
                _,
            ) => {
                let event_at = eval_nodes(g, event);
                let before_at = eval_nodes(g, requires_before);
                let pg = ref_product(
                    g,
                    mask,
                    |gid| before_at[gid as usize],
                    |f, gid| f || before_at[gid as usize],
                );
                ref_scan(c, g, &pg, |gid, flag| !flag && event_at[gid as usize])
                    .map_or(Verdict::Holds, Verdict::Violated)
            }
            (CProp::Response { trigger, response }, _) => {
                let trig_at = eval_nodes(g, trigger);
                let resp_at = eval_nodes(g, response);
                let pg = ref_product(
                    g,
                    mask,
                    |gid| trig_at[gid as usize] && !resp_at[gid as usize],
                    |f, gid| (f || trig_at[gid as usize]) && !resp_at[gid as usize],
                );
                let pending: Vec<bool> = pg.nodes.iter().map(|&(_, f)| f).collect();
                let fairness: Vec<Vec<bool>> =
                    c.fairness.iter().map(|f| eval_nodes(g, f)).collect();
                for scc in ref_sccs(&pg, &pending) {
                    let u = scc[0];
                    let cyclic = scc.len() > 1
                        || pg.edges[u as usize]
                            .iter()
                            .any(|&(_, v)| v == u && pending[u as usize]);
                    let fair = fairness.iter().all(|f_at| {
                        scc.iter()
                            .any(|&pid| f_at[pg.nodes[pid as usize].0 as usize])
                    });
                    if !cyclic || !fair {
                        continue;
                    }
                    let prefix = ref_path(c, g, &pg, u);
                    let lasso_start = prefix.len() - 1;
                    let mut steps = prefix;
                    steps.extend(ref_fair_cycle(c, g, &pg, &scc, u, &fairness));
                    return Verdict::Violated(Counterexample {
                        steps,
                        lasso_start: Some(lasso_start),
                    });
                }
                Verdict::Holds
            }
        }
    }

    /// A random small model in the shape of the explorer property tests
    /// (2–4 variables over three values, 1–11 one-atom guarded commands),
    /// with a quarter of the variables starting in either of two values,
    /// and 0–2 fairness constraints.
    fn random_model(rng: &mut rand::rngs::StdRng) -> Model {
        use rand::Rng;
        const DOMAIN: [&str; 3] = ["v0", "v1", "v2"];
        let vars = rng.gen_range(2usize..5);
        let atom = |rng: &mut rand::rngs::StdRng| {
            Expr::var_eq(
                format!("x{}", rng.gen_range(0..vars)),
                DOMAIN[rng.gen_range(0usize..3)],
            )
        };
        let mut m = Model::new("random");
        for i in 0..vars {
            let init: &[&str] = if rng.gen_bool(0.25) {
                &DOMAIN[..2]
            } else {
                &DOMAIN[..1]
            };
            m.declare_var(&format!("x{i}"), &DOMAIN, init);
        }
        for i in 0..rng.gen_range(1usize..12) {
            let guard = atom(rng);
            let (var, value) = (rng.gen_range(0..vars), rng.gen_range(0usize..3));
            m.add_command(
                GuardedCmd::new(format!("c{i}"), guard).set(format!("x{var}"), DOMAIN[value]),
            );
        }
        for _ in 0..rng.gen_range(0usize..3) {
            let fair = atom(rng);
            m.add_fairness(fair);
        }
        m
    }

    /// Random properties of every kind, on random models with random
    /// fairness constraints and random exclusion masks: each query's
    /// verdict, trace included, equals the product-only reference's.
    /// Precedence and response must each both hold and be violated
    /// somewhere, so the comparison cannot pass vacuously.
    #[test]
    fn queries_match_the_product_reference_on_random_models() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_9e75);
        // (holds, violated) per kind: invariant, goal, precedence, response.
        let mut seen = [[0u32; 2]; 4];
        for case in 0..320 {
            let m = random_model(&mut rng);
            let c = CompiledModel::new(&m).expect("generated models are valid");
            let g = build_reach_graph_budgeted(
                &c,
                100_000,
                &BudgetMeter::unlimited(),
                &mut CheckStats::default(),
                1,
            )
            .expect("81 states at most");
            let mut mask = c.exclusion_set();
            if rng.gen_bool(0.5) {
                for i in 0..c.command_count() {
                    if rng.gen_bool(0.3) {
                        mask.insert(CmdId::new(i));
                    }
                }
            }
            let vars = c.num_vars();
            let mut atom = || {
                Expr::var_eq(
                    format!("x{}", rng.gen_range(0..vars)),
                    ["v0", "v1", "v2"][rng.gen_range(0usize..3)],
                )
            };
            for _ in 0..2 {
                let (a, b) = (atom(), atom());
                let props = [
                    Property::invariant("inv", Expr::not(Expr::or([a.clone(), b.clone()]))),
                    Property::reachable("goal", Expr::or([a.clone(), b.clone()])),
                    Property::precedence("prec", a.clone(), b.clone()),
                    Property::response("resp", a, b),
                ];
                for (kind, p) in props.iter().enumerate() {
                    let cp = c.compile_property(p).expect("in vocabulary");
                    let want = reference_check(&c, &g, &cp, &mask);
                    let got = query(&c, &g, &cp, &mask, &mut QueryStats::default())
                        .expect("far below the limit");
                    assert_eq!(got, want, "case {case}, {p:?}, mask {mask:?}, model {m:?}");
                    let holds = matches!(want, Verdict::Holds | Verdict::Unreachable);
                    seen[kind][usize::from(!holds)] += 1;
                }
            }
        }
        for (kind, [holds, violated]) in ["precedence", "response"].iter().zip(&seen[2..]) {
            assert!(
                *holds > 0 && *violated > 0,
                "{kind}: {holds} holding and {violated} violated cases"
            );
        }
    }
}
