//! Explicit-state checking engine.
//!
//! Every state is one packed `u64` key: each variable's value index sits
//! in its own bit field, and a model whose fields need more than 64 bits
//! is rejected with [`CheckError::InvalidModel`] naming each variable's
//! width (the symbolic backend in `procheck-symbolic` still checks it).
//! Models and properties are compiled to dense indices first
//! (`compile.rs`), and the engine is split into an *explore* phase
//! (`explore.rs`) and an *evaluate* phase (`query.rs`):
//!
//! * [`build_reach_graph_budgeted`] runs one flagless BFS over the model
//!   and produces a [`ReachGraph`](crate::reach::ReachGraph) — packed state
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

use crate::budget::{BudgetExceeded, BudgetMeter};
use crate::expr::Expr;
use crate::model::Model;
use crate::trace::Counterexample;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

mod compile;
mod explore;
mod query;
#[cfg(test)]
pub(crate) mod tests;

pub use compile::{CCmd, CExpr, CProp, CVar, CompiledModel, CompiledProperty};
pub use explore::build_reach_graph_budgeted;
pub(crate) use explore::{lower_guard, PackedExplorer};
pub use query::check_on_graph;

/// Default bound on explored product states.
pub const DEFAULT_STATE_LIMIT: usize = 4_000_000;

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
/// [`ReachGraph`](crate::reach::ReachGraph). Deterministic for a given
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
// Public one-shot API
// ---------------------------------------------------------------------------

/// Checks a property with an explicit state limit, accumulating
/// exploration telemetry into `stats`. `stats` grows even on the error
/// path (the state-limit case records how many states were interned
/// before the limit tripped), so CEGAR callers can keep one accumulator
/// across refinement iterations.
///
/// Internally this is explore + evaluate: it builds a private
/// [`ReachGraph`](crate::reach::ReachGraph) and answers the property as a query over it. Callers
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
