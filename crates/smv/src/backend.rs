//! The pluggable checking-backend seam.
//!
//! The CEGAR loop and the pipeline above it never call a checking
//! engine directly any more: they talk to a [`CheckBackend`], which
//! answers one compiled property under one exclusion mask per call. Two
//! implementations exist:
//!
//! * [`ExplicitBackend`] — the explicit-state engine in this crate,
//!   answering properties as queries over a cached
//!   [`ReachGraph`] (the historical path, bit-for-bit unchanged);
//! * [`LazyGraph`](crate::lazy::LazyGraph) — the same engine over a graph
//!   explored only as far as its queries need, answering exactly as
//!   [`ExplicitBackend`] over the finished graph would;
//! * `BmcBackend` in `procheck-symbolic` — a bounded model checker that
//!   bit-blasts the same [`CompiledModel`] into CNF and solves it with
//!   an in-repo CDCL solver.
//!
//! The seam's answer type is [`BackendVerdict`], which is deliberately
//! *wider* than [`Verdict`]: a bounded engine that exhausts its bound
//! without finding a violation has **not** proved the property; it
//! reports [`BackendVerdict::BoundReached`], a settled-but-weaker
//! outcome the caller must surface as such — never silently as a proof.
//! The explicit engine is complete over the reachable graph and always
//! returns [`BackendVerdict::Definite`].

use crate::budget::BudgetMeter;
use crate::checker::{
    check_on_graph, CheckError, CompiledModel, CompiledProperty, QueryStats, Verdict,
};
use crate::reach::ReachGraph;
use procheck_ident::CmdIdSet;

/// A backend's answer to one property query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendVerdict {
    /// A definite verdict: holds/violated (or reachable/unreachable),
    /// with the same meaning as the explicit engine's [`Verdict`].
    Definite(Verdict),
    /// The engine searched every behaviour of length ≤ `k` and found no
    /// violation. Weaker than `Definite(Holds)`: longer behaviours are
    /// unexamined. Cross-validation treats this as *agreement* with a
    /// definite pass, never as an independent proof.
    BoundReached(usize),
}

/// One checking engine behind the seam. Answers must be pure functions
/// of `(model, property, excluded)` — deterministic, never depending on
/// earlier calls — so CEGAR refinement sequences and cross-validation
/// comparisons are reproducible. An engine may keep state between calls
/// only where it changes what an answer costs, never the answer: how far
/// a [`LazyGraph`](crate::lazy::LazyGraph) has been explored is such
/// state. Only a budget failure depends on what else the run has spent.
pub trait CheckBackend {
    /// A stable, lower-case engine name (`"explicit"`, `"bmc"`),
    /// used in telemetry and divergence reports.
    fn name(&self) -> &'static str;

    /// Answers `property` on `model` with the commands in `excluded`
    /// removed (the CEGAR mask). `limit` bounds interned product
    /// states for graph-backed engines; symbolic engines may ignore
    /// it. `meter` charges the run-wide budget; `stats` absorbs the
    /// query's work counters.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`CheckError`]s; a violated verdict
    /// whose trace fails replay validation on the source model must
    /// surface as [`CheckError::BackendDivergence`], never as a
    /// verdict.
    fn answer(
        &self,
        model: &CompiledModel,
        property: &CompiledProperty,
        excluded: &CmdIdSet,
        limit: usize,
        meter: &BudgetMeter,
        stats: &mut QueryStats,
    ) -> Result<BackendVerdict, CheckError>;
}

/// The explicit-state engine as a backend: answers every query over a
/// prebuilt [`ReachGraph`] via
/// [`check_on_graph`], exactly as the pipeline always has.
/// Complete over the graph, so every answer is
/// [`BackendVerdict::Definite`].
pub struct ExplicitBackend<'g> {
    /// The cached reachability graph of the model under check.
    pub graph: &'g ReachGraph,
}

impl CheckBackend for ExplicitBackend<'_> {
    fn name(&self) -> &'static str {
        "explicit"
    }

    fn answer(
        &self,
        model: &CompiledModel,
        property: &CompiledProperty,
        excluded: &CmdIdSet,
        limit: usize,
        meter: &BudgetMeter,
        stats: &mut QueryStats,
    ) -> Result<BackendVerdict, CheckError> {
        check_on_graph(model, self.graph, property, excluded, limit, meter, stats)
            .map(BackendVerdict::Definite)
    }
}
