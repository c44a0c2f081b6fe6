//! Bounded symbolic checking backend for the ProChecker reproduction.
//!
//! This crate is the second implementation of the
//! [`procheck_smv::CheckBackend`] seam: a bounded model checker (BMC)
//! that bit-blasts a [`procheck_smv::checker::CompiledModel`] and one
//! compiled property into CNF and decides it with an in-repo CDCL SAT
//! solver. Nothing here links against an external solver — the whole
//! stack (literals, Tseitin encodings, watched-literal propagation,
//! 1UIP learning) lives in this crate, std-only, mirroring the
//! workspace's vendored-dependency discipline.
//!
//! Layering, bottom up:
//!
//! * [`cnf`] — literals, clauses, and the Tseitin/cardinality builders;
//! * [`solver`] — the CDCL solver (two watched literals, VSIDS,
//!   restarts, budget-interruptible);
//! * [`encode`] — the model/property → CNF unrolling and the SAT-model
//!   → path decoder;
//! * [`replay`] — replays every decoded path on the source model before
//!   it becomes a verdict (divergence, not verdict, on mismatch);
//! * [`backend`] — ties the above into [`BmcBackend`], the
//!   `CheckBackend` implementation the pipeline selects with
//!   `PROCHECK_BACKEND=symbolic` (or cross-validates with `both`).
//!
//! The engine is *refutation-complete up to its bound* and nothing
//! more: `SAT` yields a replay-validated counterexample, `UNSAT` yields
//! [`procheck_smv::BackendVerdict::BoundReached`] — a settled but
//! weaker outcome the caller must never promote to a proof.

pub mod backend;
pub mod cnf;
pub mod encode;
pub mod replay;
pub mod solver;

pub use backend::BmcBackend;
pub use encode::{bmc_check, BmcAnswer, BmcPath};
pub use solver::{SolveOutcome, Solver, SolverStats};

/// Default BMC bound (transitions), chosen above the longest golden
/// counterexample in the registry (18 transitions) so stock analyses
/// cross-validate without truncation. Override per run with
/// `AnalysisConfig::bmc_bound`.
pub const DEFAULT_BMC_BOUND: usize = 24;
