//! # ProChecker — reproduction framework core
//!
//! An automated security and privacy analysis framework for (simulated)
//! 4G LTE protocol implementations, reproducing Karim, Hussain & Bertino,
//! *"ProChecker: An Automated Security and Privacy Analysis Framework for
//! 4G LTE Protocol Implementations"* (ICDCS 2021).
//!
//! The framework has the paper's two components (Fig 2):
//!
//! 1. **Model extraction** — the implementation's NAS layer is
//!    instrumented (`procheck-instrument`), driven by the functional
//!    conformance suite (`procheck-conformance`), and the resulting
//!    information-rich log is dissected into an FSM by Algorithm 1
//!    (`procheck-extractor`).
//! 2. **Model checking** — the UE and MME FSMs are composed with two
//!    unidirectional channels and a Dolev–Yao adversary
//!    (`procheck-threat`); properties (`procheck-props`) are checked by
//!    the explicit-state engine (`procheck-smv`), and every
//!    counterexample's adversarial steps are validated by the
//!    cryptographic verifier (`procheck-cpv`) in a CEGAR loop
//!    ([`cegar`]): infeasible steps refine the model, feasible
//!    counterexamples are confirmed end-to-end on the simulated testbed
//!    (`procheck-testbed`).
//!
//! The [`pipeline`] module wires it all together; [`lteinspector`]
//! provides the hand-built baseline models for the paper's RQ2
//! (refinement) and RQ3 (scalability) experiments.
//!
//! # Example
//!
//! ```no_run
//! use procheck::pipeline::{analyze_implementation, AnalysisConfig};
//! use procheck_stack::quirks::Implementation;
//!
//! let report = analyze_implementation(Implementation::Srs, &AnalysisConfig::default());
//! for finding in report.findings() {
//!     println!("{}: {}", finding.property_id, finding.summary);
//! }
//! ```

pub mod cache;
pub mod cegar;
pub mod confirm;
pub mod lteinspector;
pub mod pipeline;
pub mod report;
pub mod store;
pub mod telemetry_report;

pub use cache::{CacheStats, ThreatModelCache};
pub use cegar::{cegar_check, CegarOutcome, FinalVerdict};
pub use confirm::{testbed_confirm, Confirmation};
pub use pipeline::{
    analyze_extracted, analyze_implementation, extract_models, AnalysisConfig, AnalysisReport,
};
pub use report::{Finding, PropertyOutcome, PropertyResult};
pub use store::RunStore;
