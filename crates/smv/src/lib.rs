//! Finite-domain model-checking substrate (the paper's nuXmv role, §VI).
//!
//! ProChecker feeds its threat-instrumented model `IMP^μ` to a
//! general-purpose symbolic model checker and asks for counterexamples to
//! safety and liveness properties. This crate is that checker, built from
//! scratch for the reproduction:
//!
//! * [`model`] — models as *guarded commands* over variables with
//!   symbolic enum domains (the shape the paper's model generator emits
//!   as SMV);
//! * [`expr`] — the boolean expression language over those variables;
//! * [`checker`] — an explicit-state engine split into an explore phase
//!   (one interned-state BFS per model, producing a cached
//!   [`reach::ReachGraph`]) and an evaluate phase (invariants,
//!   reachability, precedence, and product-monitor + SCC response
//!   checks under optional fairness constraints, all answered as
//!   queries over that graph);
//! * [`reach`] — the cached reachable-state graph itself: packed state
//!   arena, CSR successor adjacency, BFS parent pointers;
//! * [`lazy`] — the same graph explored on demand: an invariant or
//!   reachability query stops the BFS at its first matching state, and
//!   every other query runs it to the end first;
//! * [`coi`] — per-property cone-of-influence slicing: project a
//!   compiled model onto the variables a property can observe before
//!   exploring, and re-expand any counterexample to full-variable form
//!   at the report edge;
//! * [`trace`] — counterexample traces (finite paths for safety, lassos
//!   for liveness) with per-step command labels, consumable by the
//!   CEGAR loop's cryptographic feasibility check;
//! * [`smvformat`] — SMV-syntax emission, reproducing the paper's "model
//!   generator … outputs a SMV description".
//!
//! Explicit-state search is exact and fast at this problem's scale
//! (threat-composed NAS models stay well below a million reachable
//! states); see DESIGN.md §5.
//!
//! # Example
//!
//! ```
//! use procheck_smv::model::{Model, GuardedCmd};
//! use procheck_smv::expr::Expr;
//! use procheck_smv::checker::{check_bounded, CheckStats, Property, Verdict, DEFAULT_STATE_LIMIT};
//!
//! let mut m = Model::new("toggle");
//! m.declare_var("light", &["off", "on"], &["off"]);
//! m.add_command(GuardedCmd::new("switch_on", Expr::var_eq("light", "off"))
//!     .set("light", "on"));
//! m.add_command(GuardedCmd::new("switch_off", Expr::var_eq("light", "on"))
//!     .set("light", "off"));
//!
//! // "the light is never stuck": on is reachable
//! let can_turn_on = Property::reachable("can_turn_on", Expr::var_eq("light", "on"));
//! let mut stats = CheckStats::default();
//! let verdict = check_bounded(&m, &can_turn_on, DEFAULT_STATE_LIMIT, &mut stats)
//!     .expect("valid model");
//! assert!(matches!(verdict, Verdict::Reachable(_)));
//! ```

pub mod backend;
pub mod budget;
pub mod checker;
pub mod coi;
pub mod expr;
pub mod fxhash;
pub mod lazy;
pub mod model;
pub mod persist;
pub mod reach;
pub mod smvformat;
pub mod trace;

pub use backend::{BackendVerdict, CheckBackend, ExplicitBackend};
pub use budget::{Budget, BudgetExceeded, BudgetMeter};
pub use checker::{CompiledModel, CompiledProperty, Property, Verdict};
pub use coi::{expand_counterexample, slice_for_property, ConeSig, SlicedModel};
pub use expr::Expr;
pub use lazy::{GraphExtent, LazyGraph};
pub use model::{GuardedCmd, Model};
pub use persist::{model_fingerprint, model_semantic_fingerprint, ReachGraphData};
pub use reach::ReachGraph;
pub use trace::Counterexample;
