//! [`CheckBackend`] implementation over the BMC engine.
//!
//! The backend owns the bound `k` and a telemetry handle; each `answer`
//! call encodes, solves, replay-validates, and records `backend.*`
//! solver counters. Per the crate contract, a SAT answer only becomes a
//! verdict after [`crate::replay`] confirms the decoded path on the
//! source model, and an UNSAT answer is always the weaker
//! [`BackendVerdict::BoundReached`] — never a proof.

use crate::encode::{bmc_check, BmcAnswer};
use crate::replay::validate_and_render;
use crate::solver::SolverStats;
use procheck_ident::CmdIdSet;
use procheck_smv::budget::BudgetMeter;
use procheck_smv::checker::{
    CProp, CheckError, CompiledModel, CompiledProperty, QueryStats, Verdict,
};
use procheck_smv::{BackendVerdict, CheckBackend};
use procheck_telemetry::Collector;

/// Bounded-model-checking backend: bit-blasts the compiled model into
/// CNF and solves with the in-repo CDCL solver, for paths of length up
/// to `bound` transitions.
pub struct BmcBackend {
    /// Maximum number of transitions in any considered path.
    pub bound: usize,
    /// Telemetry sink for `backend.*` solver counters.
    pub collector: Collector,
}

impl BmcBackend {
    /// A backend with the given bound and a disabled telemetry handle.
    pub fn new(bound: usize) -> Self {
        BmcBackend {
            bound,
            collector: Collector::disabled(),
        }
    }

    /// A backend recording solver counters on `collector`.
    pub fn with_collector(bound: usize, collector: Collector) -> Self {
        BmcBackend { bound, collector }
    }

    fn record(&self, stats: &SolverStats, bound_reached: bool) {
        self.collector.add("backend.clauses", stats.clauses);
        self.collector.add("backend.decisions", stats.decisions);
        self.collector
            .add("backend.propagations", stats.propagations);
        self.collector.add("backend.conflicts", stats.conflicts);
        self.collector.add("backend.restarts", stats.restarts);
        self.collector.add("backend.learned", stats.learned);
        if bound_reached {
            self.collector.add("backend.bound_reached", 1);
        }
    }
}

impl CheckBackend for BmcBackend {
    fn name(&self) -> &'static str {
        "bmc"
    }

    fn answer(
        &self,
        model: &CompiledModel,
        property: &CompiledProperty,
        excluded: &CmdIdSet,
        _limit: usize,
        meter: &BudgetMeter,
        stats: &mut QueryStats,
    ) -> Result<BackendVerdict, CheckError> {
        let mut solver_stats = SolverStats::default();
        let answer = bmc_check(
            model,
            property,
            excluded,
            self.bound,
            meter,
            &mut solver_stats,
        );
        // Decisions stand in for interned states in the shared query
        // accounting: both count "search work the engine performed".
        stats.product_states += solver_stats.decisions;
        stats.transitions += solver_stats.propagations;
        match answer {
            Ok(BmcAnswer::Violation(path)) => {
                self.record(&solver_stats, false);
                let ce = validate_and_render(model, property, excluded, &path)?;
                let verdict = match property.kind() {
                    CProp::Reachable { .. } => Verdict::Reachable(ce),
                    _ => Verdict::Violated(ce),
                };
                Ok(BackendVerdict::Definite(verdict))
            }
            Ok(BmcAnswer::BoundReached(k)) => {
                self.record(&solver_stats, true);
                Ok(BackendVerdict::BoundReached(k))
            }
            Err(e) => {
                self.record(&solver_stats, false);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procheck_smv::checker::{build_reach_graph_budgeted, CheckStats, Property};
    use procheck_smv::{Expr, GuardedCmd, Model};

    /// The explicit engine rejects a model whose state needs 66 bits; the
    /// bounded engine encodes each variable separately and still checks
    /// it. A reachability goal and a violated invariant come back as
    /// replay-validated traces, and an invariant that holds reaches the
    /// bound.
    #[test]
    fn models_over_64_bits_are_checked_symbolically() {
        let mut m = Model::new("wide");
        let domain: Vec<String> = (0..64).map(|i| format!("v{i}")).collect();
        let domain_refs: Vec<&str> = domain.iter().map(String::as_str).collect();
        for i in 0..11 {
            m.declare_var(&format!("x{i}"), &domain_refs, &["v0"]);
        }
        m.add_command(GuardedCmd::new("step", Expr::var_eq("x0", "v0")).set("x0", "v1"));
        let c = CompiledModel::new(&m).expect("valid");
        let meter = BudgetMeter::unlimited();
        let explicit = build_reach_graph_budgeted(&c, 1000, &meter, &mut CheckStats::default(), 1);
        assert!(matches!(explicit, Err(CheckError::InvalidModel(_))));

        let backend = BmcBackend::new(4);
        let ask = |p: &Property| {
            let cp = c.compile_property(p).expect("valid property");
            backend
                .answer(
                    &c,
                    &cp,
                    &c.exclusion_set(),
                    1000,
                    &meter,
                    &mut QueryStats::default(),
                )
                .expect("replay-validated")
        };
        let reach = ask(&Property::reachable("moved", Expr::var_eq("x0", "v1")));
        let BackendVerdict::Definite(Verdict::Reachable(ce)) = &reach else {
            panic!("{reach:?}")
        };
        assert_eq!(ce.command_labels(), vec!["step"]);
        assert_eq!(ce.final_value("x0"), Some("v1"));
        assert_eq!(ce.steps[0].state.len(), 11, "every variable in every step");
        let inv = ask(&Property::invariant("still", Expr::var_eq("x0", "v0")));
        assert_eq!(inv, BackendVerdict::Definite(Verdict::Violated(ce.clone())));
        let held = ask(&Property::invariant("fixed", Expr::var_eq("x1", "v0")));
        assert_eq!(held, BackendVerdict::BoundReached(4));
    }
}
