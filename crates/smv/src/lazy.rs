//! Reachability graphs explored only as far as their queries need.
//!
//! An invariant's counterexample is its first violating state in BFS
//! order, and a reachability goal's witness its first goal state: a scan
//! of a fully explored [`ReachGraph`] returns the lowest matching node id
//! and the path its BFS parents spell. Node ids are interning order, so a
//! BFS that stops as soon as that node is interned finds the same node
//! with the same path. A [`LazyGraph`] is that BFS, kept resumable
//! between queries:
//!
//! * an invariant or reachability query with no CEGAR exclusion mask
//!   scans the interned prefix from id 0, then extends the BFS and
//!   checks each newly interned node, stopping after the pop that
//!   interns the first match. If the BFS ends without one, the graph is
//!   sealed and the query answers `Holds` or `Unreachable`;
//! * every other query (precedence, response, and any re-query under an
//!   exclusion mask) runs the BFS to the end first and is answered by
//!   [`ExplicitBackend`] over the finished graph.
//!
//! So verdicts, traces and query stats equal those of the same query over
//! an eagerly built graph; only the exploration a run pays for shrinks.
//! A graph run to the end is node for node and edge for edge the graph
//! [`build_reach_graph_budgeted`](crate::checker::build_reach_graph_budgeted)
//! returns.
//!
//! A state limit, a budget trip or a panic while extending stops the BFS
//! for good and is kept on the graph with its partial stats. The explored
//! prefix stays: a later scan whose match lies in it still answers, and
//! every query that needs more gets the kept error. A property's outcome
//! therefore depends only on where its match lies, never on which query
//! reached the graph first. A panic is caught inside the graph, so its
//! lock is never poisoned.
//!
//! A model whose state needs more than 64 bits gets no graph:
//! [`LazyGraph::new`] returns the width error the packed explorer
//! rejects it with.

use crate::backend::{BackendVerdict, CheckBackend, ExplicitBackend};
use crate::budget::{panic_message, BudgetMeter};
use crate::checker::{
    lower_guard, CExpr, CProp, CheckError, CheckStats, CompiledModel, CompiledProperty,
    PackedExplorer, QueryStats, Verdict,
};
use crate::reach::ReachGraph;
use crate::trace::Counterexample;
use procheck_ident::CmdIdSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A reachability graph explored on demand; see the module docs. Shared
/// behind an `Arc` by every property keyed to the same model, and safe
/// to query from several threads: queries on one graph take turns
/// extending it.
pub struct LazyGraph {
    slot: Mutex<Slot>,
}

/// How far a [`LazyGraph`] has been explored, and what that cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphExtent {
    /// States interned, transitions generated and the peak BFS frontier.
    pub stats: CheckStats,
    /// BFS levels entered.
    pub levels: u32,
    /// Widest BFS level entered.
    pub peak_level: u64,
    /// True once the BFS has run to the end.
    pub complete: bool,
    /// Wall-clock time queries spent exploring the graph, lazy scans
    /// included.
    pub elapsed: Duration,
}

struct Slot {
    explored: Explored,
    /// Why the BFS stopped short, once an extension failed.
    failure: Option<CheckError>,
    elapsed: Duration,
}

enum Explored {
    /// A BFS that has not ended: paused, or stopped by the slot's
    /// failure.
    Partial(Box<PackedExplorer>),
    /// Explored to the end.
    Complete(Arc<ReachGraph>),
}

/// What a lazy scan found.
enum Scan {
    /// The first matching node's BFS path.
    Hit(Counterexample),
    /// The BFS ended and no node matches.
    Miss,
    /// The graph is finished: query it.
    Graph(Arc<ReachGraph>),
}

impl LazyGraph {
    /// A graph of `model` with only its initial states interned. The BFS
    /// fails with [`CheckError::StateLimit`] past `limit` states.
    ///
    /// # Errors
    ///
    /// [`CheckError::InvalidModel`] when a state of `model` needs more
    /// than 64 bits; the message names the total and every variable's
    /// width.
    pub fn new(model: &CompiledModel, limit: usize) -> Result<Self, CheckError> {
        let explorer = PackedExplorer::new(model, limit)?;
        Ok(LazyGraph {
            slot: Mutex::new(Slot {
                explored: Explored::Partial(Box::new(explorer)),
                failure: None,
                elapsed: Duration::ZERO,
            }),
        })
    }

    /// Runs the BFS to the end, if it has not ended, and returns the
    /// finished graph; `meter` is charged for the states the BFS interns.
    ///
    /// # Errors
    ///
    /// The error the BFS stopped with, now or earlier:
    /// [`CheckError::StateLimit`], [`CheckError::Budget`] or an isolated
    /// [`CheckError::Panic`].
    pub fn complete(&self, meter: &BudgetMeter) -> Result<Arc<ReachGraph>, CheckError> {
        self.locked(|slot| slot.complete(meter))
    }

    /// How far the graph has been explored so far.
    pub fn extent(&self) -> GraphExtent {
        let slot = self
            .slot
            .lock()
            .expect("a lazy graph's lock is never poisoned");
        let (stats, (levels, peak_level), complete) = match &slot.explored {
            Explored::Partial(explorer) => (explorer.stats(), explorer.levels(), false),
            Explored::Complete(graph) => (
                graph.build_stats(),
                (graph.levels(), graph.peak_level()),
                true,
            ),
        };
        GraphExtent {
            stats,
            levels,
            peak_level,
            complete,
            elapsed: slot.elapsed,
        }
    }

    /// Runs `f` on the locked slot. A panic inside `f` is caught before
    /// the lock is released, kept as the slot's failure and returned.
    fn locked<T>(
        &self,
        f: impl FnOnce(&mut Slot) -> Result<T, CheckError>,
    ) -> Result<T, CheckError> {
        let mut slot = self
            .slot
            .lock()
            .expect("a lazy graph's lock is never poisoned");
        match catch_unwind(AssertUnwindSafe(|| f(&mut slot))) {
            Ok(result) => result,
            Err(payload) => {
                let e = CheckError::Panic(panic_message(payload));
                slot.failure = Some(e.clone());
                Err(e)
            }
        }
    }
}

impl Slot {
    fn complete(&mut self, meter: &BudgetMeter) -> Result<Arc<ReachGraph>, CheckError> {
        let explorer = match &mut self.explored {
            Explored::Complete(graph) => return Ok(Arc::clone(graph)),
            Explored::Partial(explorer) => explorer,
        };
        if let Some(e) = &self.failure {
            return Err(e.clone());
        }
        let start = Instant::now();
        let ended = explorer.advance(meter, |_| false);
        self.elapsed += start.elapsed();
        match ended {
            Ok(_) => Ok(self.seal(meter)),
            Err(e) => {
                self.failure = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Finds the first node where `e` evaluates to `bad`, extending the
    /// BFS only until one is interned. `nodes_reused` counts the nodes
    /// consulted, as a scan of the finished graph counts them.
    fn scan(
        &mut self,
        model: &CompiledModel,
        e: &CExpr,
        bad: bool,
        meter: &BudgetMeter,
        stats: &mut QueryStats,
    ) -> Result<Scan, CheckError> {
        let Explored::Partial(explorer) = &mut self.explored else {
            unreachable!("only a partial graph is scanned lazily")
        };
        let start = Instant::now();
        let guard = lower_guard(e, explorer.layout());
        let matches = |key: u64| guard.eval(key) == bad;
        let in_prefix = explorer.keys().iter().position(|&key| matches(key));
        let hit = match (in_prefix, &self.failure) {
            (Some(hit), _) => Ok(Some(hit as u32)),
            (None, Some(e)) => Err(e.clone()),
            (None, None) => explorer.advance(meter, matches),
        };
        self.elapsed += start.elapsed();
        match hit {
            Ok(Some(hit)) => {
                if self.failure.is_none() {
                    explorer.charge_tail(meter);
                }
                stats.nodes_reused += u64::from(hit) + 1;
                Ok(Scan::Hit(Counterexample {
                    steps: explorer.path_to(model, hit),
                    lasso_start: None,
                }))
            }
            Ok(None) => {
                stats.nodes_reused += explorer.len() as u64;
                self.seal(meter);
                Ok(Scan::Miss)
            }
            Err(e) => {
                self.failure = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Stores the graph of the ended BFS, whose last states are charged
    /// to `meter`.
    fn seal(&mut self, meter: &BudgetMeter) -> Arc<ReachGraph> {
        let graph = match &mut self.explored {
            Explored::Partial(explorer) => {
                explorer.charge_tail(meter);
                Arc::new(explorer.finish())
            }
            Explored::Complete(graph) => Arc::clone(graph),
        };
        self.explored = Explored::Complete(Arc::clone(&graph));
        graph
    }
}

impl CheckBackend for LazyGraph {
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
        let lazy = match property.kind() {
            CProp::Invariant { holds } if excluded.is_empty() => Some((holds, false)),
            CProp::Reachable { goal } if excluded.is_empty() => Some((goal, true)),
            _ => None,
        };
        let found = self.locked(|slot| match lazy {
            Some((e, bad)) if matches!(slot.explored, Explored::Partial(_)) => {
                slot.scan(model, e, bad, meter, stats)
            }
            _ => slot.complete(meter).map(Scan::Graph),
        })?;
        let reachability = matches!(property.kind(), CProp::Reachable { .. });
        let verdict = match found {
            Scan::Graph(graph) => {
                return ExplicitBackend { graph: &graph }
                    .answer(model, property, excluded, limit, meter, stats)
            }
            Scan::Hit(ce) if reachability => Verdict::Reachable(ce),
            Scan::Hit(ce) => Verdict::Violated(ce),
            Scan::Miss if reachability => Verdict::Unreachable,
            Scan::Miss => Verdict::Holds,
        };
        Ok(BackendVerdict::Definite(verdict))
    }
}

impl fmt::Debug for LazyGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyGraph").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Property;
    use crate::expr::Expr;
    use crate::model::{GuardedCmd, Model};

    /// 12 one-way boolean toggles: 2^12 = 4096 reachable states.
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

    fn ask(lazy: &LazyGraph, c: &CompiledModel, p: &Property) -> Verdict {
        let cp = c.compile_property(p).expect("valid property");
        let meter = BudgetMeter::unlimited();
        let mut stats = QueryStats::default();
        match lazy.answer(c, &cp, &c.exclusion_set(), 1_000_000, &meter, &mut stats) {
            Ok(BackendVerdict::Definite(v)) => v,
            other => panic!("{other:?}"),
        }
    }

    /// An invariant violated by the first successor explores one BFS pop;
    /// a response query then runs the same graph to the end.
    #[test]
    fn invariant_stops_the_bfs_and_response_completes_it() {
        let c = CompiledModel::new(&lattice()).expect("valid");
        let lazy = LazyGraph::new(&c, 1_000_000).expect("fits");
        assert_eq!(lazy.extent().stats.states, 1, "only the initial state");
        let v = ask(
            &lazy,
            &c,
            &Property::invariant("b0", Expr::var_eq("b0", "0")),
        );
        assert!(matches!(v, Verdict::Violated(_)), "{v:?}");
        let partial = lazy.extent();
        assert!(!partial.complete);
        assert_eq!(
            partial.stats.states, 13,
            "the initial state and its 12 successors"
        );
        // Every bit is set eventually: the lattice has no cycle to stall in.
        let v = ask(
            &lazy,
            &c,
            &Property::response("set", Expr::var_eq("b0", "0"), Expr::var_eq("b0", "1")),
        );
        assert_eq!(v, Verdict::Holds);
        let full = lazy.extent();
        assert!(full.complete);
        assert_eq!(full.stats.states, 4096);
        assert_eq!(full.levels, 13);
    }

    /// A model whose state needs more than 64 bits gets no graph: the
    /// constructor returns the width error, the same one an eager build
    /// returns.
    #[test]
    fn models_over_64_bits_get_no_graph() {
        let c = CompiledModel::new(&crate::checker::tests::too_wide()).expect("valid");
        let err = LazyGraph::new(&c, 1000).expect_err("66 bits");
        let CheckError::InvalidModel(problems) = &err else {
            panic!("{err:?}")
        };
        assert!(
            problems[0].starts_with("a state needs 66 bits, over the 64 of a packed key: x0 6,"),
            "{problems:?}"
        );
        let eager = crate::checker::build_reach_graph_budgeted(
            &c,
            1000,
            &BudgetMeter::unlimited(),
            &mut CheckStats::default(),
            1,
        );
        assert_eq!(eager.unwrap_err(), err);
    }
}
