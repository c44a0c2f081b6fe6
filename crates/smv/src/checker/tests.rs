use super::explore::PackedKeyHasher;
use super::query::{eval_nodes, scan_graph};
use super::*;
use crate::budget::BudgetExceeded;
use crate::model::GuardedCmd;
use crate::reach::{ReachGraph, STUTTER_CMD};
use crate::trace::{Counterexample, TraceStep};
use procheck_ident::{CmdId, CmdIdSet, Sym};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

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
    stalled.add_command(GuardedCmd::new("request", Expr::var_eq("st", "idle")).set("st", "req"));
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

/// Where each breadth-first search stops, on the 4096-state lattice:
/// the explorer, a lazy graph resumed under two meters, two graph
/// searches (an invariant under a CEGAR mask, and a precedence) and
/// the response product. Each trips a run-wide state cap and a state
/// limit mid-search with the exact error and partial stats, and a
/// capped meter that never trips is charged exactly the states the
/// search interned.
#[test]
fn bfs_stops_pin_errors_and_partial_stats() {
    use crate::budget::Budget;
    use crate::lazy::LazyGraph;
    use crate::CheckBackend;
    let m = lattice();
    let c = CompiledModel::new(&m).expect("valid");
    let capped = |n: u64| Budget::unlimited().with_total_states(n).start();
    let unlimited = BudgetMeter::unlimited();
    let cap = |limit| CheckError::Budget(BudgetExceeded::TotalStates { limit });
    let check = |states, transitions, peak_queue| CheckStats {
        states,
        transitions,
        peak_queue,
    };

    let explore = |limit: usize, meter: &BudgetMeter| {
        let mut stats = CheckStats::default();
        let built = build_reach_graph_budgeted(&c, limit, meter, &mut stats, 1);
        (built.map(|g| g.node_count()), stats)
    };
    assert_eq!(
        explore(1_000_000, &capped(2000)),
        (Err(cap(2000)), check(2972, 15060, 988))
    );
    assert_eq!(
        explore(1500, &unlimited),
        (Err(CheckError::StateLimit(1500)), check(1502, 5920, 811))
    );
    let meter = capped(1_000_000);
    assert_eq!(
        explore(1_000_000, &meter),
        (Ok(4096), check(4096, 24577, 988))
    );
    assert_eq!(meter.total_charged(), 4096);

    // A lazy graph keeps its charged-states watermark across calls
    // made under different meters: the scan's meter pays for the
    // prefix it interned, the completing meter for the rest.
    let lazy = LazyGraph::new(&c, 1_000_000).expect("fits");
    let (first, rest) = (capped(1_000_000), capped(1_000_000));
    let p = c
        .compile_property(&Property::invariant("b0", Expr::var_eq("b0", "0")))
        .expect("valid");
    let mut q = QueryStats::default();
    lazy.answer(&c, &p, &c.exclusion_set(), 1_000_000, &first, &mut q)
        .expect("violated by the first successor");
    lazy.complete(&rest).expect("fits");
    assert_eq!((first.total_charged(), rest.total_charged()), (13, 4083));

    let g = graph(&m, 1_000_000, &mut CheckStats::default()).expect("fits");
    let all_set = |n: usize| Expr::and((0..n).map(|i| Expr::var_eq(format!("b{i}"), "1")));
    let mut no_set11 = c.exclusion_set();
    for id in c.commands_labeled(Sym::intern("set11")) {
        no_set11.insert(id);
    }
    let ask = |p: &Property, mask: &CmdIdSet, limit: usize, meter: &BudgetMeter| {
        let cp = c.compile_property(p).expect("valid");
        let mut q = QueryStats::default();
        let verdict = check_on_graph(&c, &g, &cp, mask, limit, meter, &mut q);
        (verdict.map(|v| v.trace().map(|ce| ce.steps.len())), q)
    };
    let query = |states, transitions, peak_queue| QueryStats {
        nodes_reused: states,
        product_states: states,
        transitions,
        peak_queue,
    };
    // (query, mask, state cap, its partial stats, state limit, its
    // partial stats, the trace length and full stats of an answer)
    let cases = [
        (
            Property::invariant("not_b0_to_b10", Expr::not(all_set(11))),
            &no_set11,
            1000,
            query(1486, 7018, 526),
            1200,
            query(1201, 4924, 526),
            (Some(12), query(2048, 11254, 526)),
        ),
        (
            Property::precedence("all_set", all_set(12), Expr::False),
            &c.exclusion_set(),
            2000,
            query(2972, 15060, 988),
            1500,
            query(1502, 5920, 811),
            (Some(13), query(4096, 24565, 988)),
        ),
        (
            Property::response("b0_set", Expr::var_eq("b0", "1"), Expr::False),
            &c.exclusion_set(),
            2000,
            query(2972, 15060, 988),
            1500,
            query(1502, 5920, 811),
            (Some(14), query(4096, 24577, 988)),
        ),
    ];
    for (p, mask, total, at_cap, limit, at_limit, answer) in cases {
        let name = p.name().to_string();
        assert_eq!(
            ask(&p, mask, 1_000_000, &capped(total)),
            (Err(cap(total)), at_cap),
            "{name} at the state cap"
        );
        assert_eq!(
            ask(&p, mask, limit, &unlimited),
            (Err(CheckError::StateLimit(limit)), at_limit),
            "{name} at the state limit"
        );
        let meter = capped(1_000_000);
        let (verdict, stats) = ask(&p, mask, 1_000_000, &meter);
        assert_eq!((verdict.expect(&name), stats), answer, "{name}");
        assert_eq!(meter.total_charged(), stats.product_states, "{name}");
    }
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
            if cmd != STUTTER_CMD && excluded.is_some_and(|m| m.contains(CmdId::new(cmd as usize)))
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
            let fairness: Vec<Vec<bool>> = c.fairness.iter().map(|f| eval_nodes(g, f)).collect();
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
