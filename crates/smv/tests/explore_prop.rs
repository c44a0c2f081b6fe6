//! Property-based checks of the explorer on random small models: every
//! node's successors are exactly the commands whose guard holds there,
//! the graph survives a round trip through its stored image, and a
//! lazily explored graph answers every query exactly as the eagerly
//! built one does.

use procheck_ident::CmdId;
use procheck_smv::checker::{
    build_reach_graph_budgeted, CheckError, CheckStats, CompiledModel, Property, QueryStats,
};
use procheck_smv::expr::Expr;
use procheck_smv::model::{GuardedCmd, Model};
use procheck_smv::reach::STUTTER_CMD;
use procheck_smv::{BudgetMeter, CheckBackend, ExplicitBackend, LazyGraph, ReachGraph};
use proptest::prelude::*;

const DOMAIN: [&str; 3] = ["v0", "v1", "v2"];

fn arb_model() -> impl Strategy<Value = Model> {
    let n_vars = 2usize..5;
    let cmds = proptest::collection::vec(
        (
            0usize..5, // guard var
            0usize..3, // guard value
            0usize..5, // update var
            0usize..3, // update value
        ),
        1..12,
    );
    (n_vars, cmds).prop_map(|(vars, cmds)| {
        let mut model = Model::new("random");
        for i in 0..vars {
            model.declare_var(&format!("x{i}"), &DOMAIN, &[DOMAIN[0]]);
        }
        for (i, (gv, gx, uv, ux)) in cmds.into_iter().enumerate() {
            let gv = gv % vars;
            let uv = uv % vars;
            model.add_command(
                GuardedCmd::new(format!("c{i}"), Expr::var_eq(format!("x{gv}"), DOMAIN[gx]))
                    .set(format!("x{uv}"), DOMAIN[ux]),
            );
        }
        model
    })
}

fn build(c: &CompiledModel) -> ReachGraph {
    build_reach_graph_budgeted(
        c,
        100_000,
        &BudgetMeter::unlimited(),
        &mut CheckStats::default(),
        1,
    )
    .expect("random 3^4 models are far below the limit")
}

/// Asserts that the successors of every node are exactly the commands
/// whose compiled guard holds on the node's state, in ascending order,
/// each leading to the updated state, and that the stutter appears only
/// when no guard holds.
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

/// Everything a finished graph holds, read through its public view:
/// states, BFS parents and successors per node, then the initial-state
/// count, the level bookkeeping and the build stats.
type GraphImage = (
    Vec<(Vec<u16>, Option<(u32, u32)>, Vec<(u32, u32)>)>,
    (u32, u32, u64),
    CheckStats,
);

fn image(g: &ReachGraph) -> GraphImage {
    let nodes = (0..g.node_count() as u32)
        .map(|id| {
            (
                g.state_of(id),
                g.parent_edge(id),
                g.successors(id).collect(),
            )
        })
        .collect();
    (
        nodes,
        (g.init_count(), g.levels(), g.peak_level()),
        g.build_stats(),
    )
}

/// One random query: its kind (invariant, reachability, precedence,
/// response), two `x{var} = v{value}` atoms, and an exclusion mask that
/// is empty when `masked` is false (the lazy scans only run unmasked).
/// Invariants and goals take the disjunction of the atoms, so one BFS
/// pop can intern several matching nodes and only the first may answer.
type Query = (u8, (usize, usize), (usize, usize), u64, bool);

fn arb_query() -> impl Strategy<Value = Query> {
    (
        0u8..4,
        (0usize..5, 0usize..3),
        (0usize..5, 0usize..3),
        any::<u64>(),
        any::<bool>(),
    )
}

/// The query's property over `c`'s variables.
fn property(c: &CompiledModel, (kind, a, b, _, _): &Query) -> Property {
    let atom = |(var, value): (usize, usize)| {
        Expr::var_eq(format!("x{}", var % c.num_vars()), DOMAIN[value])
    };
    match kind {
        0 => Property::invariant("inv", Expr::not(Expr::or([atom(*a), atom(*b)]))),
        1 => Property::reachable("goal", Expr::or([atom(*a), atom(*b)])),
        2 => Property::precedence("prec", atom(*a), atom(*b)),
        _ => Property::response("resp", atom(*a), atom(*b)),
    }
}

/// A goal that holds in exactly one state: `state`.
fn exactly(state: &[u16]) -> Expr {
    Expr::and(
        state
            .iter()
            .enumerate()
            .map(|(var, &value)| Expr::var_eq(format!("x{var}"), DOMAIN[value as usize])),
    )
}

proptest! {
    // A case where one pop interns two matching nodes is rare, and only
    // such a case tells the first match from a later one: 512 cases
    // reach it where 48 do not.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random queries, with random exclusion masks and in random order,
    /// against one lazy graph: every answer and every query stat equals
    /// the eager backend's over the fully built graph, and the lazy graph
    /// run to the end is that graph, node for node.
    #[test]
    fn lazy_graph_answers_like_the_built_graph(
        model in arb_model(),
        queries in proptest::collection::vec(arb_query(), 1..10),
    ) {
        let c = CompiledModel::new(&model).expect("generated models are valid");
        let graph = build(&c);
        let eager = ExplicitBackend { graph: &graph };
        let lazy = LazyGraph::new(&c, 100_000).expect("fits");
        let meter = BudgetMeter::unlimited();
        for query in &queries {
            let cp = c.compile_property(&property(&c, query)).expect("in-vocabulary");
            let mut mask = c.exclusion_set();
            if query.4 {
                for i in (0..c.command_count()).filter(|i| query.3 >> (i % 64) & 1 == 1) {
                    mask.insert(CmdId::new(i));
                }
            }
            let (mut want_stats, mut got_stats) = (QueryStats::default(), QueryStats::default());
            let want = eager.answer(&c, &cp, &mask, 100_000, &meter, &mut want_stats);
            let got = lazy.answer(&c, &cp, &mask, 100_000, &meter, &mut got_stats);
            prop_assert_eq!(got, want, "{:?}", query);
            prop_assert_eq!(got_stats, want_stats, "{:?}", query);
        }
        let complete = lazy.complete(&meter).expect("fits");
        prop_assert!(lazy.extent().complete);
        prop_assert_eq!(lazy.extent().stats, graph.build_stats());
        prop_assert_eq!(image(&complete), image(&graph));
    }

    /// A lazy graph whose BFS trips the state limit keeps its explored
    /// prefix: a scan whose match lies in the prefix answers exactly as
    /// over the full graph, even after the failure, and a scan whose
    /// match lies beyond it gets the kept error.
    #[test]
    fn failed_lazy_graph_answers_scans_in_its_prefix(
        model in arb_model(),
        limit_seed in any::<usize>(),
    ) {
        let c = CompiledModel::new(&model).expect("generated models are valid");
        let graph = build(&c);
        prop_assume!(graph.node_count() > 1);
        let limit = 1 + limit_seed % (graph.node_count() - 1);
        let lazy = LazyGraph::new(&c, limit).expect("fits");
        let meter = BudgetMeter::unlimited();
        prop_assert_eq!(
            lazy.complete(&meter).map(|_| ()),
            Err(CheckError::StateLimit(limit))
        );
        let prefix = lazy.extent().stats.states as usize;
        prop_assert!(prefix > limit && prefix <= graph.node_count());
        for id in 0..graph.node_count() as u32 {
            let goal = Property::reachable("node", exactly(&graph.state_of(id)));
            let cp = c.compile_property(&goal).expect("in-vocabulary");
            let none = c.exclusion_set();
            let mut stats = QueryStats::default();
            let got = lazy.answer(&c, &cp, &none, limit, &meter, &mut stats);
            if (id as usize) < prefix {
                let want = ExplicitBackend { graph: &graph }
                    .answer(&c, &cp, &none, limit, &meter, &mut QueryStats::default());
                prop_assert_eq!(got, want, "node {}", id);
                prop_assert_eq!(stats.nodes_reused, u64::from(id) + 1);
            } else {
                prop_assert_eq!(got, Err(CheckError::StateLimit(limit)), "node {}", id);
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The graph's successors are the guard-enabled commands, and it
    /// loads back from its stored image unchanged.
    #[test]
    fn graph_matches_guards_and_round_trips(model in arb_model()) {
        let c = CompiledModel::new(&model).expect("generated models are valid");
        let graph = build(&c);
        assert_successors_match_guards(&c, &graph);
        let data = graph.to_data();
        let restored = ReachGraph::from_data(&c, &data).expect("an explored graph loads");
        prop_assert_eq!(restored.to_data(), data);
    }
}
