//! Property-based equivalence of parallel and serial exploration: for
//! random small models, the level-synchronized multi-worker frontier
//! must produce the *same* [`ReachGraph`] as the serial implicit-queue
//! BFS — same state arena (node ids and their states), same CSR
//! successor layout, same BFS parents, same predecessor lists, same
//! build stats. Not "isomorphic": identical, node id by node id.
//!
//! The serial graph is itself checked against the model: every node's
//! successors are the commands whose guard holds there, and the graph
//! survives a round trip through its stored image.

use procheck_smv::checker::{build_reach_graph_budgeted, CheckStats, CompiledModel};
use procheck_smv::expr::Expr;
use procheck_smv::model::{GuardedCmd, Model};
use procheck_smv::reach::STUTTER_CMD;
use procheck_smv::{BudgetMeter, ReachGraph};
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

fn build(c: &CompiledModel, explore_threads: usize) -> (ReachGraph, CheckStats) {
    let mut stats = CheckStats::default();
    let g = build_reach_graph_budgeted(
        c,
        100_000,
        &BudgetMeter::unlimited(),
        &mut stats,
        explore_threads,
    )
    .expect("random 3^4 models are far below the limit");
    (g, stats)
}

/// Asserts graph identity down to node ids — arena contents, CSR edges,
/// parents, predecessors, and exploration stats.
fn assert_identical(serial: &ReachGraph, parallel: &ReachGraph, width: usize) {
    assert_eq!(serial.node_count(), parallel.node_count(), "width={width}");
    assert_eq!(serial.edge_count(), parallel.edge_count(), "width={width}");
    assert_eq!(serial.init_count(), parallel.init_count(), "width={width}");
    assert_eq!(serial.is_packed(), parallel.is_packed(), "width={width}");
    assert_eq!(serial.levels(), parallel.levels(), "width={width}");
    assert_eq!(serial.peak_level(), parallel.peak_level(), "width={width}");
    assert_eq!(
        serial.build_stats(),
        parallel.build_stats(),
        "width={width}"
    );
    for id in 0..serial.node_count() as u32 {
        assert_eq!(
            serial.state_of(id),
            parallel.state_of(id),
            "arena diverges at node {id}, width={width}"
        );
        assert_eq!(
            serial.parent_edge(id),
            parallel.parent_edge(id),
            "BFS parent diverges at node {id}, width={width}"
        );
        let s: Vec<(u32, u32)> = serial.successors(id).collect();
        let p: Vec<(u32, u32)> = parallel.successors(id).collect();
        assert_eq!(s, p, "CSR successors diverge at node {id}, width={width}");
        assert_eq!(
            serial.predecessors(id),
            parallel.predecessors(id),
            "predecessors diverge at node {id}, width={width}"
        );
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole contract on random models: every worker count yields
    /// the serial graph, bit for bit. The serial graph's successors are
    /// the guard-enabled commands, and it loads back from its stored
    /// image unchanged.
    #[test]
    fn parallel_graph_equals_serial_graph(model in arb_model()) {
        let c = CompiledModel::new(&model).expect("generated models are valid");
        let (serial, serial_stats) = build(&c, 1);
        assert_successors_match_guards(&c, &serial);
        let data = serial.to_data();
        let restored = ReachGraph::from_data(&c, &data).expect("an explored graph loads");
        prop_assert_eq!(restored.to_data(), data);
        for width in [2usize, 3, 4, 8] {
            let (parallel, parallel_stats) = build(&c, width);
            prop_assert_eq!(&serial_stats, &parallel_stats, "stats diverge at width {}", width);
            assert_identical(&serial, &parallel, width);
        }
    }
}
