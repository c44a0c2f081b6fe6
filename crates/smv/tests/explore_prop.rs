//! Property-based checks of the explorer on random small models: every
//! node's successors are exactly the commands whose guard holds there,
//! and the graph survives a round trip through its stored image.

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
