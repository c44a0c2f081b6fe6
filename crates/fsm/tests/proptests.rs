//! Property-based tests for the FSM model: DOT round-trips for arbitrary
//! machines, refinement laws, merge algebra, and canonical-text parsing
//! of malformed store baselines.

use procheck_fsm::canon::{canonical_text, parse_canonical};
use procheck_fsm::refinement::{check_refinement, StateMapping};
use procheck_fsm::{dot, Fsm, Transition};
use proptest::prelude::*;

fn arb_fsm() -> impl Strategy<Value = Fsm> {
    let state = "[a-f]";
    let cond = prop_oneof![
        "[m-p]".prop_map(|s| s),
        ("[x-z]", "[01]").prop_map(|(n, v)| format!("{n}={v}")),
    ];
    let action = "[q-s]";
    let transition = (
        state,
        state,
        proptest::collection::btree_set(cond, 1..3),
        action,
    )
        .prop_map(|(from, to, conds, act)| {
            let mut t = Transition::build(from.as_str(), to.as_str()).then(act.as_str());
            for c in conds {
                t = t.when(c.as_str());
            }
            t
        });
    proptest::collection::vec(transition, 1..12).prop_map(|ts| {
        let mut f = Fsm::new("g");
        for t in ts {
            f.add_transition(t);
        }
        f
    })
}

/// A name in canonical text: mostly identifier-like, sometimes blank
/// (empty or whitespace only).
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-c]{1,3}",
        "[a-b] [A-B]",
        "[a-b]=[0-1]",
        Just(String::new()),
        Just("  ".to_string()),
    ]
}

/// One line of canonical text, a whole transition block, or a tag with
/// no separator. The tags are the real ones plus an unknown `X`.
fn arb_line() -> impl Strategy<Value = String> {
    let tag = prop_oneof![
        Just("I"),
        Just("S"),
        Just("C"),
        Just("A"),
        Just("t"),
        Just("<"),
        Just(">"),
        Just("c"),
        Just("a"),
        Just("X"),
    ];
    prop_oneof![
        (tag, arb_name()).prop_map(|(tag, body)| format!("{tag} {body}")),
        (arb_name(), arb_name(), arb_name(), arb_name()).prop_map(|(from, to, cond, act)| {
            format!("t \n< {from}\n> {to}\nc {cond}\na {act}")
        }),
        Just("S".to_string()),
    ]
}

/// Canonical-shaped text: an `F` line (missing one time in four), then
/// lines and blocks that may leave blank names, missing endpoints,
/// unknown tags and unfinished blocks, sometimes cut off mid-line.
fn arb_canonical_text() -> impl Strategy<Value = String> {
    (
        0u8..4,
        arb_name(),
        proptest::collection::vec(arb_line(), 0..10),
        any::<usize>(),
        any::<bool>(),
    )
        .prop_map(|(header, name, lines, cut, truncate)| {
            let mut text = if header > 0 {
                format!("F {name}\n")
            } else {
                String::new()
            };
            for line in lines {
                text.push_str(&line);
                text.push('\n');
            }
            if truncate && !text.is_empty() {
                text.truncate(cut % text.len());
            }
            text
        })
}

proptest! {
    /// A stored baseline's canonical text never panics the parser: it
    /// fails with an error, or it yields a machine whose canonical text
    /// parses back to the same machine.
    #[test]
    fn canonical_text_parses_or_fails_cleanly(text in arb_canonical_text()) {
        if let Ok(fsm) = parse_canonical(&text) {
            let canon = canonical_text(&fsm);
            prop_assert_eq!(parse_canonical(&canon), Ok(fsm), "{:?}", canon);
        }
    }

    /// Graphviz-like serialisation round-trips any FSM.
    #[test]
    fn dot_round_trip(fsm in arb_fsm()) {
        let text = dot::to_dot(&fsm);
        let back = dot::from_dot(&text).expect("own output parses");
        prop_assert_eq!(fsm, back);
    }

    /// Refinement is reflexive under the identity mapping, with every
    /// transition mapping directly.
    #[test]
    fn refinement_reflexive(fsm in arb_fsm()) {
        let report = check_refinement(&fsm, &fsm, &StateMapping::identity());
        prop_assert!(report.refines);
        let (direct, _, _, unmapped) = report.mapping_histogram();
        prop_assert_eq!(direct, fsm.transition_count());
        prop_assert_eq!(unmapped, 0);
    }

    /// A model refines any sub-model obtained by dropping transitions
    /// whose alphabet is still covered (we drop none of the alphabet by
    /// keeping at least one copy of everything: sub-model = full model
    /// minus duplicates — here we simply check subset-of-self via merge).
    #[test]
    fn merge_is_idempotent_and_monotone(a in arb_fsm(), b in arb_fsm()) {
        let mut merged = a.clone();
        merged.merge(&b);
        // Idempotence: merging again adds nothing.
        let mut twice = merged.clone();
        prop_assert_eq!(twice.merge(&b), 0);
        prop_assert_eq!(&twice, &merged);
        // Monotonicity: everything from both parents is present.
        for t in a.transitions().chain(b.transitions()) {
            prop_assert!(merged.transitions().any(|x| x == t));
        }
        // The merged machine refines the first parent (its transitions
        // all map directly; alphabets only grew).
        let report = check_refinement(&a, &merged, &StateMapping::identity());
        prop_assert!(report.refines);
    }

    /// Reachability never exceeds the state count and always contains the
    /// initial state.
    #[test]
    fn reachability_bounds(fsm in arb_fsm()) {
        let reach = fsm.reachable_states();
        prop_assert!(reach.len() <= fsm.states().count());
        if let Some(init) = fsm.initial() {
            prop_assert!(reach.contains(init));
        }
    }
}
