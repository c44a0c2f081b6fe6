//! Canonical text form of an FSM, for the persistent analysis store.
//!
//! The cross-run store needs two things from an FSM that the in-memory
//! representation cannot give it directly:
//!
//! 1. a **stable byte string** to fingerprint — `Sym`/`StateId` interning
//!    ids are process-global and differ between runs, so hashes must be
//!    computed over resolved names, never ids;
//! 2. a **baseline snapshot** a later run can reconstruct and
//!    [`diff`](crate::diff::diff) against the freshly extracted machine
//!    to find the transitions a code change touched.
//!
//! [`canonical_text`] renders every component of the machine — name,
//! initial state, the full state/condition/action vocabularies (including
//! members registered explicitly but unused by any transition), and the
//! transitions **in insertion order** (the order drives downstream
//! threat-model command numbering, so it is part of the machine's
//! identity). [`parse_canonical`] inverts it exactly:
//! `parse_canonical(&canonical_text(f)) == f` for every machine the
//! extractor can produce.
//!
//! The format is line-oriented with a one-character tag per line; names
//! follow the tag verbatim to end-of-line, so any name without a newline
//! round-trips (extractor names are identifier-like).

use crate::{ActionAtom, CondAtom, Fsm, StateName, Transition};

/// Renders `fsm` in the canonical line-oriented text form.
pub fn canonical_text(fsm: &Fsm) -> String {
    let mut out = String::new();
    let mut line = |tag: &str, body: &str| {
        out.push_str(tag);
        out.push(' ');
        out.push_str(body);
        out.push('\n');
    };
    line("F", fsm.name());
    if let Some(initial) = fsm.initial() {
        line("I", initial.as_str());
    }
    for s in fsm.states() {
        line("S", s.as_str());
    }
    for c in fsm.conditions() {
        line("C", &c.to_string());
    }
    for a in fsm.actions() {
        line("A", a.as_str());
    }
    for t in fsm.transitions() {
        line("t", "");
        line("<", t.from.as_str());
        line(">", t.to.as_str());
        for c in &t.condition {
            line("c", &c.to_string());
        }
        for a in &t.action {
            line("a", a.as_str());
        }
    }
    out
}

/// Parses the canonical text form back into an [`Fsm`].
///
/// # Errors
///
/// A description of the first malformed line — including a blank state
/// name on an `I`, `S`, `<` or `>` line; callers in the store layer
/// treat any error as baseline corruption (a cold miss), never as an
/// empty machine. Malformed text never panics.
pub fn parse_canonical(text: &str) -> Result<Fsm, String> {
    let mut lines = text.lines().enumerate().peekable();
    let (_, first) = lines.next().ok_or("empty canonical text")?;
    let name = first
        .strip_prefix("F ")
        .ok_or_else(|| format!("line 1: expected `F <name>`, got {first:?}"))?;
    let mut fsm = Fsm::new(name);
    // A transition block under assembly: endpoints arrive on the `<`/`>`
    // lines after the `t` marker, so the `Transition` is only built when
    // the block ends.
    #[derive(Default)]
    struct Block {
        from: Option<StateName>,
        to: Option<StateName>,
        conds: Vec<CondAtom>,
        acts: Vec<ActionAtom>,
    }
    fn flush(fsm: &mut Fsm, block: Option<Block>) -> Result<(), String> {
        let Some(block) = block else { return Ok(()) };
        let (Some(from), Some(to)) = (block.from, block.to) else {
            return Err("transition block missing `<` or `>` endpoint".to_string());
        };
        let mut t = Transition::build(from, to);
        t.condition.extend(block.conds);
        t.action.extend(block.acts);
        fsm.add_transition(t);
        Ok(())
    }
    let mut pending: Option<Block> = None;
    for (i, line) in lines {
        let n = i + 1;
        let (tag, body) = line
            .split_once(' ')
            .ok_or_else(|| format!("line {n}: missing tag separator in {line:?}"))?;
        // State names are checked here: a blank one is an error, never
        // the panic building it would raise.
        let state = || StateName::try_new(body).map_err(|e| format!("line {n}: {e}"));
        match tag {
            "I" => fsm.set_initial(state()?),
            "S" => fsm.add_state(state()?),
            "C" => fsm.add_condition(CondAtom::parse(body)),
            "A" => fsm.add_action(ActionAtom::new(body)),
            "t" => flush(&mut fsm, pending.replace(Block::default()))?,
            "<" | ">" | "c" | "a" => {
                let t = pending
                    .as_mut()
                    .ok_or_else(|| format!("line {n}: `{tag}` outside a transition block"))?;
                match tag {
                    "<" => t.from = Some(state()?),
                    ">" => t.to = Some(state()?),
                    "c" => t.conds.push(CondAtom::parse(body)),
                    _ => t.acts.push(ActionAtom::new(body)),
                }
            }
            _ => return Err(format!("line {n}: unknown tag {tag:?}")),
        }
    }
    flush(&mut fsm, pending.take())?;
    Ok(fsm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Fsm {
        let mut f = Fsm::new("ue");
        f.set_initial("idle");
        // Insertion order deliberately non-lexicographic.
        f.add_transition(
            Transition::build("idle", "waiting")
                .when("zeta_request")
                .when("sqn_ok=true")
                .then("zeta_response"),
        );
        f.add_transition(Transition::build("waiting", "idle").when("alpha_timeout"));
        f.add_state("orphan");
        f.add_condition(CondAtom::parse("observed_only=yes"));
        f.add_action(ActionAtom::new("unused_action"));
        f
    }

    #[test]
    fn round_trips_exactly() {
        let f = machine();
        let text = canonical_text(&f);
        let back = parse_canonical(&text).expect("parse");
        assert_eq!(back, f);
        // Canonical means canonical: render(parse(render(x))) is stable.
        assert_eq!(canonical_text(&back), text);
    }

    #[test]
    fn text_is_stable_bytes() {
        // The exact rendering is a fingerprint input; pin it.
        let mut f = Fsm::new("m");
        f.set_initial("s0");
        f.add_transition(Transition::build("s0", "s1").when("go").then("ack"));
        assert_eq!(
            canonical_text(&f),
            "F m\nI s0\nS s0\nS s1\nC go\nA ack\nt \n< s0\n> s1\nc go\na ack\n"
        );
    }

    #[test]
    fn transition_order_is_preserved() {
        let f = machine();
        let back = parse_canonical(&canonical_text(&f)).unwrap();
        let order: Vec<String> = back.transitions().map(|t| t.to_string()).collect();
        let want: Vec<String> = f.transitions().map(|t| t.to_string()).collect();
        assert_eq!(order, want);
        assert!(order[0].contains("zeta_request"), "{order:?}");
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(parse_canonical("").is_err());
        assert!(parse_canonical("X nope\n").is_err());
        assert!(parse_canonical("F m\n< stray\n").is_err());
        assert!(parse_canonical("F m\nS\n").is_err(), "missing separator");
        // Blank state names are errors, not the panic building one raises.
        for text in [
            "F ue\nS  \n",
            "F ue\nI \n",
            "F ue\nt \n<  \n> b\n",
            "F ue\nt \n< a\n> \t\n",
        ] {
            let err = parse_canonical(text).expect_err(text);
            assert!(err.contains("invalid state name"), "{text:?}: {err}");
        }
    }

    #[test]
    fn empty_machine_round_trips() {
        let f = Fsm::new("empty");
        assert_eq!(parse_canonical(&canonical_text(&f)).unwrap(), f);
    }
}
