//! The committed expected-verdict table and the edit pool it covers.
//!
//! `expected/verdicts.tsv` holds one outcome tag per (backend, subject,
//! property). A subject is an implementation (`Reference`, `Srs`, `Oai`)
//! or the Reference models under one edit of `expected/edits.tsv`
//! (`Reference+e07`). Every timed request is compared against it, so a
//! change that alters an answer shows as a mismatch, not as a speed-up.
//! `procheck-benchmark expected` regenerates the table and cross-checks
//! it (see [`generate`]).

use crate::workload::{analysis_config, nproc};
use procheck::pipeline::{analyze_extracted, analyze_implementation, BackendKind, ExtractedModels};
use procheck::PropertyOutcome;
use procheck_fsm::{Fsm, Transition};
use procheck_props::{registry, Check};
use procheck_stack::quirks::Implementation;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The table as committed, compiled into the binary.
pub const VERDICTS_TSV: &str = include_str!("../expected/verdicts.tsv");
/// The store-incremental candidate edits, compiled into the binary.
pub const EDITS_TSV: &str = include_str!("../expected/edits.tsv");

/// Which engine a row's tag belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The explicit-state engine (`BackendKind::Explicit`).
    Explicit,
    /// The bounded symbolic engine at bound 24 (`BackendKind::Symbolic`).
    Symbolic,
}

/// Expected outcome tags keyed by (engine, subject, property id).
#[derive(Debug, Clone)]
pub struct Expected {
    tags: HashMap<(Engine, String, String), String>,
}

impl Expected {
    /// The committed table.
    pub fn embedded() -> Expected {
        Expected::parse(VERDICTS_TSV).expect("the committed verdict table parses")
    }

    /// Parses a table: `#` comment lines, then tab-separated
    /// `backend subject property tag` rows.
    ///
    /// # Errors
    ///
    /// Names the first malformed or duplicated row.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut tags = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [backend, subject, property, tag] = fields[..] else {
                return Err(format!("line {}: expected 4 tab-separated fields", n + 1));
            };
            let engine = match backend {
                "explicit" => Engine::Explicit,
                "symbolic" => Engine::Symbolic,
                other => return Err(format!("line {}: unknown backend {other:?}", n + 1)),
            };
            let key = (engine, subject.to_string(), property.to_string());
            if tags.insert(key, tag.to_string()).is_some() {
                return Err(format!("line {}: duplicate row", n + 1));
            }
        }
        Ok(Expected { tags })
    }

    /// The expected tag, if the table has the row.
    pub fn tag(&self, engine: Engine, subject: &str, property: &str) -> Option<&str> {
        self.tags
            .get(&(engine, subject.to_string(), property.to_string()))
            .map(String::as_str)
    }
}

/// The table's name for an implementation.
pub fn subject_name(imp: Implementation) -> &'static str {
    match imp {
        Implementation::Reference => "Reference",
        Implementation::Srs => "Srs",
        Implementation::Oai => "Oai",
    }
}

/// Which of the two extracted machines an edit changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// `UE^μ`.
    Ue,
    /// `MME^μ`.
    Mme,
}

/// One single-transition edit from `expected/edits.tsv`.
#[derive(Debug, Clone)]
pub struct Edit {
    /// Stable id (`e01`…); the table subject is `Reference+<id>`.
    pub id: String,
    /// The machine edited.
    pub machine: Machine,
    /// `true` adds the transition, `false` removes it.
    pub add: bool,
    /// The transition added or removed.
    pub transition: Transition,
}

impl Edit {
    /// The expected-table subject for the edited Reference models.
    pub fn subject(&self) -> String {
        format!("Reference+{}", self.id)
    }

    /// Applies the edit to a copy of `models`.
    ///
    /// # Errors
    ///
    /// An addition of a transition the machine already has, or a removal
    /// of one it lacks: the edit no longer fits the extracted models.
    pub fn apply(&self, models: &ExtractedModels) -> Result<ExtractedModels, String> {
        let mut out = models.clone();
        let fsm = match self.machine {
            Machine::Ue => &mut out.ue,
            Machine::Mme => &mut out.mme,
        };
        if self.add {
            if !fsm.add_transition(self.transition.clone()) {
                return Err(format!("{}: transition already present", self.id));
            }
        } else {
            *fsm = without_transition(fsm, &self.transition)
                .ok_or_else(|| format!("{}: transition not found", self.id))?;
        }
        Ok(out)
    }
}

/// `fsm` without `t`, keeping its states, alphabets and initial state —
/// the edit removes one transition and no vocabulary.
fn without_transition(fsm: &Fsm, t: &Transition) -> Option<Fsm> {
    if !fsm.transitions().any(|x| x == t) {
        return None;
    }
    let mut out = Fsm::new(fsm.name());
    if let Some(s) = fsm.initial() {
        out.set_initial(*s);
    }
    fsm.states().for_each(|s| out.add_state(*s));
    fsm.conditions().for_each(|c| out.add_condition(*c));
    fsm.actions().for_each(|a| out.add_action(*a));
    for x in fsm.transitions().filter(|x| *x != t) {
        out.add_transition(x.clone());
    }
    Some(out)
}

/// Parses an edit list: `#` comment lines, then tab-separated
/// `id machine op from to conditions actions` rows, with comma-separated
/// condition and action atoms.
///
/// # Errors
///
/// Names the first malformed row.
pub fn parse_edits(text: &str) -> Result<Vec<Edit>, String> {
    let mut edits = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [id, machine, op, from, to, conditions, actions] = fields[..] else {
            return Err(format!("line {}: expected 7 tab-separated fields", n + 1));
        };
        let machine = match machine {
            "ue" => Machine::Ue,
            "mme" => Machine::Mme,
            other => return Err(format!("line {}: unknown machine {other:?}", n + 1)),
        };
        let add = match op {
            "add" => true,
            "remove" => false,
            other => return Err(format!("line {}: unknown op {other:?}", n + 1)),
        };
        let mut transition = Transition::build(from, to);
        for c in conditions.split(',') {
            transition = transition.when(c);
        }
        for a in actions.split(',') {
            transition = transition.then(a);
        }
        edits.push(Edit {
            id: id.to_string(),
            machine,
            add,
            transition,
        });
    }
    Ok(edits)
}

/// The committed edit pool.
pub fn embedded_edits() -> Vec<Edit> {
    parse_edits(EDITS_TSV).expect("the committed edit list parses")
}

/// Maps the golden snapshot's `Debug` variant names to outcome tags.
fn tag_of_variant(variant: &str) -> Option<&'static str> {
    Some(match variant {
        "Verified" => "verified",
        "Attack" => "attack",
        "GoalReachable" => "reachable",
        "GoalUnreachable" => "unreachable",
        "BoundReached" => "bound-reached",
        "Equivalent" => "equivalent",
        "Distinguishable" => "distinguishable",
        "Skipped" => "skipped",
        _ => return None,
    })
}

/// Regenerates the table and returns it as TSV text. The rows come from
/// storeless runs of the current pipeline, each cross-checked before it
/// is accepted:
///
/// * explicit Reference rows must equal the outcomes in `golden` (the
///   core crate's `tests/golden/registry.snap`);
/// * symbolic rows must agree with the explicit rows by the pipeline's
///   cross-validation table: equal tags, or `bound-reached` against an
///   explicit pass, or against an explicit violation whose trace is
///   longer than the bound;
/// * no edited-model run may have a degraded outcome.
///
/// # Errors
///
/// Every disagreement found, one per line.
pub fn generate(golden: &str, edits: &[Edit]) -> Result<String, String> {
    let cfg = |backend| analysis_config(nproc(), backend, None, None);
    let mut out = String::from(
        "# Expected outcome tags, regenerated by `procheck-benchmark expected`.\n\
         # backend\tsubject\tproperty\ttag\n",
    );
    let mut problems = Vec::new();
    let golden_tags: HashMap<&str, &str> = golden
        .lines()
        .skip_while(|l| !l.starts_with("== results: Reference"))
        .skip(1)
        .take_while(|l| !l.starts_with("=="))
        .filter_map(|l| {
            let (id, rest) = l.split_once('|')?;
            let variant = rest.split(['(', '|']).next()?;
            Some((id, tag_of_variant(variant)?))
        })
        .collect();
    let explicit_cfg = cfg(BackendKind::Explicit);
    let mut explicit: HashMap<(Implementation, &str), PropertyOutcome> = HashMap::new();
    for imp in [
        Implementation::Reference,
        Implementation::Srs,
        Implementation::Oai,
    ] {
        let report = analyze_implementation(imp, &explicit_cfg);
        for r in &report.results {
            let tag = r.outcome.tag();
            let _ = writeln!(
                out,
                "explicit\t{}\t{}\t{tag}",
                subject_name(imp),
                r.property_id
            );
            if imp == Implementation::Reference && golden_tags.get(r.property_id) != Some(&tag) {
                problems.push(format!(
                    "{}: explicit Reference tag {tag} differs from the golden snapshot's {:?}",
                    r.property_id,
                    golden_tags.get(r.property_id)
                ));
            }
            explicit.insert((imp, r.property_id), r.outcome.clone());
        }
    }
    let symbolic_cfg = cfg(BackendKind::Symbolic);
    for imp in [Implementation::Reference, Implementation::Oai] {
        let models = procheck::extract_models(imp, &symbolic_cfg);
        let report = analyze_extracted(imp, &models, &symbolic_cfg);
        for r in &report.results {
            if !registry()
                .iter()
                .any(|p| p.id == r.property_id && matches!(p.check, Check::Model(_)))
            {
                continue;
            }
            let tag = r.outcome.tag();
            let _ = writeln!(
                out,
                "symbolic\t{}\t{}\t{tag}",
                subject_name(imp),
                r.property_id
            );
            let reference = &explicit[&(imp, r.property_id)];
            if !engines_agree(reference, &r.outcome, symbolic_cfg.bmc_bound) {
                problems.push(format!(
                    "{} on {}: symbolic {tag} disagrees with explicit {}",
                    r.property_id,
                    subject_name(imp),
                    reference.tag()
                ));
            }
        }
    }
    let base = procheck::extract_models(Implementation::Reference, &explicit_cfg);
    for edit in edits {
        let models = edit.apply(&base)?;
        let report = analyze_extracted(Implementation::Reference, &models, &explicit_cfg);
        for r in &report.results {
            let _ = writeln!(
                out,
                "explicit\t{}\t{}\t{}",
                edit.subject(),
                r.property_id,
                r.outcome.tag()
            );
            if r.outcome.is_degraded() {
                problems.push(format!(
                    "{} under {}: degraded outcome {}",
                    r.property_id,
                    edit.id,
                    r.outcome.tag()
                ));
            }
        }
    }
    if problems.is_empty() {
        Ok(out)
    } else {
        Err(problems.join("\n"))
    }
}

/// The pipeline's `Both`-mode agreement rule: a bounded pass agrees with
/// an explicit pass, and with an explicit violation only when that
/// violation's trace needs more than `bound` transitions.
fn engines_agree(explicit: &PropertyOutcome, symbolic: &PropertyOutcome, bound: usize) -> bool {
    use PropertyOutcome as O;
    match (explicit, symbolic) {
        (O::Verified | O::GoalUnreachable, O::BoundReached(_)) => true,
        (O::Attack(ce) | O::GoalReachable(ce), O::BoundReached(_)) => ce.steps.len() - 1 > bound,
        (e, s) => e.tag() == s.tag(),
    }
}
