//! Record payloads: plain-data mirrors of pipeline results, encoded
//! with the [`crate::bytes`] codec.
//!
//! Everything here is resolved strings and explicit integers — the
//! symbol-interning discipline (`Sym(u32)` ids are process-global and
//! must never reach disk) is enforced structurally by these types
//! having no way to hold an id.

use crate::bytes::{ByteReader, ByteWriter, DecodeError};
use crate::hash::Fingerprint;
use std::collections::BTreeMap;

/// One counterexample step: the fired command label and the full state
/// assignment after it, in the trace's canonical (sorted-variable)
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStepData {
    /// The command label (a resolved string, e.g.
    /// `adv:replay:authentication_request:old_unconsumed:inject_ue#3`).
    pub label: String,
    /// Variable-name → value-name pairs, sorted by variable name.
    pub state: Vec<(String, String)>,
}

/// A full counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceData {
    /// The steps, in execution order.
    pub steps: Vec<TraceStepData>,
    /// For lasso-shaped (response-property) traces: index of the first
    /// step on the loop.
    pub lasso_start: Option<u64>,
}

/// A storable property verdict.
///
/// Only *settled* verdicts are stored: degraded outcomes
/// (budget-exhausted, isolated panics, internal errors) describe the
/// run, not the property, and must never be replayed from a cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeData {
    /// Property holds on all crypto-feasible behaviour.
    Verified,
    /// Crypto-feasible counterexample: a real attack.
    Attack(TraceData),
    /// Reachability goal met via feasible steps.
    GoalReachable(TraceData),
    /// Reachability goal unreachable.
    GoalUnreachable,
    /// Linkability: observationally equivalent.
    Equivalent,
    /// Linkability: distinguishable, with the testbed's summary.
    Distinguishable(String),
    /// Deterministically skipped (e.g. "not applicable to this model").
    Skipped(String),
    /// A bounded backend exhausted its bound `k` without finding a
    /// violation — settled (the same model, property, and bound always
    /// reproduce it) but weaker than [`OutcomeData::Verified`]. Stored
    /// only under keys whose knobs fingerprint carries the bound, so a
    /// replay can never serve a different bound's answer.
    BoundReached(u64),
}

const TAG_VERIFIED: u8 = 1;
const TAG_ATTACK: u8 = 2;
const TAG_GOAL_REACHABLE: u8 = 3;
const TAG_GOAL_UNREACHABLE: u8 = 4;
const TAG_EQUIVALENT: u8 = 5;
const TAG_DISTINGUISHABLE: u8 = 6;
const TAG_SKIPPED: u8 = 7;
const TAG_BOUND_REACHED: u8 = 8;

/// One verdict-store entry: the outcome plus the CEGAR trajectory
/// counters the report reproduces verbatim on a warm hit, and the
/// fingerprint of the property's threat model *as checked* (the sliced
/// model when the pipeline sliced) — the soundness gate for reusing the
/// verdict across an FSM delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictRecord {
    /// Property id (`S01`…`PR25`).
    pub property_id: String,
    /// The settled outcome.
    pub outcome: OutcomeData,
    /// Model-checker invocations performed.
    pub cegar_iterations: u64,
    /// Refinements applied.
    pub refinements: u64,
    /// Counterexamples submitted to the CPV.
    pub cpv_queries: u64,
    /// Stable fingerprint of the checked model
    /// ([`Fingerprint::ZERO`] for linkability verdicts, which check
    /// testbed traces rather than a composed model).
    pub model_fp: Fingerprint,
}

fn encode_trace(w: &mut ByteWriter, t: &TraceData) {
    w.u64(t.steps.len() as u64);
    for step in &t.steps {
        w.string(&step.label);
        w.u64(step.state.len() as u64);
        for (k, v) in &step.state {
            w.string(k);
            w.string(v);
        }
    }
    w.opt_u64(t.lasso_start);
}

fn decode_trace(r: &mut ByteReader<'_>) -> Result<TraceData, DecodeError> {
    let nsteps = r.u64()?;
    let mut steps = Vec::new();
    for _ in 0..nsteps {
        let label = r.string()?;
        let nvars = r.u64()?;
        let mut state = Vec::new();
        for _ in 0..nvars {
            let k = r.string()?;
            let v = r.string()?;
            state.push((k, v));
        }
        steps.push(TraceStepData { label, state });
    }
    let lasso_start = r.opt_u64()?;
    Ok(TraceData { steps, lasso_start })
}

impl VerdictRecord {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.string(&self.property_id);
        match &self.outcome {
            OutcomeData::Verified => w.u8(TAG_VERIFIED),
            OutcomeData::Attack(t) => {
                w.u8(TAG_ATTACK);
                encode_trace(&mut w, t);
            }
            OutcomeData::GoalReachable(t) => {
                w.u8(TAG_GOAL_REACHABLE);
                encode_trace(&mut w, t);
            }
            OutcomeData::GoalUnreachable => w.u8(TAG_GOAL_UNREACHABLE),
            OutcomeData::Equivalent => w.u8(TAG_EQUIVALENT),
            OutcomeData::Distinguishable(s) => {
                w.u8(TAG_DISTINGUISHABLE);
                w.string(s);
            }
            OutcomeData::Skipped(s) => {
                w.u8(TAG_SKIPPED);
                w.string(s);
            }
            OutcomeData::BoundReached(k) => {
                w.u8(TAG_BOUND_REACHED);
                w.u64(*k);
            }
        }
        w.u64(self.cegar_iterations);
        w.u64(self.refinements);
        w.u64(self.cpv_queries);
        w.bytes(&self.model_fp.0);
        w.into_bytes()
    }

    /// Decodes a frame payload; any failure is record corruption.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated, malformed, or over-long input.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let property_id = r.string()?;
        let outcome = match r.u8()? {
            TAG_VERIFIED => OutcomeData::Verified,
            TAG_ATTACK => OutcomeData::Attack(decode_trace(&mut r)?),
            TAG_GOAL_REACHABLE => OutcomeData::GoalReachable(decode_trace(&mut r)?),
            TAG_GOAL_UNREACHABLE => OutcomeData::GoalUnreachable,
            TAG_EQUIVALENT => OutcomeData::Equivalent,
            TAG_DISTINGUISHABLE => OutcomeData::Distinguishable(r.string()?),
            TAG_SKIPPED => OutcomeData::Skipped(r.string()?),
            TAG_BOUND_REACHED => OutcomeData::BoundReached(r.u64()?),
            t => return Err(DecodeError::BadTag(t)),
        };
        let cegar_iterations = r.u64()?;
        let refinements = r.u64()?;
        let cpv_queries = r.u64()?;
        let mut fp = [0u8; 16];
        fp.copy_from_slice(r.take(16)?);
        r.finish()?;
        Ok(VerdictRecord {
            property_id,
            outcome,
            cegar_iterations,
            refinements,
            cpv_queries,
            model_fp: Fingerprint(fp),
        })
    }
}

/// The baseline snapshot a warm run diffs against: both extracted FSMs
/// in canonical text form (the `crates/core` canonical FSM codec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineRecord {
    /// Canonical text of the UE FSM.
    pub ue: String,
    /// Canonical text of the MME FSM.
    pub mme: String,
}

impl BaselineRecord {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.string(&self.ue);
        w.string(&self.mme);
        w.into_bytes()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated, malformed, or over-long input.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let ue = r.string()?;
        let mme = r.string()?;
        r.finish()?;
        Ok(BaselineRecord { ue, mme })
    }
}

/// Where one model property's verdict lives: the verdict key a fresh
/// run would compute over the model as checked, and that model's exact
/// fingerprint (the trace-reuse gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// The verdict-record key.
    pub verdict_key: Fingerprint,
    /// Exact fingerprint of the model as checked.
    pub model_fp: Fingerprint,
}

/// A verdict index: for one extracted FSM pair under one set of checking
/// knobs, each model property's [`IndexEntry`], keyed by property id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexRecord {
    /// Property id → entry; encoded in id order.
    pub entries: BTreeMap<String, IndexEntry>,
}

impl IndexRecord {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.entries.len() as u64);
        for (id, entry) in &self.entries {
            w.string(id);
            w.bytes(&entry.verdict_key.0);
            w.bytes(&entry.model_fp.0);
        }
        w.into_bytes()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated, malformed, or over-long input.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(payload);
        let fingerprint = |r: &mut ByteReader<'_>| -> Result<Fingerprint, DecodeError> {
            let mut fp = [0u8; 16];
            fp.copy_from_slice(r.take(16)?);
            Ok(Fingerprint(fp))
        };
        let mut entries = BTreeMap::new();
        // Each entry is at least 40 bytes, so a lying count runs out of
        // input long before it could exhaust memory.
        for _ in 0..r.u64()? {
            let id = r.string()?;
            let verdict_key = fingerprint(&mut r)?;
            let model_fp = fingerprint(&mut r)?;
            entries.insert(
                id,
                IndexEntry {
                    verdict_key,
                    model_fp,
                },
            );
        }
        r.finish()?;
        Ok(IndexRecord { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TraceData {
        TraceData {
            steps: vec![
                TraceStepData {
                    label: "mme:send:authentication_request#0".into(),
                    state: vec![
                        ("mme_state".into(), "mme_wait_auth_response".into()),
                        ("ue_state".into(), "emm_deregistered".into()),
                    ],
                },
                TraceStepData {
                    label: "adv:replay:authentication_request:old_unconsumed:inject_ue#4".into(),
                    state: vec![("last_auth_sqn".into(), "stale".into())],
                },
            ],
            lasso_start: Some(1),
        }
    }

    #[test]
    fn verdict_roundtrip_every_outcome() {
        for outcome in [
            OutcomeData::Verified,
            OutcomeData::Attack(sample_trace()),
            OutcomeData::GoalReachable(TraceData::default()),
            OutcomeData::GoalUnreachable,
            OutcomeData::Equivalent,
            OutcomeData::Distinguishable("victim answered, bystanders failed".into()),
            OutcomeData::Skipped("not applicable to this model: no such var".into()),
            OutcomeData::BoundReached(24),
        ] {
            let rec = VerdictRecord {
                property_id: "S01".into(),
                outcome,
                cegar_iterations: 3,
                refinements: 2,
                cpv_queries: 3,
                model_fp: crate::hash::hash_bytes(b"model"),
            };
            let bytes = rec.encode();
            assert_eq!(VerdictRecord::decode(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn verdict_truncation_never_decodes() {
        let rec = VerdictRecord {
            property_id: "PR07".into(),
            outcome: OutcomeData::Attack(sample_trace()),
            cegar_iterations: 1,
            refinements: 0,
            cpv_queries: 1,
            model_fp: Fingerprint::ZERO,
        };
        let bytes = rec.encode();
        for cut in 0..bytes.len() {
            assert!(VerdictRecord::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn verdict_trailing_garbage_rejected() {
        let rec = VerdictRecord {
            property_id: "S02".into(),
            outcome: OutcomeData::Verified,
            cegar_iterations: 1,
            refinements: 0,
            cpv_queries: 0,
            model_fp: Fingerprint::ZERO,
        };
        let mut bytes = rec.encode();
        bytes.push(0);
        assert!(VerdictRecord::decode(&bytes).is_err());
    }

    #[test]
    fn index_roundtrip_and_truncation() {
        let entry = |s: &str| IndexEntry {
            verdict_key: crate::hash::hash_bytes(s.as_bytes()),
            model_fp: crate::hash::hash_bytes(format!("{s}-model").as_bytes()),
        };
        let mut rec = IndexRecord::default();
        assert_eq!(IndexRecord::decode(&rec.encode()).unwrap(), rec);
        for id in ["S12", "PR19", "S01"] {
            rec.entries.insert(id.into(), entry(id));
        }
        let bytes = rec.encode();
        assert_eq!(IndexRecord::decode(&bytes).unwrap(), rec);
        for cut in 0..bytes.len() {
            assert!(IndexRecord::decode(&bytes[..cut]).is_err());
        }
        let mut long = bytes;
        long.push(0);
        assert!(IndexRecord::decode(&long).is_err());
    }

    #[test]
    fn baseline_roundtrip() {
        let rec = BaselineRecord {
            ue: "fsm ue\ninitial emm_deregistered\n".into(),
            mme: "fsm mme\ninitial mme_deregistered\n".into(),
        };
        assert_eq!(BaselineRecord::decode(&rec.encode()).unwrap(), rec);
    }
}
