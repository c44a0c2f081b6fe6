//! The verdict index's soundness assumption, pinned.
//!
//! The index maps (extracted FSM pair, knobs, slice flag, property) to
//! the verdict key and exact model fingerprint a fresh run computes, and
//! it is keyed by the machines' canonical text alone. That is sound only
//! while composition reads nothing the canonical text does not hold, and
//! only while the code that turns a pair into verdict keys stays as it
//! was when an index on disk was written:
//!
//! 1. **Round trip** — every registry composition built from
//!    `parse_canonical(canonical_text(·))` of each stack's machines has
//!    the same exact and semantic fingerprints as the one built from the
//!    extracted machines.
//! 2. **Tripwires** — pinned digests of (a) those fingerprints for all
//!    51 compositions, compiled and unsliced, the models the symbolic
//!    leg and unsliced runs key verdicts on, and (b) the index a cold run
//!    of each stack writes at the default knobs, which keys on the
//!    sliced models. A change to composition, compilation, slicing or
//!    model fingerprinting fails here until the index key's domain tag
//!    is bumped and the digests updated.

use procheck::pipeline::{analyze_extracted, extract_models, AnalysisConfig, BackendKind};
use procheck::store::{checked_model_fps, threat_fingerprint, INDEX_DOMAIN};
use procheck_fsm::canon::{canonical_text, parse_canonical};
use procheck_props::distinct_threat_configs;
use procheck_smv::checker::{CompiledModel, DEFAULT_STATE_LIMIT};
use procheck_stack::quirks::Implementation;
use procheck_store::{hash_bytes, StableHasher};
use procheck_symbolic::DEFAULT_BMC_BOUND;
use procheck_threat::build_threat_model;
use std::path::PathBuf;

mod common;
use common::{stored_index, TempDir};

const STACKS: [Implementation; 3] = [
    Implementation::Reference,
    Implementation::Srs,
    Implementation::Oai,
];

/// Digest of every stack's unsliced compositions: per stack, each threat
/// configuration's fingerprint with the exact and semantic fingerprints
/// of its compiled model, in sorted order.
const COMPOSITION_DIGEST: &str = "f2c974601d9b3b09dc63b4724e95955e";

/// Digest of the payload of the index a cold run of each stack writes at
/// the default knobs (explicit engine, slicing on).
const INDEX_DIGESTS: [(Implementation, &str); 3] = [
    (
        Implementation::Reference,
        "0211a2e41b3ce520963cf2811734f140",
    ),
    (Implementation::Srs, "cddf1b0dcc73e5026d8f9e9c904657fa"),
    (Implementation::Oai, "1aa4e42ee5ceb876305dfc0432589032"),
];

/// The default knobs, spelled out so no `PROCHECK_*` variable can move
/// them.
fn default_knobs(store_dir: Option<PathBuf>) -> AnalysisConfig {
    AnalysisConfig {
        state_limit: DEFAULT_STATE_LIMIT,
        max_cegar_iterations: 24,
        property_filter: None,
        slice: true,
        store_dir,
        backend: BackendKind::Explicit,
        bmc_bound: DEFAULT_BMC_BOUND,
        ..AnalysisConfig::default()
    }
}

/// What a tripwire says when its digest moved.
fn stale_indexes(what: &str, digest: &str) -> String {
    format!(
        "{what} changed. If composition, compilation, slicing or model fingerprinting changed, \
         indexes already on disk point at verdict keys this code no longer computes: bump \
         INDEX_DOMAIN (now {INDEX_DOMAIN:?}) in crates/core/src/store.rs. Then set the pinned \
         digest to {digest:?}"
    )
}

#[test]
fn compositions_of_canonical_round_trips_are_identical() {
    let configs = distinct_threat_configs();
    let mut digest = StableHasher::with_domain("composition-tripwire");
    let mut compositions = 0;
    for imp in STACKS {
        let models = extract_models(imp, &default_knobs(None));
        assert!(models.extraction_errors.is_empty(), "{imp:?}");
        let ue = parse_canonical(&canonical_text(&models.ue)).expect("UE text parses");
        let mme = parse_canonical(&canonical_text(&models.mme)).expect("MME text parses");
        let mut pinned = Vec::new();
        for threat_cfg in &configs {
            let compile = |ue, mme| {
                CompiledModel::new(&build_threat_model(ue, mme, threat_cfg))
                    .expect("registry compositions compile")
            };
            let fps = checked_model_fps(&compile(&models.ue, &models.mme));
            assert_eq!(
                checked_model_fps(&compile(&ue, &mme)),
                fps,
                "{imp:?} {threat_cfg:?}: composition read something canonical text omits"
            );
            pinned.push((threat_fingerprint(threat_cfg), fps.exact, fps.semantic));
            compositions += 1;
        }
        // The configurations come from a hash set; pin them in key order.
        pinned.sort();
        digest.write_str(imp.name());
        for (threat, exact, semantic) in pinned {
            for fp in [threat, exact, semantic] {
                digest.write(&fp.0);
            }
        }
    }
    assert_eq!(compositions, 51, "3 stacks x 17 threat configurations");
    let digest = digest.finish().to_hex();
    assert_eq!(
        digest,
        COMPOSITION_DIGEST,
        "{}",
        stale_indexes(
            "The fingerprints of the unsliced registry compositions",
            &digest
        )
    );
}

#[test]
fn cold_run_index_digests_are_pinned() {
    for (imp, pinned) in INDEX_DIGESTS {
        let dir = TempDir::new(&format!("procheck-index-tripwire-{}", imp.name()));
        let cfg = default_knobs(Some(dir.to_path_buf()));
        let models = extract_models(imp, &cfg);
        let report = analyze_extracted(imp, &models, &cfg);
        assert!(report.degraded.is_clean(), "{imp:?}");
        let (_, index) = stored_index(&dir);
        drop(dir);
        assert_eq!(index.entries.len(), 52, "{imp:?}: every model property");

        let digest = hash_bytes(&index.encode()).to_hex();
        assert_eq!(
            digest,
            pinned,
            "{}",
            stale_indexes(&format!("The verdict index of a cold {imp:?} run"), &digest)
        );
    }
}
