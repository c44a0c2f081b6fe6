//! Parallel-engine speedup measurement.
//!
//! Times `analyze_implementation` over the full property registry on
//! the Reference implementation across a thread sweep, and writes
//! `BENCH_pipeline.json` at the repo root so later changes have a perf
//! trajectory to compare against. The sweep is capped at the machine's
//! `available_parallelism`: timing more workers than hardware threads
//! measures scheduler noise, not the engine (each row still records
//! `hardware_threads` and an `oversubscribed` flag so rows from
//! different machines stay comparable). Also reported: how many
//! distinct threat models a run composes (the shared cache builds one
//! per distinct `ThreatConfig`, not one per property), the
//! reachability-graph cache's explore-once accounting, and the
//! checker's states-explored/second over the measured runs.
//!
//! Each measured run records into its own telemetry [`Collector`]; the
//! counter snapshots must be identical across thread counts (the
//! determinism contract). A final full-registry run under the `Both`
//! backend cross-validates the explicit engine against the bounded
//! symbolic (BMC) one — its aggregation is written as
//! `BENCH_telemetry.json`, so the artifact carries the `backend.*`
//! solver counters next to the explicit totals, and
//! `scripts/check_bench_regression.sh` gates on zero divergences. Set
//! `PROCHECK_NO_GRAPH_CACHE=1` to measure the re-exploration cost the
//! graph cache removes (CI runs both and uploads both artifacts).

use procheck::pipeline::{
    analyze_extracted, analyze_implementation, extract_models, AnalysisConfig, BackendKind,
};
use procheck::telemetry_report::TelemetryReport;
use procheck_props::{distinct_threat_configs, registry};
use procheck_smv::checker::{build_reach_graph_budgeted, CheckStats, CompiledModel};
use procheck_smv::coi::slice_for_property;
use procheck_smv::BudgetMeter;
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;
use procheck_threat::build_threat_model;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const CANDIDATE_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Worker widths for the intra-graph exploration scaling sweep. Unlike
/// the property-pool sweep this one is *not* capped at the hardware
/// width: the rows carry an `oversubscribed` flag instead, and the
/// regression gate only enforces floors when `hardware_threads >= 4`.
const EXPLORE_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// The sweep actually run: serial, the classic powers of two that fit
/// the machine, and the machine's own width — deduplicated, ascending.
fn thread_sweep(hardware: usize) -> Vec<usize> {
    let mut sweep: Vec<usize> = CANDIDATE_THREAD_COUNTS
        .iter()
        .copied()
        .filter(|&t| t <= hardware)
        .chain([1, hardware])
        .collect();
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

fn main() {
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let graph_cache_on = AnalysisConfig::default().graph_cache;
    let properties = registry().len();
    let distinct_threat_models = distinct_threat_configs();
    println!(
        "pipeline speedup: {properties} properties, {} distinct threat models, \
         {hardware} hardware thread(s), graph cache {}",
        distinct_threat_models.len(),
        if graph_cache_on { "on" } else { "off" },
    );

    let sweep = thread_sweep(hardware);
    let mut rows: Vec<(usize, f64, u64)> = Vec::new();
    let mut counter_snapshots = Vec::new();
    for &threads in &sweep {
        let collector = Collector::enabled();
        // `store_dir` is forced off for the thread sweep: an inherited
        // `PROCHECK_STORE` would make the first run cold and the rest
        // warm, breaking the counter-equality assertion below. The
        // warm path gets its own dedicated section instead.
        let cfg = AnalysisConfig {
            threads,
            collector: collector.clone(),
            store_dir: None,
            ..AnalysisConfig::default()
        };
        // One warm-up run so extraction caches and allocator state do
        // not bill the first measured configuration.
        if rows.is_empty() {
            let _ = analyze_implementation(
                Implementation::Reference,
                &AnalysisConfig {
                    threads,
                    store_dir: None,
                    ..AnalysisConfig::default()
                },
            );
        }
        let start = Instant::now();
        let report = analyze_implementation(Implementation::Reference, &cfg);
        let secs = start.elapsed().as_secs_f64();
        let states = collector.counter_value("smv.states_explored");
        assert_eq!(
            report.results.len(),
            properties,
            "full registry must be checked"
        );
        println!(
            "  threads={threads}: {secs:.3}s  ({:.0} states/s)",
            states as f64 / secs.max(1e-9)
        );
        rows.push((threads, secs, states));
        counter_snapshots.push((threads, collector.counters()));
    }

    // Determinism contract: the same work at any thread count leaves
    // identical counter totals.
    let (first_threads, first) = &counter_snapshots[0];
    for (threads, snapshot) in &counter_snapshots[1..] {
        assert_eq!(
            snapshot, first,
            "telemetry counters differ between threads={first_threads} and threads={threads}"
        );
    }
    println!(
        "  telemetry counters identical across all {} thread counts",
        rows.len()
    );

    // Speedup is computed over well-posed rows only: a run with more
    // workers than hardware threads measures oversubscription, not the
    // engine. The capped sweep should never produce one, but the guard
    // keeps the number honest if the sweep policy changes.
    let serial = rows[0].1;
    let best = rows
        .iter()
        .filter(|&&(threads, _, _)| threads <= hardware)
        .map(|&(_, s, _)| s)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  best speedup vs threads=1: {:.2}x",
        serial / best.max(1e-9)
    );

    // Cache effect in isolation: composing one `IMP^μ` per property
    // (the pre-cache engine's behavior) vs one per distinct config
    // (what the shared cache does). This part of the win is
    // hardware-independent.
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    let start = Instant::now();
    for p in registry()
        .iter()
        .filter(|p| matches!(p.check, procheck_props::Check::Model(_)))
    {
        let _ = build_threat_model(&models.ue, &models.mme, &p.slice.threat_config());
    }
    let per_property_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for cfg in &distinct_threat_models {
        let _ = build_threat_model(&models.ue, &models.mme, cfg);
    }
    let distinct_secs = start.elapsed().as_secs_f64();
    println!(
        "  threat-model composition: {per_property_secs:.3}s per-property vs \
         {distinct_secs:.3}s distinct-only ({:.2}x)",
        per_property_secs / distinct_secs.max(1e-9)
    );

    // Intra-graph exploration scaling: the distinct threat-config
    // graphs explored back-to-back at each worker width, bypassing the
    // property pool and the cache so the number isolates the frontier
    // itself. Graphs are identical at every width (asserted), so the
    // wall-clock ratio is a pure scheduling measurement.
    let state_limit = AnalysisConfig::default().state_limit;
    let compiled: Vec<CompiledModel> = distinct_threat_models
        .iter()
        .map(|cfg| {
            CompiledModel::new(&build_threat_model(&models.ue, &models.mme, cfg))
                .expect("composed threat models are valid")
        })
        .collect();
    // Warm-up pass so the first measured width does not pay for page
    // faults and allocator growth.
    for c in &compiled {
        let mut s = CheckStats::default();
        let _ = build_reach_graph_budgeted(c, state_limit, &BudgetMeter::unlimited(), &mut s, 1);
    }
    let mut explore_rows: Vec<(usize, f64, u64)> = Vec::new();
    for &width in &EXPLORE_WIDTHS {
        let start = Instant::now();
        let mut states = 0u64;
        for c in &compiled {
            let mut s = CheckStats::default();
            let g = build_reach_graph_budgeted(
                c,
                state_limit,
                &BudgetMeter::unlimited(),
                &mut s,
                width,
            )
            .expect("registry graphs fit the default state limit");
            states += g.build_stats().states;
        }
        let secs = start.elapsed().as_secs_f64();
        println!(
            "  explore workers={width}: {secs:.3}s  ({:.0} states/s){}",
            states as f64 / secs.max(1e-9),
            if width > hardware {
                "  [oversubscribed]"
            } else {
                ""
            }
        );
        explore_rows.push((width, secs, states));
    }
    let explore_serial_states = explore_rows[0].2;
    for &(width, _, states) in &explore_rows {
        assert_eq!(
            states, explore_serial_states,
            "exploration at {width} workers interned a different state count"
        );
    }
    let explore_serial_secs = explore_rows[0].1;
    let speedup_at_4 = explore_rows
        .iter()
        .find(|&&(w, _, _)| w == 4)
        .map(|&(_, secs, _)| explore_serial_secs / secs.max(1e-9));
    // The floor the regression gate compares against: the best
    // states/sec among genuinely parallel, non-oversubscribed rows.
    let parallel_states_per_sec = explore_rows
        .iter()
        .filter(|&&(w, _, _)| w > 1 && w <= hardware)
        .map(|&(_, secs, states)| states as f64 / secs.max(1e-9))
        .fold(None::<f64>, |acc, r| Some(acc.map_or(r, |a| a.max(r))));

    // State-space reduction effect: the same full-registry run with
    // cone-of-influence slicing forced on vs off (POR on in both: it
    // never changes what is explored, only how guards are evaluated).
    // Slicing only applies on the shared-graph path, so the section is
    // measured — and the regression gate enforced — only when the graph
    // cache is enabled.
    let reduction = graph_cache_on.then(|| {
        // Distinct states explored and POR commute hits of one run.
        let states_with_flags = |slice: bool| {
            let collector = Collector::enabled();
            let report = analyze_implementation(
                Implementation::Reference,
                &AnalysisConfig {
                    slice,
                    por: true,
                    collector: collector.clone(),
                    store_dir: None,
                    ..AnalysisConfig::default()
                },
            );
            assert_eq!(report.degraded.total(), 0, "clean measurement runs");
            (
                collector.counter_value("smv.states_explored"),
                collector.counter_value("reduction.por_commute_hits"),
            )
        };
        let (unsliced, _) = states_with_flags(false);
        let (sliced, por_hits) = states_with_flags(true);
        let ratio = (unsliced.saturating_sub(sliced)) as f64 / (unsliced.max(1)) as f64;
        println!(
            "  reduction: {sliced} states sliced vs {unsliced} unsliced \
             ({:.1}% saved), {por_hits} POR commute hits",
            ratio * 100.0
        );
        // Per-property cone sizes, from the same slicing decision the
        // pipeline makes: a cone is only used when it drops at least
        // one command (otherwise the projection explores nearly the
        // full space alongside the full graph the config's other
        // properties need).
        let mut cones: Vec<(String, usize, usize, usize, usize)> = Vec::new();
        let mut full_graph_properties = 0usize;
        for p in registry()
            .iter()
            .filter(|p| matches!(p.check, procheck_props::Check::Model(_)))
        {
            let procheck_props::Check::Model(prop) = &p.check else {
                unreachable!()
            };
            let cfg = p.slice.threat_config();
            let idx = distinct_threat_models
                .iter()
                .position(|c| *c == cfg)
                .expect("every slice config is a distinct config");
            let c = &compiled[idx];
            let profitable = c
                .compile_property(prop)
                .ok()
                .and_then(|cp| slice_for_property(c, &cp))
                .filter(|s| s.sig.cmd_count() < c.command_count());
            match profitable {
                Some(s) => cones.push((
                    p.id.to_string(),
                    c.num_vars(),
                    s.sig.var_count(),
                    c.command_count(),
                    s.sig.cmd_count(),
                )),
                None => full_graph_properties += 1,
            }
        }
        (
            sliced,
            unsliced,
            ratio,
            por_hits,
            cones,
            full_graph_properties,
        )
    });

    // Warm-run measurement: the persistent store's cold → warm → 1-
    // transition-mutation trajectory, over the full registry with
    // pre-extracted models (so both sides time phases 3–4 only). The
    // warm run must hit on every verdict and explore nothing; after the
    // mutation only properties whose key still matches (linkability,
    // delta-disjoint cones) replay. Only measured on the shared-graph
    // path — the store is an L2 under the graph cache.
    let warm_run = graph_cache_on.then(|| {
        let dir = std::env::temp_dir().join(format!("procheck-bench-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store_cfg = AnalysisConfig {
            store_dir: Some(dir.clone()),
            ..AnalysisConfig::default()
        };
        let start = Instant::now();
        let cold = analyze_extracted(Implementation::Reference, &models, &store_cfg);
        let cold_secs = start.elapsed().as_secs_f64();
        assert_eq!(cold.store_stats.hits, 0, "fresh store has nothing to hit");
        assert_eq!(cold.degraded.total(), 0, "clean measurement runs");

        let start = Instant::now();
        let warm = analyze_extracted(Implementation::Reference, &models, &store_cfg);
        let warm_secs = start.elapsed().as_secs_f64();
        assert_eq!(
            warm.store_stats.hits, warm.store_stats.lookups,
            "unchanged warm run must hit on every verdict"
        );
        assert_eq!(warm.store_stats.hits, properties as u64);
        assert_eq!(
            warm.graph_cache_stats.lookups, 0,
            "warm verdict hits never reach the graph layer"
        );
        let render = |r: &procheck::pipeline::AnalysisReport| {
            let mut out = String::new();
            for p in &r.results {
                let _ = writeln!(
                    out,
                    "{}|{:?}|iters={}|refs={}|cpv={}|cache_hit={}",
                    p.property_id,
                    p.outcome,
                    p.cegar_iterations,
                    p.refinements,
                    p.cpv_queries,
                    p.cache_hit
                );
            }
            out
        };
        assert_eq!(render(&warm), render(&cold), "warm replay must be exact");

        let mut mutated = models.clone();
        mutated.ue.add_transition(
            procheck_fsm::Transition::build("emm_deregistered", "emm_deregistered")
                .when("probe_request")
                .then("probe_reject"),
        );
        let start = Instant::now();
        let mutated_report = analyze_extracted(Implementation::Reference, &mutated, &store_cfg);
        let mutated_secs = start.elapsed().as_secs_f64();
        let rechecked = mutated_report.store_stats.lookups - mutated_report.store_stats.hits;
        let from_scratch = analyze_extracted(
            Implementation::Reference,
            &mutated,
            &AnalysisConfig {
                store_dir: None,
                ..AnalysisConfig::default()
            },
        );
        assert_eq!(
            render(&mutated_report),
            render(&from_scratch),
            "post-mutation warm report must equal a from-scratch cold run"
        );
        println!(
            "  warm run: cold {cold_secs:.3}s -> warm {warm_secs:.3}s \
             ({:.1}x, {}/{} verdict hits, 0 explorations); \
             1-transition mutation {mutated_secs:.3}s ({rechecked} of {properties} re-checked)",
            cold_secs / warm_secs.max(1e-9),
            warm.store_stats.hits,
            warm.store_stats.lookups,
        );
        let cold_stats = cold.store_stats;
        let stats = warm.store_stats;
        let mutated_stats = mutated_report.store_stats;
        let _ = std::fs::remove_dir_all(&dir);
        (
            cold_secs,
            warm_secs,
            mutated_secs,
            cold_stats,
            stats,
            mutated_stats,
        )
    });
    if warm_run.is_none() {
        println!("  warm run: skipped (graph cache disabled; the store is inert)");
    }

    // Cross-validation: the full registry once under `Both`, every
    // model property answered independently by the explicit engine and
    // the bounded symbolic (BMC) one. The divergence count must be
    // zero — any disagreement is an engine bug, and the regression gate
    // enforces it. This run's telemetry feeds `BENCH_telemetry.json`:
    // its explicit leg records exactly the counters an explicit-only
    // run would, and the `backend.*` family lands alongside them.
    let collector = Collector::enabled();
    let xval_cfg = AnalysisConfig {
        backend: BackendKind::Both,
        collector: collector.clone(),
        store_dir: None,
        ..AnalysisConfig::default()
    };
    let start = Instant::now();
    let report = analyze_implementation(Implementation::Reference, &xval_cfg);
    let xval_secs = start.elapsed().as_secs_f64();
    assert_eq!(report.results.len(), properties);
    let model_properties = registry()
        .iter()
        .filter(|p| matches!(p.check, procheck_props::Check::Model(_)))
        .count();
    let divergences = collector.counter_value("backend.divergences");
    let bound_reached = collector.counter_value("backend.bound_reached");
    assert_eq!(
        divergences, 0,
        "explicit and symbolic backends disagreed on {divergences} properties"
    );
    println!(
        "  cross-validation (bound {}): {xval_secs:.3}s, {model_properties} model \
         properties, {divergences} divergences, {bound_reached} bound-limited, \
         {} clauses / {} conflicts",
        xval_cfg.bmc_bound,
        collector.counter_value("backend.clauses"),
        collector.counter_value("backend.conflicts"),
    );

    let telemetry = TelemetryReport::from_run(&report, &collector);
    let graph = &report.graph_cache_stats;

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"analyze_implementation full registry\","
    );
    let _ = writeln!(json, "  \"implementation\": \"reference\",");
    let _ = writeln!(json, "  \"properties\": {properties},");
    let _ = writeln!(
        json,
        "  \"distinct_threat_models_built\": {},",
        distinct_threat_models.len()
    );
    let _ = writeln!(json, "  \"hardware_threads\": {hardware},");
    let _ = writeln!(json, "  \"graph_cache_enabled\": {graph_cache_on},");
    let _ = writeln!(json, "  \"runs\": [");
    for (i, (threads, secs, states)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"threads\": {threads}, \"hardware_threads\": {hardware}, \
             \"oversubscribed\": {}, \"wall_clock_secs\": {secs:.4}, \
             \"states_explored\": {states}, \"states_per_sec\": {:.0}}}{comma}",
            *threads > hardware,
            *states as f64 / secs.max(1e-9)
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"best_speedup_vs_serial\": {:.3},",
        serial / best.max(1e-9)
    );
    let _ = writeln!(json, "  \"explore_scaling\": {{");
    let _ = writeln!(json, "    \"hardware_threads\": {hardware},");
    let _ = writeln!(json, "    \"runs\": [");
    for (i, (width, secs, states)) in explore_rows.iter().enumerate() {
        let comma = if i + 1 < explore_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"workers\": {width}, \"oversubscribed\": {}, \
             \"wall_clock_secs\": {secs:.4}, \"states_explored\": {states}, \
             \"states_per_sec\": {:.0}, \"speedup_vs_serial\": {:.3}}}{comma}",
            *width > hardware,
            *states as f64 / secs.max(1e-9),
            explore_serial_secs / secs.max(1e-9)
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(
        json,
        "    \"speedup_at_4_workers\": {},",
        speedup_at_4.map_or("null".into(), |s| format!("{s:.3}"))
    );
    // No non-oversubscribed parallel row exists on narrow hosts; emit
    // an explicit skip reason instead of `null` so artifact readers
    // (and the regression gate's log) can say *why* the floor was not
    // enforced.
    let _ = writeln!(
        json,
        "    \"parallel_states_per_sec\": {}",
        parallel_states_per_sec.map_or(
            "{\"skipped\": \"hardware_threads < 4\"}".into(),
            |r| format!("{r:.0}")
        )
    );
    let _ = writeln!(json, "  }},");
    match &warm_run {
        Some((cold_secs, warm_secs, mutated_secs, cold_stats, warm_stats, mutated_stats)) => {
            let _ = writeln!(json, "  \"warm_run\": {{");
            let _ = writeln!(json, "    \"cold_secs\": {cold_secs:.4},");
            let _ = writeln!(json, "    \"warm_secs\": {warm_secs:.4},");
            let _ = writeln!(
                json,
                "    \"warm_speedup_vs_cold\": {:.3},",
                cold_secs / warm_secs.max(1e-9)
            );
            let _ = writeln!(json, "    \"verdict_lookups\": {},", warm_stats.lookups);
            let _ = writeln!(json, "    \"verdict_hits\": {},", warm_stats.hits);
            let _ = writeln!(
                json,
                "    \"warm_hit_rate\": {:.6},",
                warm_stats.hits as f64 / (warm_stats.lookups.max(1)) as f64
            );
            let _ = writeln!(json, "    \"warm_graph_explorations\": 0,");
            let _ = writeln!(json, "    \"mutated_secs\": {mutated_secs:.4},");
            let _ = writeln!(
                json,
                "    \"mutated_rechecked\": {},",
                mutated_stats.lookups - mutated_stats.hits
            );
            let _ = writeln!(json, "    \"mutated_hits\": {},", mutated_stats.hits);
            let _ = writeln!(
                json,
                "    \"store_bytes_written\": {}",
                cold_stats.bytes_written
            );
            let _ = writeln!(json, "  }},");
        }
        None => {
            let _ = writeln!(
                json,
                "  \"warm_run\": {{\"skipped\": \"graph cache disabled\"}},"
            );
        }
    }
    let _ = writeln!(json, "  \"symbolic\": {{");
    let _ = writeln!(json, "    \"bmc_bound\": {},", xval_cfg.bmc_bound);
    let _ = writeln!(json, "    \"wall_clock_secs\": {xval_secs:.4},");
    let _ = writeln!(json, "    \"model_properties\": {model_properties},");
    let _ = writeln!(json, "    \"divergences\": {divergences},");
    let _ = writeln!(
        json,
        "    \"agreement_rate\": {:.6},",
        (model_properties as u64 - divergences) as f64 / (model_properties.max(1)) as f64
    );
    let _ = writeln!(json, "    \"bound_reached\": {bound_reached},");
    for counter in ["clauses", "decisions", "propagations", "conflicts"] {
        let _ = writeln!(
            json,
            "    \"{counter}\": {},",
            collector.counter_value(&format!("backend.{counter}"))
        );
    }
    let _ = writeln!(
        json,
        "    \"learned\": {}",
        collector.counter_value("backend.learned")
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"graph_cache\": {{");
    let _ = writeln!(json, "    \"lookups\": {},", graph.lookups);
    let _ = writeln!(json, "    \"builds\": {},", graph.builds);
    let _ = writeln!(json, "    \"hits\": {},", graph.hits());
    let _ = writeln!(json, "    \"hit_rate\": {:.6},", graph.hit_rate());
    let _ = writeln!(
        json,
        "    \"nodes_reused\": {},",
        telemetry.totals.graph_cache_nodes_reused
    );
    let _ = writeln!(
        json,
        "    \"states_explored\": {},",
        telemetry.totals.smv_states_explored
    );
    let _ = writeln!(
        json,
        "    \"total_state_visits\": {}",
        telemetry.totals.total_state_visits()
    );
    let _ = writeln!(json, "  }},");
    match &reduction {
        Some((sliced, unsliced, ratio, por_hits, cones, full_props)) => {
            let _ = writeln!(json, "  \"reduction\": {{");
            let _ = writeln!(json, "    \"slicing_enabled_by_default\": true,");
            let _ = writeln!(json, "    \"states_with_slicing\": {sliced},");
            let _ = writeln!(json, "    \"states_without_slicing\": {unsliced},");
            let _ = writeln!(json, "    \"state_reduction_ratio\": {ratio:.6},");
            let _ = writeln!(json, "    \"por_commute_hits\": {por_hits},");
            let _ = writeln!(json, "    \"sliced_properties\": {},", cones.len());
            let _ = writeln!(json, "    \"full_graph_properties\": {full_props},");
            let _ = writeln!(json, "    \"cones\": [");
            for (i, (id, fv, cv, fc, cc)) in cones.iter().enumerate() {
                let comma = if i + 1 < cones.len() { "," } else { "" };
                let _ = writeln!(
                    json,
                    "      {{\"property\": \"{id}\", \"full_vars\": {fv}, \
                     \"cone_vars\": {cv}, \"full_cmds\": {fc}, \"cone_cmds\": {cc}}}{comma}"
                );
            }
            let _ = writeln!(json, "    ]");
            let _ = writeln!(json, "  }},");
        }
        None => {
            let _ = writeln!(json, "  \"reduction\": null,");
        }
    }
    let _ = writeln!(
        json,
        "  \"threat_build_per_property_secs\": {per_property_secs:.4},"
    );
    let _ = writeln!(
        json,
        "  \"threat_build_distinct_secs\": {distinct_secs:.4},"
    );
    let _ = writeln!(
        json,
        "  \"threat_build_speedup\": {:.3}",
        per_property_secs / distinct_secs.max(1e-9)
    );
    json.push_str("}\n");

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json");
    std::fs::write(&out, json).expect("write BENCH_pipeline.json");
    println!("wrote {}", out.display());

    print!("{}", telemetry.render_text());
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_telemetry.json");
    std::fs::write(&out, telemetry.to_json()).expect("write BENCH_telemetry.json");
    println!("wrote {}", out.display());
}
