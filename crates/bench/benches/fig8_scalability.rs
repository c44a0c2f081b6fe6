//! Criterion version of the Fig 8 / RQ3 experiment: per-property
//! model-checking time on the ProChecker-extracted model vs the
//! hand-built LTEInspector model, for the 14 Table II properties.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use procheck::cegar::{cegar_check, CegarOutcome};
use procheck_bench::Fig8Models;
use procheck_props::{common_properties, Check};
use procheck_smv::checker::Property;
use procheck_smv::model::Model;
use procheck_smv::BudgetMeter;
use procheck_telemetry::Collector;
use procheck_threat::StepSemantics;
use std::time::Duration;

const STATE_LIMIT: usize = 2_000_000;

/// One private-exploration CEGAR run: serial, unbudgeted, POR on.
fn one_shot(model: &Model, prop: &Property, semantics: &StepSemantics) -> CegarOutcome {
    let meter = BudgetMeter::unlimited();
    cegar_check(
        model,
        prop,
        semantics,
        STATE_LIMIT,
        24,
        &meter,
        1,
        true,
        &Collector::disabled(),
    )
    .unwrap()
}

fn fig8(c: &mut Criterion) {
    let models = Fig8Models::prepare();
    let mut group = c.benchmark_group("fig8");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    for p in common_properties() {
        let Check::Model(prop) = &p.check else {
            continue;
        };
        let semantics = StepSemantics::new(p.slice.threat_config());
        let idx = p.table2_index.unwrap();
        let lte_model = models.lteinspector_model(&p);
        group.bench_with_input(
            BenchmarkId::new("lteinspector", idx),
            &lte_model,
            |b, model| b.iter(|| one_shot(model, prop, &semantics)),
        );
        let pro_model = models.prochecker_model(&p);
        group.bench_with_input(
            BenchmarkId::new("prochecker", idx),
            &pro_model,
            |b, model| b.iter(|| one_shot(model, prop, &semantics)),
        );
    }
    group.finish();
}

criterion_group!(benches, fig8);
criterion_main!(benches);
