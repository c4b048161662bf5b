//! A1: transitive-closure engine ablation (dfs / bfs / scc against the
//! block engine at 1 and 2 threads) on representative ontology shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quonto::TboxGraph;

fn closure_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("closure_ablation");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.sample_size(10);
    let shapes = [
        ("mouse_10pct", obda_genont::presets::mouse().scaled(0.1)),
        ("galen_2pct", obda_genont::presets::galen().scaled(0.02)),
        ("dolce_full", obda_genont::presets::dolce()),
    ];
    for (label, spec) in shapes {
        let tbox = spec.generate();
        let graph = TboxGraph::build(&tbox);
        for engine in quonto::all_engines() {
            group.bench_with_input(
                BenchmarkId::new(obda_bench::engine_label(engine.as_ref()), label),
                &graph,
                |b, graph| b.iter(|| engine.compute(graph)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, closure_ablation);
criterion_main!(benches);
