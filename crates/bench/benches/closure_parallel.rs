//! Parallel-closure scaling: the sequential SCC baseline against the
//! block engine at 1 and 2 workers, on the Galen- and FMA-shaped presets
//! (the two largest Figure 1 ontologies).
//!
//! ```text
//! cargo bench -p obda-bench --bench closure_parallel
//! ```
//!
//! Presets are scaled down so a full criterion pass stays in seconds; pass
//! `QUONTO_BENCH_SCALE` (a float, default 0.1) to change that — e.g.
//! `QUONTO_BENCH_SCALE=1.0` benches the published ontology sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quonto::{ChunkedBitsetEngine, ClosureEngine, SccEngine, TboxGraph};

fn bench_scale() -> f64 {
    quonto::env::bench_scale().unwrap_or(0.1)
}

fn closure_parallel(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("closure_parallel");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.sample_size(10);
    let shapes = [
        ("galen", obda_genont::presets::galen().scaled(scale)),
        ("fma_2_0", obda_genont::presets::fma_2_0().scaled(scale)),
    ];
    for (label, spec) in shapes {
        let tbox = spec.generate();
        let graph = TboxGraph::build(&tbox);
        group.bench_with_input(BenchmarkId::new("scc", label), &graph, |b, graph| {
            b.iter(|| SccEngine.compute(graph))
        });
        for threads in [1usize, 2] {
            let block = ChunkedBitsetEngine::with_threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("chunked-bitset/t{threads}"), label),
                &graph,
                |b, graph| b.iter(|| block.compute(graph)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, closure_parallel);
criterion_main!(benches);
