//! **A1 ablation**: transitive-closure engine choice inside the
//! graph-based classifier, over the Figure 1 ontology suite. Each cell is
//! the best of `--reps` runs (default 5); every engine's closure must
//! have the same arc count.

use std::time::{Duration, Instant};

use obda_bench::engine_label;
use quonto::{all_engines, TboxGraph};

fn arg(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

fn main() {
    let scale = arg("--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1f64);
    let reps = arg("--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5usize)
        .max(1);
    let engines = all_engines();
    let labels: Vec<String> = engines.iter().map(|e| engine_label(e.as_ref())).collect();
    println!(
        "A1 — closure-engine ablation ({}), scale={scale}, best of {reps}\n",
        labels.join(" / ")
    );
    let mut header = vec!["ontology".to_owned(), "nodes".into(), "edges".into()];
    header.extend(labels.iter().cloned());
    header.push("closure arcs".into());
    let mut table = vec![header];
    let mut totals = vec![Duration::ZERO; engines.len()];
    for preset in obda_genont::figure1_presets() {
        let spec = preset.scaled(scale);
        let tbox = spec.generate();
        let graph = TboxGraph::build(&tbox);
        let mut cells = vec![
            spec.name.clone(),
            graph.num_nodes().to_string(),
            graph.num_edges().to_string(),
        ];
        let mut arcs = None;
        for (i, engine) in engines.iter().enumerate() {
            let mut best = Duration::MAX;
            for _ in 0..reps {
                let t0 = Instant::now();
                let closure = engine.compute(&graph);
                best = best.min(t0.elapsed());
                let n = closure.num_arcs();
                assert_eq!(
                    *arcs.get_or_insert(n),
                    n,
                    "{}: {} disagrees on the arc count",
                    spec.name,
                    labels[i]
                );
            }
            totals[i] += best;
            cells.push(format!("{best:.2?}"));
        }
        cells.push(arcs.unwrap_or(0).to_string());
        table.push(cells);
    }
    let mut total_row = vec!["total".to_owned(), String::new(), String::new()];
    total_row.extend(totals.iter().map(|t| format!("{t:.2?}")));
    total_row.push(String::new());
    table.push(total_row);
    println!("{}", obda_bench::render(&table));
}
