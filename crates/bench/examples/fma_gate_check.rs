//! Full-scale correctness check of the production closure engine: the
//! block engine at 2 threads must equal `SccEngine` arc for arc on the
//! full FMA 2.0 preset (about 42 k graph nodes and 108 M closure arcs).
//!
//! ```text
//! cargo run --release -p obda-bench --example fma_gate_check
//! ```

use quonto::{ChunkedBitsetEngine, ClosureEngine, NodeId, SccEngine, TboxGraph};

fn main() {
    let tbox = obda_genont::presets::fma_2_0().generate();
    println!("FMA 2.0 preset: {} concepts", tbox.stats().concepts);
    let g = TboxGraph::build(&tbox);
    println!("graph nodes: {}", g.num_nodes());
    let start = std::time::Instant::now();
    let c = ChunkedBitsetEngine::with_threads(2).compute(&g);
    println!(
        "chunked-bitset(threads=2): {} closure arcs in {:.2?}",
        c.num_arcs(),
        start.elapsed()
    );
    let start = std::time::Instant::now();
    let reference = SccEngine.compute(&g);
    println!(
        "scc reference: {} arcs in {:.2?}",
        reference.num_arcs(),
        start.elapsed()
    );
    assert_eq!(c.num_nodes(), reference.num_nodes(), "node counts differ");
    for v in 0..g.num_nodes() {
        let v = NodeId(v as u32);
        assert_eq!(
            c.successors(v),
            reference.successors(v),
            "divergence at node {}",
            v.0
        );
    }
    println!("closures identical: OK");
}
