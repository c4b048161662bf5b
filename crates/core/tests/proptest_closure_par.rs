//! Differential tests of the block closure engine: on random ontologies
//! [`ChunkedBitsetEngine`] at 1, 2 and 3 threads must produce successor
//! lists identical to both sequential oracles, [`SccEngine`] and
//! [`BfsEngine`].
//!
//! Generated Figure 1–style ontologies stay below the engine's threading
//! threshold; the multi-block generator builds digraphs whose condensation
//! spans enough blocks to run threaded, with a partial last block, arcs
//! from late blocks into early ones, nontrivial strongly connected
//! components and sink-only nodes.

use obda_dllite::parse_tbox;
use obda_genont::OntologySpec;
use proptest::prelude::*;
use proptest::test_runner::{run_test, TestCaseError, TestRng};
use quonto::closure::Condensation;
use quonto::closure_par::{BLOCK, MIN_PARALLEL_BLOCKS};
use quonto::{BfsEngine, ChunkedBitsetEngine, ClosureEngine, NodeId, SccEngine, TboxGraph};

prop_compose! {
    fn arb_spec()(
        concepts in 1usize..120,
        roles in 0usize..12,
        roots in 1usize..4,
        existentials in 0usize..40,
        qualified in 0usize..20,
        disjointness in 0usize..10,
        seed in 0u64..u64::MAX,
    ) -> OntologySpec {
        OntologySpec {
            name: "par-prop".into(),
            concepts,
            roles,
            roots,
            existentials,
            qualified_existentials: qualified,
            disjointness,
            seed,
            ..OntologySpec::default()
        }
    }
}

/// Checks the block engine against both oracles at every thread count in
/// `threads`.
fn check(g: &TboxGraph, threads: &[usize]) -> Result<(), TestCaseError> {
    let oracles = [SccEngine.compute(g), BfsEngine.compute(g)];
    for &t in threads {
        let closure = ChunkedBitsetEngine::with_threads(t).compute(g);
        for (oracle, name) in oracles.iter().zip(["scc", "bfs"]) {
            prop_assert_eq!(closure.num_nodes(), oracle.num_nodes());
            for v in 0..g.num_nodes() {
                let v = NodeId(v as u32);
                prop_assert_eq!(
                    closure.successors(v),
                    oracle.successors(v),
                    "{} threads diverge from {} at node {}",
                    t,
                    name,
                    v.0
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn parallel_engines_match_scc(spec in arb_spec()) {
        let g = TboxGraph::build(&spec.generate());
        check(&g, &[1, 2, 3])?;
    }
}

/// A random TBox over `concepts` atomic concepts (plus a few roles)
/// whose graph is a forward DAG of short and long arcs, closed into
/// small cycles by a few short back arcs. Every cycle needs a back arc
/// and spans at most `8 × 4` concept ids, so at most a few hundred nodes
/// merge and the condensation keeps at least `MIN_PARALLEL_BLOCKS`
/// blocks.
fn multi_block_tbox(rng: &mut TestRng) -> String {
    let concepts = MIN_PARALLEL_BLOCKS * BLOCK + 300 + rng.gen_below(400) as usize;
    let roles = rng.gen_below(4) as usize;
    let pick = |rng: &mut TestRng| rng.gen_below(concepts as u64) as usize;
    let mut src = String::from("concept");
    for i in 0..concepts {
        src.push_str(&format!(" C{i}"));
    }
    if roles > 0 {
        src.push_str("\nrole");
        for r in 0..roles {
            src.push_str(&format!(" p{r}"));
        }
    }
    let arc = |src: &mut String, a: usize, b: usize| {
        if a != b {
            src.push_str(&format!("\nC{a} [= C{b}"));
        }
    };
    // Short forward arcs: chains broken often enough that reachability
    // stays moderate.
    for _ in 0..concepts / 2 {
        let a = pick(rng);
        let b = (a + 1 + rng.gen_below(16) as usize).min(concepts - 1);
        arc(&mut src, a, b);
    }
    // Long forward arcs: Tarjan numbers the far end first, so these run
    // from late components into early ones.
    for _ in 0..1 + rng.gen_below(8) {
        let (a, b) = (pick(rng), pick(rng));
        arc(&mut src, a.min(b), a.max(b));
    }
    // Short back arcs close cycles over a forward run of ids.
    for _ in 0..1 + rng.gen_below(8) {
        let b = pick(rng);
        let a = b.saturating_sub(1 + rng.gen_below(4) as usize);
        for v in a..b {
            arc(&mut src, v, v + 1);
        }
        arc(&mut src, b, a);
    }
    // Roles hang off the concept DAG through their domains.
    for r in 0..roles {
        let a = pick(rng);
        src.push_str(&format!("\nC{a} [= exists p{r}"));
        if r > 0 {
            src.push_str(&format!("\np{r} [= p{}", r - 1));
        }
    }
    src
}

#[test]
fn multi_block_graphs_match_both_oracles() {
    let (mut cases, mut cyclic, mut late_to_early) = (0u64, 0u64, 0u64);
    run_test("multi_block_graphs_match_both_oracles", |rng| {
        let g = TboxGraph::build(&parse_tbox(&multi_block_tbox(rng)).unwrap());
        let cond = Condensation::build(&g);
        let nc = cond.num_comps();
        prop_assert!(nc > MIN_PARALLEL_BLOCKS * BLOCK, "only {} components", nc);
        if nc.is_multiple_of(BLOCK) {
            // The last block must be partial; skip the rare full one.
            return Ok(());
        }
        cases += 1;
        if (0..nc).any(|c| cond.members(c).len() > 1) {
            cyclic += 1;
        }
        if (0..nc).any(|c| {
            cond.successors(c)
                .iter()
                .any(|&d| c / BLOCK > d as usize / BLOCK + 1)
        }) {
            late_to_early += 1;
        }
        let sinks = (0..g.num_nodes())
            .filter(|&v| g.successors(NodeId(v as u32)).is_empty())
            .count();
        prop_assert!(sinks > 0, "no sink-only node");
        // More threads than blocks, too.
        check(&g, &[1, 2, 3, nc.div_ceil(BLOCK) + 1])
    });
    // The generator must keep producing the shapes the test is for.
    assert!(
        cases * 10 >= proptest::test_runner::cases() * 9,
        "{cases} cases"
    );
    assert!(cyclic * 2 >= cases, "{cyclic}/{cases} cases with a cycle");
    assert!(
        late_to_early * 2 >= cases,
        "{late_to_early}/{cases} cases with an arc across a whole block"
    );
}

#[test]
fn empty_and_sink_only_graphs() {
    let empty = TboxGraph::build(&parse_tbox("").unwrap());
    assert_eq!(empty.num_nodes(), 0);
    let mut src = String::from("concept");
    for i in 0..MIN_PARALLEL_BLOCKS * BLOCK + 3 {
        src.push_str(&format!(" C{i}"));
    }
    let sinks = TboxGraph::build(&parse_tbox(&src).unwrap());
    for g in [empty, sinks] {
        check(&g, &[1, 2, 3, 4]).unwrap();
        let c = ChunkedBitsetEngine::with_threads(2).compute(&g);
        assert_eq!(c.num_arcs(), 0);
    }
}
