//! The block closure engine, the crate's production closure engine
//! (std-only: scoped threads, no external crates).
//!
//! [`ChunkedBitsetEngine`] starts from the same Tarjan condensation as
//! [`SccEngine`](crate::closure::SccEngine) and processes source
//! components in *blocks* of [`BLOCK`] = 64: one `u64` word per component
//! records which of the block's sources reach it, and one descending
//! sweep over the condensation propagates the words along its arcs. Each
//! block then
//!
//! 1. sizes every source's successor list exactly, by summing the member
//!    counts of the components each source reaches;
//! 2. marks the members of every reached component in a node-id bitmap
//!    and walks its set bits in ascending order, pushing each node onto
//!    the lists of the sources whose bits its component carries — so the
//!    lists come out sorted, with no sort call anywhere;
//! 3. hands a component's list to its first member and a clone to every
//!    other member of a cyclic component.
//!
//! Memory is `O(V)` per in-flight block. Blocks are independent, so on
//! graphs of at least [`MIN_PARALLEL_BLOCKS`] blocks they are striped
//! across worker threads (block `b` goes to worker `b mod t`: a block's
//! cost grows with its highest component id) with no synchronization;
//! the result is identical at every thread count (property-tested in
//! `tests/proptest_closure_par.rs`).

use std::num::NonZeroUsize;

use crate::closure::{Closure, ClosureEngine, Condensation};
use crate::graph::TboxGraph;

/// Source components per block: one bit each in a `u64` word. (Blocks
/// of 2–8 words per component measured no faster on the Figure 1
/// presets, at one thread or two.)
pub const BLOCK: usize = 64;

/// Graphs of fewer blocks than this (at most 1024 components) run on the
/// calling thread alone. Spawning a worker costs more than such a graph's
/// whole closure: the 4-block Mouse preset at scale 0.1 takes about 30 µs
/// at 1 thread and 75–100 µs at 2, while the 41-block Gene preset drops
/// from 1.1 ms to 0.7 ms (2-CPU host).
pub const MIN_PARALLEL_BLOCKS: usize = 16;

/// Number of worker threads the machine comfortably supports.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Block-parallel bit-slab engine with sorted, sort-free emission.
#[derive(Debug, Clone, Copy)]
pub struct ChunkedBitsetEngine {
    threads: usize,
}

impl ChunkedBitsetEngine {
    /// Engine with an explicit worker count (`0` = all cores).
    pub fn with_threads(threads: usize) -> Self {
        ChunkedBitsetEngine {
            threads: if threads == 0 {
                default_threads()
            } else {
                threads
            },
        }
    }
}

impl Default for ChunkedBitsetEngine {
    fn default() -> Self {
        Self::with_threads(0)
    }
}

impl ClosureEngine for ChunkedBitsetEngine {
    fn name(&self) -> &'static str {
        "chunked-bitset"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        let cond = Condensation::build(g);
        let num_blocks = cond.num_comps().div_ceil(BLOCK);
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); g.num_nodes()];
        let threads = if num_blocks < MIN_PARALLEL_BLOCKS {
            1
        } else {
            self.threads.min(num_blocks)
        };
        if threads == 1 {
            let mut scratch = Scratch::new(&cond, g.num_nodes());
            for b in 0..num_blocks {
                scratch.block(&cond, b, |v, list| succ[v as usize] = list);
            }
            return Closure::from_successor_lists(succ);
        }
        // Worker `t` takes blocks t, t + threads, …; the calling thread
        // runs stripe 0 itself.
        let stripe = |t: usize| {
            let mut scratch = Scratch::new(&cond, g.num_nodes());
            let mut out: Vec<(u32, Vec<u32>)> = Vec::new();
            for b in (t..num_blocks).step_by(threads) {
                scratch.block(&cond, b, |v, list| out.push((v, list)));
            }
            out
        };
        let parts: Vec<Vec<(u32, Vec<u32>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..threads)
                .map(|t| {
                    let stripe = &stripe;
                    s.spawn(move || stripe(t))
                })
                .collect();
            let mut parts = vec![stripe(0)];
            parts.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("closure block worker panicked")),
            );
            parts
        });
        for (v, list) in parts.into_iter().flatten() {
            succ[v as usize] = list;
        }
        Closure::from_successor_lists(succ)
    }
}

/// One worker's buffers, reused across its blocks.
struct Scratch {
    /// Per component: which of the block's sources reach it.
    reach: Vec<u64>,
    /// Node-id bitmap of the members of every reached component.
    nodes: Vec<u64>,
}

impl Scratch {
    fn new(cond: &Condensation, num_nodes: usize) -> Self {
        Scratch {
            reach: vec![0; cond.num_comps()],
            nodes: vec![0; num_nodes.div_ceil(64)],
        }
    }

    /// Computes the sorted successor lists of block `b`'s source
    /// components and hands each member node its list through `emit`.
    fn block(&mut self, cond: &Condensation, b: usize, mut emit: impl FnMut(u32, Vec<u32>)) {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(cond.num_comps());
        // Condensation arcs run from higher to lower component id, so
        // components at or above `hi` carry no block bits and one
        // descending sweep is a forward-topological propagation.
        let reach = &mut self.reach[..hi];
        reach.fill(0);
        for (i, word) in reach[lo..].iter_mut().enumerate() {
            *word = 1 << i;
        }
        for c in (0..hi).rev() {
            let wc = reach[c];
            if wc == 0 {
                continue;
            }
            for &d in cond.successors(c) {
                reach[d as usize] |= wc;
            }
        }
        // A source reaches its own component through an arc only when the
        // component is a cycle; a singleton keeps its own bit off.
        for (i, word) in reach[lo..].iter_mut().enumerate() {
            if cond.members(lo + i).len() == 1 {
                *word &= !(1 << i);
            }
        }

        // Per source: its successor count.
        let mut counts = [0usize; BLOCK];
        for (c, &wc) in reach.iter().enumerate() {
            if wc == 0 {
                continue;
            }
            let members = cond.members(c);
            for_each_bit(wc, |i| counts[i] += members.len());
            for &v in members {
                self.nodes[v as usize / 64] |= 1 << (v % 64);
            }
        }
        let mut lists: Vec<Vec<u32>> = counts[..hi - lo]
            .iter()
            .map(|&k| Vec::with_capacity(k))
            .collect();
        // Ascending node order, clearing the bitmap as it goes.
        for (wi, word) in self.nodes.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let v = (wi * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                let wc = reach[cond.comp_of[v as usize] as usize];
                for_each_bit(wc, |i| lists[i].push(v));
            }
        }

        for (i, list) in lists.into_iter().enumerate() {
            let (&first, rest) = cond
                .members(lo + i)
                .split_first()
                .expect("components are non-empty");
            for &v in rest {
                emit(v, list.clone());
            }
            emit(first, list);
        }
    }
}

/// Calls `f` with the index of every set bit of `bits`, ascending.
#[inline]
fn for_each_bit(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::{BfsEngine, SccEngine};
    use crate::graph::NodeId;
    use obda_dllite::parse_tbox;

    fn assert_matches_scc(src: &str) {
        let t = parse_tbox(src).unwrap();
        let g = TboxGraph::build(&t);
        let reference = SccEngine.compute(&g);
        for threads in [1, 2, 4] {
            let c = ChunkedBitsetEngine::with_threads(threads).compute(&g);
            assert_eq!(c.num_nodes(), reference.num_nodes());
            for v in 0..g.num_nodes() {
                assert_eq!(
                    c.successors(NodeId(v as u32)),
                    reference.successors(NodeId(v as u32)),
                    "threads {threads} node {v}"
                );
            }
        }
    }

    #[test]
    fn chain_matches_scc() {
        assert_matches_scc("concept A B C D\nA [= B\nB [= C\nC [= D");
    }

    #[test]
    fn cycles_match_scc() {
        assert_matches_scc("concept A B C\nA [= B\nB [= A\nB [= C");
    }

    #[test]
    fn roles_and_existentials_match_scc() {
        assert_matches_scc("concept A\nrole p r s\np [= r\nr [= s\nA [= exists p");
    }

    #[test]
    fn diamond_with_cycle_matches_scc() {
        assert_matches_scc("concept A B C D E\nA [= B\nA [= C\nB [= D\nC [= D\nD [= E\nE [= D");
    }

    /// Just enough blocks to run threaded, of mostly isolated concepts,
    /// with a cycle and arcs that cross blocks in both directions. Small
    /// closure, so it stays cheap under Miri.
    #[test]
    fn sparse_multi_block_graph_matches_scc() {
        let n = MIN_PARALLEL_BLOCKS * BLOCK + 7;
        let mut src = String::from("concept");
        for i in 0..n {
            src.push_str(&format!(" C{i}"));
        }
        for (a, b) in [
            (0, n - 1),
            (n - 1, 3),
            (3, 0),
            (BLOCK + 1, 5),
            (6, BLOCK + 2),
        ] {
            src.push_str(&format!("\nC{a} [= C{b}"));
        }
        assert_matches_scc(&src);
    }

    #[test]
    fn empty_graph() {
        for src in ["concept A", ""] {
            let g = TboxGraph::build(&parse_tbox(src).unwrap());
            let c = ChunkedBitsetEngine::with_threads(2).compute(&g);
            assert_eq!(c.num_nodes(), BfsEngine.compute(&g).num_nodes());
            assert_eq!(c.num_arcs(), 0);
        }
    }

    #[test]
    fn thread_resolution() {
        assert!(ChunkedBitsetEngine::with_threads(0).threads() >= 1);
        assert_eq!(ChunkedBitsetEngine::with_threads(3).threads(), 3);
    }
}
