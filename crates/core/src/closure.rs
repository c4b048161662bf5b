//! Transitive-closure engines for the TBox digraph.
//!
//! The paper's classification technique reduces to computing the
//! transitive closure `G_T*` of the digraph of Definition 1. How the
//! closure is computed is an implementation choice with large performance
//! consequences, so this module provides several interchangeable engines
//! behind the [`ClosureEngine`] trait (benchmarked against each other in
//! the `closure_ablation` bench):
//!
//! * [`DfsEngine`] — per-source iterative depth-first reachability;
//! * [`BfsEngine`] — per-source breadth-first reachability;
//! * [`SccEngine`] — Tarjan SCC condensation followed by reachable-set
//!   propagation in reverse topological order;
//! * [`ChunkedBitsetEngine`] — the same condensation, propagated 64
//!   source components at a time as bit words and emitted in node order
//!   across worker threads. It is the production engine (see
//!   [`recommended`]); the other three serve as its test oracles.
//!
//! All engines produce the same [`Closure`]: per-node sorted successor
//! lists over `NodeId`s. A node is listed as its own successor only when
//! it lies on a cycle (`S ⊑ … ⊑ S` through at least one arc); the trivial
//! reflexive subsumption is handled by [`Closure::reaches`] directly.

use crate::closure_par::ChunkedBitsetEngine;
use crate::graph::{NodeId, TboxGraph};

/// The transitive closure of a [`TboxGraph`]: sorted successor lists.
#[derive(Debug, Clone)]
pub struct Closure {
    succ: Vec<Vec<u32>>,
}

impl Closure {
    /// Builds a closure from per-node sorted successor lists (used by the
    /// block engine in [`crate::closure_par`]).
    pub(crate) fn from_successor_lists(succ: Vec<Vec<u32>>) -> Self {
        Closure { succ }
    }

    /// Non-trivial successors of `n` (nodes reachable through at least one
    /// arc), sorted ascending.
    #[inline]
    pub fn successors(&self, n: NodeId) -> &[u32] {
        &self.succ[n.index()]
    }

    /// Whether `to` is reachable from `from` (reflexively: `reaches(n, n)`
    /// is always true).
    #[inline]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        from == to || self.succ[from.index()].binary_search(&to.0).is_ok()
    }

    /// Incrementally incorporates a *new* graph arc `(from, to)` into the
    /// closure (the graph must already contain the arc): every node with
    /// a path to `from` gains `to` and everything `to` reaches. This is
    /// the classic one-edge transitive-closure update —
    /// `O(|pred*(from)| · |succ*(to)|)` sorted-merge work — which keeps
    /// re-classification after small ontology edits far cheaper than a
    /// full recomputation (see `Classification::add_axioms`).
    pub fn insert_edge(&mut self, g: &TboxGraph, from: NodeId, to: NodeId) {
        if self.reaches(from, to) {
            return;
        }
        // Targets: `to` plus everything it already reaches (`to` may be in
        // its own list when it lies on a cycle — keep the list duplicate
        // free).
        let mut targets: Vec<u32> = self.succ[to.index()].clone();
        if let Err(pos) = targets.binary_search(&to.0) {
            targets.insert(pos, to.0);
        }
        // One scratch buffer reused across predecessors: after each merge
        // it swaps with the predecessor's old list, so the loop allocates
        // at most once per call instead of once per predecessor.
        let mut merged: Vec<u32> = Vec::new();
        for p in predecessors_reflexive(g, from) {
            let existing = &self.succ[p as usize];
            // Sorted merge, skipping already-present targets.
            merged.clear();
            merged.reserve(existing.len() + targets.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < existing.len() || j < targets.len() {
                match (existing.get(i), targets.get(j)) {
                    (Some(&e), Some(&t)) if e < t => {
                        merged.push(e);
                        i += 1;
                    }
                    (Some(&e), Some(&t)) if e > t => {
                        merged.push(t);
                        j += 1;
                    }
                    (Some(&e), Some(_)) => {
                        merged.push(e);
                        i += 1;
                        j += 1;
                    }
                    (Some(&e), None) => {
                        merged.push(e);
                        i += 1;
                    }
                    (None, Some(&t)) => {
                        merged.push(t);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            // Reflexive entries stay correct by construction: `p` enters
            // `merged` from `targets` only when the new arc closes a
            // cycle through `p`, and from `existing` only if it was
            // already on one.
            std::mem::swap(&mut self.succ[p as usize], &mut merged);
        }
    }

    /// Total number of arcs in the closure.
    pub fn num_arcs(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.succ.len()
    }
}

/// Strategy interface for computing the closure of a TBox digraph.
pub trait ClosureEngine {
    /// Human-readable engine name (used in benchmark reports).
    fn name(&self) -> &'static str;

    /// Computes the transitive closure.
    fn compute(&self, g: &TboxGraph) -> Closure;

    /// Number of worker threads the engine uses (1 for the sequential
    /// engines; reported in the `QUONTO_TIMINGS` breakdown).
    fn threads(&self) -> usize {
        1
    }

    /// The concrete engine a delegating engine would run on `g`, so
    /// callers can attribute timings to it. Every engine in this crate
    /// computes the closure itself and returns `None`.
    fn select_for(&self, _g: &TboxGraph) -> Option<Box<dyn ClosureEngine>> {
        None
    }
}

/// Returns the engine used by default throughout the crate: the block
/// engine [`ChunkedBitsetEngine`] on all available cores, at every graph
/// size (graphs under
/// [`MIN_PARALLEL_BLOCKS`](crate::closure_par::MIN_PARALLEL_BLOCKS)
/// blocks run on the calling thread).
pub fn recommended() -> Box<dyn ClosureEngine> {
    Box::new(ChunkedBitsetEngine::default())
}

/// Like [`recommended`], with an explicit worker-thread knob (`0` = all
/// available cores) — used by the benchmark harness's `--threads` flag.
pub fn recommended_with_threads(threads: usize) -> Box<dyn ClosureEngine> {
    Box::new(ChunkedBitsetEngine::with_threads(threads))
}

/// Per-source iterative DFS.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfsEngine;

impl ClosureEngine for DfsEngine {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        let n = g.num_nodes();
        let mut succ = vec![Vec::new(); n];
        // Epoch-stamped visited marks avoid clearing between sources.
        let mut mark = vec![u32::MAX; n];
        let mut stack: Vec<u32> = Vec::new();
        for src in 0..n as u32 {
            let mut out = Vec::new();
            stack.extend_from_slice(g.successors(NodeId(src)));
            while let Some(v) = stack.pop() {
                if mark[v as usize] == src {
                    continue;
                }
                mark[v as usize] = src;
                out.push(v);
                stack.extend_from_slice(g.successors(NodeId(v)));
            }
            out.sort_unstable();
            succ[src as usize] = out;
        }
        Closure { succ }
    }
}

/// Per-source BFS with a reusable queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsEngine;

impl ClosureEngine for BfsEngine {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        let n = g.num_nodes();
        let mut succ = vec![Vec::new(); n];
        let mut mark = vec![u32::MAX; n];
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        for src in 0..n as u32 {
            let mut out = Vec::new();
            for &v in g.successors(NodeId(src)) {
                if mark[v as usize] != src {
                    mark[v as usize] = src;
                    queue.push_back(v);
                    out.push(v);
                }
            }
            while let Some(v) = queue.pop_front() {
                for &w in g.successors(NodeId(v)) {
                    if mark[w as usize] != src {
                        mark[w as usize] = src;
                        queue.push_back(w);
                        out.push(w);
                    }
                }
            }
            out.sort_unstable();
            succ[src as usize] = out;
        }
        Closure { succ }
    }
}

/// Strongly-connected-component condensation of a [`TboxGraph`], computed
/// with an iterative Tarjan algorithm (safe for very deep hierarchies).
///
/// Component ids follow Tarjan's emission order, which is reverse
/// topological: every condensed arc runs from a higher id to a lower one.
/// Members and arcs are stored flat, in CSR form.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component id of each node.
    pub comp_of: Vec<u32>,
    /// `member_nodes[member_start[c]..member_start[c + 1]]` are the
    /// members of component `c`.
    member_start: Vec<usize>,
    member_nodes: Vec<u32>,
    /// `arcs[arc_start[c]..arc_start[c + 1]]` are the distinct
    /// successor components of `c`, in no particular order.
    arc_start: Vec<usize>,
    arcs: Vec<u32>,
}

impl Condensation {
    /// Computes the condensation of `g`.
    pub fn build(g: &TboxGraph) -> Self {
        let n = g.num_nodes();
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp_of = vec![0u32; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut member_start = vec![0usize];
        let mut member_nodes: Vec<u32> = Vec::with_capacity(n);
        let mut next_index = 0u32;
        // Explicit DFS call stack: (node, next-successor position).
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != UNVISITED {
                continue;
            }
            call.push((root, 0));
            index[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            while let Some(&mut (v, ref mut pos)) = call.last_mut() {
                let succs = g.successors(NodeId(v));
                if *pos < succs.len() {
                    let w = succs[*pos];
                    *pos += 1;
                    if index[w as usize] == UNVISITED {
                        index[w as usize] = next_index;
                        low[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call.push((w, 0));
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(index[w as usize]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent as usize] = low[parent as usize].min(low[v as usize]);
                    }
                    if low[v as usize] == index[v as usize] {
                        // The component is the stack suffix from `v` up.
                        let cid = (member_start.len() - 1) as u32;
                        let top = stack
                            .iter()
                            .rposition(|&w| w == v)
                            .expect("tarjan stack underflow");
                        for w in stack.drain(top..) {
                            on_stack[w as usize] = false;
                            comp_of[w as usize] = cid;
                            member_nodes.push(w);
                        }
                        member_start.push(member_nodes.len());
                    }
                }
            }
        }
        // Distinct condensed arcs per component, deduplicated with an
        // epoch mark (the epoch is the source component id).
        let num_comps = member_start.len() - 1;
        let mut mark = vec![u32::MAX; num_comps];
        let mut arc_start = Vec::with_capacity(num_comps + 1);
        arc_start.push(0);
        let mut arcs: Vec<u32> = Vec::new();
        for c in 0..num_comps {
            for &v in &member_nodes[member_start[c]..member_start[c + 1]] {
                for &w in g.successors(NodeId(v)) {
                    let cw = comp_of[w as usize];
                    if cw != c as u32 && mark[cw as usize] != c as u32 {
                        mark[cw as usize] = c as u32;
                        arcs.push(cw);
                    }
                }
            }
            arc_start.push(arcs.len());
        }
        Condensation {
            comp_of,
            member_start,
            member_nodes,
            arc_start,
            arcs,
        }
    }

    /// Number of components.
    pub fn num_comps(&self) -> usize {
        self.member_start.len() - 1
    }

    /// Member nodes of component `c`.
    #[inline]
    pub fn members(&self, c: usize) -> &[u32] {
        &self.member_nodes[self.member_start[c]..self.member_start[c + 1]]
    }

    /// Distinct successor components of `c` (all with ids below `c`).
    #[inline]
    pub fn successors(&self, c: usize) -> &[u32] {
        &self.arcs[self.arc_start[c]..self.arc_start[c + 1]]
    }
}

/// SCC condensation + reachable-set propagation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SccEngine;

impl ClosureEngine for SccEngine {
    fn name(&self) -> &'static str {
        "scc"
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        let cond = Condensation::build(g);
        let nc = cond.num_comps();
        // reach[c] = sorted list of component ids reachable from c
        // (excluding c itself).
        let mut reach: Vec<Vec<u32>> = vec![Vec::new(); nc];
        let mut mark = vec![u32::MAX; nc];
        // Component 0 is emitted first by Tarjan and can only reach
        // components already emitted, so ascending order works.
        for c in 0..nc as u32 {
            let mut out: Vec<u32> = Vec::new();
            for &d in cond.successors(c as usize) {
                if mark[d as usize] != c {
                    mark[d as usize] = c;
                    out.push(d);
                }
                for &e in &reach[d as usize] {
                    if mark[e as usize] != c {
                        mark[e as usize] = c;
                        out.push(e);
                    }
                }
            }
            out.sort_unstable();
            reach[c as usize] = out;
        }
        // Expand to per-node successor lists.
        let n = g.num_nodes();
        let mut succ = vec![Vec::new(); n];
        for v in 0..n as u32 {
            let c = cond.comp_of[v as usize] as usize;
            let own = cond.members(c);
            let mut out: Vec<u32> = Vec::with_capacity(
                own.len() - 1
                    + reach[c]
                        .iter()
                        .map(|&d| cond.members(d as usize).len())
                        .sum::<usize>(),
            );
            if own.len() > 1 {
                // Cycle: every other member, and v itself, is a successor.
                out.extend(own.iter().copied());
            }
            for &d in &reach[c] {
                out.extend(cond.members(d as usize).iter().copied());
            }
            out.sort_unstable();
            succ[v as usize] = out;
        }
        Closure { succ }
    }
}

/// All engines, for ablation benchmarks and cross-checking tests: the
/// three sequential oracles and the block engine at 1 and 2 threads.
pub fn all_engines() -> Vec<Box<dyn ClosureEngine>> {
    vec![
        Box::new(DfsEngine),
        Box::new(BfsEngine),
        Box::new(SccEngine),
        Box::new(ChunkedBitsetEngine::with_threads(1)),
        Box::new(ChunkedBitsetEngine::with_threads(2)),
    ]
}

/// Reflexive predecessors of `n` in the *original* graph `g`: every node
/// with a (possibly empty) path to `n`. Used by `computeUnsat` to resolve
/// the `predecessors(S, G_T*)` sets of the paper without materializing the
/// reverse closure.
pub fn predecessors_reflexive(g: &TboxGraph, n: NodeId) -> Vec<u32> {
    let mut seen = vec![false; g.num_nodes()];
    let mut out = vec![n.0];
    seen[n.index()] = true;
    let mut stack = vec![n.0];
    while let Some(v) = stack.pop() {
        for &p in g.predecessors(NodeId(v)) {
            if !seen[p as usize] {
                seen[p as usize] = true;
                out.push(p);
                stack.push(p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::parse_tbox;

    fn closure_of(src: &str, engine: &dyn ClosureEngine) -> (TboxGraph, Closure) {
        let t = parse_tbox(src).unwrap();
        let g = TboxGraph::build(&t);
        let c = engine.compute(&g);
        (g, c)
    }

    const CHAIN: &str = "concept A B C D\nA [= B\nB [= C\nC [= D";

    #[test]
    fn chain_reachability_all_engines() {
        for e in all_engines() {
            let (g, c) = closure_of(CHAIN, e.as_ref());
            // A reaches B, C, D.
            assert_eq!(c.successors(NodeId(0)), &[1, 2, 3], "engine {}", e.name());
            assert!(c.reaches(NodeId(0), NodeId(3)));
            assert!(!c.reaches(NodeId(3), NodeId(0)));
            assert!(c.reaches(NodeId(2), NodeId(2)));
            assert_eq!(g.num_edges(), 3);
        }
    }

    #[test]
    fn cycle_members_are_mutual_successors() {
        for e in all_engines() {
            let (_, c) = closure_of("concept A B C\nA [= B\nB [= A\nB [= C", e.as_ref());
            assert!(c.reaches(NodeId(0), NodeId(1)), "engine {}", e.name());
            assert!(c.reaches(NodeId(1), NodeId(0)));
            // On a cycle, the node lists itself.
            assert!(c.successors(NodeId(0)).contains(&0));
            assert!(c.reaches(NodeId(0), NodeId(2)));
            assert!(!c.reaches(NodeId(2), NodeId(0)));
        }
    }

    #[test]
    fn engines_agree_on_role_hierarchies() {
        let src = "concept A\nrole p r s\np [= r\nr [= s\nA [= exists p";
        let reference = DfsEngine.compute(&TboxGraph::build(&parse_tbox(src).unwrap()));
        for e in all_engines() {
            let (_, c) = closure_of(src, e.as_ref());
            for n in 0..reference.num_nodes() {
                assert_eq!(
                    c.successors(NodeId(n as u32)),
                    reference.successors(NodeId(n as u32)),
                    "engine {} node {}",
                    e.name(),
                    n
                );
            }
        }
    }

    #[test]
    fn condensation_groups_cycles() {
        let t = parse_tbox("concept A B C\nA [= B\nB [= A\nB [= C").unwrap();
        let g = TboxGraph::build(&t);
        let cond = Condensation::build(&g);
        assert_eq!(cond.comp_of[0], cond.comp_of[1]);
        assert_ne!(cond.comp_of[0], cond.comp_of[2]);
        // Reverse topological: C's component comes before {A,B}'s.
        let cab = cond.comp_of[0] as usize;
        let cc = cond.comp_of[2] as usize;
        assert!(cc < cab);
    }

    #[test]
    fn predecessors_reflexive_walks_reverse_arcs() {
        let t = parse_tbox(CHAIN).unwrap();
        let g = TboxGraph::build(&t);
        let mut preds = predecessors_reflexive(&g, NodeId(2)); // C
        preds.sort_unstable();
        assert_eq!(preds, vec![0, 1, 2]);
    }

    #[test]
    fn closure_arc_count() {
        for e in all_engines() {
            let (_, c) = closure_of(CHAIN, e.as_ref());
            assert_eq!(c.num_arcs(), 3 + 2 + 1, "engine {}", e.name());
        }
    }

    /// Reference one-edge update that allocates a fresh union per
    /// predecessor — the pre-optimization behavior `insert_edge`'s
    /// scratch-buffer merge must reproduce exactly.
    fn insert_edge_allocating(c: &mut Closure, g: &TboxGraph, from: NodeId, to: NodeId) {
        if c.reaches(from, to) {
            return;
        }
        let mut targets: Vec<u32> = c.succ[to.index()].clone();
        if let Err(pos) = targets.binary_search(&to.0) {
            targets.insert(pos, to.0);
        }
        for p in predecessors_reflexive(g, from) {
            let mut merged: Vec<u32> = c.succ[p as usize]
                .iter()
                .chain(targets.iter())
                .copied()
                .collect();
            merged.sort_unstable();
            merged.dedup();
            c.succ[p as usize] = merged;
        }
    }

    #[test]
    fn insert_edge_matches_allocating_path_and_recompute() {
        // Start from the partial ontology, then add axioms one at a time;
        // after every step the scratch-buffer update must agree with both
        // the allocating reference and a full recompute.
        let base = "concept A B C D E\nrole p\nA [= B\nD [= E";
        let extra = ["B [= C", "C [= A", "C [= exists p", "exists inv(p) [= D"];
        let t = parse_tbox(base).unwrap();
        let mut g1 = TboxGraph::build(&t);
        let mut g2 = TboxGraph::build(&t);
        let mut fast = SccEngine.compute(&g1);
        let mut reference = fast.clone();
        let mut full = parse_tbox(base).unwrap();
        for src in extra {
            let grown = parse_tbox(&format!("{base}\n{src}")).unwrap();
            let ax = *grown.axioms().last().unwrap();
            full.add(ax);
            for (from, to) in g1.insert_axiom(&ax) {
                fast.insert_edge(&g1, from, to);
            }
            for (from, to) in g2.insert_axiom(&ax) {
                insert_edge_allocating(&mut reference, &g2, from, to);
            }
            let recomputed = SccEngine.compute(&TboxGraph::build(&full));
            for v in 0..fast.num_nodes() {
                let n = NodeId(v as u32);
                assert_eq!(fast.successors(n), reference.successors(n), "after {src}");
                assert_eq!(fast.successors(n), recomputed.successors(n), "after {src}");
            }
        }
    }
}
