//! `fig1_classify`: the eleven Figure 1 presets at one fixed scale,
//! classified in-process with `recommended_with_threads(0)`, the paper's
//! headline. At this scale the small presets take the sequential SCC
//! engine and the large ones the 2-thread chunked-bitset engine. One
//! operation is the classification of one preset.

use std::time::{Duration, Instant};

use obda_dllite::{BasicRole, Tbox};
use obda_genont::figure1_presets;
use quonto::{
    compute_unsat, recommended_with_threads, BfsEngine, Classification, Closure, ClosureEngine,
    NodeId, NodeKind, SccEngine, TboxGraph,
};

use crate::report::Report;
use crate::stats::{class_median_gmean, interquartile_mean, median, peak_rss_mb, percentile};
use crate::trace::Tracer;
use crate::Opts;

/// Preset scale of the timed classification.
pub const SCALE: f64 = 0.1;

/// Set-up samples taken over one run (`setup_s` is their median).
const SETUP_SAMPLES: usize = 15;

fn generate(scale: f64) -> Vec<Tbox> {
    figure1_presets()
        .iter()
        .map(|spec| spec.scaled(scale).generate())
        .collect()
}

/// Checks one preset's classification against a second closure engine,
/// arc for arc: `SccEngine`, or `BfsEngine` where the run itself chose
/// SCC. Its unsatisfiable set must equal one derived from that
/// reference closure by [`unsat_from_closure`].
fn check(
    report: &mut Report,
    name: &str,
    tbox: &Tbox,
    cls: &Classification,
    engine: &dyn ClosureEngine,
) {
    let g = TboxGraph::build(tbox);
    let chosen = engine.select_for(&g).map_or(engine.name(), |e| e.name());
    let reference = if chosen == SccEngine.name() {
        BfsEngine.compute(&g)
    } else {
        SccEngine.compute(&g)
    };
    let closure = cls.closure();
    if closure.num_nodes() != reference.num_nodes() {
        report.fail(format!(
            "{name}: closure has {} nodes, the reference {}",
            closure.num_nodes(),
            reference.num_nodes()
        ));
        return;
    }
    let differing = (0..g.num_nodes())
        .filter(|&n| {
            let n = NodeId(n as u32);
            closure.successors(n) != reference.successors(n)
        })
        .count();
    if differing > 0 {
        report.fail(format!(
            "{name}: {chosen} closure differs from the reference at {differing} nodes"
        ));
    }
    if cls.unsat().members() != unsat_from_closure(&g, &reference) {
        report.fail(format!("{name}: unsatisfiable sets differ"));
    }
}

/// The unsatisfiable nodes, read off a closure instead of walking the
/// graph's predecessors as `compute_unsat` does. A node is unsatisfiable
/// when it reaches both sides of a negative inclusion, or when it is the
/// left side of `B ⊑ ∃Q.A` and `A` and `∃Q⁻` reach the two sides of
/// one. Unsatisfiability then spreads to every node that reaches an
/// unsatisfiable one, across a role's or attribute's cluster of nodes,
/// and from a filler `A` to `B`, until nothing changes.
fn unsat_from_closure(g: &TboxGraph, closure: &Closure) -> Vec<u32> {
    let n = g.num_nodes();
    let reach = |from: usize, to: NodeId| closure.reaches(NodeId(from as u32), to);
    let neg = g.neg_pairs_expanded();
    let mut unsat: Vec<bool> = (0..n)
        .map(|v| neg.iter().any(|np| reach(v, np.lhs) && reach(v, np.rhs)))
        .collect();
    for qa in &g.qual_axioms {
        let a = g.atomic_node(qa.filler).index();
        let range = g.role_exists_node(qa.role.inverse()).index();
        if neg.iter().any(|np| {
            (reach(a, np.lhs) && reach(range, np.rhs)) || (reach(range, np.lhs) && reach(a, np.rhs))
        }) {
            unsat[qa.lhs.index()] = true;
        }
    }
    let cluster = |v: usize| -> Vec<NodeId> {
        match g.node_kind(NodeId(v as u32)) {
            NodeKind::Role(p, _) | NodeKind::Exists(p, _) => vec![
                g.role_node(BasicRole::Direct(p)),
                g.role_node(BasicRole::Inverse(p)),
                g.role_exists_node(BasicRole::Direct(p)),
                g.role_exists_node(BasicRole::Inverse(p)),
            ],
            NodeKind::Attr(u) | NodeKind::AttrDomain(u) => {
                vec![g.attr_node(u), g.attr_domain_node(u)]
            }
            NodeKind::Concept(_) => Vec::new(),
        }
    };
    let mut changed = true;
    while changed {
        changed = false;
        let mut mark = |unsat: &mut Vec<bool>, v: usize| {
            if !unsat[v] {
                unsat[v] = true;
                changed = true;
            }
        };
        for v in 0..n {
            if closure
                .successors(NodeId(v as u32))
                .iter()
                .any(|&s| unsat[s as usize])
            {
                mark(&mut unsat, v);
            }
        }
        for v in 0..n {
            if unsat[v] {
                for c in cluster(v) {
                    mark(&mut unsat, c.index());
                }
            }
        }
        for qa in &g.qual_axioms {
            if unsat[g.atomic_node(qa.filler).index()] {
                mark(&mut unsat, qa.lhs.index());
            }
        }
    }
    (0..n as u32).filter(|&v| unsat[v as usize]).collect()
}

/// Runs the workload.
pub fn run(opts: &Opts, work: &std::path::Path, report: &mut Report) {
    let scale = if opts.smoke { 0.01 } else { SCALE };
    let names: Vec<String> = figure1_presets().into_iter().map(|s| s.name).collect();
    // Set-up is sampled between passes all through the timed phase, so
    // its median covers the same drifts of the host's speed as the
    // passes do rather than one moment before them.
    let setup_every = Duration::from_secs_f64(opts.seconds / SETUP_SAMPLES as f64);
    let t = Instant::now();
    let tboxes = generate(scale);
    let mut setups = vec![t.elapsed().as_secs_f64()];

    let engine = recommended_with_threads(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let mut next_setup = start + setup_every;
    let mut lat_us: Vec<(usize, f64)> = Vec::new();
    let mut pass_s = Vec::new();
    let mut arcs: Vec<usize> = Vec::new();
    let mut last: Vec<Classification> = Vec::new();
    while Instant::now() < deadline || pass_s.is_empty() {
        let pass = Instant::now();
        last.clear();
        for (i, tbox) in tboxes.iter().enumerate() {
            let t = Instant::now();
            let cls = Classification::classify_with(tbox, engine.as_ref());
            lat_us.push((i, t.elapsed().as_secs_f64() * 1e6));
            last.push(cls);
        }
        pass_s.push(pass.elapsed().as_secs_f64());
        let now: Vec<usize> = last.iter().map(|c| c.closure().num_arcs()).collect();
        if arcs.is_empty() {
            arcs = now;
        } else if arcs != now {
            report.fail("closure sizes changed between passes");
        }
        if Instant::now() >= next_setup {
            let t = Instant::now();
            std::hint::black_box(generate(scale));
            setups.push(t.elapsed().as_secs_f64());
            next_setup += setup_every;
        }
    }
    let rss = peak_rss_mb("self");

    for ((name, tbox), cls) in names.iter().zip(&tboxes).zip(&last) {
        check(report, name, tbox, cls, engine.as_ref());
    }
    report.attempted = lat_us.len() as u64;
    report.set("setup_s", median(&setups), setups.len());
    report.set(
        "ops_per_s",
        tboxes.len() as f64 / interquartile_mean(&pass_s),
        pass_s.len(),
    );
    report.set(
        "op_p50_us",
        class_median_gmean(lat_us.iter().copied()),
        lat_us.len(),
    );
    let lat: Vec<f64> = lat_us.iter().map(|&(_, l)| l).collect();
    report.set("op_p95_us", percentile(&lat, 95.0), lat.len());
    match rss {
        Some(mb) => report.set("peak_rss_mb", mb, 1),
        None => report.fail("could not read the peak RSS"),
    }
    if !opts.trace {
        return;
    }
    report.set("classify_s", interquartile_mean(&pass_s), pass_s.len());
    report.set("fail_frac", 0.0, lat_us.len());

    // Traced replay: graph, closure and unsat of every preset, one pass
    // at a time within the budget, then the same passes untraced.
    let budget = Duration::from_secs_f64(if opts.smoke { 0.3 } else { 1.5 });
    let replay = |tr: &mut Tracer, passes: Option<usize>| -> (usize, Duration) {
        let t = Instant::now();
        let mut done = 0;
        while passes.map_or(t.elapsed() < budget || done == 0, |n| done < n) {
            for (i, tbox) in tboxes.iter().enumerate() {
                let id = (done * tboxes.len() + i) as u64;
                tr.span("op", id, |tr| {
                    let g = tr.span("quonto.graph", id, |_| TboxGraph::build(tbox));
                    let closure = tr.span("quonto.closure", id, |_| engine.compute(&g));
                    let unsat = tr.span("quonto.unsat", id, |_| compute_unsat(&g));
                    std::hint::black_box((closure, unsat));
                });
            }
            done += 1;
        }
        (done, t.elapsed())
    };
    // Traced, untraced, untraced, traced: the overhead compares the
    // two pairs, so warm-up favours neither side.
    let mut tr = Tracer::new(true);
    let (passes, t1) = replay(&mut tr, None);
    let (_, u1) = replay(&mut Tracer::new(false), Some(passes));
    let (_, u2) = replay(&mut Tracer::new(false), Some(passes));
    let (_, t2) = replay(&mut Tracer::new(true), Some(passes));
    let (traced, untraced) = (t1 + t2, u1 + u2);
    for (metric, span) in [
        ("quonto.graph_ms", "quonto.graph"),
        ("quonto.closure_ms", "quonto.closure"),
        ("quonto.unsat_ms", "quonto.unsat"),
    ] {
        // Per pass: the layer's self time summed over the presets.
        let per_op = tr.per_op_self_us(span);
        let per_pass: Vec<f64> = per_op
            .chunks(tboxes.len())
            .map(|c| c.iter().sum::<f64>() / 1e3)
            .collect();
        report.set(metric, median(&per_pass), per_pass.len());
    }
    let self_us = tr.per_op_self_us("op");
    report.set("trace.replay_self_us", median(&self_us), self_us.len());
    let nodes: usize = last.iter().map(|c| c.graph().num_nodes()).sum();
    report.set("quonto.nodes", nodes as f64, 1);
    report.set("quonto.closure_arcs", arcs.iter().sum::<usize>() as f64, 1);
    report.set(
        "trace.replay_ops",
        (passes * tboxes.len()) as f64,
        passes * tboxes.len(),
    );
    report.set(
        "trace.overhead_frac",
        (traced.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64(),
        passes,
    );
    let spans = work.join(format!("spans-fig1_classify-{}.jsonl", opts.seed));
    if let Err(e) = tr.write_jsonl(&spans) {
        eprintln!("perfbench: cannot write spans to {}: {e}", spans.display());
    }
}
