//! The traced in-process replay of a served workload.
//!
//! The replay runs the run's operations, in the order they were sent,
//! through the same public layer functions the endpoint's engine calls,
//! each call wrapped in a benchmark-recorded span. Rewriting is not
//! cached in the replay: every read pays each layer once, so a layer's
//! per-operation self time is what a cache miss costs (the hit rate the
//! server reports says how often that is paid). The replay is then run
//! again with the tracer off; the difference is the tracing overhead.

use std::time::{Duration, Instant};

use mastro::rewrite::subsume::prune_cap;
use mastro::rewrite::unfold::{unfold_cq, OutBinding};
use mastro::{
    demo, ndl_compile, parse_cq, parse_sparql, perfect_ref, prune_ucq, AboxIndex, AnswerTerm,
    Answers, ConjunctiveQuery, QueryEngine, Ucq,
};
use obda_dllite::{Abox, Signature, Tbox, Value};
use obda_genont::university_scenario;
use obda_server::proto::{ok_response, write_ok_response};
use obda_server::{parse_request, Request};
use obda_sqlstore::{execute_counted, plan_query, Database, ExecStats, SelectQuery, SqlValue};
use quonto::{compute_unsat, recommended_with_threads, Classification, TboxGraph};

use crate::ops::{Op, DATA_SEED};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// The engine shape an endpoint runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Materialized ABox, NDL, with writes (`uni_write`).
    AboxNdl,
    /// Virtual: mappings + SQL sources, PerfectRef (`uni_cold`).
    Virtual,
}

/// Everything the replay needs, built once.
pub struct World {
    shape: Shape,
    tbox: Tbox,
    cls: Classification,
    abox: Abox,
    db: Database,
    mappings: obda_mapping::MappingSet,
}

/// Read and write request lines, indexed like the run's operations.
pub struct Lines<'a> {
    /// Request line of each query of the workload's table.
    pub reads: &'a [String],
    /// Request lines of one write cycle.
    pub writes: &'a [String],
}

impl Lines<'_> {
    /// The request line of the `b`-th write (writes repeat the cycle).
    pub fn write(&self, b: usize) -> &str {
        &self.writes[b % self.writes.len()]
    }
}

impl World {
    /// Loads the scenario of `scale` for `shape`.
    pub fn new(shape: Shape, tbox: Tbox, abox: Abox, scale: usize) -> World {
        let scenario = university_scenario(scale, DATA_SEED);
        let db = demo::load_database(&scenario).expect("university scenario loads");
        let mappings = demo::build_mappings(&scenario);
        let cls = Classification::classify(&tbox);
        World {
            shape,
            tbox,
            cls,
            abox,
            db,
            mappings,
        }
    }

    fn sig(&self) -> &Signature {
        &self.tbox.sig
    }
}

fn parse(q: &obda_server::QueryRequest, sig: &Signature) -> ConjunctiveQuery {
    match q.lang {
        obda_server::Lang::Cq => parse_cq(&q.query, sig).expect("workload query parses"),
        obda_server::Lang::Sparql => {
            parse_sparql(&q.query, sig)
                .expect("workload query parses")
                .cq
        }
    }
}

/// Counters the replay accumulates alongside the spans.
#[derive(Debug, Default)]
struct Counts {
    disjuncts_raw: Vec<f64>,
    kept: u64,
    raw: u64,
    ndl_rules: Vec<f64>,
    sql_statements: Vec<f64>,
    rows_scanned: Vec<f64>,
    scanned_total: u64,
    answers_total: u64,
    answer_rows: Vec<f64>,
    rows_changed: Vec<f64>,
    fallbacks: u64,
}

/// Rows of one flat SQL query turned into answer tuples, the same
/// reconstruction the engine's unfolding applies.
fn collect(rows: Vec<obda_sqlstore::Row>, out: &[OutBinding], answers: &mut Answers) {
    'row: for row in rows {
        let mut tuple = Vec::with_capacity(out.len());
        for ob in out {
            match ob {
                OutBinding::Iri { prefix, position } => {
                    if row[*position].is_null() {
                        continue 'row;
                    }
                    tuple.push(AnswerTerm::Iri(format!("{prefix}{}", row[*position])));
                }
                OutBinding::Val { position } => match &row[*position] {
                    SqlValue::Null => continue 'row,
                    SqlValue::Int(i) => tuple.push(AnswerTerm::Value(Value::Int(*i))),
                    SqlValue::Text(s) => tuple.push(AnswerTerm::Value(Value::Text(s.clone()))),
                },
            }
        }
        answers.insert(tuple);
    }
}

/// PerfectRef plus subsumption pruning under the engine's cap.
fn rewrite_ucq(tr: &mut Tracer, id: u64, w: &World, q: &ConjunctiveQuery, c: &mut Counts) -> Ucq {
    let raw = tr.span("rewrite.perfectref", id, |_| perfect_ref(q, &w.tbox));
    let ucq = if raw.len() <= prune_cap() {
        tr.span("rewrite.prune", id, |_| prune_ucq(&raw))
    } else {
        raw.clone()
    };
    c.disjuncts_raw.push(raw.len() as f64);
    c.raw += raw.len() as u64;
    c.kept += ucq.len() as u64;
    ucq
}

/// Replays one read; returns its answer count.
fn replay_read(
    tr: &mut Tracer,
    id: u64,
    w: &World,
    engine: Option<&mastro::AboxSystem>,
    line: &str,
    c: &mut Counts,
) -> usize {
    let req = tr.span("server.proto_parse", id, |_| parse_request(line));
    let Ok(Request::Query(req)) = req else {
        panic!("read line did not parse as a query")
    };
    let q = tr.span("query.parse", id, |_| parse(&req, w.sig()));
    let answers = match w.shape {
        Shape::AboxNdl => {
            let prog = tr.span("rewrite.ndl_compile", id, |_| ndl_compile(&q, &w.cls));
            c.ndl_rules.push(prog.num_rules as f64);
            // The written store lives inside the engine, so NDL
            // evaluation runs through its answer path (its rewrite cache
            // hits after the first occurrence of each query).
            let engine = engine.expect("uni_write replays against an engine");
            tr.span("answer.eval", id, |_| {
                engine
                    .answer_cq_traced(&q, &obda_obs::TraceCtx::disabled())
                    .expect("replayed read answers")
            })
        }
        Shape::Virtual => {
            let ucq = rewrite_ucq(tr, id, w, &q, c);
            let combos = tr.span("unfold.unfold", id, |_| {
                let mut all = Vec::new();
                for cq in &ucq.disjuncts {
                    all.extend(unfold_cq(cq, &w.mappings, &w.db).expect("replayed query unfolds"));
                }
                all
            });
            let mut stats = ExecStats::default();
            let answers = tr.span("sqlstore.exec", id, |_| {
                let mut answers = Answers::new();
                for combo in &combos {
                    let sq = SelectQuery {
                        first: combo.core.clone(),
                        rest: Vec::new(),
                        order_by: Vec::new(),
                        limit: None,
                    };
                    let planned = plan_query(&w.db, &sq).expect("replayed SQL plans");
                    let rs = execute_counted(&w.db, &planned, &mut stats)
                        .expect("replayed SQL executes");
                    collect(rs.rows, &combo.out, &mut answers);
                }
                answers
            });
            c.sql_statements.push(combos.len() as f64);
            c.rows_scanned.push(stats.rows_scanned as f64);
            c.scanned_total += stats.rows_scanned;
            c.answers_total += answers.len() as u64;
            answers
        }
    };
    c.answer_rows.push(answers.len() as f64);
    let n = answers.len();
    tr.span("server.serialize", id, |_| {
        std::hint::black_box(ok_response(&req.id, &answers, 0, 0).to_string());
    });
    n
}

/// Replays one write batch against `engine`.
fn replay_write(tr: &mut Tracer, id: u64, engine: &mastro::AboxSystem, line: &str, c: &mut Counts) {
    let req = tr.span("server.proto_parse", id, |_| parse_request(line));
    let Ok(Request::Write(req)) = req else {
        panic!("write line did not parse as a write")
    };
    let summary = tr.span("delta.apply", id, |_| {
        engine
            .apply_delta(&req.delta)
            .expect("replayed batch applies")
    });
    c.rows_changed
        .push((summary.inserted + summary.deleted) as f64);
    c.fallbacks += summary.fallbacks;
    tr.span("server.serialize", id, |_| {
        std::hint::black_box(write_ok_response(&req.id, &summary, 0, 0).to_string());
    });
}

fn new_engine(w: &World) -> Option<mastro::AboxSystem> {
    (w.shape == Shape::AboxNdl).then(|| {
        mastro::EngineConfig::new()
            .rewriting(mastro::RewritingMode::Ndl)
            .eval_threads(1)
            .build_abox(w.tbox.clone(), w.abox.clone())
    })
}

/// Replays `ops` (at most `budget` of traced time), then the same prefix
/// untraced, and records every per-layer metric the replay measures.
pub fn replay_served(
    w: &World,
    lines: &Lines,
    ops: &[Op],
    budget: Duration,
    report: &mut Report,
    spans_out: &std::path::Path,
) {
    let mut tr = Tracer::new(true);
    let mut counts = Counts::default();

    // Endpoint set-up layers: classification of the TBox, and the
    // index build of the materialized endpoints.
    let reps = 9u64;
    for r in 0..reps {
        let id = (1 << 40) + r;
        tr.span("setup.classify", id, |tr| {
            let g = tr.span("quonto.graph", id, |_| TboxGraph::build(&w.tbox));
            let engine = recommended_with_threads(0);
            tr.span("quonto.closure", id, |_| {
                std::hint::black_box(engine.compute(&g))
            });
            tr.span("quonto.unsat", id, |_| {
                std::hint::black_box(compute_unsat(&g))
            });
        });
        if w.shape != Shape::Virtual {
            tr.span("answer.index_build", id, |_| {
                std::hint::black_box(AboxIndex::build(&w.abox));
            });
        }
    }

    let run = |tr: &mut Tracer, counts: &mut Counts, limit: Option<usize>| -> (usize, Duration) {
        let engine = new_engine(w);
        let start = Instant::now();
        let mut done = 0;
        for (i, op) in ops.iter().enumerate() {
            if limit.is_some_and(|n| i >= n) || (limit.is_none() && start.elapsed() >= budget) {
                break;
            }
            tr.span("op", i as u64, |tr| match *op {
                Op::Read(q) => {
                    replay_read(tr, i as u64, w, engine.as_ref(), &lines.reads[q], counts);
                }
                Op::Write(b) => replay_write(
                    tr,
                    i as u64,
                    engine.as_ref().expect("writes replay against an engine"),
                    lines.write(b),
                    counts,
                ),
            });
            done += 1;
        }
        (done, start.elapsed())
    };
    // Traced, untraced, untraced, traced: the overhead compares the
    // two pairs, so warm-up favours neither side.
    let (n, t1) = run(&mut tr, &mut counts, None);
    let (_, u1) = run(&mut Tracer::new(false), &mut Counts::default(), Some(n));
    let (_, u2) = run(&mut Tracer::new(false), &mut Counts::default(), Some(n));
    let (_, t2) = run(&mut Tracer::new(true), &mut Counts::default(), Some(n));
    let (traced, untraced) = (t1 + t2, u1 + u2);

    let set_median = |report: &mut Report, metric: &str, samples: &[f64]| {
        if !samples.is_empty() {
            report.set(metric, median(samples), samples.len());
        }
    };
    for (metric, span) in [
        ("server.proto_parse_us", "server.proto_parse"),
        ("server.serialize_us", "server.serialize"),
        ("query.parse_us", "query.parse"),
        ("rewrite.perfectref_us", "rewrite.perfectref"),
        ("rewrite.prune_us", "rewrite.prune"),
        ("rewrite.ndl_compile_us", "rewrite.ndl_compile"),
        ("unfold.unfold_us", "unfold.unfold"),
        ("sqlstore.exec_us", "sqlstore.exec"),
        ("answer.eval_us", "answer.eval"),
        ("answer.index_build_us", "answer.index_build"),
        ("delta.apply_us.p50", "delta.apply"),
        ("trace.replay_self_us", "op"),
    ] {
        set_median(report, metric, &tr.per_op_self_us(span));
    }
    for (metric, span) in [
        ("quonto.graph_ms", "quonto.graph"),
        ("quonto.closure_ms", "quonto.closure"),
        ("quonto.unsat_ms", "quonto.unsat"),
    ] {
        let ms: Vec<f64> = tr.per_op_self_us(span).iter().map(|us| us / 1e3).collect();
        set_median(report, metric, &ms);
    }
    let g = TboxGraph::build(&w.tbox);
    report.set("quonto.nodes", g.num_nodes() as f64, 1);
    report.set("quonto.closure_arcs", w.cls.closure().num_arcs() as f64, 1);
    set_median(report, "rewrite.disjuncts_raw", &counts.disjuncts_raw);
    if counts.raw > 0 {
        report.set(
            "rewrite.kept_frac",
            counts.kept as f64 / counts.raw as f64,
            counts.disjuncts_raw.len(),
        );
    }
    set_median(report, "rewrite.ndl_rules", &counts.ndl_rules);
    set_median(report, "unfold.sql_statements", &counts.sql_statements);
    set_median(report, "sqlstore.rows_scanned", &counts.rows_scanned);
    if counts.answers_total > 0 {
        report.set(
            "sqlstore.rows_per_answer",
            counts.scanned_total as f64 / counts.answers_total as f64,
            counts.rows_scanned.len(),
        );
    }
    set_median(report, "answer.rows", &counts.answer_rows);
    set_median(report, "delta.rows_changed", &counts.rows_changed);
    if !counts.rows_changed.is_empty() {
        report.set(
            "delta.fallback",
            counts.fallbacks as f64,
            counts.rows_changed.len(),
        );
    }
    report.set("trace.replay_ops", n as f64, n);
    report.set(
        "trace.overhead_frac",
        (traced.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64(),
        n,
    );
    if let Err(e) = tr.write_jsonl(spans_out) {
        eprintln!(
            "perfbench: cannot write spans to {}: {e}",
            spans_out.display()
        );
    }
}
