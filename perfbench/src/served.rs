//! The served workloads: `uni_write` and `uni_cold`.
//!
//! Each drives one `quonto-server` child (2 workers) from this process
//! with [`CONNECTIONS`] closed-loop connections: an OBDA client is an
//! application that waits for each answer before asking the next
//! question. Every connection is opened and completes one untimed
//! request before timing starts, so the acceptor's poll interval counts
//! in `setup_s` (and `server.accept_us`), not in the timed latencies.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use obda_genont::university_tbox;
use obda_server::Json;

use crate::ops::{
    cold_queries, delta_of, stream_kind, university_mix, write_cycle, Op, OpStream, Query,
    COLD_POOL, COLD_POOL_SEED, CONNECTIONS, ENDPOINT,
};
use crate::reference::{
    abox_engine, answer, answers_slice, base_abox, decode, virtual_engine, AnswerSet,
};
use crate::replay::{replay_served, Lines, Shape, World};
use crate::report::Report;
use crate::server::{field_u64, status_of, Conn, ServerProc};
use crate::stats::{
    class_median_gmean, interquartile_mean, median, peak_rss_mb, percentile, window_counts,
};
use crate::Opts;

/// The untimed first request of every connection.
const FIRST_REQUEST: &str = r#"{"endpoint":"uni","query":"q(x) :- Department(x)"}"#;

/// Most writer reads re-checked against the in-process engine at their
/// exact state (the final state is always checked in full).
const MAX_STATE_CHECKS: usize = 200;

/// One timed operation as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Rec {
    op: Op,
    send_ns: u64,
    latency_us: f64,
    ok: bool,
    wait_us: u64,
    exec_us: u64,
}

/// What one connection brings back from the timed phase.
struct ConnOut {
    conn: Conn,
    recs: Vec<Rec>,
    /// One response line per distinct `(query, write state, answers)`:
    /// the lines the answer check decodes.
    lines: HashMap<(usize, usize, u64), String>,
    rows_changed: u64,
    batches_acked: usize,
    end_ns: u64,
}

/// The latency class of an operation: its query, or the writes.
fn class_of(op: Op) -> Option<usize> {
    match op {
        Op::Read(q) => Some(q),
        Op::Write(_) => None,
    }
}

fn shape_of(workload: &str) -> Shape {
    if workload == "uni_cold" {
        Shape::Virtual
    } else {
        Shape::AboxNdl
    }
}

fn config_json(shape: Shape, scale: usize) -> String {
    let (kind, rewriting, data) = match shape {
        Shape::AboxNdl => ("university-abox", "ndl", "materialized"),
        Shape::Virtual => ("university", "perfectref", "virtual"),
    };
    Json::obj(vec![
        ("addr", "127.0.0.1:0".into()),
        ("workers", 2u64.into()),
        ("queue_capacity", 128u64.into()),
        ("summary_every_s", 0u64.into()),
        (
            "endpoints",
            Json::Arr(vec![Json::obj(vec![
                ("name", ENDPOINT.into()),
                ("kind", kind.into()),
                ("scale", (scale as u64).into()),
                ("seed", crate::ops::DATA_SEED.into()),
                ("rewriting", rewriting.into()),
                ("data", data.into()),
                ("eval_threads", 1u64.into()),
            ])]),
        ),
    ])
    .to_string()
}

/// A started server with every connection past its first response.
struct Ready {
    server: ServerProc,
    conns: Vec<Conn>,
    setup_s: f64,
    accept_us: Vec<f64>,
}

fn setup(bin: &Path, config: &Path) -> Result<Ready, String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(bin, config)?;
    let mut conns = Vec::new();
    let mut accept_us = Vec::new();
    for _ in 0..CONNECTIONS {
        let t = Instant::now();
        let mut conn = Conn::open(&server.addr).map_err(|e| format!("connect: {e}"))?;
        let line = conn
            .roundtrip(FIRST_REQUEST)
            .map_err(|e| format!("first request: {e}"))?;
        if status_of(line) != "ok" {
            return Err(format!("first request failed: {line}"));
        }
        accept_us.push(t.elapsed().as_secs_f64() * 1e6);
        conns.push(conn);
    }
    Ok(Ready {
        server,
        conns,
        setup_s: t0.elapsed().as_secs_f64(),
        accept_us,
    })
}

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Closed-loop timed phase of one connection: send, wait, record, until
/// the deadline.
fn drive(
    mut conn: Conn,
    mut stream: OpStream,
    lines: &Lines,
    check_reads: bool,
    start: Instant,
    deadline: Instant,
) -> ConnOut {
    let mut recs = Vec::new();
    let mut seen: HashMap<(usize, usize, u64), String> = HashMap::new();
    let (mut rows_changed, mut acked) = (0u64, 0usize);
    while Instant::now() < deadline {
        let op = stream.next_op();
        let request = match op {
            Op::Read(q) => &lines.reads[q],
            Op::Write(b) => lines.write(b),
        };
        let t = Instant::now();
        let send_ns = (t - start).as_nanos() as u64;
        let Ok(line) = conn.roundtrip(request) else {
            recs.push(Rec {
                op,
                send_ns,
                latency_us: 0.0,
                ok: false,
                wait_us: 0,
                exec_us: 0,
            });
            break;
        };
        let latency_us = t.elapsed().as_secs_f64() * 1e6;
        let ok = status_of(line) == "ok";
        recs.push(Rec {
            op,
            send_ns,
            latency_us,
            ok,
            wait_us: field_u64(line, "wait_us").unwrap_or(0),
            exec_us: field_u64(line, "exec_us").unwrap_or(0),
        });
        match op {
            Op::Write(_) if ok => {
                rows_changed += field_u64(line, "inserted").unwrap_or(0)
                    + field_u64(line, "deleted").unwrap_or(0);
                acked += 1;
            }
            Op::Read(q) if ok && check_reads => {
                seen.entry((q, acked, hash_of(answers_slice(line))))
                    .or_insert_with(|| line.to_string());
            }
            _ => {}
        }
    }
    ConnOut {
        conn,
        recs,
        lines: seen,
        rows_changed,
        batches_acked: acked,
        end_ns: start.elapsed().as_nanos() as u64,
    }
}

/// Compares the server's decoded answers with the reference set.
fn check_line(report: &mut Report, what: &str, line: &str, expected: &AnswerSet) {
    match decode(line) {
        Ok(got) if &got == expected => {}
        Ok(got) => report.fail(format!(
            "{what}: {} answers from the server, {} expected",
            got.len(),
            expected.len()
        )),
        Err(e) => report.fail(format!("{what}: {e}")),
    }
}

/// Runs one served workload.
pub fn run(opts: &Opts, bin: &Path, work: &Path, report: &mut Report) -> Result<(), String> {
    let scale = opts.uni_scale();
    let shape = shape_of(&opts.workload);
    let queries: Vec<Query> = if shape == Shape::Virtual {
        cold_queries(&university_tbox().sig, COLD_POOL_SEED, COLD_POOL)
    } else {
        university_mix(scale)
    };
    let read_lines: Vec<String> = queries.iter().map(Query::request_line).collect();
    let (tbox, base) = base_abox(scale);
    let write_lines = if shape == Shape::AboxNdl {
        write_cycle(&tbox.sig, &base, scale)
    } else {
        Vec::new()
    };
    let lines = Lines {
        reads: &read_lines,
        writes: &write_lines,
    };

    // Reference answers from the other data mode, computed untimed.
    let base_refs: Vec<AnswerSet> = match shape {
        Shape::AboxNdl => {
            let engine = virtual_engine(scale);
            queries
                .iter()
                .map(|q| answer(engine.as_ref(), q))
                .collect::<Result<_, _>>()?
        }
        Shape::Virtual => Vec::new(),
    };

    let config = work.join(format!("{}-{}.json", opts.workload, std::process::id()));
    std::fs::write(&config, config_json(shape, scale))
        .map_err(|e| format!("writing config: {e}"))?;
    let mut setups = Vec::new();
    let mut accept_us = Vec::new();
    let mut ready = None;
    for i in 0..opts.setups() {
        let r = setup(bin, &config)?;
        setups.push(r.setup_s);
        accept_us.extend(r.accept_us.iter().copied());
        if i + 1 == opts.setups() {
            ready = Some(r);
        }
    }
    let _ = std::fs::remove_file(&config);
    let Ready {
        server, mut conns, ..
    } = ready.expect("at least one set-up");

    // Warm pass: every connection sends the whole mix once, so timed
    // reads meet a warm rewrite cache (and NDL view memo). The cold
    // workload stays cold.
    if shape != Shape::Virtual {
        for conn in &mut conns {
            for (i, q) in queries.iter().enumerate() {
                let line = conn
                    .roundtrip(&read_lines[i])
                    .map_err(|e| format!("warm pass: {e}"))?;
                check_line(report, &format!("warm `{}`", q.text), line, &base_refs[i]);
            }
        }
    }
    let before = conns[0].stats()?;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let barrier = Barrier::new(CONNECTIONS);
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let stream =
                    OpStream::new(stream_kind(&opts.workload, c), opts.seed, c, queries.len());
                // Reads beside another connection's writes see no fixed
                // state; the writer's own reads do.
                let check = shape != Shape::AboxNdl || c == 0;
                let (lines, barrier) = (&lines, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    drive(conn, stream, lines, check, start, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = outs.iter().map(|o| o.end_ns).max().unwrap_or(0) as f64 / 1e9;
    let rss = peak_rss_mb(&server.pid().to_string());
    let mut conns: Vec<Conn> = Vec::new();
    let mut recs: Vec<Rec> = Vec::new();
    let mut seen = Vec::new();
    let (mut rows_changed, mut acked) = (0u64, 0usize);
    for o in outs {
        conns.push(o.conn);
        recs.extend(o.recs);
        seen.extend(o.lines);
        rows_changed += o.rows_changed;
        acked += o.batches_acked;
    }
    let after = conns[0].stats()?;
    let final_lines: Vec<String> = if shape == Shape::AboxNdl {
        let mut out = Vec::new();
        for line in &read_lines {
            out.push(
                conns[0]
                    .roundtrip(line)
                    .map_err(|e| format!("final state: {e}"))?
                    .to_string(),
            );
        }
        out
    } else {
        Vec::new()
    };
    drop(conns);
    drop(server);

    // Correctness.
    report.attempted = recs.len() as u64;
    report.failed = recs.iter().filter(|r| !r.ok).count() as u64;
    if report.failed > 0 {
        report.fail(format!(
            "{} of {} operations failed",
            report.failed,
            recs.len()
        ));
    }
    match shape {
        Shape::Virtual => check_cold(report, &queries, &seen, tbox.clone(), base.clone()),
        Shape::AboxNdl => check_writes(
            report,
            &queries,
            &(0..acked).map(|b| lines.write(b)).collect::<Vec<_>>(),
            &seen,
            &final_lines,
            rows_changed,
            tbox.clone(),
            base.clone(),
        ),
    }
    let counter = |j: &Json, path: &[&str]| -> f64 {
        path.iter()
            .try_fold(j, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let hits = counter(&after, &["endpoints", ENDPOINT, "cache_hits"])
        - counter(&before, &["endpoints", ENDPOINT, "cache_hits"]);
    let misses = counter(&after, &["endpoints", ENDPOINT, "cache_misses"])
        - counter(&before, &["endpoints", ENDPOINT, "cache_misses"]);
    let hit_rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    if shape == Shape::Virtual && hit_rate > 0.05 {
        report.fail(format!(
            "uni_cold must bypass the rewrite cache, but its hit rate was {hit_rate:.3}"
        ));
    }

    // End-to-end metrics.
    let ok: Vec<&Rec> = recs.iter().filter(|r| r.ok).collect();
    let lat: Vec<f64> = ok.iter().map(|r| r.latency_us).collect();
    report.set("setup_s", median(&setups), setups.len());
    let done: Vec<u64> = ok
        .iter()
        .map(|r| r.send_ns + (r.latency_us * 1e3) as u64)
        .collect();
    let windows = window_counts(&done, opts.seconds);
    report.set("ops_per_s", interquartile_mean(&windows), windows.len());
    report.set(
        "op_p50_us",
        class_median_gmean(ok.iter().map(|r| (class_of(r.op), r.latency_us))),
        lat.len(),
    );
    report.set("op_p95_us", percentile(&lat, 95.0), lat.len());
    match rss {
        Some(mb) => report.set("peak_rss_mb", mb, 1),
        None => report.fail("could not read the server's peak RSS"),
    }
    if !opts.trace {
        return Ok(());
    }

    // Per-layer metrics: client split, wire fields, STATS.
    for (kind, is_write) in [("read", false), ("write", true)] {
        let l: Vec<f64> = ok
            .iter()
            .filter(|r| matches!(r.op, Op::Write(_)) == is_write)
            .map(|r| r.latency_us)
            .collect();
        if !l.is_empty() {
            report.set(&format!("{kind}_qps"), l.len() as f64 / elapsed_s, l.len());
            report.set(&format!("{kind}_p50_us"), percentile(&l, 50.0), l.len());
            report.set(&format!("{kind}_p99_us"), percentile(&l, 99.0), l.len());
        }
    }
    report.set(
        "fail_frac",
        report.failed as f64 / recs.len().max(1) as f64,
        recs.len(),
    );
    let wait: Vec<f64> = ok.iter().map(|r| r.wait_us as f64).collect();
    let exec: Vec<f64> = ok.iter().map(|r| r.exec_us as f64).collect();
    let io: Vec<f64> = ok
        .iter()
        .map(|r| r.latency_us - r.wait_us as f64 - r.exec_us as f64)
        .collect();
    report.set("server.wait_us.p50", percentile(&wait, 50.0), wait.len());
    report.set("server.wait_us.p99", percentile(&wait, 99.0), wait.len());
    report.set("server.exec_us.p50", percentile(&exec, 50.0), exec.len());
    report.set("server.io_us.p50", percentile(&io, 50.0), io.len());
    report.set("server.accept_us", median(&accept_us), accept_us.len());
    report.set(
        "server.queue_high_water",
        counter(&after, &["server", "queue_high_water"]),
        1,
    );
    report.set(
        "mastro.rewrite_cache.hit_rate",
        hit_rate,
        (hits + misses) as usize,
    );
    let memo = |k: &str| {
        counter(&after, &["registry", "counters", k])
            - counter(&before, &["registry", "counters", k])
    };
    let (memo_hit, memo_miss) = (memo("ndl_view_memo_hit"), memo("ndl_view_memo_miss"));
    if memo_hit + memo_miss > 0.0 {
        report.set(
            "ndl.view_memo_hit_rate",
            memo_hit / (memo_hit + memo_miss),
            (memo_hit + memo_miss) as usize,
        );
    }

    // Traced replay of the operations, in the order they were sent.
    let mut sent: Vec<&Rec> = recs.iter().collect();
    sent.sort_by_key(|r| r.send_ns);
    let ops: Vec<Op> = sent.iter().map(|r| r.op).collect();
    let world = World::new(shape, tbox, base, scale);
    let budget = Duration::from_secs_f64(if opts.smoke { 0.5 } else { 1.5 });
    let spans = work.join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
    replay_served(&world, &lines, &ops, budget, report, &spans);
    Ok(())
}

/// `uni_cold`: every distinct response against `AboxIndex` evaluation
/// over the materialized ABox, on two threads.
fn check_cold(
    report: &mut Report,
    queries: &[Query],
    seen: &[((usize, usize, u64), String)],
    tbox: obda_dllite::Tbox,
    base: obda_dllite::Abox,
) {
    let engine = abox_engine(tbox, base);
    let problems: Vec<String> = std::thread::scope(|s| {
        let engine = &engine;
        let handles: Vec<_> = seen
            .chunks(seen.len().div_ceil(2).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let mut local = Report::default();
                    for ((q, _, _), line) in chunk {
                        match answer(engine, &queries[*q]) {
                            Ok(expected) => check_line(
                                &mut local,
                                &format!("`{}`", queries[*q].text),
                                line,
                                &expected,
                            ),
                            Err(e) => local.fail(e),
                        }
                    }
                    local.problems
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for p in problems {
        report.fail(p);
    }
}

/// `uni_write`: replays the acknowledged batches in order on an
/// in-process PerfectRef engine built from the base ABox, checking the
/// writer's reads at the state they saw, then the final answers to the
/// whole mix and the total of changed rows.
#[allow(clippy::too_many_arguments)]
fn check_writes(
    report: &mut Report,
    queries: &[Query],
    acked_lines: &[&str],
    seen: &[((usize, usize, u64), String)],
    final_lines: &[String],
    rows_changed: u64,
    tbox: obda_dllite::Tbox,
    base: obda_dllite::Abox,
) {
    let engine = abox_engine(tbox, base);
    let mut by_state: BTreeMap<usize, Vec<(usize, &str)>> = BTreeMap::new();
    let stride = seen.len().div_ceil(MAX_STATE_CHECKS).max(1);
    let mut sampled: Vec<&((usize, usize, u64), String)> = seen.iter().collect();
    sampled.sort_by_key(|(k, _)| *k);
    for ((q, state, _), line) in sampled.into_iter().step_by(stride) {
        by_state
            .entry(*state)
            .or_default()
            .push((*q, line.as_str()));
    }
    let mut changed = 0u64;
    let check_state = |report: &mut Report, state: usize| {
        for (q, line) in by_state.get(&state).into_iter().flatten() {
            match answer(&engine, &queries[*q]) {
                Ok(expected) => check_line(
                    report,
                    &format!("`{}` after {state} batches", queries[*q].text),
                    line,
                    &expected,
                ),
                Err(e) => report.fail(e),
            }
        }
    };
    check_state(report, 0);
    for (k, line) in acked_lines.iter().enumerate() {
        use mastro::QueryEngine;
        match engine.apply_delta(&delta_of(line)) {
            Ok(s) => changed += (s.inserted + s.deleted) as u64,
            Err(e) => report.fail(format!("reference engine rejected batch {k}: {e}")),
        }
        check_state(report, k + 1);
    }
    for (q, line) in queries.iter().zip(final_lines) {
        match answer(&engine, q) {
            Ok(expected) => check_line(report, &format!("final `{}`", q.text), line, &expected),
            Err(e) => report.fail(e),
        }
    }
    if changed != rows_changed {
        report.fail(format!(
            "the server changed {rows_changed} rows over {} batches, the reference {changed}",
            acked_lines.len()
        ));
    }
}
