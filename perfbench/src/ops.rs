//! The seeded operation sequences of the served workloads.
//!
//! Every connection draws its operations from its own stream, a pure
//! function of `(workload, seed, connection)`; the server sees only the
//! generated request lines. The university data itself is fixed
//! ([`DATA_SEED`]), so runs with different seeds differ in the order and
//! choice of operations, not in the size of the data they run over.

use std::collections::HashSet;

use mastro::{parse_cq, print_cq, AboxDelta};
use obda_dllite::{Abox, Assertion, Signature, Value};
use obda_genont::{churn_stream, university_scenario, ChurnFact, ChurnOp};
use obda_server::{parse_request, Json, Request};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seed of the university scenario every served endpoint loads.
pub const DATA_SEED: u64 = 42;

/// Endpoint name in every server config.
pub const ENDPOINT: &str = "uni";

/// Closed-loop client connections of every served workload.
pub const CONNECTIONS: usize = 2;

/// Statements per write batch.
pub const BATCH: usize = 4;

/// Distinct queries generated for `uni_cold`: eight times the rewrite
/// cache's 1024 entries, so no query repeats within a cache lifetime.
pub const COLD_POOL: usize = 8192;

/// Generator seed of the `uni_cold` query pool. The pool is fixed and
/// the run's seed orders it, so every run draws on the same queries
/// and runs differ in order only, as the other served workloads do.
pub const COLD_POOL_SEED: u64 = 1;

/// The generator of stream `stream` for `seed`, so two connections (or
/// the query pool and a connection) of one run draw independent
/// sequences.
fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Fisher-Yates shuffle.
fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One query the clients send: wire language tag and text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// `cq` or `sparql`.
    pub lang: &'static str,
    /// Query text.
    pub text: String,
}

impl Query {
    /// The request line for this query.
    pub fn request_line(&self) -> String {
        Json::obj(vec![
            ("endpoint", ENDPOINT.into()),
            ("lang", self.lang.into()),
            ("query", self.text.as_str().into()),
            ("timeout_ms", 60_000u64.into()),
        ])
        .to_string()
    }
}

/// One operation of a connection's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Send query `i` of the workload's query table.
    Read(usize),
    /// Send write batch `i` of the churn stream.
    Write(usize),
}

/// The fixed university mix: the scenario's six CQs plus two SPARQL
/// queries (the same mix `loadgen` sends).
pub fn university_mix(scale: usize) -> Vec<Query> {
    let mut mix: Vec<Query> = university_scenario(scale, DATA_SEED)
        .queries
        .into_iter()
        .map(|q| Query {
            lang: "cq",
            text: q.text,
        })
        .collect();
    mix.push(Query {
        lang: "sparql",
        text: "SELECT ?x WHERE { ?x a :Student }".into(),
    });
    mix.push(Query {
        lang: "sparql",
        text: "SELECT ?x ?n WHERE { ?x a :GradStudent . ?x :personName ?n . }".into(),
    });
    mix
}

/// Which shape a connection's stream has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Seeded permutations of the query table, one block at a time, so
    /// every query's share is exact.
    Mix,
    /// Like `Mix`, but every block of four is two writes and two reads
    /// in seeded order: the single writer connection of `uni_write`.
    Writer,
    /// Distinct cold queries in a seeded order shared by all
    /// connections: connection `c` of `n` takes positions
    /// `c, c + n, c + 2n, ...` of that order.
    Cold { conn: usize, conns: usize },
}

/// An endless, deterministic operation stream for one connection.
#[derive(Debug, Clone)]
pub struct OpStream {
    kind: StreamKind,
    rng: SmallRng,
    table_len: usize,
    block: Vec<Op>,
    reads: Vec<usize>,
    next_batch: usize,
    next_cold: usize,
    cold_order: Vec<usize>,
}

impl OpStream {
    /// The stream of connection `conn` for `seed` over a query table of
    /// `table_len` entries.
    pub fn new(kind: StreamKind, seed: u64, conn: usize, table_len: usize) -> OpStream {
        assert!(table_len > 0, "empty query table");
        let mut cold_order = Vec::new();
        if matches!(kind, StreamKind::Cold { .. }) {
            cold_order = (0..table_len).collect();
            shuffle(&mut stream_rng(seed, 0xC01D), &mut cold_order);
        }
        OpStream {
            kind,
            rng: stream_rng(seed, conn as u64 + 1),
            table_len,
            block: Vec::new(),
            reads: Vec::new(),
            next_batch: 0,
            next_cold: match kind {
                StreamKind::Cold { conn, .. } => conn,
                _ => 0,
            },
            cold_order,
        }
    }

    fn next_read(&mut self) -> Op {
        if self.reads.is_empty() {
            self.reads = (0..self.table_len).collect();
            shuffle(&mut self.rng, &mut self.reads);
        }
        Op::Read(self.reads.pop().expect("refilled above"))
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        match self.kind {
            StreamKind::Mix => self.next_read(),
            StreamKind::Cold { conns, .. } => {
                let i = self.cold_order[self.next_cold % self.table_len];
                self.next_cold += conns;
                Op::Read(i)
            }
            StreamKind::Writer => {
                if self.block.is_empty() {
                    let mut block = vec![true, true, false, false];
                    shuffle(&mut self.rng, &mut block);
                    // Popped from the back, so reverse to keep the
                    // shuffled order readable in the op log.
                    for write in block.into_iter().rev() {
                        let op = if write {
                            Op::Write(usize::MAX)
                        } else {
                            self.next_read()
                        };
                        self.block.push(op);
                    }
                }
                match self.block.pop().expect("refilled above") {
                    Op::Write(_) => {
                        let b = self.next_batch;
                        self.next_batch += 1;
                        Op::Write(b)
                    }
                    read => read,
                }
            }
        }
    }
}

/// The first `n` operations of every connection of a workload: the
/// operation log the determinism test compares across seeds.
pub fn op_log(workload: &str, seed: u64, n: usize) -> Vec<Vec<Op>> {
    let table_len = if workload == "uni_cold" { COLD_POOL } else { 8 };
    (0..CONNECTIONS)
        .map(|c| {
            let mut s = OpStream::new(stream_kind(workload, c), seed, c, table_len);
            (0..n).map(|_| s.next_op()).collect()
        })
        .collect()
}

/// The stream shape of connection `conn` in a served workload.
pub fn stream_kind(workload: &str, conn: usize) -> StreamKind {
    match workload {
        "uni_write" if conn == 0 => StreamKind::Writer,
        "uni_cold" => StreamKind::Cold {
            conn,
            conns: CONNECTIONS,
        },
        _ => StreamKind::Mix,
    }
}

/// Seed of the `uni_write` churn stream. Like the cold pool, the writes
/// are fixed and the run's seed orders them among the reads, so every
/// run writes the same facts.
pub const CHURN_SEED: u64 = 1;

/// Churn batches in the forward half of the `uni_write` write cycle.
pub const CYCLE_BATCHES: usize = 128;

/// The churn stream of `uni_write`, cut into write batches. The stream
/// is a pure function of `(scale, seed)`, so the batches are too.
pub fn write_batches(scale: usize, seed: u64, batches: usize) -> Vec<Vec<ChurnOp>> {
    churn_stream(scale, seed, batches * BATCH)
        .chunks(BATCH)
        .map(<[ChurnOp]>::to_vec)
        .collect()
}

fn statement_json(f: &ChurnFact) -> Json {
    let parts: Vec<&str> = match f {
        ChurnFact::Concept {
            concept,
            individual,
        } => vec![concept, individual],
        ChurnFact::Role {
            role,
            subject,
            object,
        } => vec![role, subject, object],
        ChurnFact::Attr {
            attr,
            individual,
            text,
        } => vec![attr, individual, text],
    };
    Json::Arr(parts.into_iter().map(Json::from).collect())
}

fn assertion(abox: &mut Abox, sig: &Signature, f: &ChurnFact) -> Assertion {
    let known = "churn streams use the university vocabulary";
    match f {
        ChurnFact::Concept {
            concept,
            individual,
        } => Assertion::Concept(
            sig.find_concept(concept).expect(known),
            abox.individual(individual),
        ),
        ChurnFact::Role {
            role,
            subject,
            object,
        } => Assertion::Role(
            sig.find_role(role).expect(known),
            abox.individual(subject),
            abox.individual(object),
        ),
        ChurnFact::Attr {
            attr,
            individual,
            text,
        } => Assertion::Attribute(
            sig.find_attribute(attr).expect(known),
            abox.individual(individual),
            Value::Text(text.clone()),
        ),
    }
}

/// The request lines of the `uni_write` write cycle: the first
/// [`CYCLE_BATCHES`] churn batches, then the exact undo of each in
/// reverse order, so the store returns to the base ABox at the end of
/// every cycle. The churn stream inserts more than it deletes; replayed
/// as is, the store would grow throughout a run and its reads slow with
/// it, so a run's figures would depend on how far it got. Undo batches
/// are computed by applying the batches to a copy of `base` with the
/// server's semantics (deletes first, no-ops dropped); a batch that
/// changes nothing has no undo.
pub fn write_cycle(sig: &Signature, base: &Abox, scale: usize) -> Vec<String> {
    let batches = write_batches(scale, CHURN_SEED, CYCLE_BATCHES);
    let mut abox = base.clone();
    let mut undo: Vec<Vec<ChurnOp>> = Vec::new();
    for batch in &batches {
        let mut inverse = Vec::new();
        for op in batch.iter().filter(|op| !op.is_insert()) {
            let a = assertion(&mut abox, sig, op.fact());
            if abox.remove(&a) {
                inverse.push(ChurnOp::Insert(op.fact().clone()));
            }
        }
        for op in batch.iter().filter(|op| op.is_insert()) {
            let a = assertion(&mut abox, sig, op.fact());
            if abox.add(a) {
                inverse.push(ChurnOp::Delete(op.fact().clone()));
            }
        }
        undo.push(inverse);
    }
    let mut lines: Vec<String> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| write_line(i, b))
        .collect();
    for inverse in undo.iter().rev().filter(|u| !u.is_empty()) {
        lines.push(write_line(lines.len(), inverse));
    }
    lines
}

/// The request line of write batch `i`.
pub fn write_line(i: usize, batch: &[ChurnOp]) -> String {
    let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
    for op in batch {
        match op {
            ChurnOp::Insert(f) => inserts.push(statement_json(f)),
            ChurnOp::Delete(f) => deletes.push(statement_json(f)),
        }
    }
    let mut fields = vec![
        ("id", Json::Str(format!("w{i}"))),
        ("endpoint", ENDPOINT.into()),
    ];
    if !inserts.is_empty() {
        fields.push(("insert", Json::Arr(inserts)));
    }
    if !deletes.is_empty() {
        fields.push(("delete", Json::Arr(deletes)));
    }
    fields.push(("timeout_ms", 60_000u64.into()));
    Json::obj(fields).to_string()
}

/// The delta a write line carries, decoded by the server's own protocol
/// parser, so the in-process reference applies exactly what the server
/// applied.
pub fn delta_of(line: &str) -> AboxDelta {
    match parse_request(line) {
        Ok(Request::Write(w)) => w.delta,
        other => panic!("write line did not parse as a write: {other:?}"),
    }
}

/// IRI sorts of the university vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sort {
    Person,
    Course,
    Dept,
    Univ,
    Value,
}

const CONCEPTS: &[(&str, Sort)] = &[
    ("Person", Sort::Person),
    ("Student", Sort::Person),
    ("GradStudent", Sort::Person),
    ("UndergradStudent", Sort::Person),
    ("Professor", Sort::Person),
    ("AssistantProfessor", Sort::Person),
    ("FullProfessor", Sort::Person),
    ("Course", Sort::Course),
    ("GradCourse", Sort::Course),
    ("Department", Sort::Dept),
    ("University", Sort::Univ),
];

const ROLES: &[(&str, Sort, Sort)] = &[
    ("teacherOf", Sort::Person, Sort::Course),
    ("takesCourse", Sort::Person, Sort::Course),
    ("advisor", Sort::Person, Sort::Person),
    ("worksFor", Sort::Person, Sort::Dept),
    ("memberOf", Sort::Person, Sort::Dept),
    ("subOrganizationOf", Sort::Dept, Sort::Univ),
];

const ATTRIBUTES: &[(&str, Sort)] = &[("personName", Sort::Person), ("courseTitle", Sort::Course)];

/// One random connected CQ over the university vocabulary, as text.
/// Every atom after the first shares a variable with an earlier atom,
/// so no query is a cross product; value variables are never joined.
fn random_connected_cq(rng: &mut SmallRng) -> String {
    let mut vars: Vec<(String, Sort)> = Vec::new();
    let start = [Sort::Person, Sort::Person, Sort::Course, Sort::Dept][rng.gen_range(0..4usize)];
    vars.push(("x0".into(), start));
    let n_atoms = [1, 2, 2, 3, 3][rng.gen_range(0..5usize)];
    let mut atoms: Vec<String> = Vec::new();
    while atoms.len() < n_atoms {
        let iri_vars: Vec<usize> = (0..vars.len())
            .filter(|&i| vars[i].1 != Sort::Value)
            .collect();
        let (v, sort) = vars[iri_vars[rng.gen_range(0..iri_vars.len())]].clone();
        let fresh = format!("x{}", vars.len());
        match rng.gen_range(0..4) {
            0 => {
                let fits: Vec<&str> = CONCEPTS
                    .iter()
                    .filter(|c| c.1 == sort)
                    .map(|c| c.0)
                    .collect();
                atoms.push(format!("{}({v})", fits[rng.gen_range(0..fits.len())]));
            }
            1 | 2 => {
                // A role atom with `v` on its subject or object side; the
                // other end is a fresh variable or (sometimes) an existing
                // variable of the right sort (a join).
                let fits: Vec<(&str, bool, Sort)> = ROLES
                    .iter()
                    .flat_map(|&(r, s, o)| {
                        let mut out = Vec::new();
                        if s == sort {
                            out.push((r, true, o));
                        }
                        if o == sort {
                            out.push((r, false, s));
                        }
                        out
                    })
                    .collect();
                if fits.is_empty() {
                    continue;
                }
                let (role, v_is_subject, other_sort) = fits[rng.gen_range(0..fits.len())];
                let same_sort: Vec<String> = vars
                    .iter()
                    .filter(|(name, s)| *s == other_sort && *name != v)
                    .map(|(name, _)| name.clone())
                    .collect();
                let other = if !same_sort.is_empty() && rng.gen_bool(0.25) {
                    same_sort[rng.gen_range(0..same_sort.len())].clone()
                } else {
                    vars.push((fresh.clone(), other_sort));
                    fresh
                };
                atoms.push(if v_is_subject {
                    format!("{role}({v}, {other})")
                } else {
                    format!("{role}({other}, {v})")
                });
            }
            _ => {
                let fits: Vec<&str> = ATTRIBUTES
                    .iter()
                    .filter(|a| a.1 == sort)
                    .map(|a| a.0)
                    .collect();
                if fits.is_empty() {
                    continue;
                }
                vars.push((fresh.clone(), Sort::Value));
                atoms.push(format!(
                    "{}({v}, {fresh})",
                    fits[rng.gen_range(0..fits.len())]
                ));
            }
        }
    }
    let mut head: Vec<String> = vec![vars[rng.gen_range(0..vars.len())].0.clone()];
    if vars.len() > 1 && rng.gen_bool(0.5) {
        let second = vars[rng.gen_range(0..vars.len())].0.clone();
        if second != head[0] {
            head.push(second);
        }
    }
    format!("q({}) :- {}", head.join(", "), atoms.join(", "))
}

/// `n` distinct connected CQs (distinct after canonicalisation),
/// rendered with `print_cq`.
pub fn cold_queries(sig: &Signature, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = stream_rng(seed, 0xC01D);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while out.len() < n {
        attempts += 1;
        assert!(
            attempts < n * 50,
            "query generator stalled at {} distinct queries",
            out.len()
        );
        let text = random_connected_cq(&mut rng);
        let q = parse_cq(&text, sig)
            .unwrap_or_else(|e| panic!("generated query `{text}` does not parse: {e}"));
        if seen.insert(q.canonical()) {
            out.push(Query {
                lang: "cq",
                text: print_cq(&q, sig),
            });
        }
    }
    out
}
