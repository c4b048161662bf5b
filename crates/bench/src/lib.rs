//! # obda-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper plus the ablations listed in DESIGN.md. Criterion benches
//! live in `benches/`; table-printing binaries in `src/bin/` (one per
//! experiment id: `figure1`, `figure2`, `rewriting_report`,
//! `approximation_report`, `obda_report`, `implication_report`,
//! `closure_report`).
//!
//! This library hosts the shared machinery: running each classifier with
//! a wall-clock budget, converting `quonto`'s output into the
//! reasoner-independent [`NamedClassification`], and table formatting.

use std::time::{Duration, Instant};

use obda_dllite::Tbox;
use obda_genont::OntologySpec;
use obda_owl::tbox_to_owl;
use obda_reasoners::{classify_tableau_threaded, Budget, NamedClassification, TableauProfile};
use quonto::{Classification, NodeKind};

/// Converts a finished graph-based classification into the shared
/// named-predicate result (for cross-reasoner comparison).
pub fn quonto_named(cls: &Classification) -> NamedClassification {
    let g = cls.graph();
    let mut out = NamedClassification {
        role_pairs: Some(Default::default()),
        ..Default::default()
    };
    for a in (0..g.num_concepts()).map(obda_dllite::ConceptId) {
        if cls.concept_unsat(a) {
            out.unsat_concepts.insert(a);
            continue;
        }
        for b in cls.concept_subsumers(a) {
            if !cls.concept_unsat(b) {
                out.concept_pairs.insert((a, b));
            }
        }
    }
    let role_pairs = out.role_pairs.as_mut().expect("just set");
    for p in (0..g.num_roles()).map(obda_dllite::RoleId) {
        if cls.role_unsat(p) {
            out.unsat_roles.insert(p);
            continue;
        }
        let n = g.role_node(obda_dllite::BasicRole::Direct(p));
        for &v in cls.closure().successors(n) {
            if let NodeKind::Role(r, false) = g.node_kind(quonto::NodeId(v)) {
                if r != p && !cls.role_unsat(r) {
                    role_pairs.insert((p, r));
                }
            }
        }
    }
    out
}

/// Outcome of one classification run.
#[derive(Debug, Clone)]
pub enum RunResult {
    /// Completed within budget.
    Done {
        /// Wall-clock time.
        time: Duration,
        /// Number of concept subsumption pairs reported.
        concept_pairs: usize,
        /// Whether the property hierarchy was computed at all.
        has_role_hierarchy: bool,
    },
    /// Budget exhausted (the paper's "timeout" entries).
    Timeout,
}

impl RunResult {
    /// Formats like the paper's Figure 1 cells (seconds with 3 decimals,
    /// or `timeout`).
    pub fn cell(&self) -> String {
        match self {
            RunResult::Done { time, .. } => format!("{:.3}", time.as_secs_f64()),
            RunResult::Timeout => "timeout".into(),
        }
    }
}

/// The classifiers of Figure 1, in column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reasoner {
    /// The graph-based classifier (this paper / QuOnto).
    Quonto,
    /// FaCT++-analog: enhanced-traversal tableau.
    TableauEnhanced,
    /// HermiT-analog: told-pruned tableau.
    TableauTold,
    /// Pellet-analog: naive all-pairs tableau.
    TableauNaive,
    /// CB-analog: consequence-based (no property hierarchy).
    Consequence,
}

impl Reasoner {
    /// Column header (paper name / our implementation).
    pub fn header(self) -> &'static str {
        match self {
            Reasoner::Quonto => "QuOnto(graph)",
            Reasoner::TableauEnhanced => "FaCT++(enh)",
            Reasoner::TableauTold => "HermiT(told)",
            Reasoner::TableauNaive => "Pellet(naive)",
            Reasoner::Consequence => "CB(conseq)",
        }
    }

    /// All columns in the Figure 1 order (QuOnto, FaCT++, HermiT,
    /// Pellet, CB).
    pub fn figure1_columns() -> [Reasoner; 5] {
        [
            Reasoner::Quonto,
            Reasoner::TableauEnhanced,
            Reasoner::TableauTold,
            Reasoner::TableauNaive,
            Reasoner::Consequence,
        ]
    }
}

/// Runs one classifier on one TBox under a wall-clock budget and returns
/// timing plus result shape. The OWL view is built outside the timed
/// section for the tableau profiles (parsing/loading is not what Figure 1
/// measures). Single-threaded; see [`run_classifier_threaded`].
pub fn run_classifier(reasoner: Reasoner, tbox: &Tbox, budget_secs: u64) -> RunResult {
    run_classifier_threaded(reasoner, tbox, budget_secs, 1)
}

/// [`run_classifier`] with a worker-thread knob (`0` = all cores): the
/// graph-based classifier picks its closure engine via
/// [`quonto::recommended_with_threads`], and the tableau profiles shard
/// their subsumption tests across workers. `threads == 1` reproduces
/// `run_classifier` exactly; every reasoner reports identical results at
/// every thread count (only wall-time changes).
pub fn run_classifier_threaded(
    reasoner: Reasoner,
    tbox: &Tbox,
    budget_secs: u64,
    threads: usize,
) -> RunResult {
    match reasoner {
        Reasoner::Quonto => {
            let engine = quonto::recommended_with_threads(threads);
            let start = Instant::now();
            let cls = Classification::classify_with(tbox, engine.as_ref());
            let time = start.elapsed();
            let named = quonto_named(&cls);
            RunResult::Done {
                time,
                concept_pairs: named.concept_pairs.len(),
                has_role_hierarchy: true,
            }
        }
        Reasoner::Consequence => {
            let start = Instant::now();
            let (pairs, _unsat) = obda_reasoners::consequence_stats(tbox);
            let time = start.elapsed();
            RunResult::Done {
                time,
                concept_pairs: pairs,
                has_role_hierarchy: false,
            }
        }
        Reasoner::TableauEnhanced | Reasoner::TableauTold | Reasoner::TableauNaive => {
            let profile = match reasoner {
                Reasoner::TableauEnhanced => TableauProfile::Enhanced,
                Reasoner::TableauTold => TableauProfile::Told,
                _ => TableauProfile::Naive,
            };
            let onto = tbox_to_owl(tbox);
            let start = Instant::now();
            match classify_tableau_threaded(&onto, profile, Budget::seconds(budget_secs), threads) {
                Ok(named) => RunResult::Done {
                    time: start.elapsed(),
                    concept_pairs: named.concept_pairs.len(),
                    has_role_hierarchy: named.role_pairs.is_some(),
                },
                Err(_) => RunResult::Timeout,
            }
        }
    }
}

/// One row of the Figure 1 table.
#[derive(Debug, Clone)]
pub struct Figure1Row {
    /// Ontology name.
    pub ontology: String,
    /// TBox statistics (for the report header).
    pub stats: obda_dllite::tbox::TboxStats,
    /// Results per Figure 1 column.
    pub results: Vec<(Reasoner, RunResult)>,
}

/// Runs the Figure 1 suite. `scale` multiplies every preset's sizes
/// (1.0 = the published scales); `budget_secs` is the per-run timeout
/// (the paper used 3600s); `filter` restricts to ontologies whose name
/// contains the string. Single-threaded; see [`run_figure1_threaded`].
pub fn run_figure1(scale: f64, budget_secs: u64, filter: Option<&str>) -> Vec<Figure1Row> {
    run_figure1_threaded(scale, budget_secs, filter, 1)
}

/// [`run_figure1`] with a worker-thread knob (`0` = all cores), threaded
/// through to every classifier via [`run_classifier_threaded`].
pub fn run_figure1_threaded(
    scale: f64,
    budget_secs: u64,
    filter: Option<&str>,
    threads: usize,
) -> Vec<Figure1Row> {
    let mut rows = Vec::new();
    for preset in obda_genont::figure1_presets() {
        if let Some(f) = filter {
            if !preset.name.to_lowercase().contains(&f.to_lowercase()) {
                continue;
            }
        }
        let spec = if (scale - 1.0).abs() < f64::EPSILON {
            preset
        } else {
            preset.scaled(scale)
        };
        let tbox = spec.generate();
        let stats = tbox.stats();
        let mut results = Vec::new();
        for r in Reasoner::figure1_columns() {
            let outcome = run_classifier_threaded(r, &tbox, budget_secs, threads);
            // Stream progress so long runs are observable.
            eprintln!("  {} / {}: {}", spec.name, r.header(), outcome.cell());
            results.push((r, outcome));
        }
        rows.push(Figure1Row {
            ontology: spec.name.clone(),
            stats,
            results,
        });
    }
    rows
}

/// Formats rows as an aligned ASCII table (like the paper's Figure 1,
/// with seconds instead of milliseconds).
pub fn format_figure1(rows: &[Figure1Row]) -> String {
    let mut headers = vec!["Ontology".to_owned(), "classes".into(), "axioms".into()];
    headers.extend(
        Reasoner::figure1_columns()
            .into_iter()
            .map(|r| r.header().to_owned()),
    );
    let mut table: Vec<Vec<String>> = vec![headers];
    for row in rows {
        let mut cells = vec![
            row.ontology.clone(),
            row.stats.concepts.to_string(),
            row.stats.total_axioms().to_string(),
        ];
        cells.extend(row.results.iter().map(|(_, r)| r.cell()));
        table.push(cells);
    }
    render(&table)
}

/// Report label of a closure engine: its name, suffixed `/tN` when it
/// runs on `N > 1` threads.
pub fn engine_label(engine: &dyn quonto::ClosureEngine) -> String {
    match engine.threads() {
        1 => engine.name().to_owned(),
        t => format!("{}/t{t}", engine.name()),
    }
}

/// Aligned ASCII rendering of a table (first row = header).
pub fn render(table: &[Vec<String>]) -> String {
    let cols = table.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in table {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, row) in table.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths[i]))
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
        if ri == 0 {
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
            out.push('\n');
        }
    }
    out
}

/// Small spec used by benches that need a quick synthetic ontology.
pub fn smoke_spec(concepts: usize, seed: u64) -> OntologySpec {
    OntologySpec {
        name: format!("smoke{concepts}"),
        concepts,
        roles: (concepts / 20).max(2),
        roots: (concepts / 100).max(1),
        existentials: concepts / 5,
        qualified_existentials: concepts / 10,
        disjointness: concepts / 20,
        seed,
        ..OntologySpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_reasoners::classify_consequence;

    #[test]
    fn quonto_named_matches_consequence_on_presets() {
        for preset in obda_genont::figure1_presets() {
            let spec = preset.scaled(0.01);
            let tbox = spec.generate();
            let q = quonto_named(&Classification::classify(&tbox));
            let cb = classify_consequence(&tbox);
            assert!(
                q.concepts_agree(&cb),
                "{}: quonto {} pairs vs cb {} pairs",
                spec.name,
                q.concept_pairs.len(),
                cb.concept_pairs.len()
            );
        }
    }

    #[test]
    fn figure1_smoke_run() {
        let rows = run_figure1(0.005, 10, Some("Mouse"));
        assert_eq!(rows.len(), 1);
        let table = format_figure1(&rows);
        assert!(table.contains("Mouse"));
        assert!(table.contains("QuOnto"));
    }

    #[test]
    fn render_aligns_columns() {
        let t = vec![
            vec!["a".into(), "long-header".into()],
            vec!["xxxx".into(), "1".into()],
        ];
        let s = render(&t);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "));
    }
}
