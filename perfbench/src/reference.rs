//! Reference answers from a second path, and order-insensitive decoding
//! of the server's answers.
//!
//! Materialized endpoints are checked against virtual SQL answering of
//! the same scenario, virtual endpoints against `AboxIndex` evaluation of
//! its materialized ABox, and writes against an in-process engine that
//! applies the same batches in order. Answers are compared as decoded
//! sets of string tuples, never as JSON text or in response order.

use std::collections::BTreeSet;

use mastro::{demo, Answers, DataMode, EngineConfig, QueryEngine, QueryLang, RewritingMode};
use obda_dllite::{Abox, Tbox};
use obda_genont::university_scenario;
use obda_server::Json;

use crate::ops::{Query, DATA_SEED};

/// An answer set as the wire renders it: tuples of display strings.
pub type AnswerSet = BTreeSet<Vec<String>>;

/// Renders engine answers the way the server does.
pub fn render(answers: &Answers) -> AnswerSet {
    answers
        .iter()
        .map(|t| t.iter().map(ToString::to_string).collect())
        .collect()
}

/// Decodes the `answers` of an `ok` query response line.
pub fn decode(line: &str) -> Result<AnswerSet, String> {
    let v = Json::parse(line).map_err(|e| format!("response is not JSON: {e}"))?;
    let rows = v
        .get("answers")
        .and_then(Json::as_arr)
        .ok_or("response has no `answers` array")?;
    let mut out = AnswerSet::new();
    for row in rows {
        let tuple = row
            .as_arr()
            .ok_or("answer row is not an array")?
            .iter()
            .map(|t| {
                t.as_str()
                    .map(str::to_string)
                    .ok_or("answer term is not a string")
            })
            .collect::<Result<Vec<_>, _>>()?;
        out.insert(tuple);
    }
    Ok(out)
}

/// The `answers` part of a response line, used only to group identical
/// responses before decoding (falls back to the whole line).
pub fn answers_slice(line: &str) -> &str {
    let start = line.find("\"answers\":");
    let end = line.find(",\"wait_us\":");
    match (start, end) {
        (Some(s), Some(e)) if s < e => &line[s..e],
        _ => line,
    }
}

/// Answers `q` on `engine`.
pub fn answer(engine: &dyn QueryEngine, q: &Query) -> Result<AnswerSet, String> {
    let lang = if q.lang == "sparql" {
        QueryLang::Sparql
    } else {
        QueryLang::Cq
    };
    engine
        .answer(lang, &q.text)
        .map(|a| render(&a))
        .map_err(|e| format!("reference engine failed on `{}`: {e}", q.text))
}

/// The university TBox and the materialized ABox every
/// `university-abox` endpoint of `scale` loads.
pub fn base_abox(scale: usize) -> (Tbox, Abox) {
    let scenario = university_scenario(scale, DATA_SEED);
    let sys = demo::build_system(&scenario).expect("university scenario loads");
    let mat = sys
        .materialized_abox()
        .expect("university scenario materializes");
    (scenario.tbox, mat.abox.clone())
}

/// Virtual SQL answering (PerfectRef → unfold → SQL) of the scenario.
pub fn virtual_engine(scale: usize) -> Box<dyn QueryEngine> {
    let scenario = university_scenario(scale, DATA_SEED);
    let db = demo::load_database(&scenario).expect("university scenario loads");
    let sys = EngineConfig::new()
        .rewriting(RewritingMode::PerfectRef)
        .data_mode(DataMode::Virtual)
        .eval_threads(1)
        .build_obda(scenario.tbox.clone(), demo::build_mappings(&scenario), db)
        .expect("university scenario builds");
    Box::new(sys)
}

/// PerfectRef over `AboxIndex` of an explicit ABox.
pub fn abox_engine(tbox: Tbox, abox: Abox) -> mastro::AboxSystem {
    EngineConfig::new()
        .rewriting(RewritingMode::PerfectRef)
        .eval_threads(1)
        .build_abox(tbox, abox)
}
