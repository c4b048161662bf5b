//! The run's result: metrics with sample counts, operation counts and
//! the correctness verdict, rendered as a readable table plus the final
//! one-line JSON object.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{END_TO_END, PER_LAYER};

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that did not come back `ok`.
    pub failed: u64,
    /// Why the run is incorrect (empty when every check passed).
    pub problems: Vec<String>,
    values: BTreeMap<String, (f64, usize)>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
}

impl Report {
    /// Records a metric measured over `samples` samples. Metrics never
    /// set read 0 with 0 samples: the layer does no work on this
    /// workload.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.to_string(), (value, samples));
    }

    /// Marks the run incorrect.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The readable table (name, value, unit, samples) followed by the
    /// final JSON line, for the end-to-end or the per-layer catalogue.
    pub fn render(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        let mut json = String::new();
        for (i, (name, unit, _)) in catalogue.iter().enumerate() {
            let (value, samples) = self.values.get(*name).copied().unwrap_or((0.0, 0));
            let _ = writeln!(out, "{name:<32} {value:>16.3} {unit:<12} n={samples}");
            if i > 0 {
                json.push(',');
            }
            let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "INCORRECT: {p}");
        }
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}
