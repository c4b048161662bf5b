//! The repository's benchmark: one command, three workloads, every
//! end-to-end and per-layer metric by name and unit, and a correctness
//! verdict that fails the run on any wrong output.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload uni_write|uni_cold|fig1_classify \
//!     --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! The served workloads drive the shipped `quonto-server` binary as a
//! child process (built from the repository's own workspace on first
//! use); `fig1_classify` calls `quonto` in-process. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics,
//! which come from the server's wire fields and from a traced in-process
//! replay of the run's operation sequence (see [`trace`]).
//! `--smoke` shrinks every input to a tiny scale for the test suite.
//! Which layer metric should move which end-to-end metric, and on which
//! workload, is tabulated in `perfbench/README.md`.

pub mod fig1;
pub mod ops;
pub mod reference;
pub mod replay;
pub mod report;
pub mod served;
pub mod server;
pub mod stats;
pub mod trace;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["uni_write", "uni_cold", "fig1_classify"];

/// `(name, unit, better)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("op_p95_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric (`--trace 1`).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("read_qps", "1/s", "higher"),
    ("read_p50_us", "us", "lower"),
    ("read_p99_us", "us", "lower"),
    ("write_qps", "1/s", "higher"),
    ("write_p50_us", "us", "lower"),
    ("write_p99_us", "us", "lower"),
    ("classify_s", "s", "lower"),
    ("fail_frac", "frac", "lower"),
    ("server.wait_us.p50", "us", "lower"),
    ("server.wait_us.p99", "us", "lower"),
    ("server.queue_high_water", "count", "lower"),
    ("server.exec_us.p50", "us", "lower"),
    ("server.io_us.p50", "us", "lower"),
    ("server.accept_us", "us", "lower"),
    ("server.proto_parse_us", "us", "lower"),
    ("server.serialize_us", "us", "lower"),
    ("mastro.rewrite_cache.hit_rate", "frac", "higher"),
    ("query.parse_us", "us", "lower"),
    ("rewrite.perfectref_us", "us", "lower"),
    ("rewrite.prune_us", "us", "lower"),
    ("rewrite.disjuncts_raw", "count", "lower"),
    ("rewrite.kept_frac", "frac", "lower"),
    ("rewrite.ndl_compile_us", "us", "lower"),
    ("rewrite.ndl_rules", "count", "lower"),
    ("unfold.unfold_us", "us", "lower"),
    ("unfold.sql_statements", "count", "lower"),
    ("sqlstore.exec_us", "us", "lower"),
    ("sqlstore.rows_scanned", "count", "lower"),
    ("sqlstore.rows_per_answer", "rows/answer", "lower"),
    ("answer.eval_us", "us", "lower"),
    ("answer.rows", "count", "lower"),
    ("answer.index_build_us", "us", "lower"),
    ("delta.apply_us.p50", "us", "lower"),
    ("delta.rows_changed", "count", "lower"),
    ("delta.fallback", "count", "lower"),
    ("ndl.view_memo_hit_rate", "frac", "higher"),
    ("quonto.graph_ms", "ms", "lower"),
    ("quonto.closure_ms", "ms", "lower"),
    ("quonto.unsat_ms", "ms", "lower"),
    ("quonto.nodes", "count", "lower"),
    ("quonto.closure_arcs", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.replay_ops", "count", "higher"),
    ("trace.replay_self_us", "us", "lower"),
];

/// Run options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of the generated operation sequence.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics (traced replay) instead of end-to-end.
    pub trace: bool,
    /// Tiny inputs for the test suite.
    pub smoke: bool,
}

impl Opts {
    /// University scenario scale of the served workloads: 16 for
    /// `uni_write`; 2 for `uni_cold`, where every request pays
    /// rewriting and unfolding, so that those layers and not the SQL
    /// joins of a few heavy queries set its latencies.
    pub fn uni_scale(&self) -> usize {
        match (self.smoke, self.workload.as_str()) {
            (true, _) => 1,
            (false, "uni_cold") => 2,
            (false, _) => 16,
        }
    }

    /// How many times a served workload's set-up runs in one run
    /// (`setup_s` is the median).
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}
