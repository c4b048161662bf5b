//! A tiny-scale run of every workload passes with its correctness
//! checks on, in both reporting modes.

use std::process::Command;

use obda_server::Json;

fn run(workload: &str, trace: &str) -> Json {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

#[test]
fn every_workload_passes_at_tiny_scale() {
    for w in perfbench::WORKLOADS {
        for trace in ["0", "1"] {
            let r = run(w, trace);
            assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true), "{w}");
            assert!(
                r.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0,
                "{w}"
            );
            assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{w}");
        }
    }
}

#[test]
fn unknown_workload_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
