//! Command-line entry point; see the library docs for the workloads.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::Report;
use perfbench::{fig1, served, server, Opts, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().ok_or(format!("missing value for {arg}"));
        match arg.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    // The benchmark runs from the root of a checkout: it builds the
    // server from the workspace there and keeps its scratch files in a
    // directory of its own.
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => return usage(&format!("no working directory: {e}")),
    };
    if !root.join("crates/server/Cargo.toml").is_file() {
        return usage("run from the root of the repository checkout");
    }
    let work: PathBuf = root.join(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&work) {
        return usage(&format!("cannot create {}: {e}", work.display()));
    }

    let mut report = Report::default();
    if opts.workload == "fig1_classify" {
        fig1::run(&opts, &work, &mut report);
    } else {
        let bin = match server::build_server(&root) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = served::run(&opts, &bin, &work, &mut report) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.attempted == 0 {
        report.fail("no operation was attempted");
    }
    print!("{}", report.render(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
