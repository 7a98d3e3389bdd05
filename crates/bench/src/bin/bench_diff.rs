//! Compares two `BENCH_<figure>.json` reports and exits non-zero on
//! regressions beyond tolerance.
//!
//! Usage: `cargo run -p surfnet-bench --bin bench-diff -- \
//!     <baseline.json> <candidate.json> [--tol 0.05] [--counters] [--counter-tol 0.5] \
//!     [--stages] [--stage-tol 0.5] [--groups] [--group-tol 0]`
//!
//! `--stages` also compares the per-stage timer means (`trial.run` and
//! `trial.stage.*` mean_ns, lower-is-better) under `--stage-tol` — a
//! loose default, since stage times are wall-clock. `--groups` compares
//! the grouped metric-family series (`name{label}` keys) under
//! `--group-tol`; group values are deterministic for seeded runs, so the
//! default group tolerance is 0, and a label missing from the candidate
//! is a regression.
//!
//! Exit codes: 0 = no regressions, 1 = regressions found, 2 = usage or
//! malformed report.

use surfnet_bench::{arg_or, args, diff, has_flag};
use surfnet_telemetry::json::Value;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn main() {
    let args = args(&[
        "--tol",
        "--counters",
        "--counter-tol",
        "--stages",
        "--stage-tol",
        "--groups",
        "--group-tol",
    ]);
    let positional: Vec<&String> = {
        // Flags either stand alone (--counters) or take a value; strip both.
        let mut out = Vec::new();
        let mut skip = false;
        for a in &args {
            if skip {
                skip = false;
            } else if a == "--counters" || a == "--stages" || a == "--groups" {
                // bare flags
            } else if a.starts_with("--") {
                skip = true;
            } else {
                out.push(a);
            }
        }
        out
    };
    let [baseline_path, candidate_path] = positional.as_slice() else {
        eprintln!(
            "usage: bench-diff <baseline.json> <candidate.json> [--tol T] \
             [--counters] [--counter-tol T] [--stages] [--stage-tol T] \
             [--groups] [--group-tol T]"
        );
        std::process::exit(2);
    };
    let tol = arg_or(&args, "--tol", 0.05f64);
    let counter_tol = has_flag(&args, "--counters").then(|| arg_or(&args, "--counter-tol", 0.5f64));
    let stage_tol = has_flag(&args, "--stages").then(|| arg_or(&args, "--stage-tol", 0.5f64));
    let group_tol = has_flag(&args, "--groups").then(|| arg_or(&args, "--group-tol", 0.0f64));

    let result = load(baseline_path)
        .and_then(|baseline| load(candidate_path).map(|candidate| (baseline, candidate)))
        .and_then(|(baseline, candidate)| {
            diff::diff(
                &baseline,
                &candidate,
                tol,
                counter_tol,
                stage_tol,
                group_tol,
            )
        });
    match result {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(i32::from(report.has_regressions()));
        }
        Err(message) => {
            eprintln!("bench-diff: {message}");
            std::process::exit(2);
        }
    }
}
