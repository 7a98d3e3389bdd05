//! Benchmark harness for the SurfNet reproduction.
//!
//! Binaries regenerate every evaluation artifact of the paper:
//!
//! * `fig6a` — Fig. 6(a): Raw vs SurfNet tables (throughput, latency,
//!   fidelity) in three facility scenarios;
//! * `fig6b` — Fig. 6(b.1–b.4): parameter sweeps
//!   (`--param capacity|entanglement|messages|threshold`);
//! * `fig7` — Fig. 7: five designs × four scenarios;
//! * `fig8` — Fig. 8: decoder thresholds (Union-Find vs SurfNet);
//! * `all` — everything above with paper-scale defaults.
//!
//! Criterion benches (`cargo bench -p surfnet-bench`) measure the decoder
//! and matcher scaling claims (Theorems 1–2) and the LP scheduler.
//!
//! Beyond the terminal tables, every figure binary also emits a
//! machine-readable `BENCH_<figure>.json` report ([`report_json`]); the
//! `bench-diff` binary ([`diff`]) compares two reports and fails on
//! regressions, and the `replay` binary re-executes flight-recorder
//! artifacts (`surfnet_core::flight`). Set `SURFNET_TRACE=<path>` to get
//! a Chrome/Perfetto trace of the run.

use std::env;

pub mod diff;
pub mod flatten;
pub mod report_analyze;
pub mod report_json;

/// Minimal `--key value` argument extraction for the figure binaries.
///
/// An absent flag yields `default`. A flag that is present but has no
/// value (it is last, or another `--flag` follows it), or a value that
/// does not parse as `T`, aborts the process with exit code 2 and a
/// message naming the flag and the value.
///
/// # Examples
///
/// ```
/// let trials = surfnet_bench::arg_or(&["--trials".into(), "12".into()], "--trials", 40usize);
/// assert_eq!(trials, 12);
/// ```
pub fn arg_or<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    match parse_arg(args, key) {
        Ok(value) => value.unwrap_or(default),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}

/// The value following `key` in `args`: `Ok(None)` when the flag is
/// absent, otherwise the parsed value or the message [`arg_or`] prints.
fn parse_arg<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{key}: cannot parse value `{v}`")),
        _ => Err(format!("{key}: missing value")),
    }
}

/// Collects the process arguments (skipping `argv[0]`) of a binary that
/// accepts the flags in `accepted`.
///
/// Any other argument that starts with `--` aborts the process with exit
/// code 2 and a message naming the first such flag, so a misspelt flag
/// (`--trails 4`) cannot silently fall back to a default. Arguments that
/// do not start with `--` (flag values, positional paths) pass through.
pub fn args(accepted: &[&str]) -> Vec<String> {
    let args: Vec<String> = env::args().skip(1).collect();
    if let Err(message) = check_flags(&args, accepted) {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    args
}

/// The message [`args`] prints for the first flag of `args` not in
/// `accepted`.
fn check_flags(args: &[String], accepted: &[&str]) -> Result<(), String> {
    let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !accepted.contains(&a.as_str()))
    else {
        return Ok(());
    };
    if accepted.is_empty() {
        Err(format!("unknown flag `{flag}`: this binary takes no flags"))
    } else {
        Err(format!(
            "unknown flag `{flag}` (accepted: {})",
            accepted.join(", ")
        ))
    }
}

/// Whether a bare flag is present.
pub fn has_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Enables telemetry according to `SURFNET_TELEMETRY` (`json` or `table`),
/// the event journal according to `SURFNET_TRACE=<path>`, the time-series
/// stats sampler according to `SURFNET_STATS=<path>[:interval_ms]`, and
/// the failure flight recorder according to `SURFNET_FLIGHT=<dir>`.
///
/// Every figure binary calls this first thing in `main`.
pub fn telemetry_init() {
    surfnet_telemetry::Telemetry::init_from_env();
    surfnet_telemetry::journal::init_from_env();
    surfnet_telemetry::stats::init_from_env();
    surfnet_core::flight::init_from_env();
}

/// Writes the accumulated event journal to the `SURFNET_TRACE` path (a
/// `.jsonl` extension selects JSONL, anything else the Chrome trace
/// format). Every figure binary calls this last thing in `main`.
pub fn trace_finish() {
    match surfnet_telemetry::journal::write_trace() {
        Ok(Some(path)) => eprintln!("surfnet-trace: wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("surfnet-trace: write failed: {e}"),
    }
}

/// Stops the `SURFNET_STATS` sampler, writing one final exact sample.
/// Figure binaries call this after `report_json::emit` (which reads the
/// live snapshot) and **before** [`telemetry_dump`] (which resets the
/// aggregates the final sample snapshots).
pub fn stats_finish() {
    if let Some(path) = surfnet_telemetry::stats::finish() {
        eprintln!("surfnet-stats: wrote {}", path.display());
    }
}

/// Prints the accumulated per-stage breakdown (if telemetry is enabled)
/// and clears it so successive figures in one process report separately.
pub fn telemetry_dump(figure: &str) {
    if let Some(report) = surfnet_core::report::telemetry_report() {
        println!("\ntelemetry [{figure}]\n{report}");
    }
    surfnet_telemetry::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_or_parses_and_defaults() {
        let args: Vec<String> = vec!["--trials".into(), "7".into(), "--x".into()];
        assert_eq!(arg_or(&args, "--trials", 1usize), 7);
        assert_eq!(arg_or(&args, "--seed", 42u64), 42);
        // A present flag with no value is an error, not the default.
        let err = parse_arg::<usize>(&args, "--x").unwrap_err();
        assert!(err.contains("--x") && err.contains("missing"), "{err}");
        let followed: Vec<String> = vec!["--tol".into(), "--counters".into()];
        let err = parse_arg::<f64>(&followed, "--tol").unwrap_err();
        assert!(err.contains("--tol") && err.contains("missing"), "{err}");
        assert!(has_flag(&args, "--x"));
        assert!(!has_flag(&args, "--y"));
    }

    #[test]
    fn unknown_flag_is_an_error_naming_it() {
        let accepted = ["--trials", "--seed"];
        let args: Vec<String> = vec!["--trials".into(), "4".into(), "--batch".into()];
        let err = check_flags(&args, &accepted).unwrap_err();
        assert!(err.contains("`--batch`") && err.contains("--seed"), "{err}");
        let help: Vec<String> = vec!["--help".into()];
        let err = check_flags(&help, &[]).unwrap_err();
        assert!(err.contains("`--help`"), "{err}");
        // Values and positional arguments are not flags.
        let args: Vec<String> = vec!["a.json".into(), "--seed".into(), "-3".into()];
        assert_eq!(check_flags(&args, &accepted), Ok(()));
    }

    #[test]
    fn misspelt_flag_is_an_error_naming_it() {
        let args: Vec<String> = vec!["--trails".into(), "4".into(), "--seed".into(), "1".into()];
        let err = check_flags(&args, &["--trials", "--seed"]).unwrap_err();
        assert!(err.contains("`--trails`"), "{err}");
    }

    #[test]
    fn unparsable_value_is_an_error_naming_flag_and_value() {
        let args: Vec<String> = vec!["--max-distance".into(), "9x".into()];
        let err = parse_arg::<usize>(&args, "--max-distance").unwrap_err();
        assert!(
            err.contains("--max-distance") && err.contains("`9x`"),
            "{err}"
        );
        let args: Vec<String> = vec!["--tol".into(), "O".into()];
        let err = parse_arg::<f64>(&args, "--tol").unwrap_err();
        assert!(err.contains("--tol") && err.contains("`O`"), "{err}");
        // Negative numbers are values, not flags.
        let args: Vec<String> = vec!["--rate".into(), "-0.5".into()];
        assert_eq!(parse_arg::<f64>(&args, "--rate"), Ok(Some(-0.5)));
    }
}
