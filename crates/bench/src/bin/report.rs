//! Run-report analyzer CLI: per-stage critical-path breakdown, top-k
//! slowest trials, and rate curves from a figure run's observability
//! outputs.
//!
//! Usage: `cargo run -p surfnet-bench --bin report -- \
//!     --journal trace.jsonl [--stats stats.jsonl] [--json] [--top K]`
//!
//! `--journal` takes the JSONL event trace written by
//! `SURFNET_TRACE=<path>.jsonl`; `--stats` the time series written by
//! `SURFNET_STATS=<path>`. At least one input is required. Output is
//! markdown by default, `--json` selects the `surfnet-report/v1` JSON
//! form. The report is a pure function of its inputs — identical files
//! produce identical output.
//!
//! Exit codes: 0 = report printed, 2 = usage error or malformed input.

use surfnet_bench::{arg_or, args, has_flag, report_analyze};
use surfnet_telemetry::{journal, stats};

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run() -> Result<String, String> {
    let args = args(&["--journal", "--stats", "--top", "--json"]);
    let journal_path = arg_or(&args, "--journal", String::new());
    let stats_path = arg_or(&args, "--stats", String::new());
    if journal_path.is_empty() && stats_path.is_empty() {
        return Err(
            "usage: report --journal <trace.jsonl> [--stats <stats.jsonl>] [--json] [--top K]"
                .to_string(),
        );
    }
    let events = if journal_path.is_empty() {
        Vec::new()
    } else {
        journal::parse_jsonl(&read(&journal_path)?).map_err(|e| format!("{journal_path}: {e}"))?
    };
    let samples = if stats_path.is_empty() {
        Vec::new()
    } else {
        stats::parse_stats_jsonl(&read(&stats_path)?).map_err(|e| format!("{stats_path}: {e}"))?
    };
    let report = report_analyze::analyze(&events, &samples);
    let top_k = arg_or(&args, "--top", 5usize);
    if has_flag(&args, "--json") {
        let mut out = String::new();
        report.to_json(top_k).write_pretty(&mut out);
        out.push('\n');
        Ok(out)
    } else {
        Ok(report.render_markdown(top_k))
    }
}

fn main() {
    match run() {
        Ok(text) => print!("{text}"),
        Err(message) => {
            eprintln!("report: {message}");
            std::process::exit(2);
        }
    }
}
