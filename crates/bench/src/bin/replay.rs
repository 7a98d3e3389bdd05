//! Deterministically re-executes flight-recorder artifacts
//! (`FLIGHT_*.json`, captured when `SURFNET_FLIGHT=<dir>` is set) and
//! diffs decoder behavior against the recording. When the artifact's
//! `journal_tail` is non-empty (event journal was on during capture), the
//! capturing thread's last spans print as an indented per-stage timeline
//! annotated with trial/request/segment trace ids.
//!
//! Usage: `cargo run -p surfnet-bench --bin replay -- <artifact.json>...`
//!
//! Exit codes: 0 = every artifact replayed faithfully, 1 = at least one
//! replay diverged from its recording, 2 = usage or malformed artifact.

use std::path::Path;
use surfnet_core::flight;

fn main() {
    let paths = surfnet_bench::args(&[]);
    if paths.is_empty() {
        eprintln!("usage: replay <artifact.json>...");
        std::process::exit(2);
    }
    let mut all_faithful = true;
    for path in &paths {
        let report = flight::load_artifact(Path::new(path))
            .and_then(|a| flight::replay_artifact(&a).map(|r| (a, r)));
        match report {
            Ok((artifact, report)) => {
                println!("{path}:");
                print!("{}", report.render());
                match flight::render_journal_timeline(&artifact) {
                    Ok(Some(timeline)) => print!("{timeline}"),
                    Ok(None) => {}
                    Err(message) => eprintln!("replay: {path}: bad journal tail: {message}"),
                }
                all_faithful &= report.is_faithful();
            }
            Err(message) => {
                eprintln!("replay: {path}: {message}");
                std::process::exit(2);
            }
        }
    }
    std::process::exit(i32::from(!all_faithful));
}
