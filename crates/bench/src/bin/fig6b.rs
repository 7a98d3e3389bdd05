//! Regenerates Fig. 6(b.1–b.4): SurfNet parameter sweeps.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin fig6b -- \
//!     [--param capacity|entanglement|messages|threshold|all] [--trials N] [--seed S]`

use surfnet_bench::{
    arg_or, args, flatten, report_json, stats_finish, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_core::experiments::fig6b::{self, SweepParam};
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--seed", "--param"]);
    let trials = arg_or(&args, "--trials", 30usize);
    let seed = arg_or(&args, "--seed", 62_000u64);
    let which = arg_or(&args, "--param", "all".to_string());
    let params: Vec<SweepParam> = match which.as_str() {
        "capacity" => vec![SweepParam::Capacity],
        "entanglement" => vec![SweepParam::Entanglement],
        "messages" => vec![SweepParam::MessagesPerRequest],
        "threshold" => vec![SweepParam::FidelityThreshold],
        _ => vec![
            SweepParam::Capacity,
            SweepParam::Entanglement,
            SweepParam::MessagesPerRequest,
            SweepParam::FidelityThreshold,
        ],
    };
    for param in params {
        let sweep = fig6b::run(param, trials, seed);
        println!("{}", fig6b::render(&sweep));
        let key = flatten::sweep_key(param);
        report_json::emit(
            &format!("fig6b_{key}"),
            vec![("trials", Value::from(trials)), ("seed", Value::from(seed))],
            &flatten::fig6b(&sweep),
        );
        telemetry_dump(&format!("fig6b/{key}"));
    }
    // The sampler spans all sweeps; the per-sweep dumps reset the
    // aggregates, so the mid-run samples carry the series.
    stats_finish();
    trace_finish();
}
