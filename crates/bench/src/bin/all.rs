//! Regenerates every evaluation figure in one run.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin all -- [--trials N] [--fig8-trials N]`

use surfnet_bench::{
    arg_or, args, flatten, report_json, stats_finish, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_core::experiments::{fig6a, fig6b, fig7, fig8};
use surfnet_core::DecoderKind;
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--fig8-trials", "--seed"]);
    let trials = arg_or(&args, "--trials", 40usize);
    let fig8_trials = arg_or(&args, "--fig8-trials", 400usize);
    let seed = arg_or(&args, "--seed", 90_000u64);
    let params = |trials: usize, seed: u64| {
        vec![("trials", Value::from(trials)), ("seed", Value::from(seed))]
    };

    let result_6a = fig6a::run(trials, seed);
    print!("{}", fig6a::render(&result_6a));
    report_json::emit("fig6a", params(trials, seed), &flatten::fig6a(&result_6a));
    telemetry_dump("fig6a");
    println!();
    for param in [
        fig6b::SweepParam::Capacity,
        fig6b::SweepParam::Entanglement,
        fig6b::SweepParam::MessagesPerRequest,
        fig6b::SweepParam::FidelityThreshold,
    ] {
        let sweep = fig6b::run(param, trials, seed + 1);
        println!("{}", fig6b::render(&sweep));
        report_json::emit(
            &format!("fig6b_{}", flatten::sweep_key(param)),
            params(trials, seed + 1),
            &flatten::fig6b(&sweep),
        );
    }
    telemetry_dump("fig6b");
    let result_7 = fig7::run(trials, seed + 2);
    print!("{}", fig7::render(&result_7));
    report_json::emit("fig7", params(trials, seed + 2), &flatten::fig7(&result_7));
    telemetry_dump("fig7");
    println!();
    let distances = fig8::paper_distances();
    let rates = fig8::paper_rates();
    let mut fig8_metrics = Vec::new();
    for decoder in [DecoderKind::UnionFind, DecoderKind::SurfNet] {
        let curves = fig8::run(
            decoder,
            &distances,
            &rates,
            fig8::ERASURE_RATE,
            fig8_trials,
            seed + 3,
        );
        println!("{}", fig8::render(&curves));
        fig8_metrics.extend(flatten::fig8(&curves));
    }
    report_json::emit("fig8", params(fig8_trials, seed + 3), &fig8_metrics);
    stats_finish();
    telemetry_dump("fig8");
    trace_finish();
}
