//! Ablation: independent vs contended execution. The default executor
//! gives every transfer private entanglement sources; the concurrent
//! executor makes all scheduled codes share per-fiber pair pools. Fidelity
//! is unchanged (it is route-determined); latency degrades under
//! contention — the effect the capacity constraints of Eq. 5 budget for.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin ablation_concurrency -- [--trials N]`

use surfnet_bench::{
    arg_or, args, report_json, stats_finish, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_core::experiments::runner::parallel_trials;
use surfnet_core::pipeline::Design;
use surfnet_core::scenario::TrialConfig;
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--seed"]);
    let trials = arg_or(&args, "--trials", 40usize);
    let seed = arg_or(&args, "--seed", 77_000u64);
    println!("execution-contention ablation ({trials} trials per row)");
    let mut metrics = Vec::new();
    for (label, concurrent) in [("independent", false), ("concurrent", true)] {
        let mut cfg = TrialConfig::default();
        cfg.concurrent_execution = concurrent;
        let m = parallel_trials(Design::SurfNet, &cfg, trials, seed).summary();
        println!(
            "  {label:<12} fidelity {:.3}  latency {:>7.1}  throughput {:.3}",
            m.fidelity, m.latency, m.throughput
        );
        metrics.push((format!("{label}/fidelity"), m.fidelity));
        metrics.push((format!("{label}/latency"), m.latency));
        metrics.push((format!("{label}/throughput"), m.throughput));
    }
    report_json::emit(
        "ablation_concurrency",
        vec![("trials", Value::from(trials)), ("seed", Value::from(seed))],
        &metrics,
    );
    stats_finish();
    telemetry_dump("ablation_concurrency");
    trace_finish();
}
