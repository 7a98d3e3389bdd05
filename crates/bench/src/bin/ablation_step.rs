//! Ablation: the SurfNet Decoder's step size `r` (Algorithm 2: "can be
//! further adjusted to optimize between the decoding speed and accuracy,
//! with the default 2/3 generally achieving a good balance").
//!
//! Usage: `cargo run -p surfnet-bench --release --bin ablation_step -- [--trials N]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_bench::{
    arg_or, args, report_json, stats_finish, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_decoder::{DecodeWorkspace, SurfNetDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, ErrorSample, SurfaceCode};
use surfnet_telemetry::json::Value;
use surfnet_telemetry::Telemetry;

fn main() {
    telemetry_init();
    // All timing flows through the telemetry timer below — force recording
    // on even when SURFNET_TELEMETRY is unset so the decodes/s column is
    // always available (the dump at the end still obeys the env mode).
    let _telemetry = Telemetry::enabled();
    let trial_timer = surfnet_telemetry::timer("bench.ablation_step.trials");
    let args = args(&["--trials", "--distance"]);
    let trials = arg_or(&args, "--trials", 1200usize);
    let distance = arg_or(&args, "--distance", 9usize);
    let code = SurfaceCode::new(distance).expect("valid distance");
    let part = code.core_partition(CoreTopology::Cross);
    let model = ErrorModel::dual_channel(&code, &part, 0.07, 0.15);
    println!("step-size ablation: d={distance}, pauli 7%, erasure 15%, {trials} trials");
    let mut prev_total_ns = 0u64;
    let mut metrics = Vec::new();
    let mut ws = DecodeWorkspace::new();
    let mut sample = ErrorSample::clean(0);
    for r in [0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 1.5] {
        let decoder = SurfNetDecoder::with_step(&code, &model, r);
        let mut rng = SmallRng::seed_from_u64(23);
        let failures = trial_timer.time(|| {
            (0..trials)
                .filter(|_| {
                    model.sample_into(&mut rng, &mut sample);
                    !decoder
                        .decode_sample_with(&code, &sample, &mut ws)
                        .is_success()
                })
                .count()
        });
        // Per-r wall time is the delta of the timer's running total; no
        // mid-run reset, so the final dump keeps the aggregate stats.
        let total_ns = surfnet_telemetry::snapshot()
            .timer("bench.ablation_step.trials")
            .map(|t| t.total_ns)
            .unwrap_or(0);
        let elapsed = (total_ns.saturating_sub(prev_total_ns)) as f64 / 1e9;
        prev_total_ns = total_ns;
        let error_rate = failures as f64 / trials as f64;
        println!(
            "  r = {r:<5.3} logical error rate {:.4}  ({:.1} decodes/s)",
            error_rate,
            trials as f64 / elapsed.max(1e-9)
        );
        // Throughput is machine-dependent, so only the accuracy column goes
        // into the comparable report.
        metrics.push((format!("r{r:.3}/logical_error_rate"), error_rate));
    }
    report_json::emit(
        "ablation_step",
        vec![
            ("trials", Value::from(trials)),
            ("distance", Value::from(distance)),
        ],
        &metrics,
    );
    stats_finish();
    telemetry_dump("ablation_step");
    trace_finish();
}
