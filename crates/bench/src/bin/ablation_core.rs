//! Ablation: Core-topology geometry (paper Sec. IV: "the specific selection
//! of data qubits and geometry for the Core part ... is a future
//! improvement"). Compares logical error rates when the high-fidelity Core
//! is the cross (default), the middle row only, the middle column only, or
//! absent (uniform rates), at the paper's Fig. 8 operating point.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin ablation_core -- [--trials N]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_bench::{
    arg_or, args, report_json, stats_finish, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_decoder::{DecodeWorkspace, SurfNetDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, ErrorSample, SurfaceCode};
use surfnet_telemetry::json::Value;

fn rate(code: &SurfaceCode, model: &ErrorModel, trials: usize, seed: u64) -> f64 {
    let decoder = SurfNetDecoder::from_model(code, model);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ws = DecodeWorkspace::new();
    let mut sample = ErrorSample::clean(0);
    let failures = (0..trials)
        .filter(|_| {
            model.sample_into(&mut rng, &mut sample);
            !decoder
                .decode_sample_with(code, &sample, &mut ws)
                .is_success()
        })
        .count();
    failures as f64 / trials as f64
}

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--distance", "--pauli", "--erasure"]);
    let trials = arg_or(&args, "--trials", 1500usize);
    let distance = arg_or(&args, "--distance", 9usize);
    let p = arg_or(&args, "--pauli", 0.07f64);
    let pe = arg_or(&args, "--erasure", 0.15f64);
    let code = SurfaceCode::new(distance).expect("valid distance");
    println!(
        "core-topology ablation: d={distance}, pauli {:.1}%, erasure {:.1}%, {trials} trials",
        p * 100.0,
        pe * 100.0
    );
    let cases: Vec<(&str, &str, Option<CoreTopology>)> = vec![
        ("none (uniform)", "none", None),
        ("cross", "cross", Some(CoreTopology::Cross)),
        ("middle-row", "middle-row", Some(CoreTopology::MiddleRow)),
        (
            "middle-column",
            "middle-column",
            Some(CoreTopology::MiddleColumn),
        ),
    ];
    let mut metrics = Vec::new();
    for (label, key, topology) in cases {
        let model = match topology {
            None => ErrorModel::uniform(&code, p, pe),
            Some(t) => {
                let part = code.core_partition(t);
                ErrorModel::dual_channel(&code, &part, p, pe)
            }
        };
        let error_rate = rate(&code, &model, trials, 11);
        println!("  {label:<16} logical error rate {error_rate:.4}");
        metrics.push((format!("{key}/logical_error_rate"), error_rate));
    }
    report_json::emit(
        "ablation_core",
        vec![
            ("trials", Value::from(trials)),
            ("distance", Value::from(distance)),
            ("pauli", Value::Num(p)),
            ("erasure", Value::Num(pe)),
        ],
        &metrics,
    );
    stats_finish();
    telemetry_dump("ablation_core");
    trace_finish();
}
