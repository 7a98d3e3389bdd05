//! Regenerates Fig. 6(a): Raw vs SurfNet in three facility scenarios.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin fig6a -- [--trials N] [--seed S]`

use surfnet_bench::{
    arg_or, args, flatten, has_flag, report_json, stats_finish, telemetry_dump, telemetry_init,
    trace_finish,
};
use surfnet_core::experiments::fig6a;
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--seed", "--detail"]);
    let trials = arg_or(&args, "--trials", 40usize);
    let seed = arg_or(&args, "--seed", 61_000u64);
    let result = fig6a::run(trials, seed);
    print!("{}", fig6a::render(&result));
    if has_flag(&args, "--detail") {
        println!();
        print!("{}", fig6a::render_detail(&result));
    }
    report_json::emit(
        "fig6a",
        vec![("trials", Value::from(trials)), ("seed", Value::from(seed))],
        &flatten::fig6a(&result),
    );
    stats_finish();
    telemetry_dump("fig6a");
    trace_finish();
}
