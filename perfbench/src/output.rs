//! What a run reports: the metric catalog, the repetition records the
//! workloads return, the output digest, and the printed result lines.

use crate::stats;
use crate::trace::Trace;
use crate::Workload;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name, unit. A layer a workload does
/// not call reads zero on that workload.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("traced_wall_s", "s"),
    ("trace_overhead_frac", "frac"),
    ("trace_coverage_frac", "frac"),
    ("netsim.generate.self_s", "s"),
    ("routing.formulation.self_s", "s"),
    ("routing.formulation.vars", "count"),
    ("routing.formulation.rows", "count"),
    ("lp.solve.self_s", "s"),
    ("lp.solve.calls", "count"),
    ("lp.solve.ms_p50", "ms"),
    ("lp.solve.ms_tail", "ms"),
    ("lp.solve.tail_pct", "pct"),
    ("lp.pivots", "count"),
    ("routing.assign.self_s", "s"),
    ("routing.assign.quota_fill", "frac"),
    ("routing.purify.self_s", "s"),
    ("netsim.execute.self_s", "s"),
    ("netsim.execute.completed_frac", "frac"),
    ("core.evaluate.self_s", "s"),
    ("core.evaluate.segments", "count"),
    ("core.evaluate.decoders_built", "count"),
    ("core.evaluate.cache_hit_frac", "frac"),
    ("decoder.build.self_s", "s"),
    ("decoder.build.calls", "count"),
    ("lattice.sample.self_s", "s"),
    ("decoder.decode.self_s", "s"),
    ("decoder.decode.calls", "count"),
    ("decoder.decode.us_p50", "us"),
    ("decoder.decode.us_tail", "us"),
    ("decoder.decode.tail_pct", "pct"),
    ("decoder.decode.us_per_shot.d9", "us"),
    ("decoder.decode.us_per_shot.d11", "us"),
    ("decoder.decode.us_per_shot.d13", "us"),
    ("decoder.decode.us_per_shot.d15", "us"),
    ("netsim.simulate.self_s", "s"),
    ("netsim.plan.us_per_call", "us"),
    ("netsim.plan.est_share", "frac"),
    ("netsim.execute_event.us_per_call", "us"),
    ("netsim.execute_event.est_share", "frac"),
    ("netsim.admit.est_share", "frac"),
    ("netsim.stream.offers", "count"),
    ("netsim.stream.admit_frac", "frac"),
];

/// Output digests of the default seeds, recorded when the benchmark was
/// defined. A run on one of these seeds prints whether it still matches,
/// so a change that moves simulated results shows it.
const REFERENCE_DIGESTS: [(&str, u64, u64); 3] = [
    ("fig7", 70_000, 0xa4f3_2174_93e1_091f),
    ("fig8", 80_000, 0x3875_015a_e47d_0cb9),
    ("stream", 90_000, 0xafea_ef5d_ea88_d68d),
];

/// The recorded digest for `workload` at `seed`, if one was recorded.
pub fn reference_digest(workload: &str, seed: u64) -> Option<u64> {
    REFERENCE_DIGESTS
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, d)| d)
}

/// A simulated quantity: reported for the determinism and correctness
/// check only, never as a performance metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// `sim.`-prefixed name.
    pub name: String,
    /// Tick-based or dimensionless unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// One repetition of a workload through its entry point.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Operations attempted (trials, shots or arrivals).
    pub ops: u64,
    /// Operations that failed inside the program (a trial's
    /// `PipelineError`).
    pub failed_ops: u64,
    /// Every seeded output, bit for bit; repetitions must agree on it.
    pub outputs: Vec<u64>,
    /// Summaries of the outputs, printed as `sim.*` lines.
    pub sim: Vec<Sim>,
    /// Output-check violations.
    pub problems: Vec<String>,
}

impl Rep {
    /// Appends `value` to the outputs.
    pub fn output(&mut self, value: f64) {
        self.outputs.push(value.to_bits());
    }

    /// Records a simulated summary.
    pub fn sim(&mut self, name: &str, unit: &'static str, value: f64) {
        self.sim.push(Sim {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Records an output-check violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// FNV-1a over the output words.
pub fn digest(outputs: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in outputs {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A traced run's results.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Per-layer metric values; names must come from [`PER_LAYER`].
    pub layers: BTreeMap<&'static str, f64>,
    /// Gated items (trials, grid points, streaming trials).
    pub attempted: u64,
    /// Items whose traced rebuild disagreed with the entry point or
    /// failed an output check.
    pub failed: u64,
    /// Descriptions of every disagreement.
    pub problems: Vec<String>,
    /// Context lines printed before the metrics.
    pub notes: Vec<String>,
    /// Per-pass figures gathered by [`Traced::record_pass`].
    passes: Vec<Pass>,
}

/// One traced pass over a workload's items.
#[derive(Debug, Clone)]
struct Pass {
    wall_s: f64,
    overhead: f64,
    coverage: f64,
    self_s: Vec<(&'static str, f64)>,
}

impl Traced {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Records one pass: `trace` holds the traced items as root spans,
    /// `untraced_s` is what the same items took through the entry point,
    /// and `layers` maps each layer span name to its self-time metric.
    pub fn record_pass(&mut self, trace: &Trace, untraced_s: f64, layers: &[(&str, &'static str)]) {
        let selfs = trace.self_times();
        let wall_s = trace.root_secs();
        let self_s: Vec<(&'static str, f64)> = layers
            .iter()
            .map(|&(span, metric)| (metric, selfs.get(span).copied().unwrap_or(0.0)))
            .collect();
        let covered: f64 = self_s.iter().map(|&(_, t)| t).sum();
        self.passes.push(Pass {
            wall_s,
            overhead: wall_s / untraced_s - 1.0,
            coverage: stats::ratio(covered, wall_s),
            self_s,
        });
    }

    /// Sets the traced wall time, overhead, coverage and every layer's
    /// self time to their medians over the recorded passes; returns the
    /// number of passes.
    pub fn summarize_passes(&mut self) -> usize {
        let passes = std::mem::take(&mut self.passes);
        let median_of =
            |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<f64>>());
        self.set("traced_wall_s", median_of(&|p| p.wall_s));
        self.set("trace_overhead_frac", median_of(&|p| p.overhead));
        self.set("trace_coverage_frac", median_of(&|p| p.coverage));
        for (i, &(metric, _)) in passes[0].self_s.iter().enumerate() {
            self.set(metric, median_of(&|p| p.self_s[i].1));
        }
        passes.len()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit `f64` carries; non-finite values have
/// no JSON form and print as 0 (callers mark such runs incorrect).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the end-to-end report and returns the final JSON line.
/// `warmup` holds the warm-up repetition and its replay at the end of the
/// run, which must agree bit for bit; the timed repetitions run distinct
/// seed blocks, and the first one's outputs are the ones printed and
/// digested.
pub fn print_timed(
    workload: Workload,
    setups: &[f64],
    warmup: [&Rep; 2],
    reps: &[(Rep, f64)],
    reference: Option<u64>,
) -> String {
    let (op, alias) = match workload {
        Workload::Fig7 => ("trial", "trials_per_s"),
        Workload::Fig8 => ("shot", "shots_per_s"),
        Workload::Stream => ("arrival", "arrivals_per_s"),
    };
    let rates: Vec<f64> = reps.iter().map(|(r, s)| r.ops as f64 / s).collect();
    let ops_per_s = stats::median(&rates);
    let setup_s = stats::median(setups);
    let rss = peak_rss_mb();
    let first = &reps[0].0;

    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let [first_warmup, replay] = warmup;
    let replay_differs = replay.outputs != first_warmup.outputs || replay.sim != first_warmup.sim;
    if replay_differs {
        problems.push("the warm-up input, run again, gave different outputs".to_string());
    }
    let mut tally = |label: &str, r: &Rep, differs: bool| {
        attempted += r.ops;
        problems.extend(r.problems.iter().map(|p| format!("{label}: {p}")));
        failed += if differs || !r.problems.is_empty() {
            r.ops
        } else {
            r.failed_ops
        };
    };
    tally("warm-up", first_warmup, false);
    tally("replay", replay, replay_differs);
    for (i, (r, _)) in reps.iter().enumerate() {
        tally(&format!("repetition {i}"), r, false);
    }
    if rss.is_none() {
        problems.push("peak RSS unreadable from /proc/self/status".to_string());
    }
    let values = [ops_per_s, setup_s, rss.unwrap_or(0.0)];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    if metrics.iter().any(|m| !m.2.is_finite() || m.2 <= 0.0) {
        problems.push("an end-to-end metric is not a positive number".to_string());
    }

    println!(
        "ops_per_s {ops_per_s} 1/s ({alias}: median of {} repetitions on distinct seed blocks of {} {op}s, IQR/median {:.4})",
        reps.len(),
        first.ops,
        stats::iqr_frac(&rates)
    );
    println!(
        "setup_s {setup_s} s (median of {} set-ups, IQR/median {:.4})",
        setups.len(),
        stats::iqr_frac(setups)
    );
    println!("peak_rss_mb {} MB", rss.unwrap_or(0.0));
    println!(
        "failed_frac {} ({failed} of {attempted} {op}s, warm-up and replay included)",
        stats::ratio(failed as f64, attempted as f64)
    );
    for s in &first.sim {
        println!("{} {} {}", s.name, s.value, s.unit);
    }
    let d = digest(&first.outputs);
    match reference {
        Some(r) => println!(
            "digest {d:016x} reference {r:016x} ({})",
            if r == d { "match" } else { "differs" }
        ),
        None => println!("digest {d:016x} (no reference recorded for this seed)"),
    }
    for p in &problems {
        println!("problem: {p}");
    }
    json_line(problems.is_empty(), attempted, failed, &metrics)
}

/// Prints the per-layer report and returns the final JSON line.
pub fn print_traced(t: &Traced) -> String {
    for n in &t.notes {
        println!("{n}");
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, t.layers.get(name).copied().unwrap_or(0.0)))
        .collect();
    let mut problems = t.problems.clone();
    if metrics.iter().any(|m| !m.2.is_finite()) {
        problems.push("a per-layer metric is not finite".to_string());
    }
    for (name, unit, value) in &metrics {
        println!("{name} {value} {unit}");
    }
    for p in &problems {
        println!("problem: {p}");
    }
    json_line(problems.is_empty(), t.attempted.max(1), t.failed, &metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfnet_telemetry::json::Value;

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_line_has_the_contract_shape() {
        let line = json_line(true, 3, 0, &[("setup_s", "s", 0.25), ("x", "1/s", 2.0)]);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(3));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("value"))
                .and_then(Value::as_f64),
            Some(0.25)
        );
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.203_412_345_678_9), "1.2034123456789");
    }

    #[test]
    fn digest_depends_on_every_bit_and_order() {
        let a = digest(&[1, 2]);
        assert_ne!(a, digest(&[2, 1]));
        assert_ne!(a, digest(&[1, 3]));
        assert_eq!(a, digest(&[1, 2]));
    }
}
