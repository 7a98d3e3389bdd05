//! `fig8`: the decoder threshold sweep, both decoders over
//! d ∈ {9, 11, 13, 15} × 15 Pauli rates at 15% erasure. Decoding
//! dominates; LP and netsim are not called at all.

use crate::output::{Rep, Traced};
use crate::stats;
use crate::trace::Trace;
use crate::Rounds;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use surfnet_core::experiments::fig8;
use surfnet_core::DecoderKind;
use surfnet_decoder::{Decoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};

/// Shots per grid point in one timed repetition (120 grid points).
pub const REP_SIZE: usize = 60;

/// Shots per grid point in the warm-up repetition.
pub const WARMUP_SIZE: usize = 10;

const DECODERS: [DecoderKind; 2] = [DecoderKind::UnionFind, DecoderKind::SurfNet];

fn decoder_label(kind: DecoderKind) -> &'static str {
    match kind {
        DecoderKind::UnionFind => "uf",
        DecoderKind::SurfNet => "surfnet",
    }
}

/// Builds what the sweep decodes with: every distance's code and
/// partition, every grid point's error model, and both decoders on it.
pub fn setup(_seed: u64) {
    for d in fig8::paper_distances() {
        let code = SurfaceCode::new(d).expect("paper distances are valid");
        let partition = code.core_partition(CoreTopology::Cross);
        for p in fig8::paper_rates() {
            let model = ErrorModel::dual_channel(&code, &partition, p, fig8::ERASURE_RATE);
            black_box(UnionFindDecoder::from_model(&code, &model));
            black_box(SurfNetDecoder::from_model(&code, &model));
        }
    }
}

/// One repetition through `fig8::run`, once per decoder, `shots` shots
/// per grid point.
pub fn rep(seed: u64, shots: usize) -> Rep {
    let distances = fig8::paper_distances();
    let rates = fig8::paper_rates();
    let mut rep = Rep::default();
    for kind in DECODERS {
        let curves = fig8::run(kind, &distances, &rates, fig8::ERASURE_RATE, shots, seed);
        let label = decoder_label(kind);
        rep.check(curves.points.len() == distances.len() * rates.len(), || {
            format!("{label}: {} grid points", curves.points.len())
        });
        for p in &curves.points {
            rep.ops += p.trials as u64;
            rep.check(p.trials == shots, || {
                format!(
                    "{label} d={} p={}: {} shots",
                    p.distance, p.pauli_rate, p.trials
                )
            });
            rep.check((0.0..=1.0).contains(&p.logical_error_rate), || {
                format!(
                    "{label} d={} p={}: logical error rate {} outside [0, 1]",
                    p.distance, p.pauli_rate, p.logical_error_rate
                )
            });
            rep.output(p.logical_error_rate);
        }
        // No crossing in range is a legitimate outcome; -1 marks it.
        let threshold = curves.threshold.unwrap_or(-1.0);
        rep.output(threshold);
        let mean = curves
            .points
            .iter()
            .map(|p| p.logical_error_rate)
            .sum::<f64>()
            / curves.points.len().max(1) as f64;
        rep.sim(&format!("sim.fig8.{label}.ler_mean"), "frac", mean);
        rep.sim(&format!("sim.fig8.{label}.threshold"), "frac", threshold);
    }
    rep
}

/// The seed `fig8::run` derives for one grid point, so that the rebuild
/// draws the same shots. The equivalence gate catches any drift.
fn point_seed(base_seed: u64, distance: usize, pauli_rate: f64) -> u64 {
    base_seed
        ^ (distance as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((pauli_rate * 1e6) as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Failures at one grid point, rebuilt call by call.
fn traced_point(
    trace: &mut Trace,
    kind: DecoderKind,
    distance: usize,
    pauli_rate: f64,
    seed: u64,
) -> usize {
    let root = trace.begin("point");
    let code = SurfaceCode::new(distance).expect("paper distances are valid");
    let partition = code.core_partition(CoreTopology::Cross);
    let model = ErrorModel::dual_channel(&code, &partition, pauli_rate, fig8::ERASURE_RATE);
    let mut rng = SmallRng::seed_from_u64(point_seed(seed, distance, pauli_rate));
    let decoder: Box<dyn Decoder> = trace.time("decoder.build", || -> Box<dyn Decoder> {
        match kind {
            DecoderKind::SurfNet => Box::new(SurfNetDecoder::from_model(&code, &model)),
            DecoderKind::UnionFind => Box::new(UnionFindDecoder::from_model(&code, &model)),
        }
    });
    let mut failures = 0;
    for _ in 0..REP_SIZE {
        let sample = trace.time("lattice.sample", || model.sample(&mut rng));
        let outcome = trace.time("decoder.decode", || decoder.decode_sample(&code, &sample));
        if !outcome.is_success() {
            failures += 1;
        }
    }
    trace.end(root);
    failures
}

const LAYERS: [(&str, &str); 3] = [
    ("decoder.build", "decoder.build.self_s"),
    ("lattice.sample", "lattice.sample.self_s"),
    ("decoder.decode", "decoder.decode.self_s"),
];

/// The traced run: passes over the grid, each point run once through
/// `fig8::run` on that single point (untraced, the reference) and once
/// through the rebuild (traced), until the time budget is spent.
pub fn traced(seed: u64, budget: Duration) -> Traced {
    let mut out = Traced::default();
    let distances = fig8::paper_distances();
    let rates = fig8::paper_rates();
    let mut decode_us: Vec<f64> = Vec::new();
    // Per distance: (decode seconds, shots), summed over passes.
    let mut by_distance: Vec<(f64, u64)> = vec![(0.0, 0); distances.len()];
    let mut rounds = Rounds::new(budget, 1);
    while rounds.another() {
        let mut trace = Trace::new();
        let mut untraced_s = 0.0;
        for kind in DECODERS {
            for (di, &d) in distances.iter().enumerate() {
                for &p in &rates {
                    let t0 = Instant::now();
                    let curves = fig8::run(kind, &[d], &[p], fig8::ERASURE_RATE, REP_SIZE, seed);
                    untraced_s += t0.elapsed().as_secs_f64();
                    let expected =
                        (curves.points[0].logical_error_rate * REP_SIZE as f64).round() as usize;
                    let first = trace.spans().len();
                    let got = traced_point(&mut trace, kind, d, p, seed);
                    for s in &trace.spans()[first..] {
                        if s.name == "decoder.decode" {
                            by_distance[di].0 += s.secs();
                            by_distance[di].1 += 1;
                        }
                    }
                    out.attempted += 1;
                    if got != expected || got > REP_SIZE {
                        out.failed += 1;
                        out.problems.push(format!(
                            "{} d={d} p={p}: rebuild counted {got} failures, fig8::run {expected}",
                            decoder_label(kind)
                        ));
                    }
                }
            }
        }
        out.record_pass(&trace, untraced_s, &LAYERS);
        decode_us.extend(trace.durations("decoder.decode").iter().map(|s| s * 1e6));
    }
    let passes = out.summarize_passes();
    let points = (DECODERS.len() * distances.len() * rates.len()) as f64;
    out.set("decoder.build.calls", points);
    out.set("decoder.decode.calls", points * REP_SIZE as f64);
    let tail = stats::tail(&decode_us);
    out.set("decoder.decode.us_p50", stats::median(&decode_us));
    out.set("decoder.decode.us_tail", tail.value);
    out.set("decoder.decode.tail_pct", tail.pct);
    out.notes.push(format!(
        "decoder.decode tail: p{} over {} shots",
        tail.pct, tail.samples
    ));
    for (&d, &(secs, shots)) in distances.iter().zip(&by_distance) {
        let name = match d {
            9 => "decoder.decode.us_per_shot.d9",
            11 => "decoder.decode.us_per_shot.d11",
            13 => "decoder.decode.us_per_shot.d13",
            15 => "decoder.decode.us_per_shot.d15",
            _ => unreachable!("fig8 sweeps d in 9..=15"),
        };
        out.set(name, stats::ratio(secs * 1e6, shots as f64));
    }
    out.notes.push(format!(
        "fig8 traced: {passes} pass(es) of {points} grid points x {REP_SIZE} shots; per-layer times are per pass (median)"
    ));
    out
}
