//! `fig7`: the paper's main evaluation, 4 scenarios × 5 designs × N
//! trials at d = 3. The only workload where `lp` and `routing` do the
//! work.

use crate::output::{Rep, Traced};
use crate::stats;
use crate::trace::Trace;
use crate::Rounds;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use surfnet_core::evaluate::DecoderCache;
use surfnet_core::experiments::fig7;
use surfnet_core::pipeline::params_for_partition;
use surfnet_core::TrialMetrics;
use surfnet_core::{run_trial, BatchConfig, DecoderKind, Design, PipelineError, TrialConfig};
use surfnet_lattice::{CoreTopology, SurfaceCode};
use surfnet_netsim::execution::{execute_plan, execute_teleportation};
use surfnet_netsim::generate::barabasi_albert;
use surfnet_netsim::request::random_requests;
use surfnet_netsim::Network;
use surfnet_routing::formulation::build;
use surfnet_routing::scheduler::assign_codes;
use surfnet_routing::{ChannelMode, PurificationScheduler, RawScheduler, RoutingError, Schedule};

/// Trials per (scenario, design) cell in one timed repetition: 3,000
/// trials. LP cost per trial is heavy-tailed, so a repetition must span
/// many distinct networks for its throughput not to depend on the seed.
pub const REP_SIZE: usize = 150;

/// Trials per cell in the warm-up repetition.
pub const WARMUP_SIZE: usize = 2;

fn configs() -> Vec<TrialConfig> {
    fig7::scenarios()
        .into_iter()
        .map(|scenario| TrialConfig {
            scenario,
            ..TrialConfig::default()
        })
        .collect()
}

/// Builds the inputs one repetition's trials start from: every trial
/// seed's network and request batch in each scenario, and the d = 3
/// code with its Core/Support partition.
pub fn setup(seed: u64) {
    for cfg in configs() {
        for i in 0..REP_SIZE {
            let mut rng = SmallRng::seed_from_u64(seed + i as u64);
            let net = barabasi_albert(&cfg.scenario.network_config(), &mut rng)
                .expect("fig7 scenario configs are valid");
            let requests =
                random_requests(&net, cfg.num_requests, cfg.max_codes_per_request, &mut rng);
            black_box((net, requests));
        }
        let code = SurfaceCode::new(cfg.code_distance).expect("d = 3 is a valid distance");
        black_box(code.core_partition(CoreTopology::Cross));
    }
}

/// One repetition through `fig7::run_with`, `trials` trials per cell.
pub fn rep(seed: u64, trials: usize) -> Rep {
    let result = fig7::run_with(trials, seed, BatchConfig::default());
    let mut rep = Rep {
        ops: (result.cells.len() * result.trials) as u64,
        ..Rep::default()
    };
    rep.check(result.cells.len() == 20, || {
        format!("{} cells, expected 20", result.cells.len())
    });
    for c in &result.cells {
        rep.failed_ops += c.failed_trials as u64;
        let cell = format!("{} / {}", c.scenario, c.design);
        rep.check((0.0..=1.0).contains(&c.fidelity), || {
            format!("{cell}: fidelity {} outside [0, 1]", c.fidelity)
        });
        // Throughput is executed ÷ requested: within [0, 1] exactly when
        // no more transfers executed than were requested.
        rep.check((0.0..=1.0).contains(&c.throughput), || {
            format!("{cell}: throughput {} outside [0, 1]", c.throughput)
        });
        for lat in [c.latency_p50, c.latency_p95, c.latency_p99] {
            rep.check(lat.is_finite() && lat >= 0.0, || {
                format!("{cell}: latency {lat} ticks is not a finite non-negative number")
            });
        }
        for v in [
            c.fidelity,
            c.throughput,
            c.latency_p50,
            c.latency_p95,
            c.latency_p99,
            c.failed_trials as f64,
        ] {
            rep.output(v);
        }
    }
    let n = result.cells.len().max(1) as f64;
    let mean = |f: fn(&fig7::Cell) -> f64| result.cells.iter().map(f).sum::<f64>() / n;
    rep.sim("sim.fig7.fidelity_mean", "frac", mean(|c| c.fidelity));
    rep.sim("sim.fig7.throughput_mean", "frac", mean(|c| c.throughput));
    rep.sim("sim.fig7.latency_p50_mean", "tick", mean(|c| c.latency_p50));
    rep.sim("sim.fig7.latency_p99_mean", "tick", mean(|c| c.latency_p99));
    rep
}

/// Deterministic counts gathered while rebuilding trials.
#[derive(Debug, Default)]
struct Tally {
    lp_vars: u64,
    lp_rows: u64,
    lp_solves: u64,
    quota: u64,
    scheduled: u64,
    executions: u64,
    completed: u64,
    segments: u64,
    decoders_built: u64,
}

/// `run_trial`, rebuilt from the public functions of each layer with
/// every layer call in a span. Must return exactly what `run_trial`
/// returns for the same `(design, cfg, seed)`.
fn traced_trial(
    trace: &mut Trace,
    design: Design,
    cfg: &TrialConfig,
    seed: u64,
    tally: &mut Tally,
) -> Result<TrialMetrics, PipelineError> {
    let root = trace.begin("trial");
    let result = traced_trial_body(trace, design, cfg, seed, tally);
    trace.end(root);
    result
}

fn traced_trial_body(
    trace: &mut Trace,
    design: Design,
    cfg: &TrialConfig,
    seed: u64,
    tally: &mut Tally,
) -> Result<TrialMetrics, PipelineError> {
    // The figure never rescales the generated network nor runs the
    // concurrent engine; the rebuild covers exactly that path.
    assert!(cfg.capacity_scale == 1.0 && cfg.entanglement_scale == 1.0);
    assert!(!cfg.concurrent_execution);
    let mut rng = SmallRng::seed_from_u64(seed);
    let (net, requests) = trace.time("netsim.generate", || {
        barabasi_albert(&cfg.scenario.network_config(), &mut rng).map(|net| {
            let requests =
                random_requests(&net, cfg.num_requests, cfg.max_codes_per_request, &mut rng);
            (net, requests)
        })
    })?;
    let requested: u32 = requests.iter().map(|r| r.num_codes).sum();
    let mut executed = 0u32;
    let mut latency_sum = 0u64;
    let success_weight = match design {
        Design::SurfNet | Design::Raw => {
            let code = SurfaceCode::new(cfg.code_distance)?;
            let partition = code.core_partition(CoreTopology::Cross);
            let params = params_for_partition(&cfg.params, &partition);
            params.validate()?;
            let schedule = if requests.is_empty() {
                Schedule::default()
            } else {
                let (mode, factor) = match design {
                    Design::SurfNet => (ChannelMode::DualChannel, 1.0),
                    _ => (
                        ChannelMode::PlainOnly,
                        RawScheduler::new(params).capacity_factor,
                    ),
                };
                let form = trace.time("routing.formulation", || {
                    if mode == ChannelMode::DualChannel {
                        build(&net, &requests, &params, mode)
                    } else {
                        // The Raw LP sees the relay capacity bonus
                        // through a scaled clone, as `RawScheduler` does.
                        let mut scaled: Network = net.clone();
                        for v in 0..scaled.num_nodes() {
                            let c = scaled.node(v).capacity;
                            scaled.node_mut(v).capacity = (c as f64 * factor) as u32;
                        }
                        build(&scaled, &requests, &params, mode)
                    }
                });
                tally.lp_vars += form.lp.num_vars() as u64;
                tally.lp_rows += form.lp.num_constraints() as u64;
                tally.lp_solves += 1;
                let sol = trace
                    .time("lp.solve", || {
                        // Enabled only around the solve, so that the
                        // simplex's existing `lp.pivots` counter is read
                        // without recording anything else.
                        surfnet_telemetry::Telemetry::enabled();
                        let sol = form.lp.maximize();
                        surfnet_telemetry::Telemetry::disabled();
                        sol
                    })
                    .map_err(RoutingError::Lp)?;
                let quotas: Vec<u32> = form
                    .y
                    .iter()
                    .zip(&requests)
                    .map(|(&y, req)| {
                        let y = sol.value(y).clamp(0.0, req.num_codes as f64);
                        (y + 0.5).floor() as u32
                    })
                    .collect();
                tally.quota += quotas.iter().map(|&q| u64::from(q)).sum::<u64>();
                trace.time("routing.assign", || {
                    assign_codes(&net, &requests, &quotas, &params, mode, factor)
                })
            };
            tally.scheduled += schedule.codes.len() as u64;
            let outcomes: Vec<_> = trace.time("netsim.execute", || {
                schedule
                    .codes
                    .iter()
                    .map(|c| execute_plan(&net, &c.plan, &cfg.execution, &mut rng))
                    .collect()
            });
            let mut cache = DecoderCache::new();
            let verdicts = trace.time("core.evaluate", || {
                cache.evaluate_transfers(
                    &code,
                    &partition,
                    &outcomes,
                    DecoderKind::SurfNet,
                    &mut rng,
                    &cfg.batch,
                )
            })?;
            tally.decoders_built += cache.len() as u64;
            tally.executions += outcomes.len() as u64;
            let mut successes = 0u32;
            for (outcome, ok) in outcomes.iter().zip(&verdicts) {
                if !outcome.completed {
                    continue;
                }
                tally.completed += 1;
                tally.segments += outcome.segments.len() as u64;
                executed += 1;
                latency_sum += outcome.latency;
                if *ok {
                    successes += 1;
                }
            }
            successes as f64
        }
        Design::Purification(n) => {
            let schedule = trace.time("routing.purify", || {
                PurificationScheduler::new(n).schedule(&net, &requests)
            })?;
            let outcomes: Vec<_> = trace.time("netsim.execute", || {
                schedule
                    .assignments
                    .iter()
                    .map(|a| execute_teleportation(&net, &a.route, n, &cfg.execution, &mut rng))
                    .collect()
            });
            tally.executions += outcomes.len() as u64;
            let mut fidelity_sum = 0.0f64;
            for outcome in outcomes.iter().filter(|o| o.completed) {
                tally.completed += 1;
                executed += 1;
                latency_sum += outcome.latency;
                fidelity_sum += outcome.fidelity;
            }
            fidelity_sum
        }
    };
    let per_executed = |x: f64| {
        if executed == 0 {
            0.0
        } else {
            x / executed as f64
        }
    };
    Ok(TrialMetrics {
        fidelity: per_executed(success_weight),
        latency: per_executed(latency_sum as f64),
        throughput: if requested == 0 {
            0.0
        } else {
            executed as f64 / requested as f64
        },
        executed,
        requested,
    })
}

/// Layer spans (everything but the trial root) and their self-time
/// metrics.
const LAYERS: [(&str, &str); 7] = [
    ("netsim.generate", "netsim.generate.self_s"),
    ("routing.formulation", "routing.formulation.self_s"),
    ("lp.solve", "lp.solve.self_s"),
    ("routing.assign", "routing.assign.self_s"),
    ("routing.purify", "routing.purify.self_s"),
    ("netsim.execute", "netsim.execute.self_s"),
    ("core.evaluate", "core.evaluate.self_s"),
];

/// The traced run: passes over one repetition's trials, each trial run
/// once through `run_trial` (untraced, the reference) and once through
/// the rebuild (traced), until the time budget is spent.
pub fn traced(seed: u64, budget: Duration) -> Traced {
    let mut out = Traced::default();
    let cfgs = configs();
    let mut lp_ms: Vec<f64> = Vec::new();
    let mut tally = Tally::default();
    surfnet_telemetry::reset();
    let mut rounds = Rounds::new(budget, 1);
    while rounds.another() {
        let mut trace = Trace::new();
        let mut untraced_s = 0.0;
        tally = Tally::default();
        for cfg in &cfgs {
            for design in Design::FIG7 {
                for i in 0..REP_SIZE {
                    let trial_seed = seed + i as u64;
                    let t0 = Instant::now();
                    let expected = run_trial(design, cfg, trial_seed);
                    untraced_s += t0.elapsed().as_secs_f64();
                    let got = traced_trial(&mut trace, design, cfg, trial_seed, &mut tally);
                    out.attempted += 1;
                    let what = || {
                        format!(
                            "{} / {} seed {trial_seed}",
                            cfg.scenario.label(),
                            design.label()
                        )
                    };
                    match (&expected, &got) {
                        (Ok(a), Ok(b)) if a == b => {
                            if !((0.0..=1.0).contains(&a.fidelity)
                                && (0.0..=1.0).contains(&a.throughput)
                                && a.executed <= a.requested)
                            {
                                out.failed += 1;
                                out.problems
                                    .push(format!("{}: invalid metrics {a:?}", what()));
                            }
                        }
                        // A trial the program fails is a failed operation
                        // on both paths, not a disagreement.
                        (Err(_), Err(_)) => out.failed += 1,
                        _ => {
                            out.failed += 1;
                            out.problems.push(format!(
                                "{}: rebuild gave {got:?}, run_trial gave {expected:?}",
                                what()
                            ));
                        }
                    }
                }
            }
        }
        out.record_pass(&trace, untraced_s, &LAYERS);
        lp_ms.extend(trace.durations("lp.solve").iter().map(|s| s * 1e3));
    }
    let passes = out.summarize_passes();
    let pivots = surfnet_telemetry::snapshot()
        .counter("lp.pivots")
        .unwrap_or(0);
    surfnet_telemetry::reset();

    let solves = tally.lp_solves as f64;
    out.set(
        "routing.formulation.vars",
        stats::ratio(tally.lp_vars as f64, solves),
    );
    out.set(
        "routing.formulation.rows",
        stats::ratio(tally.lp_rows as f64, solves),
    );
    out.set("lp.solve.calls", solves);
    if !lp_ms.is_empty() {
        let tail = stats::tail(&lp_ms);
        out.set("lp.solve.ms_p50", stats::median(&lp_ms));
        out.set("lp.solve.ms_tail", tail.value);
        out.set("lp.solve.tail_pct", tail.pct);
        out.notes.push(format!(
            "lp.solve tail: p{} over {} solves",
            tail.pct, tail.samples
        ));
    }
    out.set("lp.pivots", pivots as f64 / passes as f64);
    out.set(
        "routing.assign.quota_fill",
        stats::ratio(tally.scheduled as f64, tally.quota as f64),
    );
    out.set(
        "netsim.execute.completed_frac",
        stats::ratio(tally.completed as f64, tally.executions as f64),
    );
    out.set("core.evaluate.segments", tally.segments as f64);
    out.set("core.evaluate.decoders_built", tally.decoders_built as f64);
    out.set(
        "core.evaluate.cache_hit_frac",
        stats::ratio(
            tally.segments.saturating_sub(tally.decoders_built) as f64,
            tally.segments as f64,
        ),
    );
    out.notes.push(format!(
        "fig7 traced: {passes} pass(es) of {} trials; per-layer times are per pass (median)",
        cfgs.len() * Design::FIG7.len() * REP_SIZE
    ));
    out
}
