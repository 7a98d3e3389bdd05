//! `stream`: open Poisson arrivals (rate 0.25 per tick) on the default
//! 1,200-node BA network through the discrete-event engine. Route
//! planning dominates; there is no LP and no decoding.

use crate::output::{Rep, Traced};
use crate::stats;
use crate::trace::Trace;
use crate::Rounds;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};
use surfnet_core::experiments::stream::{self, StreamParams};
use surfnet_netsim::event::{
    execute_plan_event, plan_request, simulate, ArrivalProcess, StreamConfig, StreamStats,
};
use surfnet_netsim::generate::barabasi_albert;
use surfnet_netsim::{Network, Request};

/// Streaming trials (independent networks) per timed repetition.
pub const REP_SIZE: usize = 6;

/// Streaming trials in the warm-up repetition.
pub const WARMUP_SIZE: usize = 1;

/// Requests planned (and, where routable, executed) per network to
/// measure the per-call cost of `plan_request` / `execute_plan_event`.
const CALIBRATION_CALLS: usize = 400;

/// Builds every trial's 1,200-node network, as `stream::run` does
/// before simulating.
pub fn setup(seed: u64) {
    let params = StreamParams::default();
    for t in 0..REP_SIZE {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(t as u64));
        black_box(barabasi_albert(&params.net, &mut rng).expect("default stream config is valid"));
    }
}

/// One repetition through `stream::run` over `trials` networks.
pub fn rep(seed: u64, trials: usize) -> Rep {
    let result = stream::run(&StreamParams::default(), trials, seed);
    let p = &result.pooled;
    let mut rep = Rep {
        ops: p.arrivals,
        ..Rep::default()
    };
    rep.check(result.rows.len() == trials, || {
        format!("{} trial rows, expected {trials}", result.rows.len())
    });
    for r in &result.rows {
        rep.check(r.arrivals == r.admitted + r.dropped, || {
            format!(
                "trial {}: arrivals {} != admitted {} + dropped {}",
                r.trial, r.arrivals, r.admitted, r.dropped
            )
        });
        rep.check(r.completed <= r.admitted, || {
            format!(
                "trial {}: completed {} > admitted {}",
                r.trial, r.completed, r.admitted
            )
        });
        for v in [
            r.arrivals as f64,
            r.admitted as f64,
            r.completed as f64,
            r.dropped as f64,
            r.requests_per_sec,
            r.latency_p50,
            r.latency_p99,
        ] {
            rep.output(v);
        }
    }
    rep.check(p.arrivals == p.admitted + p.dropped(), || {
        format!(
            "pooled: arrivals {} != admitted {} + dropped {}",
            p.arrivals,
            p.admitted,
            p.dropped()
        )
    });
    for v in [
        p.deferred,
        p.failed,
        p.dropped_unroutable,
        p.dropped_capacity,
        p.dropped_pool,
        p.end_time,
    ] {
        rep.output(v as f64);
    }
    // `requests_per_sec` counts one tick as 1 ms of simulated time, so it
    // is completions per thousand ticks.
    rep.sim(
        "sim.stream.completions_per_ktick",
        "1/ktick",
        p.requests_per_sec(),
    );
    rep.sim("sim.stream.latency_p50", "tick", p.latency_percentile(0.50));
    rep.sim("sim.stream.latency_p99", "tick", p.latency_percentile(0.99));
    rep.sim("sim.stream.drop_frac", "frac", p.drop_rate());
    rep
}

fn config(params: &StreamParams) -> StreamConfig {
    StreamConfig {
        arrival: ArrivalProcess::Poisson {
            rate: params.arrival_rate,
        },
        ..params.sim.clone()
    }
}

/// Measured seconds per call of `plan_request` and of
/// `execute_plan_event` on `net`, over uniformly drawn user pairs (the
/// distribution the Poisson process draws arrivals from).
fn per_call_costs(net: &Network, config: &StreamConfig, seed: u64) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CA11_B4A7_E000);
    let users = net.users();
    let requests: Vec<Request> = (0..CALIBRATION_CALLS)
        .map(|_| {
            let src = users[rng.gen_range(0..users.len())];
            let dst = loop {
                let d = users[rng.gen_range(0..users.len())];
                if d != src {
                    break d;
                }
            };
            Request::new(src, dst, rng.gen_range(1..=config.max_codes_per_request))
        })
        .collect();
    let t0 = Instant::now();
    let plans: Vec<_> = requests
        .iter()
        .filter_map(|r| black_box(plan_request(net, r)))
        .collect();
    let plan_s = t0.elapsed().as_secs_f64() / requests.len() as f64;
    let t0 = Instant::now();
    for plan in &plans {
        black_box(execute_plan_event(net, plan, &config.exec, &mut rng));
    }
    let exec_s = stats::ratio(t0.elapsed().as_secs_f64(), plans.len() as f64);
    (plan_s, exec_s)
}

const LAYERS: [(&str, &str); 2] = [
    ("netsim.generate", "netsim.generate.self_s"),
    ("netsim.simulate", "netsim.simulate.self_s"),
];

/// The traced run: passes over one repetition's trials, each pass running
/// `stream::run` (untraced, the reference) and then every trial rebuilt as
/// `barabasi_albert` + `simulate` in spans. `simulate` cannot be split
/// from outside, so its plan / execute / admit split is estimated: the
/// per-call cost of `plan_request` and `execute_plan_event`, measured on
/// the same network, times the exact offer and admission counts.
pub fn traced(seed: u64, budget: Duration) -> Traced {
    let mut out = Traced::default();
    let params = StreamParams::default();
    let config = config(&params);
    let mut plan_us = Vec::new();
    let mut exec_us = Vec::new();
    let mut plan_share = Vec::new();
    let mut exec_share = Vec::new();
    let mut admit_share = Vec::new();
    let (mut offers, mut admitted) = (0u64, 0u64);
    let mut rounds = Rounds::new(budget, 1);
    while rounds.another() {
        let t0 = Instant::now();
        let expected = stream::run(&params, REP_SIZE, seed);
        let untraced_s = t0.elapsed().as_secs_f64();
        let mut trace = Trace::new();
        let (mut plan_est, mut exec_est) = (0.0, 0.0);
        offers = 0;
        admitted = 0;
        for t in 0..REP_SIZE {
            let trial_seed = seed.wrapping_add(t as u64);
            let root = trace.begin("trial");
            let mut rng = SmallRng::seed_from_u64(trial_seed);
            let net = trace.time("netsim.generate", || {
                barabasi_albert(&params.net, &mut rng).expect("default stream config is valid")
            });
            let got: StreamStats =
                trace.time("netsim.simulate", || simulate(&net, &config, &mut rng));
            trace.end(root);

            out.attempted += 1;
            let row = &expected.rows[t];
            let same = row.arrivals == got.arrivals
                && row.admitted == got.admitted
                && row.completed == got.completed
                && row.dropped == got.dropped()
                && row.requests_per_sec.to_bits() == got.requests_per_sec().to_bits()
                && row.latency_p50.to_bits() == got.latency_percentile(0.50).to_bits()
                && row.latency_p99.to_bits() == got.latency_percentile(0.99).to_bits();
            let balanced = got.arrivals == got.admitted + got.dropped();
            if !same || !balanced {
                out.failed += 1;
                out.problems.push(format!(
                    "trial seed {trial_seed}: rebuild gave {got:?}, stream::run gave {row:?}"
                ));
            }
            // Every arrival is offered once, and every deferral re-offers
            // (and re-plans) the request once more.
            let trial_offers = got.arrivals + got.deferred;
            offers += trial_offers;
            admitted += got.admitted;
            let (plan_s, exec_s) = per_call_costs(&net, &config, trial_seed);
            plan_us.push(plan_s * 1e6);
            exec_us.push(exec_s * 1e6);
            plan_est += stats::estimate_s(plan_s, trial_offers);
            exec_est += stats::estimate_s(exec_s, got.admitted);
        }
        out.record_pass(&trace, untraced_s, &LAYERS);
        let sim_s = trace.self_times()["netsim.simulate"];
        plan_share.push(stats::ratio(plan_est, sim_s));
        exec_share.push(stats::ratio(exec_est, sim_s));
        admit_share.push(stats::ratio(
            stats::remainder_s(sim_s, &[plan_est, exec_est]),
            sim_s,
        ));
    }
    let passes = out.summarize_passes();
    out.set("netsim.plan.us_per_call", stats::median(&plan_us));
    out.set("netsim.plan.est_share", stats::median(&plan_share));
    out.set("netsim.execute_event.us_per_call", stats::median(&exec_us));
    out.set("netsim.execute_event.est_share", stats::median(&exec_share));
    out.set("netsim.admit.est_share", stats::median(&admit_share));
    out.set("netsim.stream.offers", offers as f64);
    out.set(
        "netsim.stream.admit_frac",
        stats::ratio(admitted as f64, offers as f64),
    );
    out.notes.push(format!(
        "stream traced: {passes} pass(es) of {REP_SIZE} trials; netsim.plan / netsim.execute_event / netsim.admit shares of netsim.simulate are estimates (per-call cost over {CALIBRATION_CALLS} calibration requests x exact counts)"
    ));
    out
}
