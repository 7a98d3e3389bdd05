//! Cross-engine agreement matrix for the two execution engines.
//!
//! * At `entanglement_rate: 1.0` the independent engine (`execute_plan`)
//!   and the contended tick engine (`execute_concurrently`) must produce
//!   identical [`SegmentOutcome`] fidelity/erasure records and latencies
//!   for the same plans: every fiber's first pair is ready at tick 1, so
//!   the two sampling strategies collapse to the same deterministic walk,
//!   and any divergence is a semantics bug, not noise.
//! * `execute_plan_event` is the streaming entry point to the independent
//!   engine, so it must equal `execute_plan` outcome for outcome at every
//!   rate and failure probability, given the same seed.
//!
//! [`SegmentOutcome`]: surfnet_netsim::SegmentOutcome

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use surfnet_netsim::concurrent::execute_concurrently;
use surfnet_netsim::event::{execute_plan_event, plan_request};
use surfnet_netsim::execution::{execute_plan, ExecutionConfig};
use surfnet_netsim::request::Request;
use surfnet_netsim::topology::{Network, NodeKind};
use surfnet_netsim::{PlannedSegment, TransferPlan};

/// u0 - s1 - S2(server) - u3: the minimal dual-segment line.
fn line_net() -> Network {
    let mut net = Network::new();
    let u0 = net.add_node(NodeKind::User, 0);
    let s1 = net.add_node(NodeKind::Switch, 50);
    let s2 = net.add_node(NodeKind::Server, 100);
    let u3 = net.add_node(NodeKind::User, 0);
    net.add_fiber(u0, s1, 0.92, 8, 0.08).unwrap();
    net.add_fiber(s1, s2, 0.88, 8, 0.04).unwrap();
    net.add_fiber(s2, u3, 0.95, 8, 0.06).unwrap();
    net
}

/// Square with a server corner and both users adjacent to it:
///
/// ```text
/// u0 — s1
///  |    |
/// S2 — u3   (S2 is a server)
/// ```
fn square_net() -> Network {
    let mut net = Network::new();
    let u0 = net.add_node(NodeKind::User, 0);
    let s1 = net.add_node(NodeKind::Switch, 40);
    let s2 = net.add_node(NodeKind::Server, 80);
    let u3 = net.add_node(NodeKind::User, 0);
    net.add_fiber(u0, s1, 0.90, 6, 0.05).unwrap();
    net.add_fiber(s1, u3, 0.85, 6, 0.05).unwrap();
    net.add_fiber(u0, s2, 0.93, 6, 0.02).unwrap();
    net.add_fiber(s2, u3, 0.91, 6, 0.03).unwrap();
    net
}

fn rate_one() -> ExecutionConfig {
    ExecutionConfig {
        entanglement_rate: 1.0,
        ..ExecutionConfig::default()
    }
}

/// Runs `plan` through both engines with independent seeded RNGs and
/// asserts fidelity/erasure records and latencies agree exactly.
fn assert_engines_agree(net: &Network, plan: &TransferPlan, config: &ExecutionConfig, seed: u64) {
    let independent = {
        let mut rng = SmallRng::seed_from_u64(seed);
        execute_plan(net, plan, config, &mut rng)
    };
    let concurrent = {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(2));
        execute_concurrently(net, std::slice::from_ref(plan), config, &mut rng)
            .pop()
            .unwrap()
    };
    assert_eq!(
        concurrent.completed, independent.completed,
        "concurrent: completion diverges from execute_plan"
    );
    assert_eq!(
        concurrent.latency, independent.latency,
        "concurrent: latency diverges from execute_plan"
    );
    assert_eq!(
        concurrent.segments, independent.segments,
        "concurrent: segment records diverge from execute_plan"
    );
}

/// All user-pair plans of a network, as the event planner builds them.
fn planned_pairs(net: &Network) -> Vec<TransferPlan> {
    let users = net.users();
    let mut plans = Vec::new();
    for &src in &users {
        for &dst in &users {
            if src != dst {
                plans.push(plan_request(net, &Request::new(src, dst, 1)).unwrap());
            }
        }
    }
    plans
}

#[test]
fn engines_agree_on_line_topology() {
    let net = line_net();
    let config = rate_one();
    for (i, plan) in planned_pairs(&net).iter().enumerate() {
        for seed in 0..4u64 {
            assert_engines_agree(&net, plan, &config, 1000 + seed * 31 + i as u64);
        }
    }
}

#[test]
fn engines_agree_on_square_topology() {
    let net = square_net();
    let config = rate_one();
    for (i, plan) in planned_pairs(&net).iter().enumerate() {
        for seed in 0..4u64 {
            assert_engines_agree(&net, plan, &config, 2000 + seed * 37 + i as u64);
        }
    }
}

#[test]
fn engines_agree_on_manual_multi_segment_plans() {
    // Plans the planner would not build: Raw (no core route), asymmetric
    // core/support routes, EC at every segment.
    let net = line_net();
    let config = rate_one();
    let plans = [
        TransferPlan {
            src: 0,
            dst: 3,
            segments: vec![PlannedSegment {
                core_route: None,
                support_route: vec![0, 1, 2],
                correct_at_end: false,
            }],
        },
        TransferPlan {
            src: 0,
            dst: 3,
            segments: vec![
                PlannedSegment {
                    core_route: Some(vec![0, 1]),
                    support_route: vec![0, 1],
                    correct_at_end: true,
                },
                PlannedSegment {
                    core_route: Some(vec![2]),
                    support_route: vec![2],
                    correct_at_end: true,
                },
            ],
        },
    ];
    for (i, plan) in plans.iter().enumerate() {
        for seed in 0..4u64 {
            assert_engines_agree(&net, plan, &config, 3000 + seed * 41 + i as u64);
        }
    }
}

#[test]
fn engines_agree_on_timeout_latency_charging() {
    // Unified failure contract at rate 0: every engine burns exactly the
    // per-segment budget on the first segment and charges it.
    let net = line_net();
    let config = ExecutionConfig {
        entanglement_rate: 0.0,
        max_ticks: 25,
        ..ExecutionConfig::default()
    };
    let plan = plan_request(&net, &Request::new(0, 3, 1)).unwrap();
    for seed in 0..4u64 {
        assert_engines_agree(&net, &plan, &config, 4000 + seed);
    }
    let mut rng = SmallRng::seed_from_u64(4100);
    let out = execute_plan(&net, &plan, &config, &mut rng);
    assert!(!out.completed);
    assert_eq!(out.latency, 25);
}

#[test]
fn event_entry_point_equals_execute_plan_at_every_rate() {
    // Same engine, same RNG stream: identical outcomes draw for draw,
    // through timeouts, fiber failures and recovery paths alike.
    let mut checked_incomplete = 0;
    for net in [line_net(), square_net()] {
        for plan in planned_pairs(&net) {
            for rate in [0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
                for fiber_failure_prob in [0.0, 0.3] {
                    let config = ExecutionConfig {
                        entanglement_rate: rate,
                        fiber_failure_prob,
                        max_ticks: 20,
                        ..ExecutionConfig::default()
                    };
                    for seed in 0..8u64 {
                        let mut rng_a = SmallRng::seed_from_u64(5000 + seed);
                        let mut rng_b = SmallRng::seed_from_u64(5000 + seed);
                        let plan_out = execute_plan(&net, &plan, &config, &mut rng_a);
                        let event_out = execute_plan_event(&net, &plan, &config, &mut rng_b);
                        assert_eq!(event_out, plan_out, "rate {rate}, seed {seed}");
                        // Both consumed the same draws.
                        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
                        checked_incomplete += usize::from(!plan_out.completed);
                    }
                }
            }
        }
    }
    assert!(checked_incomplete > 0, "no failed transfer was compared");
}
