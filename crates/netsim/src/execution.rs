//! Online execution (paper Sec. V-B) of one scheduled communication:
//! Support photons over plain channels, Core qubits over the entanglement
//! channel with opportunistic forwarding, local recovery paths around
//! failed fibers, and error correction at scheduled servers.
//!
//! Each fiber on a Core route retries pair generation every tick, so its
//! pair-ready time is a geometric first success. The engine draws that
//! time once per fiber, instead of rolling a Bernoulli per fiber per tick,
//! and the opportunistic-forwarding walk completes at the slowest fiber's
//! ready time.
//! [`execute_plan`] and the streaming engine's
//! [`crate::event::execute_plan_event`] are two entry points to this one
//! engine; [`crate::concurrent::execute_concurrently`], whose transfers
//! contend for shared per-tick pair pools, shares its recovery and
//! outcome helpers.
//!
//! Execution is deliberately decoupled from the surface-code machinery: it
//! produces per-segment fidelity/erasure records ([`SegmentOutcome`]) that
//! the `surfnet-core` pipeline turns into error models, samples, and
//! decodes.

use crate::entanglement::{core_segment_fidelity, purify};
use crate::topology::{FiberId, Network, NodeId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use surfnet_telemetry::dim;

/// Labels a fiber's series in the per-link metric families by its
/// (normalized) endpoint pair.
pub(crate) fn link_key(net: &Network, f: FiberId) -> dim::LabelKey {
    let fiber = net.fiber(f);
    dim::LabelKey::link(fiber.a, fiber.b)
}

/// One leg of a planned transfer, ending either at a server that performs
/// error correction or at the destination user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedSegment {
    /// Route for the Core part over the entanglement-based channel.
    /// `None` means the Core travels with the Support over the plain
    /// channel (the Raw baseline has no dual channel).
    pub core_route: Option<Vec<FiberId>>,
    /// Route for the Support part over the plain channel. The two routes
    /// may differ (Fig. 4 routes them independently).
    pub support_route: Vec<FiberId>,
    /// Whether error correction runs when this segment completes.
    pub correct_at_end: bool,
}

/// A complete transfer plan for one surface code.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferPlan {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Consecutive legs; segment `i+1` starts where segment `i` ended.
    pub segments: Vec<PlannedSegment>,
}

/// Tunables of the online execution engines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Per-tick success probability of one entanglement-generation attempt
    /// across one fiber (the scenario's entanglement generation rate).
    /// Must lie in `[0, 1]`.
    pub entanglement_rate: f64,
    /// Opportunistic-forwarding threshold: the Core part moves as soon as
    /// this many consecutive fibers hold ready pairs (the paper fixes 2).
    /// Must be at least 1. It decides when Core parts drain shared pools in
    /// [`crate::concurrent::execute_concurrently`]; with private sources a
    /// Core part finishes when its slowest fiber's pair is ready, for any
    /// threshold.
    pub min_advance: usize,
    /// Give-up horizon, in ticks. **Per-segment transport budget** in
    /// both execution engines (independent transfers through
    /// [`execute_plan`] / [`crate::event::execute_plan_event`], and
    /// contended ones through [`crate::concurrent::execute_concurrently`]):
    /// each segment's Support and Core parts must both complete within
    /// `max_ticks` ticks of the segment's start. Completing in *exactly*
    /// `max_ticks` is within budget, and the error-correction tick a
    /// server spends after transport does **not** consume budget (a
    /// segment whose transport finishes at tick `max_ticks` and then runs
    /// EC is accepted with `ticks = max_ticks + 1`). A transfer whose
    /// segment exhausts the budget fails, charging the full budget to its
    /// latency (see [`ExecutionOutcome::latency`]).
    pub max_ticks: u64,
    /// Probability that a fiber is down for the duration of one transfer,
    /// exercising the local recovery-path mechanism. Must lie in `[0, 1]`.
    pub fiber_failure_prob: f64,
    /// Per-tick fidelity decay of an **unencoded** qubit waiting in
    /// quantum memory. Surface-code transfers are immune: switches
    /// re-encode Support photons, DD refreshes stored qubits, and servers
    /// correct accumulated errors (Secs. IV-A, V-B); teleportation-only
    /// baselines carry bare data qubits that decohere while entanglement
    /// is distilled.
    pub memory_decoherence_rate: f64,
}

impl Default for ExecutionConfig {
    fn default() -> ExecutionConfig {
        ExecutionConfig {
            entanglement_rate: 0.4,
            min_advance: 2,
            max_ticks: 10_000,
            fiber_failure_prob: 0.0,
            memory_decoherence_rate: 0.015,
        }
    }
}

impl ExecutionConfig {
    /// Panics unless `entanglement_rate` and `fiber_failure_prob` are
    /// probabilities in `[0, 1]` (NaN and infinities rejected) and
    /// `min_advance ≥ 1`.
    pub(crate) fn assert_valid(&self) {
        for (name, p) in [
            ("entanglement_rate", self.entanglement_rate),
            ("fiber_failure_prob", self.fiber_failure_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "ExecutionConfig::{name} must be a probability in [0, 1], got {p}"
            );
        }
        assert!(
            self.min_advance >= 1,
            "ExecutionConfig::min_advance must be at least 1, got 0"
        );
    }
}

/// What one executed segment did to the surface code.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentOutcome {
    /// Estimated fidelity `ρ` of each Core qubit over this segment
    /// (noise halved by purification on the entanglement channel).
    pub core_fidelity: f64,
    /// Estimated fidelity of each Support qubit (`Π γᵢ` over its route).
    pub support_fidelity: f64,
    /// Per-qubit erasure probability for Support qubits (photon loss).
    pub support_erasure_prob: f64,
    /// Per-qubit erasure probability for Core qubits: zero on the
    /// entanglement channel, equal to the Support value for Raw transfers.
    pub core_erasure_prob: f64,
    /// Ticks this segment took (both parts complete, plus EC if any).
    pub ticks: u64,
    /// Whether error correction ran at the end of this segment.
    pub corrected_at_end: bool,
}

impl SegmentOutcome {
    /// The record of `seg` completing after `ticks` ticks (EC included).
    /// Fidelities and erasure rates follow from its routes alone.
    pub(crate) fn of(net: &Network, seg: &PlannedSegment, ticks: u64) -> SegmentOutcome {
        let support_fidelity = net.path_fidelity(&seg.support_route);
        let support_erasure_prob = 1.0
            - seg
                .support_route
                .iter()
                .map(|&f| 1.0 - net.fiber(f).loss_prob)
                .product::<f64>();
        let (core_fidelity, core_erasure_prob) = match &seg.core_route {
            Some(route) => (core_segment_fidelity(net.path_fidelity(route)), 0.0),
            // Raw transfer: the Core rides the plain channel with the
            // Support — same fidelity, same loss exposure.
            None => (support_fidelity, support_erasure_prob),
        };
        // Fidelities and erasure rates feed straight into the decoder's
        // Bernoulli error model, which rejects values outside [0, 1];
        // clamp here so extreme fiber parameters degrade gracefully
        // instead of panicking downstream.
        SegmentOutcome {
            core_fidelity: core_fidelity.clamp(0.0, 1.0),
            support_fidelity: support_fidelity.clamp(0.0, 1.0),
            support_erasure_prob: support_erasure_prob.clamp(0.0, 1.0),
            core_erasure_prob: core_erasure_prob.clamp(0.0, 1.0),
            ticks,
            corrected_at_end: seg.correct_at_end,
        }
    }
}

/// The result of executing one transfer plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionOutcome {
    /// Whether every segment completed within its tick budget.
    pub completed: bool,
    /// Total ticks spent. For completed transfers: the sum of per-segment
    /// ticks. For failed transfers: the ticks elapsed until the failure
    /// was detected — completed segments' ticks, plus the full
    /// [`ExecutionConfig::max_ticks`] budget for a segment that timed out
    /// in transport, plus nothing for a route failure detected at segment
    /// planning time (before any transport tick elapses). Both execution
    /// engines charge failures identically under this contract.
    pub latency: u64,
    /// Per-segment records for downstream error modeling.
    pub segments: Vec<SegmentOutcome>,
}

/// Executes one transfer plan with private entanglement sources, and
/// records each Core fiber's generation attempts and delivered pairs in
/// the `netsim.link.attempts` / `netsim.link.successes` families.
///
/// # Panics
///
/// Panics if a route references a fiber outside `net`, the plan's
/// segments are empty, or `config` is out of range (see
/// [`ExecutionConfig`]: a NaN or out-of-`[0, 1]` `entanglement_rate` or
/// `fiber_failure_prob`, or `min_advance == 0`).
pub fn execute_plan<R: Rng + ?Sized>(
    net: &Network,
    plan: &TransferPlan,
    config: &ExecutionConfig,
    rng: &mut R,
) -> ExecutionOutcome {
    let _span = surfnet_telemetry::span!("netsim.execute_plan");
    let _stage = surfnet_telemetry::stage::scope(surfnet_telemetry::stage::Stage::Entangle);
    run_transfer(net, plan, config, rng, true)
}

/// The engine behind [`execute_plan`] and
/// [`crate::event::execute_plan_event`]: samples the transfer's fiber
/// failures and detours them ([`recover_plan`]), then walks each segment.
/// A Core route draws one [`geometric`] ready time per fiber and completes
/// at [`core_completion`]; the segment's transport time is the slower of
/// that and the Support transit (one fiber per tick), checked against the
/// per-segment budget before the exempt EC tick is added.
/// `record_links` adds each Core fiber's attempts and successes to the
/// `netsim.link.*` families.
pub(crate) fn run_transfer<R: Rng + ?Sized>(
    net: &Network,
    plan: &TransferPlan,
    config: &ExecutionConfig,
    rng: &mut R,
    record_links: bool,
) -> ExecutionOutcome {
    config.assert_valid();
    assert!(!plan.segments.is_empty(), "plan has no segments");
    let effective = recover_plan(net, plan, config, rng);
    let links = (record_links && surfnet_telemetry::enabled()).then(|| {
        (
            dim::counter_family("netsim.link.attempts"),
            dim::counter_family("netsim.link.successes"),
        )
    });
    let mut outcome = ExecutionOutcome {
        completed: effective.routable,
        latency: 0,
        segments: Vec::with_capacity(effective.segments.len()),
    };
    let mut attempts = 0u64;
    let mut ready = Vec::new();
    for seg in effective.segments.iter() {
        let core_ticks = match &seg.core_route {
            Some(route) => {
                ready.clear();
                ready.extend(
                    route
                        .iter()
                        .map(|_| geometric(rng, config.entanglement_rate)),
                );
                for (&f, &g) in route.iter().zip(&ready) {
                    // A fiber retries every tick until its pair is ready or
                    // the budget runs out: min(g, max_ticks) attempts, and
                    // one delivered pair if g fits the budget.
                    let tried = g.min(config.max_ticks);
                    attempts += tried;
                    if let Some((attempts_fam, successes_fam)) = &links {
                        let key = link_key(net, f);
                        attempts_fam.add(key, tried);
                        successes_fam.add(key, u64::from(g <= config.max_ticks));
                    }
                }
                core_completion(&ready, config.max_ticks)
            }
            None => Some(0),
        };
        let support_ticks = seg.support_route.len() as u64;
        let Some(transport) = core_ticks
            .map(|t| t.max(support_ticks))
            .filter(|&t| t <= config.max_ticks)
        else {
            // Transport timeout: the whole per-segment budget was burned
            // waiting, so charge it (route failures are detected before
            // any tick elapses and charge nothing).
            outcome.latency += config.max_ticks;
            outcome.completed = false;
            break;
        };
        let ticks = transport + u64::from(seg.correct_at_end); // EC is exempt
        outcome.latency += ticks;
        outcome.segments.push(SegmentOutcome::of(net, seg, ticks));
    }
    surfnet_telemetry::count!("netsim.entanglement_attempts", attempts);
    outcome
}

/// One geometric draw: the first-success tick (≥ 1) of per-tick Bernoulli
/// attempts at probability `p`. `p ≥ 1` succeeds at tick 1 without
/// consuming randomness; `p ≤ 0` never succeeds (`u64::MAX`).
///
/// # Panics
///
/// Panics if `p` is NaN.
pub(crate) fn geometric<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    assert!(!p.is_nan(), "geometric success probability is NaN");
    if p >= 1.0 {
        return 1;
    }
    if p <= 0.0 {
        return u64::MAX;
    }
    // Inversion on u ∈ (0, 1]: G = ceil(ln u / ln(1-p)), clamped to ≥ 1.
    let u = 1.0 - rng.gen::<f64>();
    let g = (u.ln() / (1.0 - p).ln()).ceil();
    if g < 1.0 {
        1
    } else if g >= 1e18 {
        u64::MAX
    } else {
        g as u64
    }
}

/// Completion tick of the opportunistic-forwarding walk (Sec. V-B) given
/// each fiber's pair-ready tick, or `None` past `max_ticks`.
///
/// Each tick the Core part advances over the longest ready run of at
/// least `min(min_advance, remaining)` fibers, and a ready pair waits
/// until the part uses it. The walk cannot finish before its slowest
/// fiber is ready, and at that tick everything still ahead is one ready
/// run, which always qualifies. So the walk completes at the latest ready
/// tick, whatever `min_advance ≥ 1` is; the tests check this against a
/// tick-by-tick walk.
fn core_completion(ready: &[u64], max_ticks: u64) -> Option<u64> {
    let t = ready.iter().copied().max().unwrap_or(0);
    (t <= max_ticks).then_some(t)
}

/// A plan's segments after one transfer's fiber failures are detoured.
pub(crate) struct EffectivePlan<'a> {
    /// The routable prefix of the plan's segments; borrowed unchanged when
    /// no failures were sampled.
    pub(crate) segments: Cow<'a, [PlannedSegment]>,
    /// Whether every segment is routable. If not, the transfer fails on
    /// reaching the first unroutable segment, charging nothing for it:
    /// route failures are detected at segment planning time.
    pub(crate) routable: bool,
}

/// Samples one transfer's fiber failures — one uniform per fiber; a crash
/// persists for the whole transfer (Sec. V-B) — and detours every
/// segment's routes around them ([`recover_route`]). Sampling is skipped
/// entirely at `fiber_failure_prob == 0`, so failure-free transfers spend
/// no randomness here and borrow the plan as is.
pub(crate) fn recover_plan<'a, R: Rng + ?Sized>(
    net: &Network,
    plan: &'a TransferPlan,
    config: &ExecutionConfig,
    rng: &mut R,
) -> EffectivePlan<'a> {
    if config.fiber_failure_prob == 0.0 {
        return EffectivePlan {
            segments: Cow::Borrowed(&plan.segments),
            routable: true,
        };
    }
    let failed: Vec<bool> = (0..net.num_fibers())
        .map(|_| rng.gen::<f64>() < config.fiber_failure_prob)
        .collect();
    let mut segments = Vec::with_capacity(plan.segments.len());
    let mut cursor = plan.src;
    let mut routable = true;
    for seg in &plan.segments {
        let support_route = recover_route(net, cursor, &seg.support_route, &failed);
        let core_route = match &seg.core_route {
            Some(route) => recover_route(net, cursor, route, &failed).map(Some),
            None => Some(None),
        };
        let (Some(support_route), Some(core_route)) = (support_route, core_route) else {
            routable = false;
            break;
        };
        cursor = net
            .walk(cursor, &support_route)
            .last()
            .copied()
            .unwrap_or(cursor);
        segments.push(PlannedSegment {
            core_route,
            support_route,
            correct_at_end: seg.correct_at_end,
        });
    }
    if routable {
        debug_assert_eq!(cursor, plan.dst, "plan segments do not reach dst");
    }
    EffectivePlan {
        segments: Cow::Owned(segments),
        routable,
    }
}

/// Replaces failed fibers on `route` with local detours: for each failed
/// fiber, the shortest working path between its endpoints (the paper's
/// recovery paths). Returns `None` when no detour exists.
fn recover_route(
    net: &Network,
    start: NodeId,
    route: &[FiberId],
    failed: &[bool],
) -> Option<Vec<FiberId>> {
    if route.iter().all(|&f| !failed[f]) {
        return Some(route.to_vec());
    }
    let mut out = Vec::with_capacity(route.len());
    let mut cur = start;
    for &f in route {
        let next = net.fiber(f).other(cur);
        if failed[f] {
            let detour = net.shortest_path_by(cur, next, |d| {
                if failed[d] {
                    f64::INFINITY
                } else {
                    net.fiber(d).noise() + 1e-6
                }
            })?;
            if detour.iter().any(|&d| failed[d]) {
                return None;
            }
            out.extend(detour);
        } else {
            out.push(f);
        }
        cur = next;
    }
    Some(out)
}

/// Outcome of one hop-by-hop teleportation transfer (the Purification-N
/// baselines: no surface codes, every data qubit teleported with `n`
/// purification rounds per fiber).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TeleportOutcome {
    /// Whether the transfer finished within the tick budget.
    pub completed: bool,
    /// Ticks spent waiting for entanglement. A fiber that never delivers
    /// within its [`ExecutionConfig::max_ticks`] budget is charged exactly
    /// that budget.
    pub latency: u64,
    /// Delivered fidelity: product over hops of the purified pair
    /// fidelities.
    pub fidelity: f64,
}

/// Executes a pure-teleportation transfer along `route` with `n_purify`
/// rounds of entanglement pumping per fiber.
///
/// Purification is **probabilistic** (BBPSSW-style): each round succeeds
/// with probability `ρ₁ρ₂ + (1−ρ₁)(1−ρ₂)`; a failed round destroys both
/// pairs and restarts the pump from a fresh raw pair (Briegel pumping).
/// The paper's scheduling model budgets the expected minimum of
/// `n_purify + 1` pairs per fiber; this executor additionally charges the
/// waiting time, during which the unencoded message qubit decoheres at
/// [`ExecutionConfig::memory_decoherence_rate`].
///
/// # Panics
///
/// Panics if a fiber id is out of range or `config` is out of range (see
/// [`ExecutionConfig`]: a NaN or out-of-`[0, 1]` `entanglement_rate` or
/// `fiber_failure_prob`, or `min_advance == 0`).
pub fn execute_teleportation<R: Rng + ?Sized>(
    net: &Network,
    route: &[FiberId],
    n_purify: u32,
    config: &ExecutionConfig,
    rng: &mut R,
) -> TeleportOutcome {
    let _span = surfnet_telemetry::span!("netsim.execute_teleportation");
    let _stage = surfnet_telemetry::stage::scope(surfnet_telemetry::stage::Stage::Purify);
    config.assert_valid();
    let mut latency = 0u64;
    let mut fidelity = 1.0f64;
    // Waits for one raw pair; returns false on timeout, having spent
    // exactly the `max_ticks` budget. Every tick is one generation
    // attempt; `pairs` tallies the deliveries.
    let wait_for_pair = |ticks: &mut u64, pairs: &mut u64, rng: &mut R| -> bool {
        loop {
            if *ticks >= config.max_ticks {
                return false;
            }
            *ticks += 1;
            if rng.gen::<f64>() < config.entanglement_rate {
                *pairs += 1;
                return true;
            }
        }
    };
    for &f in route {
        let fiber = net.fiber(f);
        let raw = fiber.fidelity;
        let mut ticks = 0u64;
        let mut pairs = 0u64;
        let mut rounds_done = 0u64;
        // The pump has several timeout exits; funneling them through one
        // closure gives a single telemetry point per fiber below.
        let mut pump = |rng: &mut R| -> Option<f64> {
            if !wait_for_pair(&mut ticks, &mut pairs, rng) {
                return None;
            }
            let mut rho = raw;
            let mut rounds = 0u32;
            while rounds < n_purify {
                if !wait_for_pair(&mut ticks, &mut pairs, rng) {
                    return None;
                }
                let success_prob = rho * raw + (1.0 - rho) * (1.0 - raw);
                if rng.gen::<f64>() < success_prob {
                    rho = purify(rho, raw);
                    rounds += 1;
                    rounds_done += 1;
                } else {
                    // Both pairs are destroyed; restart the pump.
                    if !wait_for_pair(&mut ticks, &mut pairs, rng) {
                        return None;
                    }
                    rho = raw;
                    rounds = 0;
                }
            }
            Some(rho)
        };
        let rho = pump(rng);
        // One tallied increment per fiber (each wait tick is one attempt),
        // not one per attempt — matching the other execution paths.
        surfnet_telemetry::count!("netsim.entanglement_attempts", ticks);
        surfnet_telemetry::count!("netsim.purification_rounds", rounds_done);
        if surfnet_telemetry::enabled() {
            let key = dim::LabelKey::link(fiber.a, fiber.b);
            dim::counter_family("netsim.link.attempts").add(key, ticks);
            dim::counter_family("netsim.link.successes").add(key, pairs);
            dim::counter_family("netsim.link.purification_rounds").add(key, rounds_done);
        }
        let Some(rho) = rho else {
            return TeleportOutcome {
                completed: false,
                latency: latency + ticks,
                fidelity: 0.0,
            };
        };
        latency += ticks;
        fidelity *= rho;
    }
    // The bare message qubit decoheres in memory for the whole wait.
    fidelity *= (1.0 - config.memory_decoherence_rate).powf(latency as f64);
    TeleportOutcome {
        completed: true,
        latency,
        fidelity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entanglement::purify_n;
    use crate::topology::NodeKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// u0 - s1 - s2(server) - u3 with uniform fidelity 0.9, loss 0.1.
    fn line_net() -> Network {
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 50);
        let s2 = net.add_node(NodeKind::Server, 100);
        let u3 = net.add_node(NodeKind::User, 0);
        net.add_fiber(u0, s1, 0.9, 8, 0.1).unwrap();
        net.add_fiber(s1, s2, 0.9, 8, 0.1).unwrap();
        net.add_fiber(s2, u3, 0.9, 8, 0.1).unwrap();
        net
    }

    fn two_segment_plan() -> TransferPlan {
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
        }
    }

    #[test]
    #[should_panic(expected = "link endpoint 65536 does not fit its 16-bit LabelKey field")]
    fn link_key_rejects_node_id_65536() {
        // One past the 16-bit endpoint field of per-link metric labels.
        let mut net = Network::new();
        for _ in 0..=65_536 {
            net.add_node(NodeKind::Switch, 1);
        }
        let f = net.add_fiber(1, 65_536, 0.9, 1, 0.0).unwrap();
        link_key(&net, f);
    }

    #[test]
    fn plan_executes_with_expected_fidelities() {
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(1);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            ..ExecutionConfig::default()
        };
        let out = execute_plan(&net, &two_segment_plan(), &config, &mut rng);
        assert!(out.completed);
        assert_eq!(out.segments.len(), 2);
        let s0 = &out.segments[0];
        assert!((s0.support_fidelity - 0.81).abs() < 1e-12);
        assert!((s0.core_fidelity - 0.9).abs() < 1e-12); // sqrt(0.81)
        assert!((s0.support_erasure_prob - (1.0 - 0.81)).abs() < 1e-12);
        assert_eq!(s0.core_erasure_prob, 0.0);
        assert!(s0.corrected_at_end);
        assert!(out.latency >= 3);
    }

    #[test]
    fn raw_plan_shares_channel_and_loss() {
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(2);
        let plan = TransferPlan {
            src: 0,
            dst: 3,
            segments: vec![PlannedSegment {
                core_route: None,
                support_route: vec![0, 1, 2],
                correct_at_end: false,
            }],
        };
        let out = execute_plan(&net, &plan, &ExecutionConfig::default(), &mut rng);
        assert!(out.completed);
        let s = &out.segments[0];
        assert_eq!(s.core_fidelity, s.support_fidelity);
        assert_eq!(s.core_erasure_prob, s.support_erasure_prob);
        // Plain-channel transfer is deterministic: one tick per fiber.
        assert_eq!(out.latency, 3);
    }

    #[test]
    fn low_entanglement_rate_increases_latency() {
        let net = line_net();
        let config_fast = ExecutionConfig {
            entanglement_rate: 1.0,
            ..ExecutionConfig::default()
        };
        let config_slow = ExecutionConfig {
            entanglement_rate: 0.1,
            ..ExecutionConfig::default()
        };
        let avg = |config: &ExecutionConfig, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut total = 0u64;
            for _ in 0..50 {
                let out = execute_plan(&net, &two_segment_plan(), config, &mut rng);
                assert!(out.completed);
                total += out.latency;
            }
            total as f64 / 50.0
        };
        assert!(avg(&config_slow, 3) > avg(&config_fast, 3));
    }

    #[test]
    fn zero_rate_times_out() {
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(4);
        let config = ExecutionConfig {
            entanglement_rate: 0.0,
            max_ticks: 50,
            ..ExecutionConfig::default()
        };
        let out = execute_plan(&net, &two_segment_plan(), &config, &mut rng);
        assert!(!out.completed);
        // Unified failure-latency contract: the first segment burned its
        // whole transport budget before the transfer gave up.
        assert_eq!(out.latency, 50);
    }

    #[test]
    fn timeout_in_second_segment_charges_completed_plus_budget() {
        // First segment completes (rate 1.0 would, so pick a plan where
        // segment 1 is trivially fast and segment 2 cannot finish): give
        // segment 2 an impossible Support transit.
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(40);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            max_ticks: 2,
            ..ExecutionConfig::default()
        };
        let plan = TransferPlan {
            src: 0,
            dst: 3,
            segments: vec![
                PlannedSegment {
                    core_route: Some(vec![0, 1]),
                    support_route: vec![0, 1],
                    correct_at_end: true,
                },
                PlannedSegment {
                    // Support wanders 2→3→2→3: 3 fibers > max_ticks = 2.
                    core_route: Some(vec![2]),
                    support_route: vec![2, 2, 2],
                    correct_at_end: true,
                },
            ],
        };
        let out = execute_plan(&net, &plan, &config, &mut rng);
        assert!(!out.completed);
        // Segment 1: transport max(2, 1) = 2 == max_ticks (within budget),
        // + 1 EC tick = 3. Segment 2: Support transit 3 > budget 2 →
        // failed, charging the full budget.
        assert_eq!(out.segments.len(), 1);
        assert_eq!(out.segments[0].ticks, 3);
        assert_eq!(out.latency, 3 + 2);
    }

    #[test]
    fn ec_tick_does_not_consume_transport_budget() {
        // A segment whose transport finishes in exactly `max_ticks` and
        // then runs EC must be accepted with ticks = max_ticks + 1 (the
        // historical `ticks > max_ticks` post-EC check rejected it).
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(41);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            max_ticks: 2,
            ..ExecutionConfig::default()
        };
        let plan = TransferPlan {
            src: 0,
            dst: 2,
            segments: vec![PlannedSegment {
                core_route: Some(vec![0, 1]),
                support_route: vec![0, 1], // 2 ticks = max_ticks exactly
                correct_at_end: true,
            }],
        };
        let out = execute_plan(&net, &plan, &config, &mut rng);
        assert!(out.completed, "EC tick must not count against the budget");
        assert_eq!(out.segments[0].ticks, 3); // 2 transport + 1 EC
        assert_eq!(out.latency, 3);
    }

    #[test]
    fn failed_fiber_takes_recovery_path() {
        // Square: 0-1, 1-3, 0-2, 2-3. Route via fiber 0 (0-1) and 1 (1-3);
        // failing fiber 0 must detour 0-2-3-1? No: detour replaces fiber 0
        // (0→1) by 0-2, 2-3, 3-1... but there is no 3-1 fiber; build one.
        let mut net = Network::new();
        let n0 = net.add_node(NodeKind::User, 0);
        let n1 = net.add_node(NodeKind::Switch, 10);
        let n2 = net.add_node(NodeKind::Switch, 10);
        let n3 = net.add_node(NodeKind::User, 0);
        let f01 = net.add_fiber(n0, n1, 0.9, 4, 0.0).unwrap();
        let f13 = net.add_fiber(n1, n3, 0.9, 4, 0.0).unwrap();
        let f02 = net.add_fiber(n0, n2, 0.9, 4, 0.0).unwrap();
        let f21 = net.add_fiber(n2, n1, 0.9, 4, 0.0).unwrap();
        let _ = (f02, f21);
        let failed = vec![true, false, false, false];
        let recovered = recover_route(&net, n0, &[f01, f13], &failed).unwrap();
        assert_eq!(recovered, vec![f02, f21, f13]);
    }

    #[test]
    fn unrecoverable_failure_aborts() {
        let net = line_net(); // tree: no alternative routes
        let mut rng = SmallRng::seed_from_u64(5);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            fiber_failure_prob: 1.0, // everything down
            ..ExecutionConfig::default()
        };
        let out = execute_plan(&net, &two_segment_plan(), &config, &mut rng);
        assert!(!out.completed);
        // Route failures are detected at segment planning time, before
        // any transport tick elapses: nothing is charged.
        assert_eq!(out.latency, 0);
    }

    #[test]
    fn geometric_is_deterministic_at_the_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(geometric(&mut rng, 1.0), 1);
        assert_eq!(geometric(&mut rng, 1.5), 1);
        assert_eq!(geometric(&mut rng, 0.0), u64::MAX);
        for _ in 0..100 {
            let g = geometric(&mut rng, 0.4);
            assert!(g >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "geometric success probability is NaN")]
    fn geometric_rejects_nan() {
        geometric(&mut SmallRng::seed_from_u64(1), f64::NAN);
    }

    #[test]
    fn geometric_mean_matches_inverse_rate() {
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 20_000;
        let p = 0.25;
        let total: u64 = (0..n).map(|_| geometric(&mut rng, p)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.0 / p).abs() < 0.1, "mean {mean}");
    }

    /// The opportunistic-forwarding walk simulated tick by tick from given
    /// pair-ready ticks: each tick the Core part advances over the longest
    /// ready run from its position if that run holds at least
    /// `min(min_advance, remaining)` fibers.
    fn tick_walk(ready: &[u64], min_advance: usize, max_ticks: u64) -> Option<u64> {
        let len = ready.len();
        if len == 0 {
            return Some(0);
        }
        let mut pos = 0;
        for tick in 1..=max_ticks {
            let run = ready[pos..].iter().take_while(|&&r| r <= tick).count();
            if run >= min_advance.min(len - pos) {
                pos += run;
                if pos == len {
                    return Some(tick);
                }
            }
        }
        None
    }

    #[test]
    fn core_completion_hand_cases() {
        // [1, 1, 5, 5] with min_advance 2: jump 2 at tick 1, 2 at tick 5.
        assert_eq!(core_completion(&[1, 1, 5, 5], 100), Some(5));
        // [4, 2, 3]: the first jump waits for fiber 0 and takes all three.
        assert_eq!(core_completion(&[4, 2, 3], 100), Some(4));
        // Completing at exactly the budget, and one tick past it.
        assert_eq!(core_completion(&[1, 100], 100), Some(100));
        assert_eq!(core_completion(&[1, 101], 100), None);
        // A fiber that never delivers, and the empty route.
        assert_eq!(core_completion(&[1, u64::MAX], 100), None);
        assert_eq!(core_completion(&[], 100), Some(0));
    }

    #[test]
    fn core_completion_equals_tick_by_tick_walk() {
        // Exact equivalence of `core_completion` and the tick-by-tick walk
        // for min_advance 1-4 over random ready vectors, including fibers
        // that never deliver (u64::MAX) and budgets short enough to time
        // out.
        let mut rng = SmallRng::seed_from_u64(0xC0DE);
        let mut timeouts = 0;
        for _ in 0..20_000 {
            let len = rng.gen_range(0..=9);
            let ready: Vec<u64> = (0..len)
                .map(|_| {
                    if rng.gen::<f64>() < 0.05 {
                        u64::MAX
                    } else {
                        rng.gen_range(1..=40)
                    }
                })
                .collect();
            let min_advance = rng.gen_range(1..=4);
            let max_ticks = rng.gen_range(1..=45);
            let want = tick_walk(&ready, min_advance, max_ticks);
            timeouts += usize::from(want.is_none());
            assert_eq!(
                core_completion(&ready, max_ticks),
                want,
                "ready {ready:?}, min_advance {min_advance}, max_ticks {max_ticks}"
            );
        }
        assert!(timeouts > 1_000, "only {timeouts} timeouts exercised");
    }

    /// The per-tick engine the geometric walk replaced, kept as the
    /// distributional oracle: every tick each fiber ahead of the Core part
    /// that holds no pair rolls one Bernoulli(`entanglement_rate`), then
    /// the part advances as in [`tick_walk`]. Returns the walk's
    /// completion tick, or `None` past `max_ticks`.
    fn bernoulli_walk(len: usize, config: &ExecutionConfig, rng: &mut SmallRng) -> Option<u64> {
        let mut ready = vec![false; len];
        let mut pos = 0;
        if len == 0 {
            return Some(0);
        }
        for tick in 1..=config.max_ticks {
            for r in &mut ready[pos..] {
                if !*r && rng.gen::<f64>() < config.entanglement_rate {
                    *r = true;
                }
            }
            let run = ready[pos..].iter().take_while(|&&r| r).count();
            if run >= config.min_advance.min(len - pos) {
                pos += run;
                if pos == len {
                    return Some(tick);
                }
            }
        }
        None
    }

    /// A failure-free plan's outcome under [`bernoulli_walk`], with the
    /// segment accounting documented on [`ExecutionConfig::max_ticks`],
    /// encoded as one number: the latency, offset by 2³² if the transfer
    /// failed.
    fn bernoulli_plan(plan: &TransferPlan, config: &ExecutionConfig, rng: &mut SmallRng) -> u64 {
        let mut latency = 0;
        for seg in &plan.segments {
            let core = seg
                .core_route
                .as_ref()
                .map_or(Some(0), |r| bernoulli_walk(r.len(), config, rng));
            let support = seg.support_route.len() as u64;
            match core
                .map(|t| t.max(support))
                .filter(|&t| t <= config.max_ticks)
            {
                Some(t) => latency += t + u64::from(seg.correct_at_end),
                None => return (1 << 32) + latency + config.max_ticks,
            }
        }
        latency
    }

    /// Two-sample Kolmogorov–Smirnov statistic `sup |F_a − F_b|`.
    fn ks_statistic(mut a: Vec<u64>, mut b: Vec<u64>) -> f64 {
        a.sort_unstable();
        b.sort_unstable();
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            while i < a.len() && a[i] == x {
                i += 1;
            }
            while j < b.len() && b[j] == x {
                j += 1;
            }
            d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        d
    }

    #[test]
    fn latency_distribution_matches_per_tick_bernoulli_oracle() {
        // u0 - s1 - s2 - s3 - S4(server) - s5 - u6: a 4-fiber segment
        // corrected at the server, then a 2-fiber segment. The budget is
        // tight enough that rate 0.1 times out in a few percent of runs.
        let mut net = Network::new();
        let kinds = [
            NodeKind::User,
            NodeKind::Switch,
            NodeKind::Switch,
            NodeKind::Switch,
            NodeKind::Server,
            NodeKind::Switch,
            NodeKind::User,
        ];
        let nodes: Vec<_> = kinds.iter().map(|&k| net.add_node(k, 50)).collect();
        for w in nodes.windows(2) {
            net.add_fiber(w[0], w[1], 0.9, 8, 0.1).unwrap();
        }
        let plan = TransferPlan {
            src: nodes[0],
            dst: nodes[6],
            segments: vec![
                PlannedSegment {
                    core_route: Some(vec![0, 1, 2, 3]),
                    support_route: vec![0, 1, 2, 3],
                    correct_at_end: true,
                },
                PlannedSegment {
                    core_route: Some(vec![4, 5]),
                    support_route: vec![4, 5],
                    correct_at_end: false,
                },
            ],
        };
        const N: usize = 20_000;
        // 1% critical value of the two-sample KS test, c(α) √(2 / N).
        let critical = 1.628 * (2.0 / N as f64).sqrt();
        for (k, rate) in [0.1, 0.5, 0.9].into_iter().enumerate() {
            let config = ExecutionConfig {
                entanglement_rate: rate,
                max_ticks: 40,
                ..ExecutionConfig::default()
            };
            let mut rng = SmallRng::seed_from_u64(900 + k as u64);
            let engine: Vec<u64> = (0..N)
                .map(|_| {
                    let out = execute_plan(&net, &plan, &config, &mut rng);
                    out.latency + if out.completed { 0 } else { 1 << 32 }
                })
                .collect();
            let mut rng = SmallRng::seed_from_u64(950 + k as u64);
            let oracle: Vec<u64> = (0..N)
                .map(|_| bernoulli_plan(&plan, &config, &mut rng))
                .collect();
            let failed = engine.iter().filter(|&&l| l >= 1 << 32).count();
            if rate == 0.1 {
                assert!(failed > 0, "rate 0.1 exercised no timeouts");
            }
            let d = ks_statistic(engine, oracle);
            assert!(
                d < critical,
                "rate {rate}: KS D = {d:.5} ≥ {critical:.5} ({failed} timeouts)"
            );
        }
    }

    /// `line_net` with its fibers between node ids 60,000–60,003, so its
    /// per-link series are this test's alone even with other tests
    /// recording concurrently.
    fn high_id_line_net() -> (Network, [String; 3]) {
        let mut net = Network::new();
        for _ in 0..60_000 {
            net.add_node(NodeKind::Switch, 1);
        }
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 50);
        let s2 = net.add_node(NodeKind::Server, 100);
        let u3 = net.add_node(NodeKind::User, 0);
        let mut fibers = Vec::new();
        for (a, b) in [(u0, s1), (s1, s2), (s2, u3)] {
            fibers.push(net.add_fiber(a, b, 0.9, 8, 0.1).unwrap());
        }
        let labels = [
            format!("{u0}-{s1}"),
            format!("{s1}-{s2}"),
            format!("{s2}-{u3}"),
        ];
        (net, labels)
    }

    fn link_counts(family: &str, labels: &[String]) -> Vec<u64> {
        let snap = surfnet_telemetry::snapshot();
        labels
            .iter()
            .map(|l| snap.group(family).and_then(|g| g.label(l)).unwrap_or(0))
            .collect()
    }

    #[test]
    fn link_tallies_follow_ready_times() {
        // Rate 0: no fiber ever delivers, so the first segment's two Core
        // fibers each try for the whole 25-tick budget and deliver nothing;
        // the second segment never starts. Rate 1: one attempt, one pair,
        // on every Core fiber.
        let _t = surfnet_telemetry::Telemetry::enabled();
        let (net, labels) = high_id_line_net();
        let plan = TransferPlan {
            src: 60_000,
            dst: 60_003,
            segments: vec![
                PlannedSegment {
                    core_route: Some(vec![0, 1]),
                    support_route: vec![0, 1],
                    correct_at_end: true,
                },
                PlannedSegment {
                    core_route: Some(vec![2]),
                    support_route: vec![2],
                    correct_at_end: false,
                },
            ],
        };
        let mut rng = SmallRng::seed_from_u64(12);
        let attempts0 = link_counts("netsim.link.attempts", &labels);
        let successes0 = link_counts("netsim.link.successes", &labels);
        let delta = |family, before: &[u64]| -> Vec<u64> {
            let now = link_counts(family, &labels);
            now.iter().zip(before).map(|(n, b)| n - b).collect()
        };
        let stalled = ExecutionConfig {
            entanglement_rate: 0.0,
            max_ticks: 25,
            ..ExecutionConfig::default()
        };
        let out = execute_plan(&net, &plan, &stalled, &mut rng);
        assert!(!out.completed);
        assert_eq!(out.latency, 25);
        assert_eq!(delta("netsim.link.attempts", &attempts0), [25, 25, 0]);
        assert_eq!(delta("netsim.link.successes", &successes0), [0, 0, 0]);

        let attempts0 = link_counts("netsim.link.attempts", &labels);
        let successes0 = link_counts("netsim.link.successes", &labels);
        let fast = ExecutionConfig {
            entanglement_rate: 1.0,
            ..ExecutionConfig::default()
        };
        assert!(execute_plan(&net, &plan, &fast, &mut rng).completed);
        assert_eq!(delta("netsim.link.attempts", &attempts0), [1, 1, 1]);
        assert_eq!(delta("netsim.link.successes", &successes0), [1, 1, 1]);
    }

    #[test]
    fn teleportation_timeout_charges_exactly_the_budget() {
        // Rate 0: the first fiber never delivers. The transfer gives up
        // after exactly `max_ticks` attempts on it, charging that much.
        let _t = surfnet_telemetry::Telemetry::enabled();
        let (net, labels) = high_id_line_net();
        let config = ExecutionConfig {
            entanglement_rate: 0.0,
            max_ticks: 25,
            ..ExecutionConfig::default()
        };
        let before = link_counts("netsim.link.attempts", &labels);
        let mut rng = SmallRng::seed_from_u64(13);
        let out = execute_teleportation(&net, &[0, 1, 2], 1, &config, &mut rng);
        assert!(!out.completed);
        assert_eq!(out.latency, 25);
        let after = link_counts("netsim.link.attempts", &labels);
        assert_eq!([after[0] - before[0], after[1] - before[1]], [25, 0]);
    }

    #[test]
    #[should_panic(
        expected = "ExecutionConfig::entanglement_rate must be a probability in [0, 1], got NaN"
    )]
    fn nan_entanglement_rate_is_rejected() {
        // Unchecked, a NaN rate makes every geometric draw 0, so every
        // Core walk would complete at once instead of timing out.
        let config = ExecutionConfig {
            entanglement_rate: f64::NAN,
            max_ticks: 25,
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(14);
        crate::event::execute_plan_event(&line_net(), &two_segment_plan(), &config, &mut rng);
    }

    #[test]
    #[should_panic(
        expected = "ExecutionConfig::entanglement_rate must be a probability in [0, 1], got 1.5"
    )]
    fn entanglement_rate_above_one_is_rejected() {
        let config = ExecutionConfig {
            entanglement_rate: 1.5,
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(15);
        execute_teleportation(&line_net(), &[0, 1, 2], 1, &config, &mut rng);
    }

    #[test]
    #[should_panic(expected = "ExecutionConfig::min_advance must be at least 1")]
    fn zero_min_advance_is_rejected() {
        let config = ExecutionConfig {
            min_advance: 0,
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(16);
        crate::concurrent::execute_concurrently(
            &line_net(),
            &[two_segment_plan()],
            &config,
            &mut rng,
        );
    }

    #[test]
    #[should_panic(
        expected = "ExecutionConfig::fiber_failure_prob must be a probability in [0, 1], got -0.1"
    )]
    fn negative_fiber_failure_prob_is_rejected() {
        let config = ExecutionConfig {
            fiber_failure_prob: -0.1,
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(17);
        execute_plan(&line_net(), &two_segment_plan(), &config, &mut rng);
    }

    #[test]
    fn teleportation_without_purification_is_deterministic() {
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(7);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            memory_decoherence_rate: 0.0,
            ..ExecutionConfig::default()
        };
        let out = execute_teleportation(&net, &[0, 1, 2], 0, &config, &mut rng);
        assert!(out.completed);
        // No purification: the delivered fidelity is the plain product and
        // one pair per hop arrives per tick at rate 1.0.
        assert!((out.fidelity - 0.9f64.powi(3)).abs() < 1e-12);
        assert_eq!(out.latency, 3);
    }

    #[test]
    fn teleportation_decoheres_while_waiting() {
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(7);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            memory_decoherence_rate: 0.01,
            ..ExecutionConfig::default()
        };
        let out = execute_teleportation(&net, &[0, 1, 2], 0, &config, &mut rng);
        assert!(out.completed);
        let want = 0.9f64.powi(3) * 0.99f64.powi(3);
        assert!((out.fidelity - want).abs() < 1e-12);
    }

    #[test]
    fn purification_rounds_improve_pair_fidelity_on_average() {
        // Statistically, successful pumping must deliver at least the
        // plain product and at most the ideal purify_n bound.
        let net = line_net();
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            memory_decoherence_rate: 0.0,
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(17);
        let mut total = 0.0;
        let trials = 300;
        for _ in 0..trials {
            let out = execute_teleportation(&net, &[0, 1, 2], 2, &config, &mut rng);
            assert!(out.completed);
            total += out.fidelity;
        }
        let mean = total / trials as f64;
        assert!(mean > 0.9f64.powi(3), "mean {mean} not above raw product");
        assert!(mean <= purify_n(0.9, 2).powi(3) + 1e-9);
    }

    #[test]
    fn heavy_purification_can_lose_to_decoherence() {
        // The trade-off the paper's Sec. I motivates: distilling more
        // pairs takes longer, and the unencoded message decoheres while it
        // waits. At slow generation rates N=9 ends up *worse* than N=1.
        let net = line_net();
        let config = ExecutionConfig {
            entanglement_rate: 0.3,
            memory_decoherence_rate: 0.01,
            ..ExecutionConfig::default()
        };
        let avg = |n: u32| {
            let mut rng = SmallRng::seed_from_u64(9);
            let mut total = 0.0;
            for _ in 0..200 {
                let out = execute_teleportation(&net, &[0, 1, 2], n, &config, &mut rng);
                assert!(out.completed);
                total += out.fidelity;
            }
            total / 200.0
        };
        assert!(avg(9) < avg(1));
    }

    #[test]
    fn teleportation_latency_grows_with_purification() {
        let net = line_net();
        let config = ExecutionConfig {
            entanglement_rate: 0.5,
            ..ExecutionConfig::default()
        };
        let avg = |n: u32| {
            let mut rng = SmallRng::seed_from_u64(8);
            let mut total = 0u64;
            for _ in 0..100 {
                let out = execute_teleportation(&net, &[0, 1, 2], n, &config, &mut rng);
                assert!(out.completed);
                total += out.latency;
            }
            total as f64 / 100.0
        };
        assert!(avg(9) > avg(1));
    }
}
