//! Differential tests of the route planner.
//!
//! The oracle is the Dijkstra that `Network::shortest_path_by` ran before
//! the planner existed, kept here verbatim apart from taking the fiber
//! cost by id: per-search `dist`/`via` vectors, the adjacency read
//! straight from `Network::incident`, the cost evaluated on every
//! relaxation, a `(Reverse(distance bits), node)` max-heap, and an early
//! exit when `dst` settles. `RoutePlanner`, `Network::min_noise_path` and
//! `Network::min_hop_path` must return exactly the oracle's fiber
//! sequence — same route, same tie-breaks — on every pair tried.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use surfnet_netsim::event::{plan_request, simulate, ArrivalProcess, StreamConfig};
use surfnet_netsim::generate::{barabasi_albert, NetworkConfig};
use surfnet_netsim::planner::{Hop, RoutePlanner};
use surfnet_netsim::{FiberId, Network, NodeId, NodeKind, PlannedSegment, Request, TransferPlan};

/// The pre-planner `Network::shortest_path_by`.
fn oracle_path(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    cost: impl Fn(FiberId) -> f64,
) -> Option<Vec<FiberId>> {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut via = vec![usize::MAX; n];
    let mut heap: BinaryHeap<(Reverse<u64>, NodeId)> = BinaryHeap::new();
    let key = |d: f64| Reverse(d.to_bits());
    dist[src] = 0.0;
    heap.push((key(0.0), src));
    while let Some((Reverse(bits), v)) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[v] {
            continue;
        }
        if v == dst {
            break;
        }
        for &f in net.incident(v) {
            let u = net.fiber(f).other(v);
            let nd = d + cost(f);
            if nd < dist[u] {
                dist[u] = nd;
                via[u] = f;
                heap.push((key(nd), u));
            }
        }
    }
    if dist[dst].is_infinite() {
        return None;
    }
    let mut path = Vec::new();
    let mut v = dst;
    while v != src {
        let f = via[v];
        path.push(f);
        v = net.fiber(f).other(v);
    }
    path.reverse();
    Some(path)
}

/// The pre-planner `plan_request`: the oracle route, walked once and cut
/// after every server.
fn oracle_plan(net: &Network, request: &Request) -> Option<TransferPlan> {
    let route = oracle_path(net, request.src, request.dst, |f| net.fiber(f).noise())?;
    let nodes = net.walk(request.src, &route);
    let mut segments = Vec::new();
    let mut seg_fibers = Vec::new();
    for (i, &f) in route.iter().enumerate() {
        seg_fibers.push(f);
        let at_server = net.node(nodes[i + 1]).kind == NodeKind::Server;
        if i + 1 == route.len() || at_server {
            segments.push(PlannedSegment {
                core_route: Some(seg_fibers.clone()),
                support_route: seg_fibers.clone(),
                correct_at_end: at_server,
            });
            seg_fibers.clear();
        }
    }
    Some(TransferPlan {
        src: request.src,
        dst: request.dst,
        segments,
    })
}

/// The streaming scenario's 1,200-node topology.
fn stream_network(seed: u64) -> Network {
    let config = NetworkConfig {
        num_nodes: 1_200,
        attachment: 2,
        num_servers: 40,
        num_switches: 160,
        fidelity_range: (0.75, 1.0),
        switch_capacity: 4,
        server_capacity: 8,
        entanglement_capacity: 2,
        loss_prob: 0.03,
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    barabasi_albert(&config, &mut rng).expect("valid config")
}

const SEEDS: [u64; 3] = [90_000, 90_001, 90_002];
const PAIRS_PER_SEED: usize = 600;

/// Distinct user pairs, drawn the way Poisson arrivals draw them.
fn random_user_pairs(net: &Network, seed: u64) -> Vec<(NodeId, NodeId)> {
    let users = net.users();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF);
    (0..PAIRS_PER_SEED)
        .map(|_| {
            let src = users[rng.gen_range(0..users.len())];
            let dst = loop {
                let d = users[rng.gen_range(0..users.len())];
                if d != src {
                    break d;
                }
            };
            (src, dst)
        })
        .collect()
}

#[test]
fn planner_routes_equal_the_oracle_on_ba_networks() {
    for seed in SEEDS {
        let net = stream_network(seed);
        let mut planner = RoutePlanner::new(&net);
        let pairs = random_user_pairs(&net, seed);
        let mut multi_hop = 0;
        for &(src, dst) in &pairs {
            let want = oracle_path(&net, src, dst, |f| net.fiber(f).noise());
            let got = planner.min_noise_path(src, dst);
            assert_eq!(got, want, "seed {seed}: {src} -> {dst}");
            assert_eq!(
                net.min_noise_path(src, dst),
                want,
                "seed {seed}: {src} -> {dst}"
            );
            multi_hop += usize::from(want.is_some_and(|p| p.len() > 3));
        }
        assert_eq!(planner.plans(), PAIRS_PER_SEED as u64);
        // The pairs must exercise real searches, not trivial neighbours.
        assert!(multi_hop > PAIRS_PER_SEED / 2, "seed {seed}: {multi_hop}");
    }
}

#[test]
fn min_hop_paths_equal_the_oracle_under_heavy_ties() {
    // Unit costs make most routes tie with several others, so every pair
    // exercises the heap's tie-breaking.
    for seed in SEEDS {
        let net = stream_network(seed);
        for (src, dst) in random_user_pairs(&net, seed) {
            assert_eq!(
                net.min_hop_path(src, dst),
                oracle_path(&net, src, dst, |_| 1.0),
                "seed {seed}: {src} -> {dst}"
            );
        }
    }
}

#[test]
fn detours_around_failed_fibers_equal_the_oracle() {
    // The recovery-path cost: failed fibers are impassable, the rest
    // cost their noise plus a small per-hop charge.
    let net = stream_network(SEEDS[0]);
    let mut rng = SmallRng::seed_from_u64(17);
    let failed: Vec<bool> = (0..net.num_fibers())
        .map(|_| rng.gen::<f64>() < 0.3)
        .collect();
    let cost = |f: FiberId| {
        if failed[f] {
            f64::INFINITY
        } else {
            net.fiber(f).noise() + 1e-6
        }
    };
    let mut unreachable = 0;
    for (src, dst) in random_user_pairs(&net, SEEDS[0]) {
        let want = oracle_path(&net, src, dst, cost);
        unreachable += usize::from(want.is_none());
        assert_eq!(net.shortest_path_by(src, dst, cost), want, "{src} -> {dst}");
    }
    assert!(unreachable > 0, "30% failures should cut some users off");
}

#[test]
fn plans_equal_the_oracle_split_at_servers() {
    for seed in SEEDS {
        let net = stream_network(seed);
        let mut planner = RoutePlanner::new(&net);
        let mut split = 0;
        for (src, dst) in random_user_pairs(&net, seed) {
            let request = Request::new(src, dst, 1);
            let want = oracle_plan(&net, &request);
            split += usize::from(want.as_ref().is_some_and(|p| p.segments.len() > 1));
            assert_eq!(planner.plan(&request), want, "seed {seed}: {src} -> {dst}");
            assert_eq!(
                plan_request(&net, &request),
                want,
                "seed {seed}: {src} -> {dst}"
            );
        }
        assert!(split > 0, "seed {seed}: no route crossed a server");
    }
}

/// Two two-hop routes from u0 to u3: via s1 (fibers 0, 2) and via s2
/// (fibers 1, 3), with fiber `i` at `fidelities[i]`.
fn diamond(fidelities: [f64; 4]) -> Network {
    let mut net = Network::new();
    let u0 = net.add_node(NodeKind::User, 0);
    let s1 = net.add_node(NodeKind::Switch, 8);
    let s2 = net.add_node(NodeKind::Switch, 8);
    let u3 = net.add_node(NodeKind::User, 0);
    net.add_fiber(u0, s1, fidelities[0], 4, 0.0).unwrap();
    net.add_fiber(u0, s2, fidelities[1], 4, 0.0).unwrap();
    net.add_fiber(s1, u3, fidelities[2], 4, 0.0).unwrap();
    net.add_fiber(s2, u3, fidelities[3], 4, 0.0).unwrap();
    net
}

#[test]
fn equal_noise_routes_break_ties_like_the_oracle() {
    // Both relays settle at the same distance; the larger node id (s2)
    // settles first and claims u3, and the later equal offer via s1 does
    // not replace it.
    let net = diamond([0.9; 4]);
    let want = oracle_path(&net, 0, 3, |f| net.fiber(f).noise());
    assert_eq!(want, Some(vec![1, 3]));
    assert_eq!(RoutePlanner::new(&net).min_noise_path(0, 3), want);
    assert_eq!(net.min_noise_path(0, 3), want);
    // Equal totals from different hops (0.8 then 0.9 vs 0.9 then 0.8):
    // the relay nearer the source settles first and wins, whatever its id.
    let net = diamond([0.9, 0.8, 0.8, 0.9]);
    let want = oracle_path(&net, 0, 3, |f| net.fiber(f).noise());
    assert_eq!(want, Some(vec![0, 2]));
    assert_eq!(RoutePlanner::new(&net).min_noise_path(0, 3), want);
    // Unit costs from the other end: the reverse search ties the same way.
    assert_eq!(net.min_hop_path(3, 0), oracle_path(&net, 3, 0, |_| 1.0));
    assert_eq!(net.min_hop_path(3, 0), Some(vec![3, 1]));
}

#[test]
fn parallel_fibers_tie_in_incident_order() {
    // Two equal fibers join s1 and s2. Both relax s2 from the same settled
    // node at the same distance, so the first in `Network::incident` order
    // keeps the route; a recovery detour around it takes its twin.
    let mut net = Network::new();
    let u0 = net.add_node(NodeKind::User, 0);
    let s1 = net.add_node(NodeKind::Switch, 8);
    let s2 = net.add_node(NodeKind::Switch, 8);
    net.add_fiber(u0, s1, 0.9, 4, 0.0).unwrap();
    let first = net.add_fiber(s1, s2, 0.8, 4, 0.0).unwrap();
    let twin = net.add_fiber(s1, s2, 0.8, 4, 0.0).unwrap();
    let want = oracle_path(&net, u0, s2, |f| net.fiber(f).noise());
    assert_eq!(want, Some(vec![0, first]));
    assert_eq!(RoutePlanner::new(&net).min_noise_path(u0, s2), want);
    let around_first = |f: FiberId| if f == first { f64::INFINITY } else { 1.0 };
    assert_eq!(net.shortest_path_by(s1, s2, around_first), Some(vec![twin]));
}

#[test]
fn hops_keep_in_range_ids() {
    let hop = Hop::new(u32::MAX as usize, 7);
    assert_eq!(hop.to(), u32::MAX as usize);
    assert_eq!(hop.fiber(), 7);
}

#[cfg(target_pointer_width = "64")]
#[test]
#[should_panic(expected = "node id 4294967296 does not fit the planner's 32-bit hop field")]
fn hop_rejects_node_ids_past_u32() {
    Hop::new(u32::MAX as usize + 1, 0);
}

#[cfg(target_pointer_width = "64")]
#[test]
#[should_panic(expected = "fiber id 4294967296 does not fit the planner's 32-bit hop field")]
fn hop_rejects_fiber_ids_past_u32() {
    Hop::new(0, u32::MAX as usize + 1);
}

#[test]
fn streaming_plans_each_arrival_once() {
    // Tight pools and slow transfers force many deferrals; a re-offer must
    // reuse its first plan, so Dijkstra runs once per arrival. This is the
    // only test in this binary that emits `netsim.stream.*` counters.
    let _t = surfnet_telemetry::Telemetry::enabled();
    let counter = |name| surfnet_telemetry::snapshot().counter(name).unwrap_or(0);
    let (plans0, relax0) = (
        counter("netsim.stream.plans"),
        counter("netsim.stream.relaxations"),
    );
    let net = stream_network(SEEDS[1]);
    let config = StreamConfig {
        arrival: ArrivalProcess::Poisson { rate: 0.25 },
        horizon: 800,
        ..StreamConfig::default()
    };
    let stats = simulate(&net, &config, &mut SmallRng::seed_from_u64(5));
    let plans = counter("netsim.stream.plans") - plans0;
    let relaxations = counter("netsim.stream.relaxations") - relax0;
    assert!(stats.deferred > 0, "no deferrals: {stats:?}");
    assert_eq!(plans, stats.arrivals);
    // Each search scans at least the source's fibers.
    assert!(
        relaxations >= plans,
        "{relaxations} relaxations for {plans} plans"
    );
}
