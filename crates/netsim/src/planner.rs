//! Minimum-noise route planning (paper Sec. V-A) on one Dijkstra kernel.
//!
//! [`RoutePlanner`] is built once per streaming run
//! ([`crate::event::simulate`]) and plans every request of that run:
//!
//! * each fiber's noise `μ = ln(1/γ)` is computed once, not per relaxation;
//! * the adjacency is one flat CSR array of `(neighbour, fiber)` [`Hop`]s in
//!   [`Network::incident`] order;
//! * the Dijkstra scratch (distances, predecessors, heap) is reused across
//!   searches and reset only at the nodes the previous search reached;
//! * the marks that deduplicate an admission `Footprint` are stamped, so
//!   computing one allocates nothing network-sized.
//!
//! [`Network::shortest_path_by`] — and through it `min_noise_path`,
//! `min_hop_path` and the recovery-path detours — runs the same kernel on a
//! freshly built adjacency. Both explore neighbours in the same order with
//! the same heap ordering, so a planner route and a one-shot route are the
//! same fiber sequence, tie for tie.

use crate::execution::{PlannedSegment, TransferPlan};
use crate::request::Request;
use crate::topology::{FiberId, Network, NodeId, NodeKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One adjacency entry: the node a fiber leads to and the fiber itself,
/// packed as 32-bit ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    to: u32,
    fiber: u32,
}

impl Hop {
    /// The hop over `fiber` to node `to`.
    ///
    /// # Panics
    ///
    /// Panics if either id does not fit in 32 bits: truncating it would
    /// silently route over a different node or fiber.
    pub fn new(to: NodeId, fiber: FiberId) -> Hop {
        Hop {
            to: fit(to, "node id"),
            fiber: fit(fiber, "fiber id"),
        }
    }

    /// The node this hop reaches.
    pub fn to(self) -> NodeId {
        self.to as NodeId
    }

    /// The fiber this hop crosses.
    pub fn fiber(self) -> FiberId {
        self.fiber as FiberId
    }
}

fn fit(value: usize, what: &str) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| {
        // analyzer:allow(panic-site): documented contract — an id past u32::MAX must fail loudly instead of truncating
        panic!("{what} {value} does not fit the planner's 32-bit hop field")
    })
}

/// Flat (CSR) adjacency: `v`'s hops are `hops[start[v]..start[v + 1]]`,
/// in [`Network::incident`] order.
struct Adjacency {
    start: Vec<usize>,
    hops: Vec<Hop>,
}

impl Adjacency {
    fn new(net: &Network) -> Adjacency {
        let mut start = Vec::with_capacity(net.num_nodes() + 1);
        let mut hops = Vec::with_capacity(2 * net.num_fibers());
        start.push(0);
        for v in 0..net.num_nodes() {
            for &f in net.incident(v) {
                hops.push(Hop::new(net.fiber(f).other(v), f));
            }
            start.push(hops.len());
        }
        Adjacency { start, hops }
    }

    fn hops(&self, v: NodeId) -> &[Hop] {
        &self.hops[self.start[v]..self.start[v + 1]]
    }
}

/// Dijkstra scratch, reusable across searches on one network.
struct Search {
    dist: Vec<f64>,
    /// `(predecessor, fiber)` of each reached node's best route.
    via: Vec<(NodeId, FiberId)>,
    /// Nodes whose `dist` the last search made finite.
    touched: Vec<NodeId>,
    heap: BinaryHeap<(Reverse<u64>, NodeId)>,
    /// Hops scanned, summed over every search.
    relaxations: u64,
}

impl Search {
    fn new(num_nodes: usize) -> Search {
        Search {
            dist: vec![f64::INFINITY; num_nodes],
            via: vec![(0, 0); num_nodes],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            relaxations: 0,
        }
    }

    /// The cheapest fiber sequence from `src` to `dst` under the
    /// non-negative per-fiber `cost`, or `None` if `dst` is unreachable.
    ///
    /// Heap entries order by `(Reverse(distance bits), node)`, so among
    /// equal distances the larger node id settles first, and the search
    /// stops as soon as `dst` settles.
    fn run(
        &mut self,
        adj: &Adjacency,
        src: NodeId,
        dst: NodeId,
        cost: impl Fn(FiberId) -> f64,
    ) -> Option<Vec<FiberId>> {
        assert!(
            src < self.dist.len() && dst < self.dist.len(),
            "route endpoints {src} -> {dst} outside a {}-node network",
            self.dist.len()
        );
        for &v in &self.touched {
            self.dist[v] = f64::INFINITY;
        }
        self.touched.clear();
        self.heap.clear();
        // Order keys as bit-converted floats: all costs are non-negative.
        let key = |d: f64| Reverse(d.to_bits());
        self.dist[src] = 0.0;
        self.touched.push(src);
        self.heap.push((key(0.0), src));
        while let Some((Reverse(bits), v)) = self.heap.pop() {
            let d = f64::from_bits(bits);
            if d > self.dist[v] {
                continue;
            }
            if v == dst {
                break;
            }
            let hops = adj.hops(v);
            self.relaxations += hops.len() as u64;
            for &hop in hops {
                let u = hop.to();
                let c = cost(hop.fiber());
                debug_assert!(c >= 0.0, "negative fiber cost");
                let nd = d + c;
                if nd < self.dist[u] {
                    if self.dist[u] == f64::INFINITY {
                        self.touched.push(u);
                    }
                    self.dist[u] = nd;
                    self.via[u] = (v, hop.fiber());
                    self.heap.push((key(nd), u));
                }
            }
        }
        if self.dist[dst].is_infinite() {
            return None;
        }
        let mut path = Vec::new();
        let mut v = dst;
        while v != src {
            let (prev, f) = self.via[v];
            path.push(f);
            v = prev;
        }
        path.reverse();
        Some(path)
    }
}

/// One-shot Dijkstra on the shared kernel: the body of
/// [`Network::shortest_path_by`].
pub(crate) fn shortest_path(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    cost: impl Fn(FiberId) -> f64,
) -> Option<Vec<FiberId>> {
    Search::new(net.num_nodes()).run(&Adjacency::new(net), src, dst, cost)
}

/// The memory/pool footprint of an admitted transfer: `weight` slots on
/// each distinct relay its routes visit, and `weight` pairs of headroom on
/// each distinct core-route fiber.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Distinct relays, in the order the routes first visit them.
    pub(crate) nodes: Vec<NodeId>,
    /// Distinct core-route fibers, in route order.
    pub(crate) fibers: Vec<FiberId>,
    /// The transfer's code count.
    pub(crate) weight: u32,
}

/// Plans requests on one network, reusing everything that depends only on
/// the topology (see the [module docs](self)). The planner borrows the
/// network, so the topology cannot change while it is in use.
///
/// # Examples
///
/// ```
/// use surfnet_netsim::planner::RoutePlanner;
/// use surfnet_netsim::{Network, NodeKind, Request};
///
/// let mut net = Network::new();
/// let alice = net.add_node(NodeKind::User, 0);
/// let server = net.add_node(NodeKind::Server, 32);
/// let bob = net.add_node(NodeKind::User, 0);
/// net.add_fiber(alice, server, 0.9, 4, 0.05)?;
/// net.add_fiber(server, bob, 0.9, 4, 0.05)?;
///
/// let mut planner = RoutePlanner::new(&net);
/// let plan = planner.plan(&Request::new(alice, bob, 1)).expect("connected");
/// assert_eq!(plan.segments.len(), 2); // split at the server
/// assert_eq!(planner.min_noise_path(alice, bob), net.min_noise_path(alice, bob));
/// assert_eq!(planner.plans(), 2);
/// # Ok::<(), surfnet_netsim::NetError>(())
/// ```
pub struct RoutePlanner<'a> {
    net: &'a Network,
    noise: Vec<f64>,
    adj: Adjacency,
    search: Search,
    node_mark: Vec<u32>,
    fiber_mark: Vec<u32>,
    stamp: u32,
    plans: u64,
}

impl<'a> RoutePlanner<'a> {
    /// Precomputes `net`'s fiber noise and flat adjacency.
    pub fn new(net: &'a Network) -> RoutePlanner<'a> {
        RoutePlanner {
            net,
            noise: net.fibers().iter().map(|f| f.noise()).collect(),
            adj: Adjacency::new(net),
            search: Search::new(net.num_nodes()),
            node_mark: vec![0; net.num_nodes()],
            fiber_mark: vec![0; net.num_fibers()],
            stamp: 0,
            plans: 0,
        }
    }

    /// The minimum-noise fiber sequence from `src` to `dst`, identical to
    /// [`Network::min_noise_path`]; `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn min_noise_path(&mut self, src: NodeId, dst: NodeId) -> Option<Vec<FiberId>> {
        self.plans += 1;
        let noise = &self.noise;
        self.search.run(&self.adj, src, dst, |f| noise[f])
    }

    /// Plans a request SurfNet-style: the minimum-noise route, split into
    /// segments at each intermediate server (where error correction runs).
    /// Returns `None` for unroutable endpoint pairs.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn plan(&mut self, request: &Request) -> Option<TransferPlan> {
        let route = self.min_noise_path(request.src, request.dst)?;
        let mut segments = Vec::new();
        let mut seg_fibers: Vec<FiberId> = Vec::new();
        let mut reached = request.src;
        for (i, &f) in route.iter().enumerate() {
            seg_fibers.push(f);
            reached = self.net.fiber(f).other(reached);
            let last = i + 1 == route.len();
            let at_server = self.net.node(reached).kind == NodeKind::Server;
            if last || at_server {
                segments.push(PlannedSegment {
                    core_route: Some(seg_fibers.clone()),
                    support_route: std::mem::take(&mut seg_fibers),
                    correct_at_end: at_server,
                });
            }
        }
        Some(TransferPlan {
            src: request.src,
            dst: request.dst,
            segments,
        })
    }

    /// Dijkstra searches run so far.
    pub fn plans(&self) -> u64 {
        self.plans
    }

    /// Hops scanned by those searches (each settled node scans all of its
    /// fibers once).
    pub fn relaxations(&self) -> u64 {
        self.search.relaxations
    }

    /// The footprint `plan` claims at `weight` codes. Walks each segment's
    /// support route once and deduplicates through stamped marks.
    pub(crate) fn footprint(&mut self, plan: &TransferPlan, weight: u32) -> Footprint {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp wrap-around: stale marks could collide, so clear them.
            self.node_mark.fill(0);
            self.fiber_mark.fill(0);
            self.stamp = 1;
        }
        let (net, stamp) = (self.net, self.stamp);
        let node_mark = &mut self.node_mark;
        let mut nodes = Vec::new();
        let mut visit = |v: NodeId| {
            if net.node(v).kind.is_relay() && node_mark[v] != stamp {
                node_mark[v] = stamp;
                nodes.push(v);
            }
        };
        let mut fibers = Vec::new();
        let mut cursor = plan.src;
        for seg in &plan.segments {
            visit(cursor);
            for &f in &seg.support_route {
                cursor = net.fiber(f).other(cursor);
                visit(cursor);
            }
            for &f in seg.core_route.iter().flatten() {
                if self.fiber_mark[f] != stamp {
                    self.fiber_mark[f] = stamp;
                    fibers.push(f);
                }
            }
        }
        Footprint {
            nodes,
            fibers,
            weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// u0 - s1 - s2(server) - u3, plus a low-fidelity shortcut s1 - u3.
    fn net_with_shortcut() -> Network {
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 8);
        let s2 = net.add_node(NodeKind::Server, 8);
        let u3 = net.add_node(NodeKind::User, 0);
        net.add_fiber(u0, s1, 0.9, 4, 0.0).unwrap();
        net.add_fiber(s1, s2, 0.9, 4, 0.0).unwrap();
        net.add_fiber(s2, u3, 0.9, 4, 0.0).unwrap();
        net.add_fiber(s1, u3, 0.5, 4, 0.0).unwrap();
        net
    }

    /// u0 -> s1 -> s2 (EC) -> s1 -> u3: s1 and fiber 1 recur.
    fn revisiting_plan() -> TransferPlan {
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
                    core_route: Some(vec![1, 3]),
                    support_route: vec![1, 3],
                    correct_at_end: false,
                },
            ],
        }
    }

    /// The pre-planner footprint: fresh `seen` vectors per call and two
    /// walks per segment.
    fn oracle_footprint(net: &Network, plan: &TransferPlan, weight: u32) -> Footprint {
        let mut node_seen = vec![false; net.num_nodes()];
        let mut fiber_seen = vec![false; net.num_fibers()];
        let (mut nodes, mut fibers) = (Vec::new(), Vec::new());
        let mut cursor = plan.src;
        for seg in &plan.segments {
            for &v in net.walk(cursor, &seg.support_route).iter() {
                if net.node(v).kind.is_relay() && !node_seen[v] {
                    node_seen[v] = true;
                    nodes.push(v);
                }
            }
            if let Some(core) = &seg.core_route {
                for &f in core {
                    if !fiber_seen[f] {
                        fiber_seen[f] = true;
                        fibers.push(f);
                    }
                }
            }
            cursor = *net.walk(cursor, &seg.support_route).last().unwrap();
        }
        Footprint {
            nodes,
            fibers,
            weight,
        }
    }

    #[test]
    fn footprints_equal_the_allocating_oracle() {
        use crate::generate::{barabasi_albert, NetworkConfig};
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let config = NetworkConfig {
            num_nodes: 200,
            num_servers: 12,
            num_switches: 40,
            ..NetworkConfig::default()
        };
        let net = barabasi_albert(&config, &mut rng).unwrap();
        let users = net.users();
        let mut planner = RoutePlanner::new(&net);
        let mut multi_segment = 0;
        for weight in 1..=300 {
            let src = users[rng.gen_range(0..users.len())];
            let dst = users[rng.gen_range(0..users.len())];
            if src == dst {
                continue;
            }
            let Some(plan) = planner.plan(&Request::new(src, dst, weight)) else {
                continue;
            };
            multi_segment += usize::from(plan.segments.len() > 1);
            let want = oracle_footprint(&net, &plan, weight);
            assert_eq!(planner.footprint(&plan, weight), want, "{src} -> {dst}");
        }
        assert!(multi_segment > 0);
        // A hand-made plan that revisits a relay and a fiber.
        let net = net_with_shortcut();
        let plan = revisiting_plan();
        let fp = RoutePlanner::new(&net).footprint(&plan, 2);
        assert_eq!(fp.nodes, vec![1, 2]);
        assert_eq!(fp.fibers, vec![0, 1, 3]);
        assert_eq!(fp, oracle_footprint(&net, &plan, 2));
    }

    #[test]
    fn footprint_survives_stamp_wrap_around() {
        let net = net_with_shortcut();
        let mut planner = RoutePlanner::new(&net);
        let plan = planner.plan(&Request::new(0, 3, 1)).unwrap();
        let fresh = planner.footprint(&plan, 1);
        // Stale marks equal to the stamp the counter wraps around to.
        planner.stamp = u32::MAX;
        planner.node_mark.fill(1);
        planner.fiber_mark.fill(1);
        assert_eq!(planner.footprint(&plan, 1), fresh);
        assert_eq!(planner.stamp, 1);
    }
}
