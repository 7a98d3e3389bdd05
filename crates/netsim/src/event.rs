//! Streaming discrete-event simulation engine.
//!
//! Runs the per-transfer execution engine ([`crate::execution`]) over open
//! workloads on network-scale topologies:
//!
//! * [`EventQueue`] — an indexed binary-heap event queue with
//!   deterministic tie-breaking: events order by `(time, seq)`, where
//!   `seq` is the monotone schedule order, so same-tick events process
//!   FIFO and a seeded run replays byte-for-byte.
//! * [`ArrivalProcess`] — an open Poisson process (geometric inter-arrival
//!   gaps, the discrete-time analog of exponential gaps) or a supplied
//!   trace of timed [`Request`]s.
//! * **Per-transfer execution** — each admitted transfer runs once through
//!   [`execute_plan_event`], which draws one geometric pair-ready time per
//!   Core fiber instead of simulating ticks; the transfer's latency then
//!   schedules its departure.
//! * **Admission control + backpressure** — a request whose route would
//!   oversubscribe a relay's memory ([`crate::topology::Node::capacity`])
//!   or a fiber's pair pool (`entanglement_capacity`) is deferred up to
//!   [`StreamConfig::max_defers`] times and then dropped, with drops
//!   counted per reason in the `netsim.stream.*` metrics and per blocking
//!   link in the `netsim.stream.link.dropped` family.
//! * **Plan once** — one [`RoutePlanner`] serves the whole run, and each
//!   request is routed and footprinted at its first offer only; a
//!   deferred re-offer carries that plan, since the topology cannot change
//!   during a run.
//!
//! Latency and failure accounting follow the unified contract documented
//! on [`ExecutionConfig::max_ticks`] and
//! [`crate::execution::ExecutionOutcome::latency`].

use crate::execution::{geometric, run_transfer, ExecutionConfig, ExecutionOutcome, TransferPlan};
use crate::planner::{Footprint, RoutePlanner};
use crate::request::Request;
use crate::topology::Network;
use rand::Rng;
use serde::{Deserialize, Serialize};
use surfnet_telemetry::dim;

/// An indexed binary min-heap of timed events with deterministic
/// tie-breaking: events at equal times pop in schedule (`seq`) order.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Heap-ordered `(time, seq, payload)` triples.
    heap: Vec<(u64, u64, T)>,
    /// Next sequence number; monotone over the queue's lifetime.
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at `time`; returns the event's sequence number
    /// (the FIFO rank among same-time events).
    pub fn push(&mut self, time: u64, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push((time, seq, payload));
        self.sift_up(self.heap.len() - 1);
        seq
    }

    /// Removes and returns the earliest event (ties broken by schedule
    /// order).
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let (time, _seq, payload) = self.heap.pop()?;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((time, payload))
    }

    fn key(&self, i: usize) -> (u64, u64) {
        (self.heap[i].0, self.heap[i].1)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key(i) < self.key(parent) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && self.key(l) < self.key(smallest) {
                smallest = l;
            }
            if r < n && self.key(r) < self.key(smallest) {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

/// How requests enter the open simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Open Poisson-like arrivals: inter-arrival gaps are geometric with
    /// per-tick success probability `rate` (clamped to `(0, 1]`), the
    /// discrete-time analog of exponential gaps. Endpoints are drawn
    /// uniformly over distinct user pairs, code counts uniformly in
    /// `1..=max_codes_per_request`.
    Poisson {
        /// Expected arrivals per tick (0 < rate ≤ 1).
        rate: f64,
    },
    /// Trace-driven arrivals: explicit `(tick, request)` pairs. Entries
    /// after [`StreamConfig::horizon`] are ignored.
    Trace(Vec<(u64, Request)>),
}

/// Tunables of the streaming engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// The arrival process.
    pub arrival: ArrivalProcess,
    /// Last tick at which new requests arrive; admitted transfers drain
    /// past it.
    pub horizon: u64,
    /// How many times a blocked request is re-offered before being
    /// dropped.
    pub max_defers: u32,
    /// Ticks between re-offers of a blocked request.
    pub defer_ticks: u64,
    /// Per-transfer execution tunables (shared with every execution engine).
    pub exec: ExecutionConfig,
    /// Poisson arrivals draw code counts in `1..=max_codes_per_request`.
    pub max_codes_per_request: u32,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            arrival: ArrivalProcess::Poisson { rate: 0.2 },
            horizon: 10_000,
            max_defers: 3,
            defer_ticks: 8,
            exec: ExecutionConfig::default(),
            max_codes_per_request: 3,
        }
    }
}

/// Why a request was dropped at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No route exists between the endpoints.
    Unroutable,
    /// A relay's quantum memory would be oversubscribed.
    Capacity,
    /// A fiber's entanglement-pair pool would be oversubscribed.
    Pool,
}

/// Aggregate results of one streaming run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Requests that entered the system (deferred re-offers not
    /// recounted).
    pub arrivals: u64,
    /// Requests admitted into execution.
    pub admitted: u64,
    /// Admitted transfers that completed.
    pub completed: u64,
    /// Admitted transfers that timed out in execution.
    pub failed: u64,
    /// Blocked-request re-offers (each deferral counts once).
    pub deferred: u64,
    /// Drops: no route between the endpoints.
    pub dropped_unroutable: u64,
    /// Drops: relay memory saturated after all deferrals.
    pub dropped_capacity: u64,
    /// Drops: fiber pair pools saturated after all deferrals.
    pub dropped_pool: u64,
    /// Tick of the last processed event (the drain time).
    pub end_time: u64,
    /// Per-completed-transfer latencies, in ticks, in completion order.
    pub latencies: Vec<u64>,
}

impl StreamStats {
    /// Total drops across all reasons.
    pub fn dropped(&self) -> u64 {
        self.dropped_unroutable + self.dropped_capacity + self.dropped_pool
    }

    /// Drops attributed to one [`DropReason`].
    pub fn dropped_for(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::Unroutable => self.dropped_unroutable,
            DropReason::Capacity => self.dropped_capacity,
            DropReason::Pool => self.dropped_pool,
        }
    }

    /// Dropped fraction of all arrivals (0 when nothing arrived).
    pub fn drop_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.arrivals as f64
        }
    }

    /// Sustained completion rate in requests per second of simulated
    /// time, with one tick ≙ 1 ms (a typical entanglement-attempt cycle).
    /// Derived purely from simulated time, so it is seed-deterministic.
    pub fn requests_per_sec(&self) -> f64 {
        if self.end_time == 0 {
            0.0
        } else {
            self.completed as f64 * 1000.0 / self.end_time as f64
        }
    }

    /// Inclusive-interpolation percentile of completed-transfer latencies
    /// (`p` in `[0, 1]`); 0 when nothing completed.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
    }

    /// Folds another run's statistics into this one: counters add,
    /// latencies pool, and `end_time` accumulates so that
    /// [`requests_per_sec`](Self::requests_per_sec) of the merged value is
    /// the completion rate over the trials' combined simulated time.
    pub fn merge(&mut self, other: &StreamStats) {
        self.arrivals += other.arrivals;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.deferred += other.deferred;
        self.dropped_unroutable += other.dropped_unroutable;
        self.dropped_capacity += other.dropped_capacity;
        self.dropped_pool += other.dropped_pool;
        self.end_time += other.end_time;
        self.latencies.extend_from_slice(&other.latencies);
    }
}

/// Executes one transfer plan for the streaming engine: the same engine,
/// RNG stream and outcome as [`crate::execution::execute_plan`], without
/// its span, stage scope or per-link `netsim.link.*` families (a stream
/// touches more links than a metric family keeps labels for). Only the
/// `netsim.entanglement_attempts` total is recorded.
///
/// # Panics
///
/// As [`crate::execution::execute_plan`].
pub fn execute_plan_event<R: Rng + ?Sized>(
    net: &Network,
    plan: &TransferPlan,
    config: &ExecutionConfig,
    rng: &mut R,
) -> ExecutionOutcome {
    run_transfer(net, plan, config, rng, false)
}

/// Plans a request SurfNet-style: the minimum-noise route, split into
/// segments at each intermediate server (where error correction runs).
/// Returns `None` for unroutable endpoint pairs.
///
/// A one-shot [`RoutePlanner::plan`]; to plan many requests on one
/// network, build the planner once.
pub fn plan_request(net: &Network, request: &Request) -> Option<TransferPlan> {
    RoutePlanner::new(net).plan(request)
}

/// An event in the streaming simulation.
enum Ev {
    /// The next open-process arrival; the request is sampled on pop so
    /// RNG consumption follows event order.
    Arrival,
    /// A trace entry arriving for its first offer.
    Offer {
        /// The offered request.
        request: Request,
    },
    /// A deferred request re-offered for admission.
    Retry(Pending),
    /// An admitted transfer leaving the network.
    Departure {
        /// Index into the active-transfer table.
        id: usize,
    },
}

/// A routed request awaiting admission: its plan and footprint are
/// computed at the first offer and kept across deferrals.
struct Pending {
    plan: TransferPlan,
    footprint: Footprint,
    /// How many times it has been deferred already.
    defers: u32,
}

/// An admitted transfer awaiting departure.
struct Active {
    footprint: Footprint,
    completed: bool,
    latency: u64,
}

/// Runs the streaming simulation: arrivals from `config.arrival` until
/// [`StreamConfig::horizon`], admission control against relay memory and
/// fiber pools, per-transfer execution via [`execute_plan_event`], and a
/// drain phase until the last admitted transfer departs.
///
/// Every `netsim.stream.*` counter and the per-link drop family are
/// recorded once at the end of the run (cheap and deterministic).
///
/// # Panics
///
/// Panics if a Poisson process is configured on a network with fewer than
/// two users.
pub fn simulate<R: Rng + ?Sized>(net: &Network, config: &StreamConfig, rng: &mut R) -> StreamStats {
    let _span = surfnet_telemetry::span!("netsim.stream.simulate");
    let _stage = surfnet_telemetry::stage::scope(surfnet_telemetry::stage::Stage::Entangle);
    let users = net.users();
    let poisson_rate = match &config.arrival {
        ArrivalProcess::Poisson { rate } => {
            assert!(users.len() >= 2, "Poisson arrivals need at least two users");
            Some(rate.clamp(f64::MIN_POSITIVE, 1.0))
        }
        ArrivalProcess::Trace(_) => None,
    };

    let mut sim = Sim {
        net,
        config,
        planner: RoutePlanner::new(net),
        queue: EventQueue::new(),
        node_in_use: vec![0; net.num_nodes()],
        fiber_in_use: vec![0; net.num_fibers()],
        // Per-link drop tallies for the dim family; sized zero with
        // telemetry off so the admission path skips the bookkeeping.
        link_drops: vec![
            0;
            if surfnet_telemetry::enabled() {
                net.num_fibers()
            } else {
                0
            }
        ],
        active: Vec::new(),
        stats: StreamStats {
            arrivals: 0,
            admitted: 0,
            completed: 0,
            failed: 0,
            deferred: 0,
            dropped_unroutable: 0,
            dropped_capacity: 0,
            dropped_pool: 0,
            end_time: 0,
            latencies: Vec::new(),
        },
    };
    if let Some(rate) = poisson_rate {
        let gap = geometric(rng, rate);
        if gap <= config.horizon {
            sim.queue.push(gap, Ev::Arrival);
        }
    } else if let ArrivalProcess::Trace(entries) = &config.arrival {
        for (t, request) in entries {
            if *t <= config.horizon {
                sim.queue.push(*t, Ev::Offer { request: *request });
            }
        }
    }

    while let Some((now, ev)) = sim.queue.pop() {
        sim.stats.end_time = sim.stats.end_time.max(now);
        match ev {
            Ev::Arrival => {
                // Only the Poisson init path schedules `Arrival` events.
                let rate = poisson_rate.unwrap_or(1.0);
                let gap = geometric(rng, rate);
                if now.saturating_add(gap) <= config.horizon {
                    sim.queue.push(now + gap, Ev::Arrival);
                }
                let src = users[rng.gen_range(0..users.len())];
                let dst = loop {
                    let d = users[rng.gen_range(0..users.len())];
                    if d != src {
                        break d;
                    }
                };
                let request =
                    Request::new(src, dst, rng.gen_range(1..=config.max_codes_per_request));
                sim.arrive(rng, now, request);
            }
            Ev::Offer { request } => sim.arrive(rng, now, request),
            Ev::Retry(pending) => sim.offer(rng, now, pending),
            Ev::Departure { id } => sim.depart(id),
        }
    }

    let Sim {
        planner,
        link_drops,
        stats,
        ..
    } = sim;
    surfnet_telemetry::count!("netsim.stream.arrivals", stats.arrivals);
    surfnet_telemetry::count!("netsim.stream.admitted", stats.admitted);
    surfnet_telemetry::count!("netsim.stream.completed", stats.completed);
    surfnet_telemetry::count!("netsim.stream.failed", stats.failed);
    surfnet_telemetry::count!("netsim.stream.deferred", stats.deferred);
    surfnet_telemetry::count!("netsim.stream.dropped.unroutable", stats.dropped_unroutable);
    surfnet_telemetry::count!("netsim.stream.dropped.capacity", stats.dropped_capacity);
    surfnet_telemetry::count!("netsim.stream.dropped.pool", stats.dropped_pool);
    surfnet_telemetry::count!("netsim.stream.plans", planner.plans());
    surfnet_telemetry::count!("netsim.stream.relaxations", planner.relaxations());
    if !link_drops.is_empty() {
        let fam = dim::counter_family("netsim.stream.link.dropped");
        for (f, &n) in link_drops.iter().enumerate() {
            if n > 0 {
                let fiber = net.fiber(f);
                fam.add(dim::LabelKey::link(fiber.a, fiber.b), n);
            }
        }
    }
    if surfnet_telemetry::recording() {
        let latency_timer = surfnet_telemetry::timer("netsim.stream.request_latency");
        for &l in &stats.latencies {
            // One tick ≙ 1 ms of simulated time (see
            // [`StreamStats::requests_per_sec`]).
            latency_timer.record_ns(l.saturating_mul(1_000_000));
        }
    }
    stats
}

/// The state of one streaming run.
struct Sim<'a> {
    net: &'a Network,
    config: &'a StreamConfig,
    planner: RoutePlanner<'a>,
    queue: EventQueue<Ev>,
    node_in_use: Vec<u32>,
    fiber_in_use: Vec<u32>,
    link_drops: Vec<u64>,
    active: Vec<Active>,
    stats: StreamStats,
}

impl Sim<'_> {
    /// A request's first offer: counts the arrival, plans and footprints
    /// it (the only time it is routed), then offers it for admission.
    fn arrive<R: Rng + ?Sized>(&mut self, rng: &mut R, now: u64, request: Request) {
        self.stats.arrivals += 1;
        let Some(plan) = self.planner.plan(&request) else {
            self.stats.dropped_unroutable += 1;
            return;
        };
        let footprint = self.planner.footprint(&plan, request.num_codes);
        self.offer(
            rng,
            now,
            Pending {
                plan,
                footprint,
                defers: 0,
            },
        );
    }

    /// One admission offer: check capacity, then defer, drop, or admit.
    fn offer<R: Rng + ?Sized>(&mut self, rng: &mut R, now: u64, pending: Pending) {
        let fp = &pending.footprint;
        // First saturated resource decides the blocking reason: relay
        // memory before fiber pools (memory admits fewer concurrent codes
        // and is the paper's primary capacity constraint).
        let blocked_node = fp
            .nodes
            .iter()
            .any(|&v| self.node_in_use[v] + fp.weight > self.net.node(v).capacity);
        let blocked_fiber =
            fp.fibers.iter().copied().find(|&f| {
                self.fiber_in_use[f] + fp.weight > self.net.fiber(f).entanglement_capacity
            });
        if blocked_node || blocked_fiber.is_some() {
            if pending.defers < self.config.max_defers {
                self.stats.deferred += 1;
                self.queue.push(
                    now + self.config.defer_ticks.max(1),
                    Ev::Retry(Pending {
                        defers: pending.defers + 1,
                        ..pending
                    }),
                );
            } else if blocked_node {
                self.stats.dropped_capacity += 1;
            } else {
                self.stats.dropped_pool += 1;
                if let Some(f) = blocked_fiber {
                    if !self.link_drops.is_empty() {
                        self.link_drops[f] += 1;
                    }
                }
            }
            return;
        }
        // Admit: reserve the footprint and execute event-analytically.
        for &v in &fp.nodes {
            self.node_in_use[v] += fp.weight;
        }
        for &f in &fp.fibers {
            self.fiber_in_use[f] += fp.weight;
        }
        self.stats.admitted += 1;
        let outcome = execute_plan_event(self.net, &pending.plan, &self.config.exec, rng);
        let id = self.active.len();
        self.active.push(Active {
            footprint: pending.footprint,
            completed: outcome.completed,
            latency: outcome.latency,
        });
        // Resources are held for the transfer's whole dwell time (failed
        // transfers still occupied the network while they tried).
        self.queue
            .push(now + outcome.latency.max(1), Ev::Departure { id });
    }

    /// An admitted transfer leaves: release its footprint and tally it.
    fn depart(&mut self, id: usize) {
        let t = &self.active[id];
        for &v in &t.footprint.nodes {
            self.node_in_use[v] -= t.footprint.weight;
        }
        for &f in &t.footprint.fibers {
            self.fiber_in_use[f] -= t.footprint.weight;
        }
        if t.completed {
            self.stats.completed += 1;
            self.stats.latencies.push(t.latency);
        } else {
            self.stats.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn queue_orders_by_time_then_schedule_order() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(5, "e");
        q.push(1, "a1");
        q.push(3, "c");
        q.push(1, "a2");
        q.push(2, "b");
        assert_eq!(q.len(), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(1, "a1"), (1, "a2"), (2, "b"), (3, "c"), (5, "e")]
        );
        assert!(q.is_empty());
    }

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

    #[test]
    fn planner_splits_at_servers() {
        let net = line_net();
        let plan = plan_request(&net, &Request::new(0, 3, 1)).unwrap();
        assert_eq!(plan.segments.len(), 2);
        assert_eq!(plan.segments[0].support_route, vec![0, 1]);
        assert!(plan.segments[0].correct_at_end);
        assert_eq!(plan.segments[1].support_route, vec![2]);
        assert!(!plan.segments[1].correct_at_end);
    }

    #[test]
    fn stream_run_is_deterministic_and_conserves_requests() {
        let net = line_net();
        let config = StreamConfig {
            arrival: ArrivalProcess::Poisson { rate: 0.5 },
            horizon: 500,
            max_codes_per_request: 2,
            ..StreamConfig::default()
        };
        let run = || {
            let mut rng = SmallRng::seed_from_u64(9);
            simulate(&net, &config, &mut rng)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded stream runs must replay identically");
        assert!(a.arrivals > 0);
        // Conservation: every arrival is admitted or dropped; every
        // admitted transfer completes or fails.
        assert_eq!(a.arrivals, a.admitted + a.dropped());
        assert_eq!(a.admitted, a.completed + a.failed);
        assert_eq!(a.completed as usize, a.latencies.len());
    }

    #[test]
    fn saturation_produces_pool_drops_and_backpressure() {
        // One-pair pools and zero deferral headroom: concurrent requests
        // over the same 3-fiber line must shed load.
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 1);
        let u2 = net.add_node(NodeKind::User, 0);
        net.add_fiber(u0, s1, 0.95, 1, 0.0).unwrap();
        net.add_fiber(s1, u2, 0.95, 1, 0.0).unwrap();
        let config = StreamConfig {
            arrival: ArrivalProcess::Poisson { rate: 1.0 },
            horizon: 400,
            max_defers: 1,
            defer_ticks: 2,
            exec: ExecutionConfig {
                entanglement_rate: 0.05, // slow transfers hog the pools
                ..ExecutionConfig::default()
            },
            max_codes_per_request: 1,
        };
        let mut rng = SmallRng::seed_from_u64(10);
        let stats = simulate(&net, &config, &mut rng);
        assert!(stats.admitted > 0, "some requests must get through");
        assert!(
            stats.dropped_capacity + stats.dropped_pool > 0,
            "saturated network must drop: {stats:?}"
        );
        assert!(stats.deferred > 0, "backpressure must defer first");
    }

    #[test]
    fn trace_arrivals_replay_exactly() {
        let net = line_net();
        let trace = vec![
            (5, Request::new(0, 3, 1)),
            (5, Request::new(3, 0, 1)),
            (900, Request::new(0, 3, 2)),
        ];
        let config = StreamConfig {
            arrival: ArrivalProcess::Trace(trace),
            horizon: 1000,
            ..StreamConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let stats = simulate(&net, &config, &mut rng);
        assert_eq!(stats.arrivals, 3);
        assert_eq!(stats.admitted + stats.dropped(), 3);
    }

    #[test]
    fn percentiles_interpolate_inclusively() {
        let stats = StreamStats {
            arrivals: 4,
            admitted: 4,
            completed: 4,
            failed: 0,
            deferred: 0,
            dropped_unroutable: 0,
            dropped_capacity: 0,
            dropped_pool: 0,
            end_time: 100,
            latencies: vec![10, 20, 30, 40],
        };
        assert_eq!(stats.latency_percentile(0.0), 10.0);
        assert_eq!(stats.latency_percentile(1.0), 40.0);
        assert_eq!(stats.latency_percentile(0.5), 25.0);
        assert_eq!(stats.requests_per_sec(), 40.0);
        assert_eq!(stats.drop_rate(), 0.0);
    }
}
