//! Network topology: users, switches, servers, and dual-channel optical
//! fibers (paper Sec. IV-A).

use serde::{Deserialize, Serialize};

/// Index of a node in a [`Network`].
pub type NodeId = usize;
/// Index of a fiber in a [`Network`].
pub type FiberId = usize;

/// The role of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Generates communication requests; encodes messages into surface
    /// codes. Cannot relay traffic or run error correction.
    User,
    /// Intermediate station: relays Support photons and generates entangled
    /// pairs for the Core channel.
    Switch,
    /// A switch with larger quantum memory that can additionally perform
    /// surface-code error correction when a complete code is present.
    Server,
}

impl NodeKind {
    /// Whether this node relays traffic (the paper's set `R`: switches
    /// including servers).
    pub fn is_relay(self) -> bool {
        matches!(self, NodeKind::Switch | NodeKind::Server)
    }
}

/// One network node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node's role.
    pub kind: NodeKind,
    /// Quantum memory capacity `η_r`: how many data qubits the node can
    /// hold per scheduling round. Users hold their own messages; their
    /// capacity is not a routing constraint.
    pub capacity: u32,
}

/// A bidirectional optical fiber with its two channels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fiber {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Fidelity `γ ∈ [0, 1]` of one traversal (Fig. 4's labels).
    pub fidelity: f64,
    /// Number of entangled pairs `η_e` prepared across this fiber per
    /// scheduling round (the entanglement-based channel's budget).
    pub entanglement_capacity: u32,
    /// Per-traversal photon-loss probability on the plain channel
    /// (erasure source for Support qubits).
    pub loss_prob: f64,
}

impl Fiber {
    /// The endpoint opposite `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint.
    pub fn other(&self, v: NodeId) -> NodeId {
        if v == self.a {
            self.b
        } else if v == self.b {
            self.a
        } else {
            // analyzer:allow(panic-site): documented contract — routes hand this method fibers already incident to v
            panic!("node {v} is not an endpoint of this fiber")
        }
    }

    /// The noise of one traversal, `μ = ln(1/γ)` (paper Sec. V-A).
    pub fn noise(&self) -> f64 {
        noise_of_fidelity(self.fidelity)
    }
}

/// The paper's fidelity-to-noise translation `μ = ln(1/γ)`, which turns
/// fidelity products into noise sums.
///
/// # Panics
///
/// Panics if `gamma` is outside `(0, 1]`.
pub fn noise_of_fidelity(gamma: f64) -> f64 {
    assert!(
        gamma > 0.0 && gamma <= 1.0,
        "fidelity {gamma} outside (0, 1]"
    );
    (1.0 / gamma).ln()
}

/// Inverse of [`noise_of_fidelity`].
pub fn fidelity_of_noise(mu: f64) -> f64 {
    (-mu).exp()
}

/// A connected quantum network.
///
/// # Examples
///
/// ```
/// use surfnet_netsim::{Network, NodeKind};
///
/// let mut net = Network::new();
/// let alice = net.add_node(NodeKind::User, 8);
/// let sw = net.add_node(NodeKind::Switch, 32);
/// let bob = net.add_node(NodeKind::User, 8);
/// net.add_fiber(alice, sw, 0.9, 4, 0.05)?;
/// net.add_fiber(sw, bob, 0.85, 4, 0.05)?;
/// assert!(net.is_connected());
/// # Ok::<(), surfnet_netsim::NetError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Network {
    nodes: Vec<Node>,
    fibers: Vec<Fiber>,
    adj: Vec<Vec<FiberId>>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, capacity: u32) -> NodeId {
        self.nodes.push(Node { kind, capacity });
        self.adj.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds a bidirectional fiber.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::InvalidFiber`] on self-loops, unknown endpoints,
    /// or fidelity/loss outside range.
    pub fn add_fiber(
        &mut self,
        a: NodeId,
        b: NodeId,
        fidelity: f64,
        entanglement_capacity: u32,
        loss_prob: f64,
    ) -> Result<FiberId, crate::NetError> {
        if a == b || a >= self.nodes.len() || b >= self.nodes.len() {
            return Err(crate::NetError::InvalidFiber);
        }
        if fidelity <= 0.0 || fidelity > 1.0 || !(0.0..=1.0).contains(&loss_prob) {
            return Err(crate::NetError::InvalidFiber);
        }
        let id = self.fibers.len();
        self.fibers.push(Fiber {
            a,
            b,
            fidelity,
            entanglement_capacity,
            loss_prob,
        });
        self.adj[a].push(id);
        self.adj[b].push(id);
        Ok(id)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of fibers.
    pub fn num_fibers(&self) -> usize {
        self.fibers.len()
    }

    /// Node `v`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node(&self, v: NodeId) -> &Node {
        &self.nodes[v]
    }

    /// Mutable access to node `v` (used by scenario sweeps to scale
    /// capacities).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node_mut(&mut self, v: NodeId) -> &mut Node {
        &mut self.nodes[v]
    }

    /// Fiber `f`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn fiber(&self, f: FiberId) -> &Fiber {
        &self.fibers[f]
    }

    /// Mutable access to fiber `f`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn fiber_mut(&mut self, f: FiberId) -> &mut Fiber {
        &mut self.fibers[f]
    }

    /// All fibers.
    pub fn fibers(&self) -> &[Fiber] {
        &self.fibers
    }

    /// Fibers incident to `v`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn incident(&self, v: NodeId) -> &[FiberId] {
        &self.adj[v]
    }

    /// Ids of all user nodes.
    pub fn users(&self) -> Vec<NodeId> {
        self.ids_of(|k| k == NodeKind::User)
    }

    /// Ids of all relay nodes (`R`: switches and servers).
    pub fn relays(&self) -> Vec<NodeId> {
        self.ids_of(NodeKind::is_relay)
    }

    /// Ids of server nodes (`RR`).
    pub fn servers(&self) -> Vec<NodeId> {
        self.ids_of(|k| k == NodeKind::Server)
    }

    fn ids_of(&self, pred: impl Fn(NodeKind) -> bool) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| pred(n.kind))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &f in &self.adj[v] {
                let u = self.fibers[f].other(v);
                if !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Minimum-noise path from `src` to `dst` (Dijkstra over `μ` weights).
    /// Returns the fiber sequence, or `None` if unreachable. To route many
    /// requests on one network, build a [`crate::planner::RoutePlanner`]
    /// once instead: it returns the same paths.
    pub fn min_noise_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<FiberId>> {
        self.shortest_path_by(src, dst, |f| self.fibers[f].noise())
    }

    /// Minimum-hop path from `src` to `dst`.
    pub fn min_hop_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<FiberId>> {
        self.shortest_path_by(src, dst, |_| 1.0)
    }

    /// Dijkstra with a custom non-negative cost per fiber id; a fiber of
    /// infinite cost is never crossed. Among equal-cost routes the choice
    /// is deterministic and shared with [`crate::planner::RoutePlanner`].
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn shortest_path_by(
        &self,
        src: NodeId,
        dst: NodeId,
        cost: impl Fn(FiberId) -> f64,
    ) -> Option<Vec<FiberId>> {
        crate::planner::shortest_path(self, src, dst, cost)
    }

    /// The end-to-end fidelity of traversing `path` once: `Π γᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if a fiber id is out of range.
    pub fn path_fidelity(&self, path: &[FiberId]) -> f64 {
        path.iter().map(|&f| self.fibers[f].fidelity).product()
    }

    /// The accumulated noise of `path`: `Σ μᵢ`.
    pub fn path_noise(&self, path: &[FiberId]) -> f64 {
        path.iter().map(|&f| self.fibers[f].noise()).sum()
    }

    /// The node sequence visited when walking `path` from `src`.
    ///
    /// # Panics
    ///
    /// Panics if the path is not a connected walk starting at `src`.
    pub fn walk(&self, src: NodeId, path: &[FiberId]) -> Vec<NodeId> {
        let mut nodes = vec![src];
        let mut cur = src;
        for &f in path {
            cur = self.fibers[f].other(cur);
            nodes.push(cur);
        }
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Network {
        // A(u) - S1 - S2(server) - B(u), plus shortcut A - S2 (low fidelity).
        let mut net = Network::new();
        let a = net.add_node(NodeKind::User, 8);
        let s1 = net.add_node(NodeKind::Switch, 16);
        let s2 = net.add_node(NodeKind::Server, 32);
        let b = net.add_node(NodeKind::User, 8);
        net.add_fiber(a, s1, 0.95, 4, 0.02).unwrap();
        net.add_fiber(s1, s2, 0.95, 4, 0.02).unwrap();
        net.add_fiber(s2, b, 0.95, 4, 0.02).unwrap();
        net.add_fiber(a, s2, 0.70, 4, 0.02).unwrap();
        net
    }

    #[test]
    fn kinds_and_sets() {
        let net = sample();
        assert_eq!(net.users(), vec![0, 3]);
        assert_eq!(net.relays(), vec![1, 2]);
        assert_eq!(net.servers(), vec![2]);
        assert!(NodeKind::Server.is_relay());
        assert!(!NodeKind::User.is_relay());
    }

    #[test]
    fn fiber_validation() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::User, 1);
        let b = net.add_node(NodeKind::User, 1);
        assert!(net.add_fiber(a, a, 0.9, 1, 0.0).is_err());
        assert!(net.add_fiber(a, 7, 0.9, 1, 0.0).is_err());
        assert!(net.add_fiber(a, b, 0.0, 1, 0.0).is_err());
        assert!(net.add_fiber(a, b, 1.1, 1, 0.0).is_err());
        assert!(net.add_fiber(a, b, 0.9, 1, 1.5).is_err());
        assert!(net.add_fiber(a, b, 0.9, 1, 0.1).is_ok());
    }

    #[test]
    fn noise_translation_roundtrip() {
        for gamma in [0.5, 0.75, 0.9, 1.0] {
            let mu = noise_of_fidelity(gamma);
            assert!((fidelity_of_noise(mu) - gamma).abs() < 1e-12);
        }
        assert_eq!(noise_of_fidelity(1.0), 0.0);
    }

    #[test]
    fn min_noise_path_avoids_bad_shortcut() {
        let net = sample();
        // Direct A-S2 has noise ln(1/0.7) ≈ 0.357; two-hop has
        // 2*ln(1/0.95) ≈ 0.103. Dijkstra must take the two-hop route.
        let path = net.min_noise_path(0, 2).unwrap();
        assert_eq!(path, vec![0, 1]);
        // Min-hop takes the shortcut.
        let hops = net.min_hop_path(0, 2).unwrap();
        assert_eq!(hops, vec![3]);
    }

    #[test]
    fn path_fidelity_and_noise_agree() {
        let net = sample();
        let path = net.min_noise_path(0, 3).unwrap();
        let f = net.path_fidelity(&path);
        let mu = net.path_noise(&path);
        assert!((fidelity_of_noise(mu) - f).abs() < 1e-12);
        assert!((f - 0.95f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn walk_reconstructs_node_sequence() {
        let net = sample();
        let path = net.min_noise_path(0, 3).unwrap();
        assert_eq!(net.walk(0, &path), vec![0, 1, 2, 3]);
    }

    #[test]
    fn connectivity_detection() {
        let mut net = sample();
        assert!(net.is_connected());
        let lonely = net.add_node(NodeKind::User, 1);
        assert!(!net.is_connected());
        net.add_fiber(lonely, 0, 0.9, 1, 0.0).unwrap();
        assert!(net.is_connected());
    }
}
