//! Weighted decoding graphs (paper Sec. IV-C).
//!
//! Each surface code is decoded as a graph `G = {V, E, W}`: vertices are
//! measurement qubits of one kind, each edge is a data qubit, and weights
//! derive from the per-qubit estimated fidelities. A single *virtual
//! boundary vertex* (index [`DecodingGraph::boundary`]) absorbs all edges
//! that terminate on the code boundary; decoders may connect syndromes to it
//! instead of pairing them.

use crate::weights::{edge_weight, erasure_weight, ERASURE_FIDELITY};
use surfnet_lattice::rotated::RotatedSurfaceCode;
use surfnet_lattice::{CssCode, EdgeEnd, ErrorModel, SurfaceCode};

/// Which of the two CSS decoding problems a graph represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Vertices are measure-Z qubits; edges carry X-type error components.
    Primal,
    /// Vertices are measure-X qubits; edges carry Z-type error components.
    Dual,
}

/// One edge of a decoding graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphEdge {
    /// First endpoint (vertex index; may be the boundary vertex).
    pub a: usize,
    /// Second endpoint (vertex index; may be the boundary vertex).
    pub b: usize,
    /// The data qubit this edge represents, as an index the caller
    /// understands (for code-derived graphs, the data qubit index).
    pub qubit: usize,
    /// Estimated fidelity `ρ` of the data qubit (before any erasure).
    pub fidelity: f64,
}

impl GraphEdge {
    /// The endpoint opposite to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of this edge.
    pub fn other(&self, v: usize) -> usize {
        if v == self.a {
            self.b
        } else if v == self.b {
            self.a
        } else {
            // analyzer:allow(panic-site): documented contract — callers iterate incident edges, so v is always an endpoint
            panic!("vertex {v} is not an endpoint of edge {self:?}")
        }
    }
}

/// A weighted decoding graph with a single virtual boundary vertex.
///
/// Vertices `0 .. num_checks` are measurement qubits; vertex
/// [`DecodingGraph::boundary`] (== `num_checks`) is the virtual boundary.
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    num_checks: usize,
    edges: Vec<GraphEdge>,
    /// Flat (CSR) adjacency: vertex `v`'s incidences occupy
    /// `offsets[v] .. offsets[v + 1]` of `incident` / `neighbor`
    /// (boundary included as the last vertex).
    offsets: Vec<usize>,
    /// Incident edge indices, ascending within each vertex.
    incident: Vec<usize>,
    /// `neighbor[i]` is the endpoint of edge `incident[i]` opposite the
    /// vertex that owns slot `i` (the vertex itself for a self-loop).
    neighbor: Vec<usize>,
}

impl DecodingGraph {
    /// Builds a graph from explicit edges over `num_checks` check vertices.
    ///
    /// Use vertex index `num_checks` for the boundary. Intended for tests
    /// and for custom geometries; code-derived graphs come from
    /// [`DecodingGraph::from_code`].
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex beyond the boundary index or a
    /// fidelity outside `[0, 1]`.
    pub fn from_edges(num_checks: usize, edges: Vec<GraphEdge>) -> DecodingGraph {
        // Degree count, inclusive prefix sum (so `offsets[v]` is the end of
        // `v`'s run), then one fill pass over the edges in reverse that
        // walks each `offsets[v]` back to the start of its run: every
        // vertex lists its edges in ascending index order, with no
        // per-vertex buffer. A self-loop is listed once.
        let nv = num_checks + 1;
        let mut offsets = vec![0usize; nv + 1];
        for e in &edges {
            assert!(
                e.a <= num_checks && e.b <= num_checks,
                "edge endpoint out of range: {e:?}"
            );
            assert!(
                (0.0..=1.0).contains(&e.fidelity),
                "edge fidelity outside [0,1]: {e:?}"
            );
            offsets[e.a] += 1;
            if e.b != e.a {
                offsets[e.b] += 1;
            }
        }
        for v in 1..=nv {
            offsets[v] += offsets[v - 1];
        }
        let total = offsets[nv];
        let mut incident = vec![0usize; total];
        let mut neighbor = vec![0usize; total];
        for (i, e) in edges.iter().enumerate().rev() {
            offsets[e.a] -= 1;
            incident[offsets[e.a]] = i;
            neighbor[offsets[e.a]] = e.b;
            if e.b != e.a {
                offsets[e.b] -= 1;
                incident[offsets[e.b]] = i;
                neighbor[offsets[e.b]] = e.a;
            }
        }
        DecodingGraph {
            num_checks,
            edges,
            offsets,
            incident,
            neighbor,
        }
    }

    /// Builds the primal or dual decoding graph of any [`CssCode`], taking
    /// per-qubit estimated fidelities from `model`
    /// (`ρ = 1 − p_pauli`, paper Sec. IV-C).
    pub fn from_css<C: CssCode + ?Sized>(
        code: &C,
        model: &ErrorModel,
        kind: GraphKind,
    ) -> DecodingGraph {
        let num_checks = match kind {
            GraphKind::Primal => code.num_measure_z(),
            GraphKind::Dual => code.num_measure_x(),
        };
        let boundary = num_checks;
        let to_vertex = |end: EdgeEnd| match end {
            EdgeEnd::Check(i) => i,
            EdgeEnd::Boundary(_) => boundary,
        };
        let edges = (0..code.num_data_qubits())
            .map(|q| {
                let (a, b) = match kind {
                    GraphKind::Primal => code.z_edge(q),
                    GraphKind::Dual => code.x_edge(q),
                };
                GraphEdge {
                    a: to_vertex(a),
                    b: to_vertex(b),
                    qubit: q,
                    fidelity: model.estimated_fidelity(q),
                }
            })
            .collect();
        DecodingGraph::from_edges(num_checks, edges)
    }

    /// Builds the primal or dual decoding graph of an unrotated planar
    /// surface code (convenience wrapper over [`DecodingGraph::from_css`]).
    pub fn from_code(code: &SurfaceCode, model: &ErrorModel, kind: GraphKind) -> DecodingGraph {
        DecodingGraph::from_css(code, model, kind)
    }

    /// Builds the primal or dual decoding graph of a **rotated** surface
    /// code (the paper's 25-qubit sizing example family).
    pub fn from_rotated(
        code: &RotatedSurfaceCode,
        model: &ErrorModel,
        kind: GraphKind,
    ) -> DecodingGraph {
        DecodingGraph::from_css(code, model, kind)
    }

    /// Number of check (non-boundary) vertices.
    pub fn num_checks(&self) -> usize {
        self.num_checks
    }

    /// Index of the virtual boundary vertex.
    pub fn boundary(&self) -> usize {
        self.num_checks
    }

    /// Total number of vertices including the boundary.
    pub fn num_vertices(&self) -> usize {
        self.num_checks + 1
    }

    /// All edges.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// Edge `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn edge(&self, i: usize) -> &GraphEdge {
        &self.edges[i]
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edge indices incident to vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn incident(&self, v: usize) -> &[usize] {
        &self.incident[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The endpoint opposite `v` of each edge in [`Self::incident`]`(v)`,
    /// slot for slot (so `neighbors(v)[i] == edge(incident(v)[i]).other(v)`
    /// without the endpoint comparison).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.neighbor[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The weight of edge `i` for a sample where `erased[i]` flags erasure:
    /// erased edges use `ρ = 0.5`, others the stored fidelity.
    ///
    /// # Panics
    ///
    /// Panics if `erased` does not have one flag per edge.
    pub fn sample_weight(&self, i: usize, erased: &[bool]) -> f64 {
        assert_eq!(erased.len(), self.edges.len());
        if erased[i] {
            erasure_weight()
        } else {
            edge_weight(self.edges[i].fidelity)
        }
    }

    /// The effective fidelity of edge `i` under the erasure flags.
    pub fn sample_fidelity(&self, i: usize, erased: &[bool]) -> f64 {
        if erased[i] {
            ERASURE_FIDELITY
        } else {
            self.edges[i].fidelity
        }
    }

    /// Whether the graph has any edge touching the boundary vertex.
    pub fn has_boundary_edges(&self) -> bool {
        !self.incident(self.boundary()).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfnet_lattice::{ErrorModel, SurfaceCode};

    fn graphs_for(d: usize) -> (SurfaceCode, DecodingGraph, DecodingGraph) {
        let code = SurfaceCode::new(d).unwrap();
        let model = ErrorModel::uniform(&code, 0.1, 0.0);
        let primal = DecodingGraph::from_code(&code, &model, GraphKind::Primal);
        let dual = DecodingGraph::from_code(&code, &model, GraphKind::Dual);
        (code, primal, dual)
    }

    #[test]
    fn code_graphs_have_one_edge_per_data_qubit() {
        let (code, primal, dual) = graphs_for(5);
        assert_eq!(primal.num_edges(), code.num_data_qubits());
        assert_eq!(dual.num_edges(), code.num_data_qubits());
        assert_eq!(primal.num_checks(), code.num_measure_z());
        assert_eq!(dual.num_checks(), code.num_measure_x());
    }

    #[test]
    fn boundary_degree_matches_rim_qubits() {
        // The primal graph's boundary absorbs the 2d top/bottom row data
        // qubits (d each).
        let (code, primal, dual) = graphs_for(5);
        let d = code.distance();
        assert_eq!(primal.incident(primal.boundary()).len(), 2 * d);
        assert_eq!(dual.incident(dual.boundary()).len(), 2 * d);
    }

    #[test]
    fn check_degrees_match_geometry() {
        // Measure-Z qubits in the leftmost/rightmost columns have 3
        // incident data qubits; all others have 4. There are 2(d−1) such
        // rim checks.
        let (code, primal, _) = graphs_for(5);
        let d = code.distance();
        let mut three = 0;
        let mut four = 0;
        for v in 0..primal.num_checks() {
            match primal.incident(v).len() {
                3 => three += 1,
                4 => four += 1,
                deg => panic!("unexpected check degree {deg}"),
            }
        }
        assert_eq!(three, 2 * (d - 1));
        assert_eq!(four, primal.num_checks() - 2 * (d - 1));
    }

    #[test]
    fn erasure_overrides_weight() {
        let (_, primal, _) = graphs_for(3);
        let mut erased = vec![false; primal.num_edges()];
        let w_clean = primal.sample_weight(0, &erased);
        erased[0] = true;
        let w_erased = primal.sample_weight(0, &erased);
        assert!((w_erased - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(w_clean > w_erased); // fidelity 0.9 > 0.5
    }

    #[test]
    fn from_edges_builds_adjacency() {
        let edges = vec![
            GraphEdge {
                a: 0,
                b: 1,
                qubit: 0,
                fidelity: 0.9,
            },
            GraphEdge {
                a: 1,
                b: 2,
                qubit: 1,
                fidelity: 0.9,
            },
            GraphEdge {
                a: 0,
                b: 3,
                qubit: 2,
                fidelity: 0.8,
            }, // boundary edge
        ];
        let g = DecodingGraph::from_edges(3, edges);
        assert_eq!(g.incident(0), &[0, 2]);
        assert_eq!(g.incident(1), &[0, 1]);
        assert_eq!(g.boundary(), 3);
        assert!(g.has_boundary_edges());
    }

    /// The adjacency as the per-vertex `Vec` build used to produce it:
    /// each edge pushed onto its endpoints' lists in index order, a
    /// self-loop once.
    fn reference_adjacency(g: &DecodingGraph) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); g.num_vertices()];
        for (i, e) in g.edges().iter().enumerate() {
            adj[e.a].push(i);
            if e.b != e.a {
                adj[e.b].push(i);
            }
        }
        adj
    }

    /// Checks the CSR arrays against the reference adjacency and
    /// [`GraphEdge::other`], and `has_boundary_edges` against the edges.
    fn assert_csr_consistent(g: &DecodingGraph) {
        let reference = reference_adjacency(g);
        for v in 0..g.num_vertices() {
            assert_eq!(g.incident(v), reference[v].as_slice(), "vertex {v}");
            assert!(g.incident(v).windows(2).all(|w| w[0] < w[1]));
            assert_eq!(g.neighbors(v).len(), g.incident(v).len());
            for (&e, &u) in g.incident(v).iter().zip(g.neighbors(v)) {
                assert_eq!(u, g.edge(e).other(v), "edge {e} at vertex {v}");
            }
        }
        let touches_boundary = g
            .edges()
            .iter()
            .any(|e| e.a == g.boundary() || e.b == g.boundary());
        assert_eq!(g.has_boundary_edges(), touches_boundary);
    }

    #[test]
    fn csr_adjacency_matches_reference_on_code_graphs() {
        for d in [3, 5, 9] {
            let (_, primal, dual) = graphs_for(d);
            assert_csr_consistent(&primal);
            assert_csr_consistent(&dual);
            let rotated = RotatedSurfaceCode::new(d).unwrap();
            let model = ErrorModel::uniform_len(rotated.num_data_qubits(), 0.1, 0.0);
            for kind in [GraphKind::Primal, GraphKind::Dual] {
                assert_csr_consistent(&DecodingGraph::from_rotated(&rotated, &model, kind));
            }
        }
    }

    #[test]
    fn csr_adjacency_from_edges_handles_self_loops_and_isolated_vertices() {
        let edge = |a, b, qubit| GraphEdge {
            a,
            b,
            qubit,
            fidelity: 0.9,
        };
        // Vertex 2 carries a self-loop between its other edges; vertex 3
        // is isolated; edges are listed out of vertex order.
        let g = DecodingGraph::from_edges(
            4,
            vec![
                edge(1, 2, 0),
                edge(0, 4, 1),
                edge(2, 2, 2),
                edge(0, 1, 3),
                edge(2, 0, 4),
            ],
        );
        assert_csr_consistent(&g);
        assert_eq!(g.incident(2), &[0, 2, 4]);
        assert_eq!(g.neighbors(2), &[1, 2, 0]);
        assert_eq!(g.incident(0), &[1, 3, 4]);
        assert_eq!(g.neighbors(0), &[4, 1, 2]);
        assert!(g.incident(3).is_empty());
        assert!(g.has_boundary_edges());
        let no_boundary = DecodingGraph::from_edges(2, vec![edge(0, 1, 0), edge(1, 1, 1)]);
        assert_csr_consistent(&no_boundary);
        assert!(!no_boundary.has_boundary_edges());
        assert_csr_consistent(&DecodingGraph::from_edges(3, Vec::new()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_bad_vertex() {
        DecodingGraph::from_edges(
            2,
            vec![GraphEdge {
                a: 0,
                b: 5,
                qubit: 0,
                fidelity: 0.9,
            }],
        );
    }

    #[test]
    fn edge_other_endpoint() {
        let e = GraphEdge {
            a: 3,
            b: 7,
            qubit: 0,
            fidelity: 0.5,
        };
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }
}
