//! Single-source shortest paths over a decoding graph.
//!
//! Algorithm 1 interconnects syndromes via shortest paths in the decoding
//! graph, with edge weights `w = −ln(1 − ρ)` adjusted per sample for
//! erasures. Weights are non-negative, so Dijkstra with a binary heap is
//! exact.

use crate::graph::DecodingGraph;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Shortest-path tree from one source vertex.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: usize,
    dist: Vec<f64>,
    /// Edge used to reach each vertex (`usize::MAX` = unreached/source).
    via_edge: Vec<usize>,
}

const NONE: usize = usize::MAX;

#[derive(Debug, PartialEq)]
struct HeapItem {
    dist: f64,
    vertex: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order for a min-heap; distances are finite and non-NaN.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable buffers for [`ShortestPaths::recompute`]: the settled-vertex
/// flags and the binary heap, cleared in place per run.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    done: Vec<bool>,
    heap: BinaryHeap<HeapItem>,
}

impl ShortestPaths {
    /// Runs Dijkstra from `source` with per-sample erasure flags.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `erased` does not have one
    /// flag per edge.
    pub fn compute(graph: &DecodingGraph, source: usize, erased: &[bool]) -> ShortestPaths {
        let mut sp = ShortestPaths::empty();
        sp.recompute(graph, source, erased, &mut DijkstraScratch::default());
        sp
    }

    /// An unused tree (no vertices); fill it with [`Self::recompute`].
    pub fn empty() -> ShortestPaths {
        ShortestPaths {
            source: 0,
            dist: Vec::new(),
            via_edge: Vec::new(),
        }
    }

    /// Re-runs Dijkstra in place, reusing this tree's vectors and the
    /// caller's `scratch` buffers. Produces exactly the same tree as
    /// [`Self::compute`].
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `erased` does not have one
    /// flag per edge.
    pub fn recompute(
        &mut self,
        graph: &DecodingGraph,
        source: usize,
        erased: &[bool],
        scratch: &mut DijkstraScratch,
    ) {
        assert!(source < graph.num_vertices(), "source out of range");
        assert_eq!(erased.len(), graph.num_edges());
        let n = graph.num_vertices();
        self.source = source;
        let dist = &mut self.dist;
        let via_edge = &mut self.via_edge;
        dist.clear();
        dist.resize(n, f64::INFINITY);
        via_edge.clear();
        via_edge.resize(n, NONE);
        let done = &mut scratch.done;
        done.clear();
        done.resize(n, false);
        let heap = &mut scratch.heap;
        heap.clear();
        dist[source] = 0.0;
        heap.push(HeapItem {
            dist: 0.0,
            vertex: source,
        });
        let mut relaxations = 0u64;
        while let Some(HeapItem { dist: d, vertex: v }) = heap.pop() {
            if done[v] {
                continue;
            }
            done[v] = true;
            for (&ei, &u) in graph.incident(v).iter().zip(graph.neighbors(v)) {
                let nd = d + graph.sample_weight(ei, erased);
                if nd < dist[u] {
                    dist[u] = nd;
                    via_edge[u] = ei;
                    relaxations += 1;
                    heap.push(HeapItem {
                        dist: nd,
                        vertex: u,
                    });
                }
            }
        }
        surfnet_telemetry::count!("decoder.dijkstra_relaxations", relaxations);
    }

    /// The source vertex.
    pub fn source(&self) -> usize {
        self.source
    }

    /// Distance from the source to `v` (`f64::INFINITY` if unreachable).
    pub fn dist(&self, v: usize) -> f64 {
        self.dist[v]
    }

    /// The edges of the shortest path from the source to `target`, or
    /// `None` if `target` is unreachable.
    pub fn path_edges(&self, graph: &DecodingGraph, target: usize) -> Option<Vec<usize>> {
        if self.dist[target].is_infinite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut v = target;
        while v != self.source {
            let ei = self.via_edge[v];
            debug_assert_ne!(ei, NONE);
            edges.push(ei);
            v = graph.edge(ei).other(v);
        }
        edges.reverse();
        Some(edges)
    }

    /// Calls `f` for every edge on the shortest path from the source to
    /// `target` (target-to-source order); returns `false` when `target` is
    /// unreachable. Allocation-free counterpart of [`Self::path_edges`] for
    /// callers that only fold over the edge set.
    pub fn for_each_path_edge(
        &self,
        graph: &DecodingGraph,
        target: usize,
        mut f: impl FnMut(usize),
    ) -> bool {
        if self.dist[target].is_infinite() {
            return false;
        }
        let mut v = target;
        while v != self.source {
            let ei = self.via_edge[v];
            debug_assert_ne!(ei, NONE);
            f(ei);
            v = graph.edge(ei).other(v);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DecodingGraph, GraphEdge};

    /// A path graph 0 - 1 - 2 - 3(boundary) with fidelities giving weights
    /// ln(10) each (rho = 0.9).
    fn line() -> DecodingGraph {
        DecodingGraph::from_edges(
            3,
            vec![
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
                    a: 2,
                    b: 3,
                    qubit: 2,
                    fidelity: 0.9,
                },
            ],
        )
    }

    #[test]
    fn distances_accumulate_along_line() {
        let g = line();
        let erased = vec![false; 3];
        let sp = ShortestPaths::compute(&g, 0, &erased);
        let w = -(0.1f64).ln();
        assert!((sp.dist(1) - w).abs() < 1e-12);
        assert!((sp.dist(2) - 2.0 * w).abs() < 1e-12);
        assert!((sp.dist(3) - 3.0 * w).abs() < 1e-12);
    }

    #[test]
    fn path_edges_reconstruct() {
        let g = line();
        let erased = vec![false; 3];
        let sp = ShortestPaths::compute(&g, 0, &erased);
        assert_eq!(sp.path_edges(&g, 2).unwrap(), vec![0, 1]);
        assert_eq!(sp.path_edges(&g, 0).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn erasures_reroute_shortest_paths() {
        // Triangle 0-1 direct (high fidelity = heavy) vs 0-2-1 (erased =
        // light): erasing the two-hop route should beat the direct edge.
        let g = DecodingGraph::from_edges(
            3,
            vec![
                GraphEdge {
                    a: 0,
                    b: 1,
                    qubit: 0,
                    fidelity: 0.9,
                },
                GraphEdge {
                    a: 0,
                    b: 2,
                    qubit: 1,
                    fidelity: 0.9,
                },
                GraphEdge {
                    a: 2,
                    b: 1,
                    qubit: 2,
                    fidelity: 0.9,
                },
            ],
        );
        let no_erasure = vec![false; 3];
        let sp = ShortestPaths::compute(&g, 0, &no_erasure);
        assert_eq!(sp.path_edges(&g, 1).unwrap(), vec![0]);

        let erased = vec![false, true, true];
        let sp = ShortestPaths::compute(&g, 0, &erased);
        // Two erased edges: 2 * ln 2 ≈ 1.386 < ln 10 ≈ 2.303.
        assert_eq!(sp.path_edges(&g, 1).unwrap(), vec![1, 2]);
    }

    #[test]
    fn unreachable_vertex_reports_none() {
        let g = DecodingGraph::from_edges(
            3,
            vec![GraphEdge {
                a: 0,
                b: 1,
                qubit: 0,
                fidelity: 0.9,
            }],
        );
        let sp = ShortestPaths::compute(&g, 0, &[false]);
        assert!(sp.path_edges(&g, 2).is_none());
        assert!(sp.dist(2).is_infinite());
    }
}
