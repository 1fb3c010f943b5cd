//! Road network constraining UGV movement.
//!
//! The paper (§III-A): "UGV movement is restricted by the roadmap … each UGV
//! can move to a destination only if the shortest path length between the
//! current position and the destination does not exceed the maximum moving
//! range (τ_move · v^UGV_max)". This module provides the graph, Dijkstra
//! shortest paths, and the budget-limited walk used to execute a UGV action.

use crate::point::Point;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Node identifier inside a [`RoadNetwork`].
pub type NodeId = usize;

/// Why a road-network mutation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoadNetworkError {
    /// The node position contained NaN or ±∞.
    NonFiniteNode,
    /// An edge endpoint does not name an existing node.
    EndpointOutOfRange {
        /// The offending node id.
        id: NodeId,
        /// Number of nodes in the network.
        nodes: usize,
    },
    /// Both edge endpoints are the same node.
    SelfLoop(NodeId),
}

impl fmt::Display for RoadNetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoadNetworkError::NonFiniteNode => write!(f, "road node must be finite"),
            RoadNetworkError::EndpointOutOfRange { id, nodes } => {
                write!(f, "edge endpoint {id} out of range (network has {nodes} nodes)")
            }
            RoadNetworkError::SelfLoop(id) => {
                write!(f, "self-loop roads are meaningless (node {id})")
            }
        }
    }
}

impl std::error::Error for RoadNetworkError {}

/// An undirected road graph with Euclidean edge weights.
///
/// ```
/// use agsc_geo::{Point, RoadNetwork};
/// let mut net = RoadNetwork::new();
/// let a = net.add_node(Point::new(0.0, 0.0));
/// let b = net.add_node(Point::new(30.0, 0.0));
/// let c = net.add_node(Point::new(30.0, 40.0));
/// net.add_edge(a, b);
/// net.add_edge(b, c);
/// // Shortest a→c follows the roads: 30 + 40 = 70 m (not the 50 m diagonal).
/// assert_eq!(net.shortest_path(a, c).unwrap().length, 70.0);
/// // A 45 m walk towards c stops partway up the second leg.
/// let stop = net.walk_towards(&Point::new(0.0, 0.0), &Point::new(30.0, 40.0), 45.0);
/// assert!((stop.position.y - 15.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<Point>,
    /// Adjacency list: `adj[u] = [(v, length), ...]`.
    adj: Vec<Vec<(NodeId, f64)>>,
}

/// A shortest path: sequence of node ids plus total length in metres.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Visited nodes, source first.
    pub nodes: Vec<NodeId>,
    /// Total length in metres.
    pub length: f64,
}

/// Outcome of walking a path with a limited distance budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkResult {
    /// Where the walk stopped.
    pub position: Point,
    /// Distance actually travelled (≤ budget).
    pub travelled: f64,
    /// Nearest node to the stop position (for subsequent snapping).
    pub nearest_node: NodeId,
}

impl RoadNetwork {
    /// Empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node, returning its id.
    ///
    /// # Panics
    /// Panics on a non-finite position; use [`RoadNetwork::try_add_node`] for
    /// a recoverable error.
    pub fn add_node(&mut self, p: Point) -> NodeId {
        match self.try_add_node(p) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`RoadNetwork::add_node`] for untrusted (loaded) data.
    pub fn try_add_node(&mut self, p: Point) -> Result<NodeId, RoadNetworkError> {
        if !p.is_finite() {
            return Err(RoadNetworkError::NonFiniteNode);
        }
        self.nodes.push(p);
        self.adj.push(Vec::new());
        Ok(self.nodes.len() - 1)
    }

    /// Add an undirected edge with Euclidean length.
    ///
    /// # Panics
    /// Panics on out-of-range ids or self-loops; use
    /// [`RoadNetwork::try_add_edge`] for a recoverable error.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        if let Err(e) = self.try_add_edge(a, b) {
            panic!("{e}");
        }
    }

    /// Fallible [`RoadNetwork::add_edge`] for untrusted (loaded) data.
    /// Duplicate edges are ignored, as in `add_edge`.
    pub fn try_add_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), RoadNetworkError> {
        for id in [a, b] {
            if id >= self.nodes.len() {
                return Err(RoadNetworkError::EndpointOutOfRange { id, nodes: self.nodes.len() });
            }
        }
        if a == b {
            return Err(RoadNetworkError::SelfLoop(a));
        }
        let len = self.nodes[a].dist(&self.nodes[b]);
        if !self.adj[a].iter().any(|&(v, _)| v == b) {
            self.adj[a].push((b, len));
            self.adj[b].push((a, len));
        }
        Ok(())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Position of node `id`.
    pub fn node(&self, id: NodeId) -> Point {
        self.nodes[id]
    }

    /// All node positions.
    pub fn nodes(&self) -> &[Point] {
        &self.nodes
    }

    /// Adjacency of node `id` as `(neighbor, edge length)`.
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, f64)] {
        &self.adj[id]
    }

    /// Id of the node closest to `p` (linear scan; road graphs here are small).
    ///
    /// # Panics
    /// Panics if the network has no nodes.
    pub fn nearest_node(&self, p: &Point) -> NodeId {
        assert!(!self.nodes.is_empty(), "nearest_node on empty network");
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, n) in self.nodes.iter().enumerate() {
            let d = n.dist_sq(p);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Single-source Dijkstra; returns per-node distance (∞ if unreachable)
    /// and predecessor array.
    pub fn dijkstra(&self, source: NodeId) -> (Vec<f64>, Vec<Option<NodeId>>) {
        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[source] = 0.0;
        heap.push(HeapEntry { cost: 0.0, node: source });
        while let Some(HeapEntry { cost, node }) = heap.pop() {
            if cost > dist[node] {
                continue;
            }
            for &(next, w) in &self.adj[node] {
                let nd = cost + w;
                if nd < dist[next] {
                    dist[next] = nd;
                    prev[next] = Some(node);
                    heap.push(HeapEntry { cost: nd, node: next });
                }
            }
        }
        (dist, prev)
    }

    /// Shortest path between two nodes, or `None` if disconnected.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Path> {
        if from == to {
            return Some(Path { nodes: vec![from], length: 0.0 });
        }
        let (dist, prev) = self.dijkstra(from);
        if !dist[to].is_finite() {
            return None;
        }
        let mut nodes = vec![to];
        let mut cur = to;
        while let Some(p) = prev[cur] {
            nodes.push(p);
            cur = p;
            if cur == from {
                break;
            }
        }
        nodes.reverse();
        Some(Path { nodes, length: dist[to] })
    }

    /// Shortest-path length between two nodes (∞ if disconnected).
    pub fn path_length(&self, from: NodeId, to: NodeId) -> f64 {
        self.dijkstra(from).0[to]
    }

    /// Execute a UGV move: walk the shortest path from the node nearest
    /// `start` towards the node nearest `target`, stopping after `budget`
    /// metres (possibly mid-edge).
    ///
    /// Returns the final position; if `target`'s nearest node is unreachable,
    /// the UGV stays put.
    pub fn walk_towards(&self, start: &Point, target: &Point, budget: f64) -> WalkResult {
        let s = self.nearest_node(start);
        let t = self.nearest_node(target);
        let Some(path) = self.shortest_path(s, t) else {
            return WalkResult { position: self.nodes[s], travelled: 0.0, nearest_node: s };
        };
        if budget <= 0.0 || path.nodes.len() == 1 {
            return WalkResult { position: self.nodes[s], travelled: 0.0, nearest_node: s };
        }
        let mut remaining = budget.min(path.length);
        let mut travelled = 0.0;
        let mut pos = self.nodes[path.nodes[0]];
        let mut nearest = path.nodes[0];
        for w in path.nodes.windows(2) {
            let (a, b) = (w[0], w[1]);
            let seg = self.nodes[a].dist(&self.nodes[b]);
            if remaining >= seg {
                remaining -= seg;
                travelled += seg;
                pos = self.nodes[b];
                nearest = b;
            } else {
                let t_frac = if seg > 0.0 { remaining / seg } else { 0.0 };
                pos = self.nodes[a].lerp(&self.nodes[b], t_frac);
                travelled += remaining;
                nearest = if t_frac > 0.5 { b } else { a };
                break;
            }
        }
        WalkResult { position: pos, travelled, nearest_node: nearest }
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let (dist, _) = self.dijkstra(0);
        dist.iter().all(|d| d.is_finite())
    }
}

/// Min-heap entry (BinaryHeap is a max-heap, so ordering is reversed).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3×3 grid of nodes spaced 10 m apart, 4-connected.
    fn grid3x3() -> RoadNetwork {
        let mut net = RoadNetwork::new();
        for y in 0..3 {
            for x in 0..3 {
                net.add_node(Point::new(x as f64 * 10.0, y as f64 * 10.0));
            }
        }
        for y in 0..3 {
            for x in 0..3 {
                let id = y * 3 + x;
                if x + 1 < 3 {
                    net.add_edge(id, id + 1);
                }
                if y + 1 < 3 {
                    net.add_edge(id, id + 3);
                }
            }
        }
        net
    }

    #[test]
    fn counts() {
        let net = grid3x3();
        assert_eq!(net.node_count(), 9);
        assert_eq!(net.edge_count(), 12);
        assert!(net.is_connected());
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(1.0, 0.0));
        net.add_edge(a, b);
        net.add_edge(a, b);
        net.add_edge(b, a);
        assert_eq!(net.edge_count(), 1);
    }

    #[test]
    fn shortest_path_manhattan_on_grid() {
        let net = grid3x3();
        // corner (0) to opposite corner (8): manhattan = 40 m
        let p = net.shortest_path(0, 8).unwrap();
        assert!((p.length - 40.0).abs() < 1e-9);
        assert_eq!(p.nodes.first(), Some(&0));
        assert_eq!(p.nodes.last(), Some(&8));
        // path must follow adjacent grid nodes
        for w in p.nodes.windows(2) {
            assert!(net.neighbors(w[0]).iter().any(|&(v, _)| v == w[1]));
        }
    }

    #[test]
    fn trivial_path_is_zero_length() {
        let net = grid3x3();
        let p = net.shortest_path(4, 4).unwrap();
        assert_eq!(p.length, 0.0);
        assert_eq!(p.nodes, vec![4]);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut net = grid3x3();
        let island = net.add_node(Point::new(500.0, 500.0));
        assert!(net.shortest_path(0, island).is_none());
        assert!(!net.is_connected());
        assert!(!net.path_length(0, island).is_finite());
    }

    #[test]
    fn nearest_node_snaps() {
        let net = grid3x3();
        let id = net.nearest_node(&Point::new(11.0, 1.0));
        assert_eq!(id, 1); // node at (10, 0)
    }

    #[test]
    fn walk_stops_mid_edge_when_budget_small() {
        let net = grid3x3();
        let r = net.walk_towards(&Point::new(0.0, 0.0), &Point::new(20.0, 0.0), 16.0);
        assert!((r.travelled - 16.0).abs() < 1e-9);
        assert!((r.position.x - 16.0).abs() < 1e-9);
        assert!(r.position.y.abs() < 1e-9);
        assert_eq!(r.nearest_node, 2); // past midpoint of the second segment
    }

    #[test]
    fn walk_reaches_target_with_big_budget() {
        let net = grid3x3();
        let r = net.walk_towards(&Point::new(0.0, 0.0), &Point::new(20.0, 20.0), 1e9);
        assert!((r.travelled - 40.0).abs() < 1e-9);
        assert_eq!(r.position, Point::new(20.0, 20.0));
    }

    #[test]
    fn walk_zero_budget_stays() {
        let net = grid3x3();
        let r = net.walk_towards(&Point::new(0.0, 0.0), &Point::new(20.0, 20.0), 0.0);
        assert_eq!(r.travelled, 0.0);
        assert_eq!(r.position, Point::new(0.0, 0.0));
    }

    #[test]
    fn walk_to_unreachable_target_stays() {
        let mut net = grid3x3();
        net.add_node(Point::new(500.0, 500.0)); // island, no edges
        let r = net.walk_towards(&Point::new(0.0, 0.0), &Point::new(499.0, 499.0), 100.0);
        assert_eq!(r.travelled, 0.0);
        assert_eq!(r.position, Point::new(0.0, 0.0));
    }

    #[test]
    fn dijkstra_distances_monotone_under_edge_addition() {
        let mut net = grid3x3();
        let before = net.path_length(0, 8);
        net.add_edge(0, 8); // diagonal shortcut, length = sqrt(800) ≈ 28.28
        let after = net.path_length(0, 8);
        assert!(after <= before);
        assert!((after - 800.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::ORIGIN);
        net.add_edge(a, a);
    }

    #[test]
    fn try_variants_report_typed_errors() {
        let mut net = RoadNetwork::new();
        assert_eq!(
            net.try_add_node(Point::new(f64::NAN, 0.0)),
            Err(RoadNetworkError::NonFiniteNode)
        );
        let a = net.try_add_node(Point::ORIGIN).unwrap();
        let b = net.try_add_node(Point::new(1.0, 0.0)).unwrap();
        assert_eq!(net.try_add_edge(a, a), Err(RoadNetworkError::SelfLoop(a)));
        assert_eq!(
            net.try_add_edge(a, 7),
            Err(RoadNetworkError::EndpointOutOfRange { id: 7, nodes: 2 })
        );
        assert_eq!(net.try_add_edge(a, b), Ok(()));
        assert_eq!(net.try_add_edge(b, a), Ok(())); // duplicate ignored
        assert_eq!(net.edge_count(), 1);
    }
}
