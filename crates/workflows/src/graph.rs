//! Synthetic social graph (socfb-Reed98 stand-in).
//!
//! The paper uses the socfb-Reed98 Facebook network (962 users, 18.8K
//! follow relationships) as the social-network app's dataset. We generate
//! a preferential-attachment graph with the same node/edge counts and a
//! comparable right-skewed degree distribution, which is all the workload
//! depends on (fan-out width of timeline updates).

use aqua_sim::SimRng;

/// An undirected social graph stored as adjacency lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocialGraph {
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl SocialGraph {
    /// Generates a preferential-attachment graph with `nodes` vertices and
    /// roughly `edges` edges.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or `edges < nodes`.
    pub fn preferential_attachment(nodes: usize, edges: usize, seed: u64) -> Self {
        assert!(nodes >= 2, "need at least two nodes");
        assert!(edges >= nodes, "need at least as many edges as nodes");
        let mut rng = SimRng::seed(seed);
        let per_node = (edges as f64 / nodes as f64).round() as usize;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        // Endpoint pool: nodes appear once per incident edge (BA dynamics).
        let mut pool: Vec<u32> = vec![0, 1];
        adj[0].push(1);
        adj[1].push(0);
        let mut edge_count = 1usize;
        for v in 2..nodes {
            let mut targets = Vec::new();
            let want = per_node.min(v);
            let mut guard = 0;
            while targets.len() < want && guard < 50 * want {
                guard += 1;
                let t = pool[rng.below(pool.len())];
                if t as usize != v && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for &t in &targets {
                adj[v].push(t);
                adj[t as usize].push(v as u32);
                pool.push(t);
                pool.push(v as u32);
                edge_count += 1;
            }
        }
        SocialGraph {
            adj,
            edges: edge_count,
        }
    }

    /// A socfb-Reed98-scale graph: 962 users, ≈18.8K follow relationships.
    pub fn reed98_like(seed: u64) -> Self {
        SocialGraph::preferential_attachment(962, 18_812, seed)
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Mean degree (2·E / V).
    pub fn mean_degree(&self) -> f64 {
        2.0 * self.edges as f64 / self.adj.len() as f64
    }

    /// Maximum degree — the heaviest broadcast fan-out the app can see.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reed98_scale_matches_dataset() {
        let g = SocialGraph::reed98_like(1);
        assert_eq!(g.num_nodes(), 962);
        let e = g.num_edges() as f64;
        assert!((e - 18_812.0).abs() / 18_812.0 < 0.1, "edges {e}");
        // socfb-Reed98 mean degree ≈ 39.
        assert!(
            (g.mean_degree() - 39.0).abs() < 8.0,
            "mean degree {}",
            g.mean_degree()
        );
    }

    #[test]
    fn degree_distribution_is_right_skewed() {
        let g = SocialGraph::reed98_like(2);
        let mean = g.mean_degree();
        let max = g.max_degree() as f64;
        assert!(max > 3.0 * mean, "hub degree {max} vs mean {mean}");
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = SocialGraph::preferential_attachment(50, 200, 3);
        for v in 0..g.num_nodes() {
            for &u in g.neighbors(v) {
                assert!(
                    g.neighbors(u as usize).contains(&(v as u32)),
                    "edge {v}-{u} not symmetric"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = SocialGraph::reed98_like(7);
        let b = SocialGraph::reed98_like(7);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_tiny_graph() {
        let _ = SocialGraph::preferential_attachment(1, 5, 0);
    }
}
