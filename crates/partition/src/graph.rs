//! Undirected weighted graphs derived from sparse matrices.

use dsw_sparse::CsrMatrix;

/// An undirected graph in CSR adjacency form with edge and vertex weights.
///
/// Self-loops are never stored. For a symmetric matrix, the graph of
/// `A` has an edge `{i, j}` for every off-diagonal nonzero `a_ij`, with
/// weight `|a_ij|`.
#[derive(Debug, Clone)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
    /// Edge weights, parallel to `adjncy`.
    ewgt: Vec<f64>,
    /// Vertex weights (1 for matrix-derived graphs; aggregated when coarsened).
    vwgt: Vec<u64>,
}

impl Graph {
    /// Builds the adjacency graph of a square matrix, dropping the diagonal.
    /// The matrix should be structurally symmetric; if it is not, the union
    /// pattern is *not* formed — the row pattern is used as-is, so callers
    /// should symmetrize first if needed.
    pub fn from_matrix(a: &CsrMatrix) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "graph of non-square matrix");
        let n = a.nrows();
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy = Vec::with_capacity(a.nnz());
        let mut ewgt = Vec::with_capacity(a.nnz());
        xadj.push(0);
        for i in 0..n {
            for (j, v) in a.row(i) {
                if j != i {
                    adjncy.push(j);
                    ewgt.push(v.abs());
                }
            }
            xadj.push(adjncy.len());
        }
        Graph {
            xadj,
            adjncy,
            ewgt,
            vwgt: vec![1; n],
        }
    }

    /// Builds a graph from raw parts (used by the coarsener).
    pub(crate) fn from_parts(
        xadj: Vec<usize>,
        adjncy: Vec<usize>,
        ewgt: Vec<f64>,
        vwgt: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(xadj.len(), vwgt.len() + 1);
        debug_assert_eq!(adjncy.len(), ewgt.len());
        Graph {
            xadj,
            adjncy,
            ewgt,
            vwgt,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn nvertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Neighbors of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// `(neighbor, edge weight)` pairs of vertex `v`.
    #[inline]
    pub fn edges(&self, v: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let r = self.xadj[v]..self.xadj[v + 1];
        self.adjncy[r.clone()]
            .iter()
            .copied()
            .zip(self.ewgt[r].iter().copied())
    }

    /// Vertex weight of `v`.
    #[inline]
    pub fn vertex_weight(&self, v: usize) -> u64 {
        self.vwgt[v]
    }

    /// Total vertex weight.
    pub fn total_vertex_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Breadth-first traversal order from `start`, restricted to the
    /// connected component of `start`.
    pub fn bfs_order(&self, start: usize) -> Vec<usize> {
        let mut order = Vec::new();
        self.bfs_into(start, &mut vec![false; self.nvertices()], &mut order);
        order
    }

    /// Full BFS order covering all components (each component started from
    /// its lowest-index unvisited vertex).
    pub fn bfs_order_all(&self) -> Vec<usize> {
        self.bfs_order_from(0)
    }

    /// Full BFS order starting with `first`'s component; every further
    /// component starts from its lowest-index unvisited vertex.
    pub(crate) fn bfs_order_from(&self, first: usize) -> Vec<usize> {
        let n = self.nvertices();
        let mut seen = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for s in std::iter::once(first).chain(0..n) {
            if seen.get(s) == Some(&false) {
                self.bfs_into(s, &mut seen, &mut order);
            }
        }
        order
    }

    /// Appends the BFS order of `start`'s unseen component to `order`,
    /// which doubles as the queue.
    fn bfs_into(&self, start: usize, seen: &mut [bool], order: &mut Vec<usize>) {
        let mut head = order.len();
        seen[start] = true;
        order.push(start);
        while let Some(&v) = order.get(head) {
            head += 1;
            for &w in self.neighbors(v) {
                if !seen[w] {
                    seen[w] = true;
                    order.push(w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_sparse::gen::grid2d_poisson;
    use dsw_sparse::CooBuilder;

    #[test]
    fn graph_from_poisson_drops_diagonal() {
        let a = grid2d_poisson(3, 3);
        let g = Graph::from_matrix(&a);
        assert_eq!(g.nvertices(), 9);
        assert_eq!(g.degree(4), 4); // interior point
        assert_eq!(g.degree(0), 2); // corner
        assert!(g.neighbors(4).iter().all(|&w| w != 4));
        assert_eq!(g.total_vertex_weight(), 9);
    }

    #[test]
    fn edge_weights_are_absolute_values() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(1, 1, 1.0);
        b.push_sym(0, 1, -0.5);
        let a = b.build().unwrap();
        let g = Graph::from_matrix(&a);
        let (n, w) = g.edges(0).next().unwrap();
        assert_eq!(n, 1);
        assert_eq!(w, 0.5);
    }

    #[test]
    fn bfs_visits_component_in_breadth_order() {
        let a = grid2d_poisson(3, 3);
        let g = Graph::from_matrix(&a);
        let order = g.bfs_order(0);
        assert_eq!(order.len(), 9);
        assert_eq!(order[0], 0);
        // Distance-1 vertices (1 and 3) come before distance-2 ones.
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(1) < pos(4));
        assert!(pos(3) < pos(4));
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut b = CooBuilder::new(4, 4);
        for i in 0..4 {
            b.push(i, i, 1.0);
        }
        b.push_sym(0, 1, -1.0);
        b.push_sym(2, 3, -1.0);
        let a = b.build().unwrap();
        let g = Graph::from_matrix(&a);
        assert_eq!(g.bfs_order_all(), vec![0, 1, 2, 3]);
        // The first component is the one asked for; the rest follow.
        assert_eq!(g.bfs_order_from(3), vec![3, 2, 0, 1]);
        let empty = Graph::from_parts(vec![0], vec![], vec![], vec![]);
        assert!(empty.bfs_order_all().is_empty());
    }
}
