//! Greedy graph multicoloring for Multicolor Gauss–Seidel.
//!
//! The paper (Figures 2 and 5) colors the FE graph greedily in
//! breadth-first order and notes that its 3081-row test problem needs six
//! colors with a very unbalanced color distribution — both properties are
//! reproduced by this implementation.

use crate::graph::Graph;

/// A vertex coloring: vertices of the same color are pairwise non-adjacent,
/// so all rows of one color can be relaxed in a single parallel step.
#[derive(Debug, Clone)]
pub struct Coloring {
    /// Color index per vertex.
    pub color_of: Vec<usize>,
    /// Number of colors used.
    pub ncolors: usize,
}

impl Coloring {
    /// The vertices of each color, in increasing vertex order.
    pub fn classes(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.ncolors];
        for (v, &c) in self.color_of.iter().enumerate() {
            out[c].push(v);
        }
        out
    }
}

/// Greedy coloring in breadth-first traversal order: each vertex takes the
/// smallest color not used by an already-colored neighbor.
pub fn greedy_coloring_bfs(g: &Graph) -> Coloring {
    greedy_coloring_in_order(g, &g.bfs_order_all())
}

/// Greedy coloring in an arbitrary vertex order.
pub fn greedy_coloring_in_order(g: &Graph, order: &[usize]) -> Coloring {
    let n = g.nvertices();
    assert_eq!(order.len(), n, "order must cover every vertex");
    let mut color_of = vec![usize::MAX; n];
    let mut ncolors = 0;
    // `forbidden[c] == v` marks color c as used by a neighbor of v.
    let mut forbidden: Vec<usize> = Vec::new();
    for &v in order {
        for &w in g.neighbors(v) {
            let c = color_of[w];
            if c != usize::MAX {
                if c >= forbidden.len() {
                    forbidden.resize(c + 1, usize::MAX);
                }
                forbidden[c] = v;
            }
        }
        let c = (0..forbidden.len())
            .find(|&c| forbidden[c] != v)
            .unwrap_or(forbidden.len());
        color_of[v] = c;
        ncolors = ncolors.max(c + 1);
    }
    Coloring { color_of, ncolors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_sparse::gen::fe::{fe_poisson, FeMeshOptions};
    use dsw_sparse::gen::grid2d_poisson;

    /// Whether no edge of `g` joins two vertices of one color.
    fn is_proper(c: &Coloring, g: &Graph) -> bool {
        (0..g.nvertices()).all(|v| {
            g.neighbors(v)
                .iter()
                .all(|&w| w == v || c.color_of[w] != c.color_of[v])
        })
    }

    /// Vertices per color.
    fn class_sizes(c: &Coloring) -> Vec<usize> {
        let mut sizes = vec![0usize; c.ncolors];
        for &k in &c.color_of {
            sizes[k] += 1;
        }
        sizes
    }

    #[test]
    fn poisson_grid_needs_two_colors() {
        let a = grid2d_poisson(8, 8);
        let g = Graph::from_matrix(&a);
        let c = greedy_coloring_bfs(&g);
        assert!(is_proper(&c, &g));
        assert_eq!(c.ncolors, 2, "5-point stencil is bipartite");
        assert_eq!(class_sizes(&c).iter().sum::<usize>(), 64);
    }

    #[test]
    fn fe_mesh_needs_several_colors() {
        // The paper's irregular FE problem needs 6 colors with unbalanced
        // classes; a small instance of the same generator should need >= 4.
        let a = fe_poisson(FeMeshOptions {
            nx: 20,
            ny: 20,
            jitter: 0.25,
            seed: 1,
        });
        let g = Graph::from_matrix(&a);
        let c = greedy_coloring_bfs(&g);
        assert!(is_proper(&c, &g));
        assert!(c.ncolors >= 4, "got {} colors", c.ncolors);
        let sizes = class_sizes(&c);
        assert!(sizes.iter().max() > sizes.iter().min());
    }

    #[test]
    fn classes_partition_vertices() {
        let a = grid2d_poisson(5, 4);
        let g = Graph::from_matrix(&a);
        let c = greedy_coloring_bfs(&g);
        let classes = c.classes();
        let total: usize = classes.iter().map(|cl| cl.len()).sum();
        assert_eq!(total, 20);
        let mut all: Vec<usize> = classes.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn singleton_graph() {
        let a = dsw_sparse::CsrMatrix::from_parts(1, 1, vec![0, 1], vec![0], vec![1.0]).unwrap();
        let g = Graph::from_matrix(&a);
        let c = greedy_coloring_bfs(&g);
        assert_eq!(c.ncolors, 1);
        assert!(is_proper(&c, &g));
    }
}
