//! Row-to-process partitioners, from trivial strips to a METIS-style
//! multilevel scheme.

use crate::graph::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Why a partition (or a coded placement over one) is unusable, reported
/// as a value instead of a panic so drivers can surface configuration
/// mistakes cleanly (degenerate block counts, zero-row blocks, replica
/// factors the placement cannot satisfy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// `nparts` is zero or exceeds the row count (`need 1 <= nparts <= n`).
    InvalidParts {
        /// The requested part count.
        nparts: usize,
        /// The row count.
        n: usize,
    },
    /// An assignment entry names a part `>= nparts`.
    PartIndexOutOfRange {
        /// The offending part index.
        index: usize,
        /// The part count.
        nparts: usize,
    },
    /// A part owns no rows (solvers cannot host an empty subdomain).
    EmptyPart {
        /// The zero-row part.
        part: usize,
    },
    /// A redundancy factor the placement cannot satisfy
    /// (`need 1 <= r <= nparts`; `r = nparts` is full replication).
    InvalidRedundancy {
        /// The requested replication factor.
        r: usize,
        /// The part count.
        nparts: usize,
    },
    /// The part-weight vector is empty or carries no weight, so a
    /// balance ratio over it is undefined.
    DegenerateWeights {
        /// The part count.
        nparts: usize,
        /// Total vertex weight seen.
        total: u64,
    },
    /// A coarse partition was requested for grid dimensions that are not
    /// a `fine = 2·coarse + 1` pair, or the fine partition's row count
    /// does not match `fine_dim²` (see
    /// [`agglomerate_coarse`](crate::agglomerate_coarse)).
    IncompatibleGrids {
        /// Fine interior dimension.
        fine_dim: usize,
        /// Coarse interior dimension.
        coarse_dim: usize,
        /// Rows in the fine partition.
        fine_rows: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::InvalidParts { nparts, n } => {
                write!(f, "need 1 <= nparts <= n (got nparts = {nparts}, n = {n})")
            }
            PartitionError::PartIndexOutOfRange { index, nparts } => {
                write!(f, "part index out of range ({index} >= nparts = {nparts})")
            }
            PartitionError::EmptyPart { part } => {
                write!(
                    f,
                    "part {part} owns no rows (zero-row blocks are degenerate)"
                )
            }
            PartitionError::InvalidRedundancy { r, nparts } => {
                write!(
                    f,
                    "redundancy r must satisfy 1 <= r <= nparts (got r = {r}, nparts = {nparts})"
                )
            }
            PartitionError::DegenerateWeights { nparts, total } => {
                write!(
                    f,
                    "imbalance undefined: no part weights (nparts = {nparts}, \
                     total vertex weight = {total})"
                )
            }
            PartitionError::IncompatibleGrids {
                fine_dim,
                coarse_dim,
                fine_rows,
            } => {
                write!(
                    f,
                    "agglomeration needs fine_dim = 2·coarse_dim + 1 and a \
                     fine_dim² partition (got fine {fine_dim}, coarse \
                     {coarse_dim}, {fine_rows} fine rows)"
                )
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// An assignment of `n` rows to `nparts` parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    nparts: usize,
    assignment: Vec<usize>,
}

impl Partition {
    /// Wraps an assignment, validating part indices.
    ///
    /// # Panics
    /// On an invalid part count or out-of-range index; use
    /// [`Partition::try_new`] for a recoverable error.
    pub fn new(nparts: usize, assignment: Vec<usize>) -> Self {
        match Self::try_new(nparts, assignment) {
            Ok(p) => p,
            Err(PartitionError::InvalidParts { .. }) => panic!("nparts must be positive"),
            Err(e) => panic!("part index out of range: {e}"),
        }
    }

    /// Wraps an assignment, validating part indices; the non-panicking
    /// form of [`Partition::new`].
    pub fn try_new(nparts: usize, assignment: Vec<usize>) -> Result<Self, PartitionError> {
        if nparts == 0 {
            return Err(PartitionError::InvalidParts {
                nparts,
                n: assignment.len(),
            });
        }
        if let Some(&bad) = assignment.iter().find(|&&p| p >= nparts) {
            return Err(PartitionError::PartIndexOutOfRange { index: bad, nparts });
        }
        Ok(Partition { nparts, assignment })
    }

    /// Errs with the first zero-row part, if any: the check to make before
    /// distribution.
    pub fn validate_nonempty(&self) -> Result<(), PartitionError> {
        match self.sizes().iter().position(|&s| s == 0) {
            Some(part) => Err(PartitionError::EmptyPart { part }),
            None => Ok(()),
        }
    }

    /// Number of parts.
    #[inline]
    pub fn nparts(&self) -> usize {
        self.nparts
    }

    /// The part of row `i`.
    #[inline]
    pub fn part_of(&self, i: usize) -> usize {
        self.assignment[i]
    }

    /// The full assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Rows of each part, sorted increasingly.
    pub fn part_rows(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nparts];
        for (i, &p) in self.assignment.iter().enumerate() {
            out[p].push(i);
        }
        out
    }

    /// Row count per part.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.nparts];
        for &p in &self.assignment {
            s[p] += 1;
        }
        s
    }

    /// Total weight of cut edges (each undirected edge counted once).
    pub fn edge_cut(&self, g: &Graph) -> f64 {
        let mut cut = 0.0;
        for v in 0..g.nvertices() {
            for (w, ew) in g.edges(v) {
                if w > v && self.assignment[v] != self.assignment[w] {
                    cut += ew;
                }
            }
        }
        cut
    }

    /// Maximum part weight divided by the average part weight (≥ 1; 1 is
    /// perfectly balanced).
    ///
    /// Errs instead of panicking when the ratio is undefined: an empty
    /// part-weight slice (degenerate `nparts`) or a graph whose assigned
    /// vertices carry zero total weight (which would divide by zero).
    pub fn imbalance(&self, g: &Graph) -> Result<f64, PartitionError> {
        let mut wgt = vec![0u64; self.nparts];
        for (v, &p) in self.assignment.iter().enumerate() {
            wgt[p] += g.vertex_weight(v);
        }
        let max = match wgt.iter().max() {
            Some(&m) => m as f64,
            None => {
                return Err(PartitionError::DegenerateWeights {
                    nparts: self.nparts,
                    total: 0,
                })
            }
        };
        let total = g.total_vertex_weight();
        if total == 0 {
            return Err(PartitionError::DegenerateWeights {
                nparts: self.nparts,
                total,
            });
        }
        Ok(max / (total as f64 / self.nparts as f64))
    }
}

/// Splits rows `0..n` into `nparts` contiguous strips of near-equal size.
///
/// # Panics
/// Unless `1 <= nparts <= n`; use [`try_partition_strip`] for a
/// recoverable error.
pub fn partition_strip(n: usize, nparts: usize) -> Partition {
    assert!(nparts > 0 && nparts <= n, "need 1 <= nparts <= n");
    try_partition_strip(n, nparts).expect("bounds checked above")
}

/// The non-panicking form of [`partition_strip`]: `Err` when `nparts` is
/// zero or exceeds `n` (which would force zero-row strips).
pub fn try_partition_strip(n: usize, nparts: usize) -> Result<Partition, PartitionError> {
    if nparts == 0 || nparts > n {
        return Err(PartitionError::InvalidParts { nparts, n });
    }
    let mut assignment = vec![0usize; n];
    let base = n / nparts;
    let extra = n % nparts;
    let mut row = 0;
    for p in 0..nparts {
        let len = base + usize::from(p < extra);
        for _ in 0..len {
            assignment[row] = p;
            row += 1;
        }
    }
    Partition::try_new(nparts, assignment)
}

/// The initial partition, in O(n + m): parts grow one after another along
/// one BFS sweep from a pseudo-peripheral vertex (the last one a BFS from a
/// seeded random vertex reaches). Part `p` grows by BFS over unassigned
/// vertices to `target = ⌈remaining weight / remaining parts⌉`, restarting
/// from the sweep's first unassigned vertex whenever its frontier runs out;
/// the last part takes the rest.
///
/// Growing stops at the vertex that reaches the target, so every part but
/// the last weighs at most `target + max vertex weight − 1`. Heavy vertices
/// can use the weight up early and leave parts empty for
/// [`fix_empty_parts`].
fn sweep_growing(g: &Graph, nparts: usize, seed: u64) -> Partition {
    let n = g.nvertices();
    let start = StdRng::seed_from_u64(seed).gen_range(0..n);
    let far = *g.bfs_order(start).last().expect("a BFS reaches its start");
    let order = g.bfs_order_from(far);
    let mut assignment = vec![UNASSIGNED; n];
    let mut remaining = g.total_vertex_weight();
    // `order[..cursor]` is all assigned, so the cursor only moves forward.
    let mut cursor = 0;
    let mut queue = Vec::with_capacity(n);
    for p in 0..nparts - 1 {
        let target = remaining.div_ceil((nparts - p) as u64);
        let mut grown = 0u64;
        let mut head = 0;
        queue.clear();
        while grown < target {
            let Some(&v) = queue.get(head) else {
                // The frontier ran out: restart from the sweep's first
                // unassigned vertex.
                cursor += order[cursor..]
                    .iter()
                    .take_while(|&&s| assignment[s] != UNASSIGNED)
                    .count();
                let Some(&s) = order.get(cursor) else { break };
                assignment[s] = p;
                grown += g.vertex_weight(s);
                queue.push(s);
                continue;
            };
            head += 1;
            for &w in g.neighbors(v) {
                if assignment[w] == UNASSIGNED {
                    assignment[w] = p;
                    grown += g.vertex_weight(w);
                    queue.push(w);
                    if grown >= target {
                        break;
                    }
                }
            }
        }
        remaining -= grown;
    }
    for a in assignment.iter_mut().filter(|a| **a == UNASSIGNED) {
        *a = nparts - 1;
    }
    Partition::new(nparts, assignment)
}

/// The assignment of a vertex no part has grown over yet.
const UNASSIGNED: usize = usize::MAX;

/// Moves one vertex into each empty part so the solvers never see an empty
/// subdomain. Empty parts are filled in index order, each from the part
/// that is then the largest (the last of equals), which gives up its first
/// vertex of least degree (keeping the donor connected-ish).
fn fix_empty_parts(g: &Graph, part: &mut Partition) {
    let sizes = part.sizes();
    if !sizes.contains(&0) {
        return;
    }
    // A donor keeps two or more vertices (n ≥ nparts while a part is
    // empty), so no donor empties and an empty part never donates.
    let mut donors: BinaryHeap<_> = (0..part.nparts).map(|p| (sizes[p], p)).collect();
    // Each part's vertices, last by degree and then by index, so that a
    // pop gives up the first vertex of least degree.
    let mut by_degree: Vec<usize> = (0..g.nvertices()).collect();
    by_degree.sort_unstable_by_key(|&v| Reverse((g.degree(v), v)));
    let mut members = vec![Vec::new(); part.nparts];
    for v in by_degree {
        members[part.assignment[v]].push(v);
    }
    for empty in (0..part.nparts).filter(|&p| sizes[p] == 0) {
        let (size, donor) = donors.pop().expect("a nonempty part exists");
        let victim = members[donor].pop().expect("the donor is nonempty");
        part.assignment[victim] = empty;
        donors.push((size - 1, donor));
    }
}

/// Options for the multilevel partitioner.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelOptions {
    /// Stop coarsening once the graph has at most
    /// `max(coarsen_to, 8 × nparts)` vertices.
    pub coarsen_to: usize,
    /// Boundary-refinement passes per level.
    pub refine_passes: usize,
    /// Allowed imbalance (max part weight / average), e.g. `1.1`.
    pub balance_tol: f64,
    /// RNG seed (matching order, seed vertices).
    pub seed: u64,
}

impl Default for MultilevelOptions {
    fn default() -> Self {
        MultilevelOptions {
            coarsen_to: 200,
            refine_passes: 4,
            balance_tol: 1.10,
            seed: 0,
        }
    }
}

/// METIS-style multilevel k-way partitioning:
/// heavy-edge-matching coarsening, a sweep-ordered greedy-growing initial
/// partition on the coarsest graph, and greedy
/// boundary (KL/FM-style) refinement while uncoarsening.
pub fn partition_multilevel(g: &Graph, nparts: usize, opts: MultilevelOptions) -> Partition {
    let n = g.nvertices();
    assert!(nparts > 0 && nparts <= n, "need 1 <= nparts <= n");
    if nparts == 1 {
        return Partition::new(1, vec![0; n]);
    }

    // Coarsening phase: levels[0] is the input graph.
    let mut levels: Vec<Graph> = vec![g.clone()];
    let mut maps: Vec<Vec<usize>> = Vec::new(); // fine vertex -> coarse vertex
    let stop = opts.coarsen_to.max(8 * nparts);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    while levels.last().is_some_and(|l| l.nvertices() > stop) {
        let cur = levels.last().expect("levels starts with the input graph");
        let (coarse, map) = coarsen_hem(cur, &mut rng);
        // Stalled coarsening (highly irregular graphs): stop.
        if coarse.nvertices() as f64 > 0.95 * cur.nvertices() as f64 {
            break;
        }
        levels.push(coarse);
        maps.push(map);
    }

    // Initial partition on the coarsest level.
    let coarsest = levels.last().expect("levels starts with the input graph");
    let mut part = sweep_growing(coarsest, nparts, opts.seed ^ 0x9e3779b9);
    fix_empty_parts(coarsest, &mut part);
    refine_boundary(coarsest, &mut part, opts.refine_passes, opts.balance_tol);

    // Uncoarsening with refinement.
    for lvl in (0..maps.len()).rev() {
        let fine = &levels[lvl];
        let map = &maps[lvl];
        let assignment: Vec<usize> = (0..fine.nvertices())
            .map(|v| part.assignment[map[v]])
            .collect();
        part = Partition::new(nparts, assignment);
        refine_boundary(fine, &mut part, opts.refine_passes, opts.balance_tol);
    }
    fix_empty_parts(g, &mut part);
    part
}

/// One round of heavy-edge matching; returns the coarse graph and the
/// fine→coarse vertex map.
fn coarsen_hem(g: &Graph, rng: &mut StdRng) -> (Graph, Vec<usize>) {
    let n = g.nvertices();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut mate = vec![usize::MAX; n];
    for &v in &order {
        if mate[v] != usize::MAX {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(usize, f64)> = None;
        for (w, ew) in g.edges(v) {
            if mate[w] == usize::MAX && w != v {
                match best {
                    Some((_, bw)) if ew <= bw => {}
                    _ => best = Some((w, ew)),
                }
            }
        }
        match best {
            Some((w, _)) => {
                mate[v] = w;
                mate[w] = v;
            }
            None => mate[v] = v, // matched with itself
        }
    }

    // Assign coarse ids.
    let mut coarse_of = vec![usize::MAX; n];
    let mut nc = 0;
    for v in 0..n {
        if coarse_of[v] != usize::MAX {
            continue;
        }
        coarse_of[v] = nc;
        let m = mate[v];
        if m != v && m != usize::MAX {
            coarse_of[m] = nc;
        }
        nc += 1;
    }

    // Build the coarse graph with aggregated weights.
    let mut vwgt = vec![0u64; nc];
    for v in 0..n {
        vwgt[coarse_of[v]] += g.vertex_weight(v);
    }
    // Accumulate coarse adjacency; use a scratch map keyed by coarse id.
    let mut xadj = Vec::with_capacity(nc + 1);
    let mut adjncy = Vec::new();
    let mut ewgt = Vec::new();
    xadj.push(0);
    // members[c] lists fine vertices of coarse vertex c.
    let mut members = vec![Vec::with_capacity(2); nc];
    for v in 0..n {
        members[coarse_of[v]].push(v);
    }
    let mut scratch_pos = vec![usize::MAX; nc]; // coarse neighbor -> slot
    for (c, mem) in members.iter().enumerate() {
        let start = adjncy.len();
        for &v in mem {
            for (w, ew) in g.edges(v) {
                let cw = coarse_of[w];
                if cw == c {
                    continue;
                }
                let pos = scratch_pos[cw];
                if pos >= start && pos < adjncy.len() && adjncy[pos] == cw {
                    ewgt[pos] += ew;
                } else {
                    scratch_pos[cw] = adjncy.len();
                    adjncy.push(cw);
                    ewgt.push(ew);
                }
            }
        }
        xadj.push(adjncy.len());
    }
    (Graph::from_parts(xadj, adjncy, ewgt, vwgt), coarse_of)
}

/// Greedy boundary refinement: repeatedly move boundary vertices to the
/// neighboring part with the largest positive edge-cut gain, subject to the
/// balance constraint. A lightweight stand-in for full FM with buckets.
fn refine_boundary(g: &Graph, part: &mut Partition, passes: usize, balance_tol: f64) {
    let n = g.nvertices();
    let nparts = part.nparts;
    let mut wgt = vec![0u64; nparts];
    for v in 0..n {
        wgt[part.assignment[v]] += g.vertex_weight(v);
    }
    let avg = g.total_vertex_weight() as f64 / nparts as f64;
    let max_w = (avg * balance_tol).ceil() as u64;

    // Per-part connection weights of one vertex, reset between vertices.
    let mut conn = vec![0.0f64; nparts];
    let mut touched: Vec<usize> = Vec::new();

    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let home = part.assignment[v];
            let mut is_boundary = false;
            for (w, ew) in g.edges(v) {
                let pw = part.assignment[w];
                if conn[pw] == 0.0 {
                    touched.push(pw);
                }
                conn[pw] += ew;
                if pw != home {
                    is_boundary = true;
                }
            }
            if is_boundary {
                let internal = conn[home];
                let mut best: Option<(usize, f64)> = None;
                for &p in &touched {
                    if p == home {
                        continue;
                    }
                    let gain = conn[p] - internal;
                    if gain > 0.0
                        && wgt[p] + g.vertex_weight(v) <= max_w
                        && wgt[home] > g.vertex_weight(v)
                    {
                        match best {
                            Some((_, bg)) if gain <= bg => {}
                            _ => best = Some((p, gain)),
                        }
                    }
                }
                if let Some((p, _)) = best {
                    wgt[home] -= g.vertex_weight(v);
                    wgt[p] += g.vertex_weight(v);
                    part.assignment[v] = p;
                    moved += 1;
                }
            }
            for &p in &touched {
                conn[p] = 0.0;
            }
            touched.clear();
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_sparse::gen::{grid2d_poisson, grid3d_poisson};
    use proptest::prelude::*;

    #[test]
    fn strip_partition_balanced() {
        let p = partition_strip(10, 3);
        assert_eq!(p.sizes(), vec![4, 3, 3]);
        assert!(!p.sizes().contains(&0));
        assert_eq!(p.part_of(0), 0);
        assert_eq!(p.part_of(9), 2);
    }

    #[test]
    fn sweep_growing_covers_and_balances() {
        let a = grid2d_poisson(20, 20);
        let g = Graph::from_matrix(&a);
        let p = sweep_growing(&g, 8, 1);
        assert!(!p.sizes().contains(&0));
        let imb = p.imbalance(&g).unwrap();
        assert!(imb < 1.5, "imbalance {imb}");
    }

    /// `g` with vertex weights `1..=wmax`, spread by a fixed hash.
    fn reweighted(g: &Graph, wmax: u64) -> Graph {
        let n = g.nvertices();
        let mut xadj = vec![0];
        let (mut adjncy, mut ewgt) = (Vec::new(), Vec::new());
        for v in 0..n {
            for (w, ew) in g.edges(v) {
                adjncy.push(w);
                ewgt.push(ew);
            }
            xadj.push(adjncy.len());
        }
        let vwgt = (0..n as u64).map(|v| 1 + v * 7919 % wmax).collect();
        Graph::from_parts(xadj, adjncy, ewgt, vwgt)
    }

    /// Two graphs side by side, with no edge between them.
    fn disjoint_union(g: &Graph, h: &Graph) -> Graph {
        let mut xadj = vec![0];
        let (mut adjncy, mut ewgt, mut vwgt) = (Vec::new(), Vec::new(), Vec::new());
        for (k, part) in [g, h].into_iter().enumerate() {
            let offset = if k == 0 { 0 } else { g.nvertices() };
            for v in 0..part.nvertices() {
                for (w, ew) in part.edges(v) {
                    adjncy.push(w + offset);
                    ewgt.push(ew);
                }
                xadj.push(adjncy.len());
                vwgt.push(part.vertex_weight(v));
            }
        }
        Graph::from_parts(xadj, adjncy, ewgt, vwgt)
    }

    /// The loop `fix_empty_parts` replaced, one rescan per empty part.
    fn fix_empty_parts_oracle(g: &Graph, part: &mut Partition) {
        loop {
            let sizes = part.sizes();
            let Some(empty) = sizes.iter().position(|&s| s == 0) else {
                return;
            };
            let donor = sizes
                .iter()
                .enumerate()
                .max_by_key(|&(_, &s)| s)
                .map(|(p, _)| p)
                .unwrap();
            let victim = (0..g.nvertices())
                .filter(|&v| part.assignment[v] == donor)
                .min_by_key(|&v| g.degree(v))
                .unwrap();
            part.assignment[victim] = empty;
        }
    }

    #[test]
    fn fix_empty_parts_matches_the_rescanning_loop() {
        // A 12-vertex path whose middle vertex outweighs the rest together:
        // the part that reaches it swallows several targets at once.
        let n = 12;
        let mut xadj = vec![0];
        let mut adjncy = Vec::new();
        for v in 0..n {
            adjncy.extend((v > 0).then(|| v - 1));
            adjncy.extend((v + 1 < n).then_some(v + 1));
            xadj.push(adjncy.len());
        }
        let ewgt = vec![1.0; adjncy.len()];
        let mut vwgt = vec![1; n];
        vwgt[n / 2] = 1000;
        let g = Graph::from_parts(xadj, adjncy, ewgt, vwgt);
        let mut emptied = 0;
        for nparts in 2..=n {
            for seed in 0..8 {
                let grown = sweep_growing(&g, nparts, seed);
                emptied += usize::from(grown.sizes().contains(&0));
                let (mut fixed, mut oracle) = (grown.clone(), grown);
                fix_empty_parts(&g, &mut fixed);
                fix_empty_parts_oracle(&g, &mut oracle);
                assert_eq!(fixed, oracle, "nparts {nparts}, seed {seed}");
                assert!(!fixed.sizes().contains(&0));
            }
        }
        assert!(emptied > 0, "no case left a part empty");
        // Equal donors and equal degrees: the last largest part gives up
        // its lowest-index vertex of least degree.
        let g = Graph::from_matrix(&grid2d_poisson(3, 3));
        for assignment in [
            vec![0, 0, 0, 1, 1, 1, 3, 3, 3],
            vec![4, 4, 4, 4, 4, 0, 0, 0, 0],
            vec![2; 9],
        ] {
            let mut fixed = Partition::new(5, assignment);
            let mut oracle = fixed.clone();
            fix_empty_parts(&g, &mut fixed);
            fix_empty_parts_oracle(&g, &mut oracle);
            assert_eq!(fixed, oracle);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sweep_growing_assigns_every_vertex_within_its_bound(
            shape in (1usize..14, 1usize..14, 1usize..5, 0usize..3),
            wmax in 1u64..5,
            fraction in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            let (nx, ny, nz, kind) = shape;
            let grid = if nz == 1 {
                Graph::from_matrix(&grid2d_poisson(nx, ny))
            } else {
                Graph::from_matrix(&grid3d_poisson(nx, ny, nz))
            };
            // kind 2: a second, smaller grid beside the first.
            let g = match kind {
                2 => disjoint_union(&grid, &Graph::from_matrix(&grid2d_poisson(ny, 2))),
                _ => grid,
            };
            let g = reweighted(&g, wmax);
            let n = g.nvertices();
            let nparts = 1 + (n as f64 * fraction) as usize; // 1..=n
            let p = sweep_growing(&g, nparts, seed);
            prop_assert_eq!(p.assignment().len(), n);
            prop_assert!(p.assignment().iter().all(|&q| q < nparts));
            prop_assert_eq!(&p, &sweep_growing(&g, nparts, seed));

            // Every part but the last stops at the vertex reaching its target.
            let mut weights = vec![0u64; nparts];
            for v in 0..n {
                weights[p.part_of(v)] += g.vertex_weight(v);
            }
            let mut remaining = g.total_vertex_weight();
            for (q, &w) in weights.iter().enumerate().take(nparts - 1) {
                let target = remaining.div_ceil((nparts - q) as u64);
                prop_assert!(
                    w < target + wmax,
                    "part {q} weighs {w}, target {target}, max vertex weight {wmax}"
                );
                remaining -= w;
            }

            let mut fixed = p;
            fix_empty_parts(&g, &mut fixed);
            prop_assert!(!fixed.sizes().contains(&0));
        }
    }

    #[test]
    fn multilevel_beats_strip_on_edge_cut() {
        let a = grid2d_poisson(32, 32);
        let g = Graph::from_matrix(&a);
        let strip = partition_strip(g.nvertices(), 16);
        let ml = partition_multilevel(&g, 16, MultilevelOptions::default());
        assert!(!ml.sizes().contains(&0));
        let imb = ml.imbalance(&g).unwrap();
        assert!(imb <= 1.25, "imbalance {imb}");
        assert!(
            ml.edge_cut(&g) < strip.edge_cut(&g),
            "ml cut {} !< strip cut {}",
            ml.edge_cut(&g),
            strip.edge_cut(&g)
        );
    }

    #[test]
    fn multilevel_3d() {
        let a = grid3d_poisson(10, 10, 10);
        let g = Graph::from_matrix(&a);
        let p = partition_multilevel(&g, 8, MultilevelOptions::default());
        assert!(!p.sizes().contains(&0));
        let imb = p.imbalance(&g).unwrap();
        assert!(imb <= 1.3, "imbalance {imb}");
        // A decent 8-way cut of a 10^3 grid is well under the worst case.
        assert!(p.edge_cut(&g) < 600.0, "cut {}", p.edge_cut(&g));
    }

    #[test]
    fn multilevel_single_part() {
        let a = grid2d_poisson(4, 4);
        let g = Graph::from_matrix(&a);
        let p = partition_multilevel(&g, 1, MultilevelOptions::default());
        assert_eq!(p.sizes(), vec![16]);
        assert_eq!(p.edge_cut(&g), 0.0);
    }

    #[test]
    fn multilevel_nparts_equals_n() {
        let a = grid2d_poisson(3, 3);
        let g = Graph::from_matrix(&a);
        let p = partition_multilevel(&g, 9, MultilevelOptions::default());
        assert!(!p.sizes().contains(&0));
        assert_eq!(p.sizes(), vec![1; 9]);
    }

    #[test]
    fn partition_is_deterministic() {
        let a = grid2d_poisson(16, 16);
        let g = Graph::from_matrix(&a);
        let o = MultilevelOptions::default();
        let p1 = partition_multilevel(&g, 7, o);
        let p2 = partition_multilevel(&g, 7, o);
        assert_eq!(p1, p2);
    }

    #[test]
    #[should_panic(expected = "need 1 <= nparts <= n")]
    fn too_many_parts_panics() {
        partition_strip(3, 5);
    }

    #[test]
    fn degenerate_partitions_err_instead_of_panicking() {
        // Too many (or zero) parts: clear Err from the try_ API.
        assert_eq!(
            try_partition_strip(3, 5),
            Err(PartitionError::InvalidParts { nparts: 5, n: 3 })
        );
        assert_eq!(
            try_partition_strip(3, 0),
            Err(PartitionError::InvalidParts { nparts: 0, n: 3 })
        );
        assert!(try_partition_strip(3, 5)
            .unwrap_err()
            .to_string()
            .contains("need 1 <= nparts <= n"));
        // Out-of-range assignment entries.
        assert_eq!(
            Partition::try_new(2, vec![0, 2, 1]),
            Err(PartitionError::PartIndexOutOfRange {
                index: 2,
                nparts: 2
            })
        );
        assert_eq!(
            Partition::try_new(0, vec![]),
            Err(PartitionError::InvalidParts { nparts: 0, n: 0 })
        );
        // Zero-row blocks are named by the validator.
        let lopsided = Partition::try_new(3, vec![0, 0, 2]).unwrap();
        assert_eq!(
            lopsided.validate_nonempty(),
            Err(PartitionError::EmptyPart { part: 1 })
        );
        assert!(lopsided
            .validate_nonempty()
            .unwrap_err()
            .to_string()
            .contains("owns no rows"));
        // Healthy inputs pass.
        let ok = try_partition_strip(10, 3).unwrap();
        assert_eq!(ok.sizes(), vec![4, 3, 3]);
        assert_eq!(ok.validate_nonempty(), Ok(()));
        // Single-rank runs are valid, not degenerate.
        let single = try_partition_strip(4, 1).unwrap();
        assert_eq!(single.sizes(), vec![4]);
        assert_eq!(single.validate_nonempty(), Ok(()));
    }

    #[test]
    fn imbalance_errs_on_degenerate_weights_instead_of_panicking() {
        // A graph whose vertices carry zero weight makes the max/avg ratio
        // undefined; previously the empty/zero-weight part slice aborted on
        // `max().unwrap()` or silently divided by zero.
        let g = Graph::from_parts(vec![0, 0, 0], vec![], vec![], vec![0, 0]);
        let p = Partition::try_new(2, vec![0, 1]).unwrap();
        assert_eq!(
            p.imbalance(&g),
            Err(PartitionError::DegenerateWeights {
                nparts: 2,
                total: 0
            })
        );
        assert!(p
            .imbalance(&g)
            .unwrap_err()
            .to_string()
            .contains("imbalance undefined"));
        // Healthy inputs still produce the plain ratio.
        let a = grid2d_poisson(4, 4);
        let gg = Graph::from_matrix(&a);
        let ok = partition_strip(16, 4);
        assert!((ok.imbalance(&gg).unwrap() - 1.0).abs() < 1e-12);
    }
}
