//! Distribution of a sparse system over simulated ranks.
//!
//! Mirrors the paper's setup (§2.4): rows are partitioned into
//! non-overlapping subdomains, one per process; each process stores its
//! block rows, the right-hand side and solution pieces, and enough matrix
//! data to compute — *locally, without communication* — the contribution of
//! its own relaxations to the residuals of neighboring processes (possible
//! because the matrix is symmetric: the process owning row `i` effectively
//! owns column `i` too).
//!
//! Each rank's piece is a [`LocalSystem`]: an immutable [`LocalShape`] —
//! rows, matrix entries, ghost layer and topology, built once and shared
//! behind an `Arc` by every copy of the rank — plus the per-solve vectors
//! `b`, `x` and `r`, which each copy owns.
//!
//! Index conventions inside one [`LocalShape`]:
//! * *local row* `0..m` — the process's own rows, sorted by global id;
//! * *ghost slot* `0..g` — off-process columns touched by local rows,
//!   sorted by global id;
//! * *neighbor slot* — index into the sorted neighbor-rank list.
//!
//! Message payloads use **agreed orderings** instead of indices: the ghost
//! slots of rank `q` owned by rank `p` (in global order) are exactly the
//! boundary rows of `p` adjacent to `q` (in global order), so both sides
//! address a plain `Vec<f64>` the same way.
//!
//! [`distribute`] builds every part in one pass over its rows' CSR entries,
//! with dense index arrays (allocated once per call) in place of maps and
//! no sort of matrix entries; per-neighbor lists are counting-sorted
//! straight into [`SlotArena`]s. `tests/layout_oracle.rs` checks the result
//! against definitions computed from the global matrix.

use dsw_partition::Partition;
use dsw_sparse::{CsrMatrix, SparseError};
use std::sync::Arc;

/// A struct-of-arrays arena of per-neighbor index lists.
///
/// All lists live back-to-back in one flat `data` buffer addressed by
/// `offsets` (length `nlists + 1`), replacing the `Vec<Vec<u32>>` soup:
/// a rank's entire ghost layer (or boundary map) is one contiguous
/// allocation, walked slot-major with no per-list pointer chasing.
/// Indexing with `arena[s]` yields the list for neighbor slot `s` as a
/// plain `&[u32]`, so call sites read exactly like the nested-vec form.
#[derive(Debug, Clone, Default)]
pub struct SlotArena {
    offsets: Vec<u32>,
    data: Vec<u32>,
}

impl SlotArena {
    /// Builds the arena from `(slot, item)` pairs by a stable counting
    /// sort: slot `s` lists the items of the pairs naming `s`, in the
    /// order the pairs come.
    ///
    /// # Panics
    /// If a slot is `>= nslots`, or the pairs overflow the `u32` offsets.
    pub fn from_pairs<I>(nslots: usize, pairs: I) -> Self
    where
        I: ExactSizeIterator<Item = (u32, u32)> + Clone,
    {
        let total = pairs.len();
        assert!(total <= u32::MAX as usize, "slot arena exceeds u32 offsets");
        let mut offsets = vec![0u32; nslots + 1];
        for (s, _) in pairs.clone() {
            offsets[s as usize + 1] += 1;
        }
        for s in 0..nslots {
            offsets[s + 1] += offsets[s];
        }
        let mut next = offsets[..nslots].to_vec();
        let mut data = vec![0u32; total];
        for (s, item) in pairs {
            let at = &mut next[s as usize];
            data[*at as usize] = item;
            *at += 1;
        }
        SlotArena { offsets, data }
    }

    /// Number of per-slot lists.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the arena holds no lists at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The list for slot `s`.
    #[inline]
    pub fn get(&self, s: usize) -> &[u32] {
        &self.data[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Iterates the lists in slot order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.data[w[0] as usize..w[1] as usize])
    }
}

impl std::ops::Index<usize> for SlotArena {
    type Output = [u32];
    #[inline]
    fn index(&self, s: usize) -> &[u32] {
        self.get(s)
    }
}

/// The immutable per-rank structure of a distributed system: owned rows,
/// the local and off-process matrix entries, the ghost layer and the
/// neighbor topology.
///
/// Built once by [`distribute`] and never changed afterwards. Every copy
/// of a rank — a session's rank, each fused-panel column clone, a cached
/// panel — shares one `LocalShape` through the [`Arc`] in
/// [`LocalSystem::shape`], as each process of the paper stores its block
/// rows and ghost layer once.
#[derive(Debug)]
pub struct LocalShape {
    /// This rank's id.
    pub rank: usize,
    /// Owned global rows, sorted.
    pub rows: Vec<usize>,
    /// Local block `A(rows, rows)` in local indices (symmetric).
    pub a_int: CsrMatrix,
    /// Off-process part of the owned rows in CSR-like form:
    /// `a_ext_ptr[i]..a_ext_ptr[i+1]` indexes the ghost entries of local
    /// row `i` in `a_ext_idx` (ghost slots) and `a_ext_val`.
    pub a_ext_ptr: Vec<usize>,
    /// Ghost-slot index per external entry.
    pub a_ext_idx: Vec<u32>,
    /// Matrix value per external entry.
    pub a_ext_val: Vec<f64>,
    /// Global column id of each ghost slot, sorted.
    pub ext_cols: Vec<usize>,
    /// Neighbor ranks (sorted). A neighbor is any rank owning a ghost column.
    pub neighbors: Vec<usize>,
    /// Per neighbor slot: the ghost slots owned by that neighbor
    /// (in increasing global order), flat in one arena.
    pub ghosts_of: SlotArena,
    /// Per neighbor slot: local rows adjacent to that neighbor
    /// (in increasing global order — the agreed message ordering),
    /// flat in one arena.
    pub boundary_rows_to: SlotArena,
    /// Reciprocal of the diagonal of `a_int`, one entry per owned row
    /// (validated nonzero and finite at [`distribute`] time so the sweeps
    /// never binary-search the diagonal or divide by zero mid-iteration).
    pub inv_diag: Vec<f64>,
}

impl LocalShape {
    /// A shape with no rows, which [`distribute`] overwrites in place.
    fn unbuilt() -> Self {
        LocalShape {
            rank: 0,
            rows: Vec::new(),
            a_int: CsrMatrix::from_parts(0, 0, vec![0], Vec::new(), Vec::new())
                .expect("the 0 × 0 matrix is valid CSR"),
            a_ext_ptr: Vec::new(),
            a_ext_idx: Vec::new(),
            a_ext_val: Vec::new(),
            ext_cols: Vec::new(),
            neighbors: Vec::new(),
            ghosts_of: SlotArena::default(),
            boundary_rows_to: SlotArena::default(),
            inv_diag: Vec::new(),
        }
    }

    /// Number of owned rows.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Number of neighbors.
    pub fn nneighbors(&self) -> usize {
        self.neighbors.len()
    }

    /// Neighbor slot of rank `q`.
    pub fn neighbor_slot(&self, q: usize) -> usize {
        self.neighbors
            .binary_search(&q)
            .expect("message from a non-neighbor rank")
    }
}

/// Resolves the neighbor slots of one inbox's origins, in the order the
/// inbox yields them.
///
/// Every inbox the executor and its composition layers hand a rank is
/// origin-ascending, and `neighbors` is sorted, so each origin's slot lies
/// at or after the one past the previous origin's: the cursor walks
/// forward to it instead of searching all the neighbors per envelope. An
/// origin the walk cannot find ahead (a repeated or descending origin, or
/// a non-neighbor) falls back to [`LocalShape::neighbor_slot`], so any
/// order resolves correctly and a non-neighbor still panics.
#[derive(Debug, Default)]
pub(crate) struct SlotCursor {
    /// The slot the next origin is expected at.
    next: usize,
}

impl SlotCursor {
    /// The neighbor slot of origin `src` in `sh`.
    #[inline]
    pub(crate) fn slot(&mut self, sh: &LocalShape, src: usize) -> usize {
        let nb = &sh.neighbors[..];
        let mut k = self.next;
        while k < nb.len() && nb[k] < src {
            k += 1;
        }
        let s = if nb.get(k) == Some(&src) {
            k
        } else {
            sh.neighbor_slot(src)
        };
        debug_assert_eq!(s, sh.neighbor_slot(src));
        self.next = s + 1;
        s
    }
}

/// The per-rank piece of a distributed system: the shared [`LocalShape`]
/// plus the per-solve vectors `b`, `x` and `r`.
///
/// Cloning costs one reference-count bump and the three vectors. The
/// structure reads as fields of the system itself (`ls.a_int`,
/// `ls.neighbors`) through `Deref<Target = LocalShape>`; code that writes
/// `x` or `r` while it reads the structure borrows `ls.shape` directly.
#[derive(Debug, Clone)]
pub struct LocalSystem {
    /// The immutable structure, shared by every copy of this rank.
    pub shape: Arc<LocalShape>,
    /// Local right-hand side.
    pub b: Vec<f64>,
    /// Local solution piece.
    pub x: Vec<f64>,
    /// Local residual piece (kept exact at parallel-step boundaries).
    pub r: Vec<f64>,
}

impl std::ops::Deref for LocalSystem {
    type Target = LocalShape;
    #[inline]
    fn deref(&self) -> &LocalShape {
        &self.shape
    }
}

impl LocalSystem {
    /// Overwrites the per-solve vectors `b`, `x` and `r` with `other`'s, in
    /// place. `other` must be a copy of this rank — both share one
    /// [`LocalShape`] — so only the per-solve vectors can differ.
    pub(crate) fn copy_solve_state_from(&mut self, other: &LocalSystem) {
        debug_assert!(
            Arc::ptr_eq(&self.shape, &other.shape),
            "copy_solve_state_from between systems of different shapes"
        );
        self.b.copy_from_slice(&other.b);
        self.x.copy_from_slice(&other.x);
        self.r.copy_from_slice(&other.r);
    }

    /// Squared 2-norm of the local residual (4-lane kernel; the chunked
    /// accumulation folds in index order, bit-identical to the naive sum).
    pub fn residual_norm_sq(&self) -> f64 {
        dsw_sparse::vecops::norm2_sq(&self.r)
    }

    /// One Gauss–Seidel sweep over the owned rows (the paper's local
    /// solver). Updates `x` and `r` in place and *accumulates* into
    /// `ghost_dr` — aligned with `ext_cols` — the additive residual deltas
    /// this sweep induces on off-process rows. Returns the flop count.
    ///
    /// `ghost_dr` must be zeroed by the caller before the first sweep.
    pub fn gs_sweep(&mut self, ghost_dr: &mut [f64]) -> u64 {
        let m = self.nrows();
        gs_rows(&self.shape, 0..m, &mut self.x, &mut self.r, ghost_dr)
    }

    /// A Gauss–Seidel sweep visiting the owned rows in `order` (each local
    /// row exactly once) — the Multicolor local-solver path. Semantics
    /// otherwise identical to [`LocalSystem::gs_sweep`].
    pub fn gs_sweep_ordered(&mut self, order: &[u32], ghost_dr: &mut [f64]) -> u64 {
        debug_assert_eq!(order.len(), self.nrows());
        let rows = order.iter().map(|&i| i as usize);
        gs_rows(&self.shape, rows, &mut self.x, &mut self.r, ghost_dr)
    }

    /// The residual values at the boundary rows facing neighbor slot `s`,
    /// in the agreed ordering. Gathered straight into the message slab, so
    /// typical boundary sizes (≤ 8 rows) never touch the heap.
    pub fn boundary_residuals(&self, s: usize) -> super::msg::SlabVec {
        super::msg::SlabVec::gather(&self.boundary_rows_to[s], &self.r)
    }
}

/// The Gauss–Seidel row loop of both sweeps, over `rows` in order. The
/// shape and the solve vectors come in as separate references, so the
/// compiler knows the sweep's writes leave the structure untouched and
/// keeps its loads out of the row loop.
fn gs_rows(
    sh: &LocalShape,
    rows: impl Iterator<Item = usize>,
    x: &mut [f64],
    r: &mut [f64],
    ghost_dr: &mut [f64],
) -> u64 {
    debug_assert_eq!(ghost_dr.len(), sh.ext_cols.len());
    let mut flops = 0u64;
    for i in rows {
        let delta = r[i] * sh.inv_diag[i];
        x[i] += delta;
        // In-block residual updates through the symmetric local row.
        // Column indices within a row are distinct, so the scatter is
        // order-free; the zipped slices drop per-element bounds checks.
        let cols = sh.a_int.row_cols(i);
        for (&j, &aij) in cols.iter().zip(sh.a_int.row_values(i)) {
            r[j] -= aij * delta;
        }
        // Off-block contributions: a_{ji} = a_{ij}.
        let ext = sh.a_ext_ptr[i]..sh.a_ext_ptr[i + 1];
        let ext_n = ext.len() as u64;
        for (&slot, &v) in sh.a_ext_idx[ext.clone()].iter().zip(&sh.a_ext_val[ext]) {
            ghost_dr[slot as usize] -= v * delta;
        }
        flops += 2 * (cols.len() as u64 + ext_n) + 1;
    }
    flops
}

/// Stamp value of an index not (yet) assigned a slot.
const NONE: u32 = u32::MAX;

/// Splits `(A, b, x0)` over the parts of `partition`.
///
/// The matrix must be square and structurally symmetric (the solvers rely
/// on `a_{ji} = a_{ij}`). The initial residual `r = b − A x0` is computed
/// globally and scattered — the setup phase of the paper's artifact, not
/// counted as solver communication.
///
/// Each part is built in one pass over its rows' CSR entries. Dense index
/// arrays, allocated once per call, stand in for maps: the local index of
/// every row, and ghost-slot and neighbor-slot stamps indexed by global
/// column and by part, which each part resets where it set them.
pub fn distribute(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    partition: &Partition,
) -> Result<Vec<LocalSystem>, SparseError> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(SparseError::Shape(
            "distribute: matrix must be square".into(),
        ));
    }
    if b.len() != n || x0.len() != n {
        return Err(SparseError::Shape(
            "distribute: vector length mismatch".into(),
        ));
    }
    if partition.assignment().len() != n {
        return Err(SparseError::Shape(
            "distribute: partition length mismatch".into(),
        ));
    }
    let nparts = partition.nparts();
    let r_global = a.residual(b, x0);
    let owner = partition.assignment();
    let part_rows = partition.part_rows();

    // Local index of each global row inside its own part.
    let mut local_of = vec![0usize; n];
    for rows in &part_rows {
        for (l, &g) in rows.iter().enumerate() {
            local_of[g] = l;
        }
    }
    let mut ghost_slot = vec![NONE; n];
    let mut neighbor_slot = vec![NONE; nparts];
    // The last global row seen adjacent to each part. Every global row is
    // visited once, so this stamp never needs a reset.
    let mut last_row = vec![usize::MAX; nparts];
    // Per-part scratch, reused across parts; the interior block is copied
    // out at its exact size, since it lives as long as the rank.
    let mut int_cols: Vec<usize> = Vec::new();
    let mut int_vals: Vec<f64> = Vec::new();
    let mut ext_global: Vec<usize> = Vec::new();
    // (neighbor part, local row) once per adjacent pair, rows ascending.
    let mut boundary: Vec<(usize, u32)> = Vec::new();

    // Every shape's `Arc` is allocated before any part is built and then
    // filled in place, so the shapes lie back to back in rank order and a
    // sweep over the ranks streams through them. Allocated as each part
    // is built, a shape lies among its part's arrays and every rank phase
    // pays a cache miss to reach it; building the shapes first and moving
    // them into `Arc`s afterwards copies every shape twice.
    let shapes: Vec<Arc<LocalShape>> = (0..nparts)
        .map(|_| Arc::new(LocalShape::unbuilt()))
        .collect();
    let mut out = Vec::with_capacity(nparts);
    for ((p, rows), mut shape) in part_rows.into_iter().enumerate().zip(shapes) {
        if rows.is_empty() {
            return Err(SparseError::Shape(format!(
                "distribute: part {p} owns no rows"
            )));
        }
        let m = rows.len();
        int_cols.clear();
        int_vals.clear();
        ext_global.clear();
        boundary.clear();
        let mut row_ptr = Vec::with_capacity(m + 1);
        let mut a_ext_ptr = Vec::with_capacity(m + 1);
        let mut inv_diag = Vec::with_capacity(m);
        let mut a_ext_val = Vec::new();
        let mut ext_cols: Vec<usize> = Vec::new();
        let mut neighbors: Vec<usize> = Vec::new();
        row_ptr.push(0);
        a_ext_ptr.push(0);
        for (li, &g) in rows.iter().enumerate() {
            let mut aii = 0.0;
            for (c, v) in a.row(g) {
                let q = owner[c];
                if q == p {
                    // `rows` is sorted, so local order == global order and
                    // the CSR columns stay sorted.
                    if c == g {
                        aii = v;
                    }
                    int_cols.push(local_of[c]);
                    int_vals.push(v);
                    continue;
                }
                // Until the slots are numbered, any value but `NONE` marks
                // a column (or part) already seen by this part.
                if ghost_slot[c] == NONE {
                    ghost_slot[c] = 0;
                    ext_cols.push(c);
                }
                ext_global.push(c);
                a_ext_val.push(v);
                if last_row[q] != g {
                    last_row[q] = g;
                    boundary.push((q, li as u32));
                    if neighbor_slot[q] == NONE {
                        neighbor_slot[q] = 0;
                        neighbors.push(q);
                    }
                }
            }
            // Cache the reciprocal diagonal for the sweeps; a zero or
            // missing diagonal must fail here, at setup, not divide by
            // zero mid-sweep.
            if aii == 0.0 || !aii.is_finite() {
                return Err(SparseError::Numeric(format!(
                    "distribute: row {g} has a zero or non-finite diagonal ({aii})"
                )));
            }
            inv_diag.push(1.0 / aii);
            row_ptr.push(int_cols.len());
            a_ext_ptr.push(ext_global.len());
        }

        // Ghost slots and neighbor slots in increasing global order.
        ext_cols.sort_unstable();
        for (s, &c) in ext_cols.iter().enumerate() {
            ghost_slot[c] = s as u32;
        }
        neighbors.sort_unstable();
        for (s, &q) in neighbors.iter().enumerate() {
            neighbor_slot[q] = s as u32;
        }
        let a_ext_idx = ext_global.iter().map(|&c| ghost_slot[c]).collect();
        let ghosts_of = SlotArena::from_pairs(
            neighbors.len(),
            ext_cols
                .iter()
                .enumerate()
                .map(|(k, &c)| (neighbor_slot[owner[c]], k as u32)),
        );
        // Local rows ascend within each neighbor: the boundary lists are
        // already in the agreed (global) ordering.
        let boundary_rows_to = SlotArena::from_pairs(
            neighbors.len(),
            boundary.iter().map(|&(q, li)| (neighbor_slot[q], li)),
        );
        for &c in &ext_cols {
            ghost_slot[c] = NONE;
        }
        for &q in &neighbors {
            neighbor_slot[q] = NONE;
        }

        // Gathered before `rows` moves into the shape.
        let (b_local, x_local, r_local) = (
            rows.iter().map(|&g| b[g]).collect(),
            rows.iter().map(|&g| x0[g]).collect(),
            rows.iter().map(|&g| r_global[g]).collect(),
        );
        *Arc::get_mut(&mut shape).expect("a shape is not shared before distribute returns") =
            LocalShape {
                rank: p,
                a_int: CsrMatrix::from_parts(m, m, row_ptr, int_cols.to_vec(), int_vals.to_vec())?,
                a_ext_ptr,
                a_ext_idx,
                a_ext_val,
                ext_cols,
                neighbors,
                ghosts_of,
                boundary_rows_to,
                inv_diag,
                rows,
            };
        out.push(LocalSystem {
            shape,
            b: b_local,
            x: x_local,
            r: r_local,
        });
    }
    Ok(out)
}

/// Gathers the global solution from local pieces (measurement hook).
pub fn gather_x(locals: &[LocalSystem], n: usize) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for ls in locals {
        for (li, &g) in ls.rows.iter().enumerate() {
            x[g] = ls.x[li];
        }
    }
    x
}

/// Gathers the global residual from the locally maintained pieces.
pub fn gather_r(locals: &[LocalSystem], n: usize) -> Vec<f64> {
    let mut r = vec![0.0; n];
    for ls in locals {
        for (li, &g) in ls.rows.iter().enumerate() {
            r[g] = ls.r[li];
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_partition::partition_strip;
    use dsw_sparse::gen;

    fn setup(nx: usize, ny: usize, p: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>, Vec<LocalSystem>) {
        let a = gen::grid2d_poisson(nx, ny);
        let n = a.nrows();
        let b = gen::random_rhs(n, 5);
        let x0 = gen::random_guess(n, 6);
        let part = partition_strip(n, p);
        let locals = distribute(&a, &b, &x0, &part).unwrap();
        (a, b, x0, locals)
    }

    #[test]
    fn distribute_covers_all_rows() {
        let (a, _, _, locals) = setup(6, 6, 4);
        let total: usize = locals.iter().map(|l| l.nrows()).sum();
        assert_eq!(total, a.nrows());
        let mut all: Vec<usize> = locals.iter().flat_map(|l| l.rows.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..36).collect::<Vec<_>>());
    }

    #[test]
    fn initial_residual_is_exact() {
        let (a, b, x0, locals) = setup(6, 6, 4);
        let r_true = a.residual(&b, &x0);
        let r = gather_r(&locals, a.nrows());
        for (m, t) in r.iter().zip(&r_true) {
            assert!((m - t).abs() < 1e-14);
        }
        let x = gather_x(&locals, a.nrows());
        assert_eq!(x, x0);
    }

    #[test]
    fn agreed_orderings_match_across_ranks() {
        let (_, _, _, locals) = setup(8, 5, 3);
        for ls in &locals {
            for (s, &q) in ls.neighbors.iter().enumerate() {
                let other = &locals[q];
                let back = other.neighbor_slot(ls.rank);
                // My ghost slots owned by q map to exactly q's boundary rows
                // facing me, in the same (global) order.
                let my_ghost_globals: Vec<usize> = ls.ghosts_of[s]
                    .iter()
                    .map(|&slot| ls.ext_cols[slot as usize])
                    .collect();
                let their_boundary_globals: Vec<usize> = other.boundary_rows_to[back]
                    .iter()
                    .map(|&li| other.rows[li as usize])
                    .collect();
                assert_eq!(my_ghost_globals, their_boundary_globals);
            }
        }
    }

    /// The cursor resolves every envelope to its binary-searched slot
    /// whatever the inbox order: ascending with gaps walks forward, and a
    /// repeated or descending origin takes the fallback.
    #[test]
    fn slot_cursor_resolves_any_origin_order() {
        use dsw_rma::{CommClass, Envelope, Inbox};
        // 3 × 3 blocks of a 9 × 9 grid: the centre rank 4 neighbours 1, 3,
        // 5 and 7.
        let a = gen::grid2d_poisson(9, 9);
        let n = a.nrows();
        let assign = (0..n).map(|g| (g / 9) / 3 * 3 + (g % 9) / 3).collect();
        let part = Partition::new(9, assign);
        let locals = distribute(&a, &vec![0.0; n], &vec![0.0; n], &part).unwrap();
        let sh = &*locals[4].shape;
        assert_eq!(sh.neighbors, [1, 3, 5, 7]);
        let orders: [&[usize]; 6] = [
            &[1, 3, 5, 7],
            &[7, 5, 3, 1],
            &[1, 1, 3, 5, 5, 7, 7],
            &[3, 7],
            &[1, 7, 3, 5],
            &[5, 1, 1, 7, 3],
        ];
        for order in orders {
            let envs: Vec<Envelope<()>> = order
                .iter()
                .map(|&src| Envelope {
                    src,
                    class: CommClass::Solve,
                    bytes: 0,
                    payload: (),
                })
                .collect();
            let mut cursor = SlotCursor::default();
            for env in Inbox::from(&envs[..]) {
                assert_eq!(
                    cursor.slot(sh, env.src),
                    sh.neighbor_slot(env.src),
                    "origin {} in order {order:?}",
                    env.src
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn slot_cursor_rejects_a_non_neighbor() {
        let (_, _, _, locals) = setup(6, 6, 4);
        let sh = &*locals[0].shape;
        SlotCursor::default().slot(sh, 3);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let (_, _, _, locals) = setup(7, 7, 5);
        for ls in &locals {
            for &q in &ls.neighbors {
                assert!(
                    locals[q].neighbors.contains(&ls.rank),
                    "asymmetric neighbor relation {} -> {}",
                    ls.rank,
                    q
                );
            }
        }
    }

    #[test]
    fn gs_sweep_matches_global_semantics() {
        // One sweep on every rank (sequentially, applying ghost updates
        // afterwards) must equal block Gauss-Seidel: verify the maintained
        // residuals equal b - A x after cross-rank deltas are exchanged.
        let (a, b, _, mut locals) = setup(6, 6, 3);
        let n = a.nrows();
        // Every rank sweeps against the same initial state.
        let mut all_ghost_dr: Vec<Vec<f64>> = Vec::new();
        for ls in locals.iter_mut() {
            let mut gdr = vec![0.0; ls.ext_cols.len()];
            ls.gs_sweep(&mut gdr);
            all_ghost_dr.push(gdr);
        }
        // Deliver ghost deltas.
        let owners: Vec<usize> = (0..locals.len()).collect();
        for &p in &owners {
            let (ext_cols, gdr) = (locals[p].ext_cols.clone(), all_ghost_dr[p].clone());
            for (slot, &gcol) in ext_cols.iter().enumerate() {
                let q = locals.iter().position(|l| l.rows.contains(&gcol)).unwrap();
                let li = locals[q].rows.binary_search(&gcol).unwrap();
                locals[q].r[li] += gdr[slot];
            }
        }
        let x = gather_x(&locals, n);
        let r_true = a.residual(&b, &x);
        let r = gather_r(&locals, n);
        for (m, t) in r.iter().zip(&r_true) {
            assert!((m - t).abs() < 1e-12, "residual mismatch {m} vs {t}");
        }
    }

    #[test]
    fn single_part_has_no_neighbors() {
        let (a, _, _, locals) = setup(4, 4, 1);
        assert_eq!(locals.len(), 1);
        assert!(locals[0].neighbors.is_empty());
        assert!(locals[0].ext_cols.is_empty());
        assert_eq!(locals[0].a_int.nnz(), a.nnz());
    }

    #[test]
    fn inv_diag_matches_local_blocks() {
        let (_, _, _, locals) = setup(7, 6, 4);
        for ls in &locals {
            assert_eq!(ls.inv_diag.len(), ls.nrows());
            for i in 0..ls.nrows() {
                let aii = ls.a_int.get(i, i);
                assert!((ls.inv_diag[i] - 1.0 / aii).abs() <= f64::EPSILON * ls.inv_diag[i].abs());
            }
        }
    }

    #[test]
    fn zero_or_missing_diagonal_is_rejected_at_distribute_time() {
        // A 3×3 matrix whose middle row has no diagonal entry at all; the
        // old code would have hit it as a divide-by-zero mid-sweep.
        let mut bld = dsw_sparse::CooBuilder::new(3, 3);
        bld.push(0, 0, 2.0);
        bld.push(0, 1, -1.0);
        bld.push(1, 0, -1.0);
        bld.push(1, 2, -1.0);
        bld.push(2, 1, -1.0);
        bld.push(2, 2, 2.0);
        let a = bld.build().unwrap();
        let part = partition_strip(3, 1);
        let err = distribute(&a, &[0.0; 3], &[0.0; 3], &part).unwrap_err();
        assert!(
            matches!(err, SparseError::Numeric(_)),
            "expected a numeric setup error, got {err:?}"
        );

        // An explicit zero diagonal is rejected the same way.
        let mut bld = dsw_sparse::CooBuilder::new(2, 2);
        bld.push(0, 0, 1.0);
        bld.push(1, 1, 0.0);
        let a = bld.build().unwrap();
        let part = partition_strip(2, 2);
        assert!(matches!(
            distribute(&a, &[0.0; 2], &[0.0; 2], &part),
            Err(SparseError::Numeric(_))
        ));
    }

    #[test]
    fn slot_arena_keeps_item_order_within_each_slot() {
        let pairs = [(2u32, 7u32), (0, 3), (2, 1), (0, 9), (2, 4)];
        let arena = SlotArena::from_pairs(4, pairs.iter().copied());
        assert_eq!(arena.len(), 4);
        let lists: Vec<&[u32]> = arena.iter().collect();
        assert_eq!(lists, [&[3, 9][..], &[], &[7, 1, 4], &[]]);
        assert_eq!(&arena[2], &[7, 1, 4]);
    }

    #[test]
    fn slot_arena_holds_empty_slots_and_zero_lists() {
        let empty = SlotArena::from_pairs(3, std::iter::empty());
        assert_eq!(empty.len(), 3);
        assert!(empty.iter().all(<[u32]>::is_empty));
        let none = SlotArena::from_pairs(0, std::iter::empty());
        assert!(none.is_empty());
        assert_eq!(none.iter().count(), 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = gen::grid2d_poisson(3, 3);
        let part = partition_strip(9, 2);
        assert!(distribute(&a, &[0.0; 5], &[0.0; 9], &part).is_err());
        let part_bad = partition_strip(5, 2);
        assert!(distribute(&a, &[0.0; 9], &[0.0; 9], &part_bad).is_err());
    }
}
