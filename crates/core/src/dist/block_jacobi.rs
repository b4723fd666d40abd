//! Block Jacobi (Algorithm 1 of the paper).

use super::layout::{LocalShape, LocalSystem};
use super::local_solver::{LocalSolver, LocalSolverImpl};
use super::msg::SlabVec;
use dsw_rma::{CommClass, Envelope, FusedPanel, PanelMsg, PanelPhaseCtx, PhaseCtx, RankAlgorithm};

/// One rank of the Block Jacobi iteration: every parallel step, relax the
/// local subdomain with one Gauss–Seidel sweep (the paper's "Hybrid
/// Gauss–Seidel"), put the induced residual deltas into every neighbor's
/// window, and apply the neighbor updates in a second epoch of the same
/// step.
///
/// The two-phase layout (relax+send, then apply) is mathematically
/// identical to the classic one-phase form (apply previous step's deltas,
/// then relax): nothing touches the residual between the end of one step
/// and the next sweep, so the sweep sees the same state either way — the
/// same floating-point operations in the same order, bit for bit. What the
/// second epoch buys is an invariant the one-phase form lacks: at every
/// parallel-step boundary all deltas are applied and the locally
/// maintained residual `r` equals `b − Ax` exactly, so the driver can
/// monitor global convergence from the per-rank maintained norms
/// ([`RankAlgorithm::maintained_norm_sq`]) instead of a gather + SpMV.
#[derive(Clone)]
pub struct BlockJacobiRank {
    /// The local piece of the system (exposed for the driver's gather).
    pub ls: LocalSystem,
    /// ‖r_p‖² as of the last step boundary (monitoring cache; Block Jacobi
    /// itself never consults norms).
    norm_sq: f64,
    solver: LocalSolverImpl,
    ghost_dr: Vec<f64>,
}

impl BlockJacobiRank {
    /// Wraps distributed local systems into Block Jacobi ranks with the
    /// default Gauss–Seidel local solver.
    pub fn build(locals: Vec<LocalSystem>) -> Vec<Self> {
        Self::build_with_solver(locals, LocalSolver::GaussSeidel)
    }

    /// As [`build`](Self::build) with an explicit local solver
    /// (the artifact's `-loc_solver` switch).
    pub fn build_with_solver(locals: Vec<LocalSystem>, solver: LocalSolver) -> Vec<Self> {
        locals
            .into_iter()
            .map(|ls| {
                let g = ls.ext_cols.len();
                BlockJacobiRank {
                    solver: LocalSolverImpl::new(solver, &ls),
                    norm_sq: ls.residual_norm_sq(),
                    ls,
                    ghost_dr: vec![0.0; g],
                }
            })
            .collect()
    }

    /// Applies incoming neighbor deltas to the maintained residual.
    fn apply_inbox(&mut self, inbox: &[Envelope<BjMsg>]) {
        let sh = &*self.ls.shape;
        for env in inbox {
            let s = sh.neighbor_slot(env.src);
            for (&li, &d) in sh.boundary_rows_to[s].iter().zip(&env.payload.dr) {
                self.ls.r[li as usize] += d;
            }
        }
    }
}

/// What a Block Jacobi rank puts into a neighbor's window (Alg. 1 l.8):
/// only the additive residual deltas for the receiver's boundary rows
/// facing the sender, in the agreed ordering of [`super::layout`].
///
/// Block Jacobi never reads norms or ghost residuals, so it carries none
/// of [`DistMsg::Solve`](super::msg::DistMsg::Solve)'s other fields. That
/// keeps an envelope at one slab: every byte of it is written, routed and
/// read once per edge per step, at tens of thousands of edges per step.
#[derive(Debug, Clone)]
pub struct BjMsg {
    /// Additive residual deltas for the receiver's boundary rows.
    pub dr: SlabVec,
}

impl BjMsg {
    /// Modelled wire size in bytes: 8 per delta plus the 16-byte
    /// per-message fixed cost.
    pub fn wire_bytes(&self) -> u64 {
        8 * self.dr.len() as u64 + EMPTY_SOLVE_BYTES
    }
}

/// Wire size of an empty [`BjMsg`]: the per-message fixed cost every
/// scalar solve pays per neighbor per step. It equals what a
/// [`DistMsg::Solve`](super::msg::DistMsg::Solve) with empty payloads
/// charges, so Table 3 and Figure 7 compare the methods under one framing
/// cost. A shared panel part is charged this once per *column* it
/// carries, so fused wire bytes model "the same payloads, the same
/// per-message overheads, fewer physical messages".
const EMPTY_SOLVE_BYTES: u64 = 16;

/// Dispatches a lane-width-generic kernel at the common compile-time
/// panel widths, falling back to the dynamic-width body for anything
/// else. The monomorphized widths let the compiler unroll and vectorize
/// the per-row lane arithmetic, which a runtime `kk` reduces to
/// width-checked scalar loops; the operations and their order are
/// identical either way, so the choice is invisible to the results.
macro_rules! dispatch_lanes {
    ($kk:expr, $kernel:ident, ( $($arg:expr),* ), $dyn:block) => {
        match $kk {
            1 => $kernel::<1>($($arg),*),
            2 => $kernel::<2>($($arg),*),
            3 => $kernel::<3>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            5 => $kernel::<5>($($arg),*),
            6 => $kernel::<6>($($arg),*),
            7 => $kernel::<7>($($arg),*),
            8 => $kernel::<8>($($arg),*),
            16 => $kernel::<16>($($arg),*),
            _ => $dyn,
        }
    };
}

/// Applies packed panel deltas to column residuals resident in the
/// interleaved panel scratch: folds each shared part's slot-major lanes
/// straight into `r_panel` (same layout, so the inner loop is a
/// contiguous `kk`-wide add per boundary row). Per column the additions
/// hit the same rows in the same order as the scalar stream — resident
/// parts always carry exactly the resident column set, because any
/// active-set change is preceded by a driver flush.
fn apply_packed_resident(
    cols: &[BlockJacobiRank],
    inbox: &[Envelope<PanelMsg<BjMsg>>],
    kk: usize,
    r_panel: &mut [f64],
) {
    let sh = &*cols[0].ls.shape;
    for env in inbox {
        let s = sh.neighbor_slot(env.src);
        let rows = &sh.boundary_rows_to[s];
        for part in &env.payload.parts {
            let dr = &part.msg.dr;
            debug_assert_eq!(part.mask.count_ones() as usize, kk);
            debug_assert_eq!(dr.len(), rows.len() * kk);
            dispatch_lanes!(kk, apply_lane_rows, (rows, dr, r_panel), {
                apply_lane_rows_dyn(kk, rows, dr, r_panel)
            });
        }
    }
}

/// Folds one shared part's slot-major deltas into the resident residual
/// lanes at a compile-time width (see [`dispatch_lanes`]).
#[inline(always)]
fn apply_lane_rows<const K: usize>(rows: &[u32], dr: &[f64], r_panel: &mut [f64]) {
    for (i, &li) in rows.iter().enumerate() {
        let src = &dr[i * K..i * K + K];
        let dst = &mut r_panel[li as usize * K..li as usize * K + K];
        for j in 0..K {
            dst[j] += src[j];
        }
    }
}

/// Dynamic-width fallback for [`apply_lane_rows`].
fn apply_lane_rows_dyn(kk: usize, rows: &[u32], dr: &[f64], r_panel: &mut [f64]) {
    for (i, &li) in rows.iter().enumerate() {
        let src = &dr[i * kk..i * kk + kk];
        let dst = &mut r_panel[li as usize * kk..li as usize * kk + kk];
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
}

/// Per-column `‖r‖²` over the resident lanes, all columns in one
/// row-major pass: each column's sum accumulates in ascending row order,
/// the exact fold of [`LocalSystem::residual_norm_sq`] on its own
/// vector, so the maintained norms are bit-identical to the scalar
/// path's.
#[inline(always)]
fn lane_norms_sq<const K: usize>(r_panel: &[f64], m: usize, out: &mut [f64]) {
    let mut sums = [0.0_f64; K];
    for i in 0..m {
        let lane = &r_panel[i * K..i * K + K];
        for j in 0..K {
            sums[j] += lane[j] * lane[j];
        }
    }
    out[..K].copy_from_slice(&sums);
}

/// Dynamic-width fallback for [`lane_norms_sq`].
fn lane_norms_sq_dyn(kk: usize, r_panel: &[f64], m: usize, out: &mut [f64]) {
    out[..kk].fill(0.0);
    for i in 0..m {
        let lane = &r_panel[i * kk..i * kk + kk];
        for (o, &v) in out[..kk].iter_mut().zip(lane) {
            *o += v * v;
        }
    }
}

/// The [`FusedPanel::flush`] of the kernel
/// [`WarmStart::panel_kernel`](super::session::WarmStart::panel_kernel)
/// returns: scatters the resident `r`/`x` lanes back into each listed
/// column's own vectors. `ghost_dr` is deliberately not reconstructed —
/// it is transient scratch, overwritten in full by every relax path
/// before any read.
fn flush_panel_lanes(cols: &mut [BlockJacobiRank], resident: &[usize], scratch: &mut [f64]) {
    let kk = resident.len();
    let m = cols[resident[0]].ls.nrows();
    let (r_panel, rest) = scratch.split_at(m * kk);
    let x_panel = &rest[..m * kk];
    for (j, &c) in resident.iter().enumerate() {
        let ls = &mut cols[c].ls;
        for i in 0..m {
            ls.r[i] = r_panel[i * kk + j];
            ls.x[i] = x_panel[i * kk + j];
        }
    }
}

/// The fused sweep's row loop at a compile-time lane width `K`: per
/// column the floating-point operations and their order are exactly the
/// dynamic loop's ([`gs_sweep_rows_dyn`]), element for element.
#[inline(always)]
fn gs_sweep_rows<const K: usize>(
    sh: &LocalShape,
    r_panel: &mut [f64],
    x_panel: &mut [f64],
    ghost_panel: &mut [f64],
) -> u64 {
    let m = sh.nrows();
    let mut delta = [0.0_f64; K];
    let mut row_flops = 0u64;
    for i in 0..m {
        let invd = sh.inv_diag[i];
        let r = &r_panel[i * K..i * K + K];
        for j in 0..K {
            delta[j] = r[j] * invd;
        }
        let x = &mut x_panel[i * K..i * K + K];
        for j in 0..K {
            x[j] += delta[j];
        }
        let row_cols = sh.a_int.row_cols(i);
        for (&jc, &aij) in row_cols.iter().zip(sh.a_int.row_values(i)) {
            let lane = &mut r_panel[jc * K..jc * K + K];
            for j in 0..K {
                lane[j] -= aij * delta[j];
            }
        }
        let ext = sh.a_ext_ptr[i]..sh.a_ext_ptr[i + 1];
        let ext_n = ext.len() as u64;
        for (&slot, &v) in sh.a_ext_idx[ext.clone()].iter().zip(&sh.a_ext_val[ext]) {
            let lane = &mut ghost_panel[slot as usize * K..slot as usize * K + K];
            for j in 0..K {
                lane[j] -= v * delta[j];
            }
        }
        row_flops += 2 * (row_cols.len() as u64 + ext_n) + 1;
    }
    row_flops
}

/// Dynamic-width fallback for [`gs_sweep_rows`] (uncommon panel widths,
/// e.g. a partially converged 16-wide panel).
fn gs_sweep_rows_dyn(
    kk: usize,
    sh: &LocalShape,
    r_panel: &mut [f64],
    x_panel: &mut [f64],
    ghost_panel: &mut [f64],
    delta: &mut [f64],
) -> u64 {
    let m = sh.nrows();
    let mut row_flops = 0u64;
    for i in 0..m {
        let invd = sh.inv_diag[i];
        for (d, r) in delta.iter_mut().zip(&r_panel[i * kk..i * kk + kk]) {
            *d = r * invd;
        }
        for (x, &d) in x_panel[i * kk..i * kk + kk].iter_mut().zip(&*delta) {
            *x += d;
        }
        let row_cols = sh.a_int.row_cols(i);
        for (&jc, &aij) in row_cols.iter().zip(sh.a_int.row_values(i)) {
            let base = jc * kk;
            for (r, &d) in r_panel[base..base + kk].iter_mut().zip(&*delta) {
                *r -= aij * d;
            }
        }
        let ext = sh.a_ext_ptr[i]..sh.a_ext_ptr[i + 1];
        let ext_n = ext.len() as u64;
        for (&slot, &v) in sh.a_ext_idx[ext.clone()].iter().zip(&sh.a_ext_val[ext]) {
            let base = slot as usize * kk;
            for (gd, &d) in ghost_panel[base..base + kk].iter_mut().zip(&*delta) {
                *gd -= v * d;
            }
        }
        row_flops += 2 * (row_cols.len() as u64 + ext_n) + 1;
    }
    row_flops
}

/// One Gauss–Seidel sweep over all active columns at once: the columns'
/// `r`/`x` vectors are interleaved `kk`-wide in the panel scratch, one
/// walk of the (shared) row structure updates every column's lane per
/// row, and the results scatter back. Per column the floating-point
/// operations and their order are exactly [`LocalSystem::gs_sweep`]'s —
/// lanes never mix — so each column's trajectory stays bit-identical to
/// its scalar solve while the index walk, bounds checks, and message
/// staging amortize over `kk`.
fn fused_gs_sweep(cols: &mut [BlockJacobiRank], sel: &[usize], out: &mut PanelPhaseCtx<'_, BjMsg>) {
    let kk = sel.len();
    let m = cols[sel[0]].ls.nrows();
    let g = cols[sel[0]].ls.ext_cols.len();

    // Scratch layout: [ r (m·kk) | x (m·kk) | ghost_dr (g·kk) | δ (kk) ],
    // row-major kk-wide lanes over the active columns only. Taken out of
    // the adapter so its capacity persists across phases — and so do the
    // `r`/`x` lanes themselves: once gathered they stay *resident* across
    // steps (phase 1 applies and measures in place), so the steady-state
    // sweep neither gathers nor scatters. The driver flushes the lanes
    // back ([`flush_panel_lanes`]) before any out-of-band read, and an
    // active-set change always follows such a flush, so a non-matching
    // `sel` here means nothing is resident.
    let mut buf = std::mem::take(out.scratch);
    if out.resident.as_slice() == sel {
        // Lanes already resident: only the per-sweep regions reset
        // (ghost deltas accumulate over one sweep; δ is overwritten).
        for v in &mut buf[2 * m * kk..] {
            *v = 0.0;
        }
    } else {
        debug_assert!(
            out.resident.is_empty(),
            "active set changed without a flush"
        );
        buf.clear();
        buf.resize((2 * m + g + 1) * kk, 0.0);
        let (r_panel, rest) = buf.split_at_mut(m * kk);
        let (x_panel, _) = rest.split_at_mut(m * kk);
        for (j, &c) in sel.iter().enumerate() {
            let ls = &cols[c].ls;
            for i in 0..m {
                r_panel[i * kk + j] = ls.r[i];
                x_panel[i * kk + j] = ls.x[i];
            }
        }
        out.resident.clear();
        out.resident.extend_from_slice(sel);
    }
    let (r_panel, rest) = buf.split_at_mut(m * kk);
    let (x_panel, rest) = rest.split_at_mut(m * kk);
    let (ghost_panel, delta) = rest.split_at_mut(g * kk);

    let sh = &*cols[sel[0]].ls.shape;
    let row_flops = dispatch_lanes!(kk, gs_sweep_rows, (sh, r_panel, x_panel, ghost_panel), {
        gs_sweep_rows_dyn(kk, sh, r_panel, x_panel, ghost_panel, delta)
    });
    out.add_flops(row_flops * kk as u64);

    for &c in sel {
        out.record_relaxations(c, m as u64);
    }

    // One shared Solve part per neighbor carrying every active column's
    // deltas, slot-major ([`apply_packed_resident`] unchunks by the
    // part's column mask). The updated `r`/`x` stay in the panel scratch
    // (resident lanes), and `ghost_dr` is not mirrored back — it is
    // transient scratch every relax path fully overwrites.
    // The modelled wire size charges each column its full scalar
    // message — payload plus the per-message fixed cost — so the panel's
    // savings stay in the header/tag framing the fusion actually
    // eliminates, and k = 1 remains byte-identical to the scalar solve.
    let gp = &ghost_panel[..];
    for s in 0..sh.nneighbors() {
        let ghosts = &sh.ghosts_of[s];
        // The scratch is already slot-major, so each ghost row's `kk`
        // lanes copy out contiguously.
        let mut lanes = Vec::with_capacity(kk * ghosts.len());
        for &slot in ghosts {
            let base = slot as usize * kk;
            lanes.extend_from_slice(&gp[base..base + kk]);
        }
        let msg = BjMsg {
            dr: SlabVec::from(lanes),
        };
        let bytes = msg.wire_bytes() + (kk as u64 - 1) * EMPTY_SOLVE_BYTES;
        out.stage_shared(sh.neighbors[s], sel, CommClass::Solve, bytes, msg);
    }
    *out.scratch = buf;
}

/// The [`FusedPanel::phase`] of the kernel
/// [`WarmStart::panel_kernel`](super::session::WarmStart::panel_kernel)
/// returns for Gauss–Seidel ranks: phase 0 relaxes every active column
/// in one interleaved sweep ([`fused_gs_sweep`]), phase 1 folds the
/// neighbors' deltas into the resident lanes and measures every
/// column's norm in one pass.
///
/// Under the panel preconditions (superstep executor, reliable link)
/// phase 1 applies every delta of the step, so phase 0's inbox is
/// always empty; and phase 0 leaves the active columns resident, so an
/// empty resident set in phase 1 means no column relaxed.
fn fused_panel_phase(
    cols: &mut [BlockJacobiRank],
    active: &[bool],
    phase: usize,
    inbox: &[Envelope<PanelMsg<BjMsg>>],
    out: &mut PanelPhaseCtx<'_, BjMsg>,
) {
    match phase {
        0 => {
            debug_assert!(inbox.is_empty(), "phase 1 applied every delta");
            let sel: Vec<usize> = (0..cols.len()).filter(|&c| active[c]).collect();
            if !sel.is_empty() {
                fused_gs_sweep(cols, &sel, out);
            }
        }
        1 => {
            if out.resident.is_empty() {
                return;
            }
            // Residuals live in the resident lanes: fold the deltas in
            // place and refresh each column's maintained norm by the same
            // index-ordered accumulation [`LocalSystem::residual_norm_sq`]
            // performs — strided reads, identical fold, bit-identical sums.
            let kk = out.resident.len();
            let m = cols[0].ls.nrows();
            let mut buf = std::mem::take(out.scratch);
            apply_packed_resident(cols, inbox, kk, &mut buf[..m * kk]);
            let mut sums = [0.0_f64; 64];
            dispatch_lanes!(kk, lane_norms_sq, (&buf[..m * kk], m, &mut sums), {
                lane_norms_sq_dyn(kk, &buf[..m * kk], m, &mut sums)
            });
            for (j, &c) in out.resident.iter().enumerate() {
                debug_assert!(active[c]);
                cols[c].norm_sq = sums[j];
            }
            *out.scratch = buf;
        }
        _ => unreachable!("Block Jacobi has two phases"),
    }
}

impl super::recovery::Recoverable for BlockJacobiRank {}

impl super::session::WarmStart for BlockJacobiRank {
    fn local(&self) -> &LocalSystem {
        &self.ls
    }

    fn reseed_rhs(&mut self, delta_b: &[f64]) -> f64 {
        // r = b − Ax: a change in b shifts the residual by the same amount,
        // purely locally — x is untouched, so Ax is untouched.
        for (li, &g) in self.ls.shape.rows.iter().enumerate() {
            self.ls.b[li] += delta_b[g];
            self.ls.r[li] += delta_b[g];
        }
        self.norm_sq = self.ls.residual_norm_sq();
        self.norm_sq
    }

    fn reseed_estimates(&mut self, _norms_sq: &[f64]) {
        // Block Jacobi keeps no cross-rank estimates: every rank relaxes
        // every step regardless of norms. Nothing to re-seed.
    }

    fn panel_kernel(&self) -> Option<FusedPanel<Self>> {
        // The fused kernel interleaves one Gauss–Seidel sweep; other
        // local solvers take the panel's per-column path.
        matches!(self.solver, LocalSolverImpl::GaussSeidel).then_some(FusedPanel {
            phase: fused_panel_phase,
            flush: flush_panel_lanes,
        })
    }

    fn copy_state_from(&mut self, other: &Self) {
        // `ghost_dr` is transient — every relax path overwrites it in
        // full before reading — so it carries no cross-solve state.
        self.ls.copy_solve_state_from(&other.ls);
        self.norm_sq = other.norm_sq;
    }
}

impl RankAlgorithm for BlockJacobiRank {
    type Msg = BjMsg;

    fn phases(&self) -> usize {
        2
    }

    fn put_targets(&self) -> Vec<usize> {
        // All communication goes to the static subdomain neighbor set.
        self.ls.neighbors.clone()
    }

    fn phase(&mut self, phase: usize, inbox: &[Envelope<BjMsg>], ctx: &mut PhaseCtx<BjMsg>) {
        match phase {
            0 => {
                // Empty on a reliable link (all deltas were applied in the
                // previous step's phase 1); chaos-delayed messages can
                // still land here and must not be lost.
                self.apply_inbox(inbox);
                // Relax the local subdomain.
                self.ghost_dr.iter_mut().for_each(|v| *v = 0.0);
                let flops = self.solver.relax(&mut self.ls, &mut self.ghost_dr);
                ctx.add_flops(flops);
                ctx.record_relaxations(self.ls.nrows() as u64);
                // Write updates to every neighbor's window.
                for s in 0..self.ls.nneighbors() {
                    let dr: SlabVec = self.ls.ghosts_of[s]
                        .iter()
                        .map(|&slot| self.ghost_dr[slot as usize])
                        .collect();
                    let msg = BjMsg { dr };
                    let bytes = msg.wire_bytes();
                    ctx.put(self.ls.neighbors[s], CommClass::Solve, msg, bytes);
                }
            }
            1 => {
                // Apply this step's deltas, restoring `r = b − Ax` at the
                // boundary, and refresh the monitoring cache. The norm is
                // not charged to the cost model: Block Jacobi's iteration
                // never consults it, it exists purely for the monitor.
                self.apply_inbox(inbox);
                self.norm_sq = self.ls.residual_norm_sq();
            }
            _ => unreachable!("Block Jacobi has two phases"),
        }
    }

    fn maintained_norm_sq(&self) -> Option<f64> {
        Some(self.norm_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::layout::{distribute, gather_x};
    use crate::dist::msg::DistMsg;
    use crate::dist::session::WarmStart;
    use dsw_partition::partition_strip;
    use dsw_rma::{CostModel, ExecMode, Executor, PanelRank};
    use dsw_sparse::gen;

    #[test]
    fn block_jacobi_converges_on_poisson() {
        let a = gen::grid2d_poisson(12, 12);
        let n = a.nrows();
        let b = gen::random_rhs(n, 1);
        let x0 = vec![0.0; n];
        let part = partition_strip(n, 6);
        let locals = distribute(&a, &b, &x0, &part).unwrap();
        let ranks = BlockJacobiRank::build(locals);
        let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        for _ in 0..400 {
            ex.step();
        }
        let x = gather_x(
            &ex.ranks().iter().map(|r| r.ls.clone()).collect::<Vec<_>>(),
            n,
        );
        let r = a.residual(&b, &x);
        let norm = dsw_sparse::vecops::norm2(&r);
        assert!(norm < 1e-7, "residual {norm}");
    }

    #[test]
    fn one_rank_equals_plain_gauss_seidel() {
        // With a single process, Block Jacobi is exactly sequential GS.
        let a = gen::grid2d_poisson(6, 6);
        let n = a.nrows();
        let b = gen::random_rhs(n, 2);
        let x0 = gen::random_guess(n, 3);
        let part = partition_strip(n, 1);
        let locals = distribute(&a, &b, &x0, &part).unwrap();
        let ranks = BlockJacobiRank::build(locals);
        let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        ex.step();
        let xd = ex.ranks()[0].ls.x.clone();

        let opts = crate::scalar::ScalarOptions::sweeps(n, 1.0);
        let (xs, _) = crate::scalar::gauss_seidel(&a, &b, &x0, &opts);
        for (d, s) in xd.iter().zip(&xs) {
            assert!((d - s).abs() < 1e-14);
        }
        assert_eq!(ex.stats.total_msgs(), 0);
    }

    #[test]
    fn every_rank_active_every_step() {
        let a = gen::grid2d_poisson(10, 10);
        let n = a.nrows();
        let b = gen::random_rhs(n, 1);
        let part = partition_strip(n, 5);
        let locals = distribute(&a, &b, &vec![0.0; n], &part).unwrap();
        let mut ex = Executor::new(
            BlockJacobiRank::build(locals),
            CostModel::default(),
            ExecMode::Sequential,
        );
        for _ in 0..5 {
            let s = ex.step();
            assert_eq!(s.active_ranks, 5);
            assert_eq!(s.relaxations, n as u64);
            assert_eq!(s.msgs_residual, 0, "BJ never sends explicit updates");
        }
        assert!((ex.stats.mean_active_fraction() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn bj_wire_bytes_counts_payload() {
        // Block Jacobi's leaner message must charge exactly what the
        // `DistMsg::Solve` it replaced charged for the same deltas.
        let m = BjMsg {
            dr: vec![1.0; 3].into(),
        };
        assert_eq!(m.wire_bytes(), 40);
        for n in [0, 1, 8, 11] {
            let dr: SlabVec = vec![0.5; n].into();
            let solve = DistMsg::Solve {
                dr: dr.clone(),
                boundary_r: SlabVec::new(),
                norm_sq: 0.0,
                est_of_target_sq: 0.0,
            };
            assert_eq!(BjMsg { dr }.wire_bytes(), solve.wire_bytes(), "n = {n}");
        }
    }

    #[test]
    fn envelope_footprint_stays_one_slab() {
        // Every byte of a Block Jacobi envelope is written, copied through
        // the epoch close and read back once per edge per step, at ~97 000
        // edges per step on 8192 ranks. A field added to `BjMsg` or
        // `Envelope` must fail here rather than silently in the benchmark.
        // (The `DistMsg` envelope Block Jacobi used to send is 192 bytes.)
        assert!(std::mem::size_of::<Envelope<BjMsg>>() <= 96);
    }

    #[test]
    fn fused_shared_part_charges_every_column_its_scalar_bytes() {
        // The byte counts behind Table 3 and Figure 7: a shared panel part
        // over `k` columns charges the `BjMsg` it carries plus one empty
        // message's fixed cost per extra column, which is exactly `k`
        // scalar puts on that edge. Covers the interleaved Gauss–Seidel
        // sweep, the only local solver with a fused kernel.
        let a = gen::grid2d_poisson(12, 12);
        let n = a.nrows();
        let b = gen::random_rhs(n, 4);
        let part = partition_strip(n, 4);
        let locals = distribute(&a, &b, &vec![0.0; n], &part).unwrap();
        let ranks = BlockJacobiRank::build(locals);
        let id = 1;
        let mut scalar = ranks[id].clone();
        let mut ctx = PhaseCtx::capture(id);
        scalar.phase(0, &[], &mut ctx);
        let (scalar_out, _) = ctx.into_captured();
        assert_eq!(scalar_out.len(), 2, "a middle strip has two neighbors");
        for (_, env) in &scalar_out {
            assert_eq!(env.bytes, env.payload.wire_bytes());
            assert_eq!(
                env.bytes,
                8 * env.payload.dr.len() as u64 + EMPTY_SOLVE_BYTES
            );
        }
        for k in [1usize, 3] {
            let mut panel = PanelRank::new(vec![ranks[id].clone(); k]);
            panel.set_fused(ranks[id].panel_kernel());
            let mut ctx = PhaseCtx::capture(id);
            panel.phase(0, &[], &mut ctx);
            let (fused_out, _) = ctx.into_captured();
            assert_eq!(fused_out.len(), scalar_out.len());
            for ((t, env), (st, senv)) in fused_out.iter().zip(&scalar_out) {
                assert_eq!(t, st);
                let [part] = &env.payload.parts[..] else {
                    panic!("one shared part per neighbor");
                };
                assert_eq!(part.mask.count_ones() as usize, k);
                assert_eq!(
                    part.bytes,
                    part.msg.wire_bytes() + (k as u64 - 1) * EMPTY_SOLVE_BYTES,
                    "k = {k}"
                );
                assert_eq!(part.bytes, k as u64 * senv.bytes, "k = {k}");
            }
        }
    }

    #[test]
    fn only_gauss_seidel_ranks_have_a_fused_panel_kernel() {
        let a = gen::grid2d_poisson(8, 8);
        let n = a.nrows();
        let b = gen::random_rhs(n, 5);
        let part = partition_strip(n, 2);
        let locals = distribute(&a, &b, &vec![0.0; n], &part).unwrap();
        for (solver, fused) in [
            (LocalSolver::GaussSeidel, true),
            (LocalSolver::MulticolorGaussSeidel, false),
            (LocalSolver::Exact, false),
        ] {
            for rank in BlockJacobiRank::build_with_solver(locals.clone(), solver) {
                assert_eq!(rank.panel_kernel().is_some(), fused, "{solver:?}");
            }
        }
    }
}
