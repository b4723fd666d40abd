//! Distributed multigrid: V-cycles where every level lives on the
//! distributed substrate.
//!
//! The scalar [`crate::Multigrid`] smooths, restricts, and prolongs with
//! host loops; this module promotes each piece onto the executor:
//!
//! * **Hierarchy** — every level carries its own [`Partition`]. The finest
//!   level is strip-partitioned; each coarser one *inherits* via
//!   [`agglomerate_coarse`], folding onto fewer ranks as the grid shrinks
//!   (coarse levels on a subset of the machine, transfers neighbor-local).
//! * **Smoothing** — every non-coarsest level runs the row-granular
//!   [`DsLevelSmoother`] protocol with the exact per-level relaxation
//!   budget of the scalar [`Smoother`], bit-identical to the scalar
//!   reference.
//! * **Transfers** — restriction and prolongation run as one-superstep
//!   exchanges on a dedicated executor per level pair whose rank set is
//!   the *union* of the fine and coarse partitions. Every stencil input
//!   crosses the wire as a [`CommClass::Transfer`] message (12 bytes per
//!   `(row, value)` record), so inter-level traffic is accounted per
//!   level exactly like solver traffic.
//!
//! Per-cycle accounting rolls up into a [`CycleReport`] with one
//! [`LevelCycleStats`] per level. A cycle is bit-identical to the scalar
//! [`crate::Multigrid`] with [`Smoother::distributed_southwell`] — same
//! iterates, same residual history — for any partition and any
//! [`ExecMode`].

use crate::dsmooth::{contiguous_ranges, DsLevelSmoother};
use crate::{level_dims, MultigridError, Smoother};
use dsw_partition::{agglomerate_coarse, partition_strip, Partition};
use dsw_rma::{CommClass, CostModel, ExecMode, Executor, Inbox, PhaseCtx, RankAlgorithm};
use dsw_sparse::dense::Cholesky;
use dsw_sparse::gen::grid2d_poisson;
use dsw_sparse::{vecops, CsrMatrix};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Modelled wire size of one `(row: u32, value: f64)` transfer record.
const TRANSFER_REC_BYTES: u64 = 12;

/// Which direction a transfer executor runs this superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Fine residual → coarse right-hand side (`r_c = Pᵀ r_f`).
    Restrict,
    /// Coarse correction → fine grid (`e_f = P e_c`).
    Prolong,
}

/// One rank of the inter-level transfer exchange for a fine/coarse level
/// pair. Executor ranks `0..nf` hold the fine parts, `nf..nf+nc` the
/// coarse parts — disjoint rank sets, so every stencil input arrives by
/// message and is accounted under [`CommClass::Transfer`].
///
/// Two phases per step: sources put their owned values (pre-routed,
/// deduplicated per destination at build time); destinations evaluate the
/// stencils of [`transfer`](crate::transfer) verbatim — same expressions,
/// same FP order — so the distributed operators are bit-identical to the
/// scalar ones.
pub struct TransferRank {
    /// Owned row range on this rank's own grid (fine or coarse).
    rows: Range<usize>,
    fine_dim: usize,
    coarse_dim: usize,
    /// True for fine-side ranks (`0..nf`).
    is_fine: bool,
    /// Direction of the current step (set by the driver out of band).
    mode: TransferMode,
    /// Owned source values, scattered by the driver before a source step.
    input: Vec<f64>,
    /// Owned destination values, gathered by the driver after a step.
    output: Vec<f64>,
    /// `(target executor rank, sorted global source rows)` — the rows of
    /// this rank's grid that `target`'s stencils read.
    sends: Vec<(usize, Vec<u32>)>,
    /// Received `row → value` map (scratch).
    vals: HashMap<u32, f64>,
    /// Static put-target set (sizes the executor's window slots).
    targets: Vec<usize>,
}

impl TransferRank {
    /// This rank sources values in the current mode (fine ranks feed
    /// restriction; coarse ranks feed prolongation).
    fn is_source(&self) -> bool {
        self.is_fine == (self.mode == TransferMode::Restrict)
    }

    /// Evaluates `r_c = Pᵀ r_f` over the owned coarse rows from the
    /// received fine values — the exact expression of
    /// [`transfer::restrict`].
    fn eval_restrict(&mut self) {
        let fd = self.fine_dim;
        let cd = self.coarse_dim;
        let vals = &self.vals;
        let fval = |i: isize, j: isize| -> f64 {
            if i < 0 || j < 0 || i >= fd as isize || j >= fd as isize {
                0.0
            } else {
                *vals
                    .get(&((j as usize * fd + i as usize) as u32))
                    .expect("transfer routing covers every in-range stencil input")
            }
        };
        self.output.clear();
        for c in self.rows.clone() {
            let (jc, ic) = (c / cd, c % cd);
            let fi = 2 * ic as isize + 1;
            let fj = 2 * jc as isize + 1;
            let v = fval(fi, fj)
                + 0.5 * (fval(fi - 1, fj) + fval(fi + 1, fj) + fval(fi, fj - 1) + fval(fi, fj + 1))
                + 0.25
                    * (fval(fi - 1, fj - 1)
                        + fval(fi + 1, fj - 1)
                        + fval(fi - 1, fj + 1)
                        + fval(fi + 1, fj + 1));
            self.output.push(v);
        }
    }

    /// Evaluates `e_f = P e_c` over the owned fine rows from the received
    /// coarse values — the exact expression of [`transfer::prolong`].
    fn eval_prolong(&mut self) {
        let fd = self.fine_dim;
        let cd = self.coarse_dim;
        let vals = &self.vals;
        let cval = |ic: isize, jc: isize| -> f64 {
            if ic < 0 || jc < 0 || ic >= cd as isize || jc >= cd as isize {
                0.0
            } else {
                *vals
                    .get(&((jc as usize * cd + ic as usize) as u32))
                    .expect("transfer routing covers every in-range stencil input")
            }
        };
        self.output.clear();
        for f in self.rows.clone() {
            let (j, i) = (f / fd, f % fd);
            let (ic, irem) = (((i as isize) - 1).div_euclid(2), (i + 1) % 2);
            let (jc, jrem) = (((j as isize) - 1).div_euclid(2), (j + 1) % 2);
            let v = match (irem, jrem) {
                (0, 0) => cval(ic, jc),
                (1, 0) => 0.5 * (cval(ic, jc) + cval(ic + 1, jc)),
                (0, 1) => 0.5 * (cval(ic, jc) + cval(ic, jc + 1)),
                _ => {
                    0.25 * (cval(ic, jc)
                        + cval(ic + 1, jc)
                        + cval(ic, jc + 1)
                        + cval(ic + 1, jc + 1))
                }
            };
            self.output.push(v);
        }
    }
}

impl RankAlgorithm for TransferRank {
    type Msg = Vec<(u32, f64)>;

    fn phases(&self) -> usize {
        2
    }

    fn phase(&mut self, phase: usize, inbox: Inbox<'_, Self::Msg>, ctx: &mut PhaseCtx<Self::Msg>) {
        match phase {
            0 => {
                if self.is_source() {
                    for (target, rows) in &self.sends {
                        let recs: Vec<(u32, f64)> = rows
                            .iter()
                            .map(|&g| (g, self.input[g as usize - self.rows.start]))
                            .collect();
                        let bytes = TRANSFER_REC_BYTES * recs.len() as u64;
                        ctx.put(*target, CommClass::Transfer, recs, bytes);
                    }
                }
            }
            _ => {
                if !self.is_source() {
                    self.vals.clear();
                    for env in inbox {
                        for &(g, v) in &env.payload {
                            self.vals.insert(g, v);
                        }
                    }
                    match self.mode {
                        TransferMode::Restrict => self.eval_restrict(),
                        TransferMode::Prolong => self.eval_prolong(),
                    }
                }
            }
        }
    }

    fn put_targets(&self) -> Vec<usize> {
        self.targets.clone()
    }
}

/// The in-range fine rows the restriction stencil of coarse row `c` reads.
fn restrict_sources(c: usize, fd: usize, cd: usize) -> Vec<usize> {
    let (jc, ic) = (c / cd, c % cd);
    let (fi, fj) = (2 * ic as isize + 1, 2 * jc as isize + 1);
    let mut out = Vec::with_capacity(9);
    for dj in -1isize..=1 {
        for di in -1isize..=1 {
            let (i, j) = (fi + di, fj + dj);
            if i >= 0 && j >= 0 && i < fd as isize && j < fd as isize {
                out.push(j as usize * fd + i as usize);
            }
        }
    }
    out
}

/// The in-range coarse rows the prolongation of fine row `f` reads.
fn prolong_sources(f: usize, fd: usize, cd: usize) -> Vec<usize> {
    let (j, i) = (f / fd, f % fd);
    let (ic, irem) = (((i as isize) - 1).div_euclid(2), (i + 1) % 2);
    let (jc, jrem) = (((j as isize) - 1).div_euclid(2), (j + 1) % 2);
    let mut out = Vec::with_capacity(4);
    let push = |ic: isize, jc: isize, out: &mut Vec<usize>| {
        if ic >= 0 && jc >= 0 && (ic as usize) < cd && (jc as usize) < cd {
            out.push(jc as usize * cd + ic as usize);
        }
    };
    match (irem, jrem) {
        (0, 0) => push(ic, jc, &mut out),
        (1, 0) => {
            push(ic, jc, &mut out);
            push(ic + 1, jc, &mut out);
        }
        (0, 1) => {
            push(ic, jc, &mut out);
            push(ic, jc + 1, &mut out);
        }
        _ => {
            push(ic, jc, &mut out);
            push(ic + 1, jc, &mut out);
            push(ic, jc + 1, &mut out);
            push(ic + 1, jc + 1, &mut out);
        }
    }
    out
}

/// Builds the transfer executor for one fine/coarse level pair: routing
/// lists for both directions are precomputed (per destination,
/// deduplicated, sorted) so a transfer is a single superstep.
fn build_transfer(
    fine_part: &Partition,
    coarse_part: &Partition,
    fd: usize,
    cd: usize,
    model: CostModel,
    mode: ExecMode,
) -> Result<Executor<TransferRank>, MultigridError> {
    let franges = contiguous_ranges(fine_part)?;
    let cranges = contiguous_ranges(coarse_part)?;
    let nf = franges.len();
    let nranks = nf + cranges.len();
    let mut sends: Vec<HashMap<usize, Vec<u32>>> = vec![HashMap::new(); nranks];
    // Restriction: fine parts feed coarse parts.
    for c in 0..cd * cd {
        let dest = nf + coarse_part.part_of(c);
        for g in restrict_sources(c, fd, cd) {
            let src = fine_part.part_of(g);
            sends[src].entry(dest).or_default().push(g as u32);
        }
    }
    // Prolongation: coarse parts feed fine parts.
    for f in 0..fd * fd {
        let dest = fine_part.part_of(f);
        for g in prolong_sources(f, fd, cd) {
            let src = nf + coarse_part.part_of(g);
            sends[src].entry(dest).or_default().push(g as u32);
        }
    }
    let finish = |map: HashMap<usize, Vec<u32>>| -> (Vec<(usize, Vec<u32>)>, Vec<usize>) {
        let mut lists: Vec<(usize, Vec<u32>)> = map
            .into_iter()
            .map(|(t, mut rows)| {
                rows.sort_unstable();
                rows.dedup();
                (t, rows)
            })
            .collect();
        lists.sort_unstable_by_key(|(t, _)| *t);
        let targets = lists.iter().map(|(t, _)| *t).collect();
        (lists, targets)
    };
    let mut ranks = Vec::with_capacity(nranks);
    let mut send_iter = sends.into_iter();
    for rows in franges {
        let (lists, targets) = finish(send_iter.next().expect("one send map per rank"));
        ranks.push(TransferRank {
            input: vec![0.0; rows.len()],
            rows,
            fine_dim: fd,
            coarse_dim: cd,
            is_fine: true,
            mode: TransferMode::Restrict,
            output: Vec::new(),
            sends: lists,
            vals: HashMap::new(),
            targets,
        });
    }
    for rows in cranges {
        let (lists, targets) = finish(send_iter.next().expect("one send map per rank"));
        ranks.push(TransferRank {
            input: vec![0.0; rows.len()],
            rows,
            fine_dim: fd,
            coarse_dim: cd,
            is_fine: false,
            mode: TransferMode::Restrict,
            output: Vec::new(),
            sends: lists,
            vals: HashMap::new(),
            targets,
        });
    }
    Ok(Executor::new(ranks, model, mode))
}

/// A persistent inter-level transfer exchange: the union-rank executor
/// for one fine/coarse level pair, reusable in both directions. Both
/// operations are bit-identical to the scalar
/// [`transfer`](crate::transfer) operators for any partition pair and any
/// [`ExecMode`].
pub struct TransferExchange {
    ex: Executor<TransferRank>,
    fine_dim: usize,
    coarse_dim: usize,
}

impl TransferExchange {
    /// Builds the exchange for a `fd → cd = (fd − 1)/2` level pair whose
    /// levels are partitioned by `fine_part` and `coarse_part`
    /// (contiguous-ascending layouts, as produced by
    /// [`partition_strip`] / [`agglomerate_coarse`]).
    pub fn new(
        fine_part: &Partition,
        coarse_part: &Partition,
        fd: usize,
        cd: usize,
        model: CostModel,
        mode: ExecMode,
    ) -> Result<Self, MultigridError> {
        if fd != 2 * cd + 1 {
            return Err(MultigridError::Setup(format!(
                "transfer pair needs fd = 2·cd + 1, got fine {fd}, coarse {cd}"
            )));
        }
        Ok(TransferExchange {
            ex: build_transfer(fine_part, coarse_part, fd, cd, model, mode)?,
            fine_dim: fd,
            coarse_dim: cd,
        })
    }

    /// Distributed `r_c = Pᵀ r_f` — one superstep on the substrate,
    /// bit-identical to [`transfer::restrict`](crate::transfer::restrict).
    pub fn restrict(&mut self, fine: &[f64]) -> Vec<f64> {
        let cd = self.coarse_dim;
        self.run(TransferMode::Restrict, fine, cd * cd)
    }

    /// Distributed `e_f = P e_c` — one superstep on the substrate,
    /// bit-identical to [`transfer::prolong`](crate::transfer::prolong).
    pub fn prolong(&mut self, coarse: &[f64]) -> Vec<f64> {
        let fd = self.fine_dim;
        self.run(TransferMode::Prolong, coarse, fd * fd)
    }

    /// Harvests the substrate statistics accrued since the last harvest
    /// (all traffic is [`CommClass::Transfer`]).
    pub fn take_epoch(&mut self) -> dsw_rma::RunStats {
        self.ex.stats.take_epoch()
    }

    /// Runs one transfer superstep: scatters `src` to the source side,
    /// steps the executor (put phase + evaluate phase), gathers the
    /// destination side into a fresh vector of length `dst_len`.
    fn run(&mut self, mode: TransferMode, src: &[f64], dst_len: usize) -> Vec<f64> {
        for rank in self.ex.ranks_mut() {
            rank.mode = mode;
            if rank.is_source() {
                rank.input.copy_from_slice(&src[rank.rows.clone()]);
            }
        }
        self.ex.step();
        let mut dst = vec![0.0; dst_len];
        for rank in self.ex.ranks() {
            if !rank.is_source() {
                dst[rank.rows.clone()].copy_from_slice(&rank.output);
            }
        }
        dst
    }
}

/// Configuration of a [`DistMultigrid`]. Every non-coarsest level smooths
/// with row-granular Distributed Southwell under an exact relaxation
/// budget of `sweeps × n` per application — the distributed twin of
/// [`Smoother::DistributedSouthwell`], bit-identical to it.
#[derive(Debug, Clone, Copy)]
pub struct DistMultigridConfig {
    /// DS relaxation budget in sweeps (1.0 = "1 sweep", 0.5 = "½ sweep").
    pub sweeps: f64,
    /// Seed for the DS final-step subset choice.
    pub seed: u64,
    /// Superstep scheduling of every executor in the hierarchy. DS needs
    /// lock-step supersteps: the exact budget is coordinated between them.
    pub mode: ExecMode,
    /// Parts on the finest level (clamped to the row count).
    pub nparts: usize,
    /// Agglomeration floor: coarse partitions fold onto fewer ranks until
    /// every part keeps at least this many rows.
    pub min_rows_per_part: usize,
    /// The α–β–γ time model for every executor in the hierarchy.
    pub cost_model: CostModel,
}

impl Default for DistMultigridConfig {
    fn default() -> Self {
        DistMultigridConfig {
            sweeps: 1.0,
            seed: 0,
            mode: ExecMode::Sequential,
            nparts: 4,
            min_rows_per_part: 64,
            cost_model: CostModel::default(),
        }
    }
}

/// One level of the distributed hierarchy.
pub struct DistLevel {
    /// Interior grid dimension.
    pub dim: usize,
    /// The 5-point operator at this level.
    pub a: Arc<CsrMatrix>,
    /// This level's row partition (strip on the finest level,
    /// agglomerated on coarser ones).
    pub partition: Partition,
    rhs: Vec<f64>,
    sol: Vec<f64>,
    /// The level's DS smoother (`None` on the coarsest level, which is
    /// solved exactly).
    smoother: Option<DsLevelSmoother>,
    /// Transfer exchange to the next coarser level (`None` on the
    /// coarsest).
    transfer: Option<TransferExchange>,
}

/// Per-level accounting of one multigrid cycle.
#[derive(Debug, Clone, Default)]
pub struct LevelCycleStats {
    /// Level index (0 = finest).
    pub level: usize,
    /// Interior grid dimension of the level.
    pub dim: usize,
    /// Ranks smoothing the level.
    pub nranks: usize,
    /// Rows relaxed by this level's smoother during the cycle.
    pub relaxations: u64,
    /// Smoother messages (solve + residual classes).
    pub smooth_msgs: u64,
    /// Smoother payload bytes.
    pub smooth_bytes: u64,
    /// Smoother parallel steps.
    pub smooth_steps: u64,
    /// Inter-level transfer messages charged to this (finer) level.
    pub transfer_msgs: u64,
    /// Inter-level transfer payload bytes.
    pub transfer_bytes: u64,
}

/// The report of one distributed multigrid cycle.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Relative residual `‖b − Ax‖ / ‖b‖` on the finest level after the
    /// cycle.
    pub rel_residual: f64,
    /// Per-level accounting, finest first.
    pub levels: Vec<LevelCycleStats>,
}

impl CycleReport {
    /// Total messages of the cycle, all levels, smoothing + transfers.
    pub fn total_msgs(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.smooth_msgs + l.transfer_msgs)
            .sum()
    }

    /// Total payload bytes of the cycle.
    pub fn total_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.smooth_bytes + l.transfer_bytes)
            .sum()
    }

    /// Total relaxations of the cycle across all levels.
    pub fn total_relaxations(&self) -> u64 {
        self.levels.iter().map(|l| l.relaxations).sum()
    }
}

/// A geometric multigrid solver whose every level lives on the
/// distributed substrate (see the module docs).
pub struct DistMultigrid {
    /// Levels, finest first.
    pub levels: Vec<DistLevel>,
    coarse_solver: Cholesky,
    sweeps: f64,
    seed: u64,
}

impl DistMultigrid {
    /// Builds a distributed hierarchy for a `dim × dim` interior grid
    /// under `cfg`. Errs on inadmissible dimensions.
    pub fn try_new(dim: usize, cfg: DistMultigridConfig) -> Result<Self, MultigridError> {
        let dims = level_dims(dim)?;
        let nlev = dims.len();
        let n0 = dim * dim;
        let mut partitions: Vec<Partition> = Vec::with_capacity(nlev);
        partitions.push(partition_strip(n0, cfg.nparts.clamp(1, n0)));
        for w in dims.windows(2) {
            let coarse = agglomerate_coarse(
                partitions.last().expect("finest partition pushed above"),
                w[0],
                w[1],
                cfg.min_rows_per_part,
            )
            .map_err(|e| MultigridError::Setup(e.to_string()))?;
            partitions.push(coarse);
        }
        let mut levels: Vec<DistLevel> = Vec::with_capacity(nlev);
        for (l, (&d, part)) in dims.iter().zip(partitions).enumerate() {
            let n = d * d;
            let a = Arc::new(grid2d_poisson(d, d));
            let smoother = if l == nlev - 1 {
                None
            } else {
                Some(DsLevelSmoother::new(&a, &part, cfg.mode, cfg.cost_model)?)
            };
            levels.push(DistLevel {
                dim: d,
                a,
                partition: part,
                rhs: vec![0.0; n],
                sol: vec![0.0; n],
                smoother,
                transfer: None,
            });
        }
        for l in 0..nlev - 1 {
            let ex = TransferExchange::new(
                &levels[l].partition,
                &levels[l + 1].partition,
                dims[l],
                dims[l + 1],
                cfg.cost_model,
                cfg.mode,
            )?;
            levels[l].transfer = Some(ex);
        }
        let coarsest = levels.last().expect("hierarchy has at least one level");
        let coarse_solver = Cholesky::factor_csr(&coarsest.a)
            .map_err(|e| MultigridError::CoarseFactorization(e.to_string()))?;
        Ok(DistMultigrid {
            levels,
            coarse_solver,
            sweeps: cfg.sweeps,
            seed: cfg.seed,
        })
    }

    /// One V-cycle for `A x = b` on the finest level, updating `x`.
    /// Returns the per-level accounting and the relative residual
    /// afterwards.
    pub fn vcycle(&mut self, b: &[f64], x: &mut [f64]) -> CycleReport {
        let n = self.levels[0].dim * self.levels[0].dim;
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        let mut stats: Vec<LevelCycleStats> = self
            .levels
            .iter()
            .enumerate()
            .map(|(l, lev)| LevelCycleStats {
                level: l,
                dim: lev.dim,
                nranks: lev.partition.nparts(),
                ..LevelCycleStats::default()
            })
            .collect();
        self.levels[0].rhs.copy_from_slice(b);
        self.levels[0].sol.copy_from_slice(x);
        self.cycle(0, &mut stats);
        x.copy_from_slice(&self.levels[0].sol);
        let bnorm = vecops::norm2(b).max(1e-300);
        let rel_residual = vecops::norm2(&self.levels[0].a.residual(b, x)) / bnorm;
        CycleReport {
            rel_residual,
            levels: stats,
        }
    }

    fn cycle(&mut self, l: usize, stats: &mut Vec<LevelCycleStats>) {
        if l == self.levels.len() - 1 {
            // Exact coarse solve — same host path as the scalar solver.
            let lev = &mut self.levels[l];
            let r = lev.a.residual(&lev.rhs, &lev.sol);
            let e = self.coarse_solver.solve(&r);
            for (s, ei) in lev.sol.iter_mut().zip(&e) {
                *s += ei;
            }
            return;
        }
        // Pre-smooth (same salt as the scalar cycle).
        self.smooth_level(l, l as u64, stats);
        // Restrict the residual on the substrate.
        let r = {
            let lev = &self.levels[l];
            lev.a.residual(&lev.rhs, &lev.sol)
        };
        let rc = self.run_transfer(l, TransferMode::Restrict, &r, stats);
        {
            let coarse = &mut self.levels[l + 1];
            coarse.rhs.copy_from_slice(&rc);
            coarse.sol.iter_mut().for_each(|v| *v = 0.0);
        }
        self.cycle(l + 1, stats);
        // Prolong and correct on the substrate.
        let csol = self.levels[l + 1].sol.clone();
        let e = self.run_transfer(l, TransferMode::Prolong, &csol, stats);
        {
            let lev = &mut self.levels[l];
            for (s, ei) in lev.sol.iter_mut().zip(&e) {
                *s += ei;
            }
        }
        // Post-smooth (same salt as the scalar cycle).
        self.smooth_level(l, 1_000_000 + l as u64, stats);
    }

    fn smooth_level(&mut self, l: usize, salt: u64, stats: &mut [LevelCycleStats]) {
        let DistLevel {
            a,
            rhs,
            sol,
            smoother,
            ..
        } = &mut self.levels[l];
        let Some(sm) = smoother else {
            return;
        };
        let budget = Smoother::distributed_southwell(self.sweeps, self.seed).budget(a.nrows());
        if budget == 0 {
            return;
        }
        let pass_seed = self.seed ^ salt.wrapping_mul(0x9e3779b97f4a7c15);
        let s = sm.smooth(a, rhs, sol, budget, pass_seed);
        let st = &mut stats[l];
        st.relaxations += s.relaxations;
        st.smooth_msgs += s.solve_msgs + s.res_msgs;
        st.smooth_bytes += s.bytes;
        st.smooth_steps += s.steps;
    }

    fn run_transfer(
        &mut self,
        l: usize,
        mode: TransferMode,
        src: &[f64],
        stats: &mut [LevelCycleStats],
    ) -> Vec<f64> {
        let ex = self.levels[l]
            .transfer
            .as_mut()
            .expect("every non-coarsest level has a transfer exchange");
        let out = match mode {
            TransferMode::Restrict => ex.restrict(src),
            TransferMode::Prolong => ex.prolong(src),
        };
        let ep = ex.take_epoch();
        let st = &mut stats[l];
        st.transfer_msgs += ep.total_msgs();
        st.transfer_bytes += ep.total_bytes();
        out
    }

    /// Runs `cycles` cycles from a zero initial guess; returns the final
    /// iterate, the relative residual after each cycle (the Figure 6
    /// quantity), and the full per-cycle reports.
    pub fn solve(&mut self, b: &[f64], cycles: usize) -> (Vec<f64>, Vec<f64>, Vec<CycleReport>) {
        let n = self.levels[0].dim * self.levels[0].dim;
        let mut x = vec![0.0; n];
        let mut history = Vec::with_capacity(cycles);
        let mut reports = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            let rep = self.vcycle(b, &mut x);
            history.push(rep.rel_residual);
            reports.push(rep);
        }
        (x, history, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{transfer, Multigrid};
    use dsw_partition::partition_strip;
    use dsw_sparse::gen;

    #[test]
    fn distributed_transfers_match_scalar_operators_bitwise() {
        for &(fd, cd, nf, nc) in &[
            (7usize, 3usize, 3usize, 1usize),
            (15, 7, 4, 2),
            (31, 15, 5, 3),
        ] {
            let fpart = partition_strip(fd * fd, nf);
            let cpart = partition_strip(cd * cd, nc);
            let mut ex = TransferExchange::new(
                &fpart,
                &cpart,
                fd,
                cd,
                CostModel::default(),
                ExecMode::Sequential,
            )
            .expect("valid transfer pair");
            let rf = gen::random_rhs(fd * fd, 11);
            let ec = gen::random_rhs(cd * cd, 13);
            assert_eq!(
                ex.restrict(&rf),
                transfer::restrict(&rf, fd, cd),
                "restrict {fd}->{cd}"
            );
            assert_eq!(
                ex.prolong(&ec),
                transfer::prolong(&ec, cd, fd),
                "prolong {cd}->{fd}"
            );
            // Transfers moved real messages on the substrate.
            let ep = ex.take_epoch();
            assert!(ep.total_msgs_transfer() > 0);
            assert_eq!(ep.total_msgs(), ep.total_msgs_transfer());
        }
    }

    #[test]
    fn ds_vcycles_match_the_scalar_multigrid_bitwise() {
        for &(dim, nparts) in &[(15usize, 1usize), (15, 4), (31, 6)] {
            for &sweeps in &[1.0f64, 0.5] {
                let n = dim * dim;
                let b = gen::random_rhs(n, 21);
                let mut scalar = Multigrid::new(dim, Smoother::distributed_southwell(sweeps, 9));
                let (x_ref, hist_ref) = scalar.solve(&b, 4);
                let cfg = DistMultigridConfig {
                    sweeps,
                    seed: 9,
                    nparts,
                    min_rows_per_part: 16,
                    ..DistMultigridConfig::default()
                };
                let mut dist = DistMultigrid::try_new(dim, cfg).expect("valid hierarchy");
                let (x, hist, reports) = dist.solve(&b, 4);
                assert_eq!(x, x_ref, "dim {dim} nparts {nparts} sweeps {sweeps}");
                assert_eq!(hist, hist_ref);
                // Smoothing happened on the substrate with real traffic.
                let rep = &reports[0];
                assert!(rep.total_relaxations() > 0);
                assert!(rep.levels[0].transfer_msgs > 0);
                if nparts > 1 {
                    assert!(rep.levels[0].smooth_msgs > 0);
                }
            }
        }
    }

    #[test]
    fn threaded_backend_is_bit_identical() {
        let dim = 15;
        let n = dim * dim;
        let b = gen::random_rhs(n, 33);
        let run = |mode: ExecMode| {
            let cfg = DistMultigridConfig {
                seed: 5,
                mode,
                nparts: 4,
                min_rows_per_part: 16,
                ..DistMultigridConfig::default()
            };
            DistMultigrid::try_new(dim, cfg)
                .expect("valid hierarchy")
                .solve(&b, 3)
        };
        let (x_seq, hist_seq, _) = run(ExecMode::Sequential);
        let (x_thr, hist_thr, _) = run(ExecMode::Threaded(3));
        assert_eq!(x_seq, x_thr);
        assert_eq!(hist_seq, hist_thr);
    }

    #[test]
    fn agglomerated_hierarchy_shrinks_rank_counts() {
        let cfg = DistMultigridConfig {
            nparts: 8,
            min_rows_per_part: 32,
            ..DistMultigridConfig::default()
        };
        let mg = DistMultigrid::try_new(63, cfg).expect("valid hierarchy");
        let nranks: Vec<usize> = mg.levels.iter().map(|l| l.partition.nparts()).collect();
        assert_eq!(nranks[0], 8);
        assert!(
            nranks.windows(2).all(|w| w[1] <= w[0]),
            "coarse levels fold onto fewer ranks: {nranks:?}"
        );
        assert_eq!(*nranks.last().expect("has levels"), 1);
    }
}
