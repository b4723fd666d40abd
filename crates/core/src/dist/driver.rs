//! Run loop for the distributed solvers: steps the executor, tracks the
//! true global residual out-of-band (the measurement hook, as in the
//! paper's harness), and detects convergence, divergence, and deadlock.

use super::distributed_southwell::DsConfig;
use super::layout::{distribute, LocalSystem};
use super::recovery::Recoverable;
use super::session::WarmStart;
use super::verdict::{nudge_all, Boundary, Transition, Verdict};
use crate::history::interpolate_crossing;
use dsw_partition::{Partition, Redundancy, ReplicaMap};
use dsw_rma::{
    AsyncExecutor, AsyncOptions, ChaosConfig, CloseMode, CostModel, ExecMode, Executor,
    MonitorStats, RankAlgorithm, RedundantHost, RunStats, SharedPool, StepStats,
};
use dsw_sparse::CsrMatrix;
use std::time::Instant;

/// Which distributed method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Algorithm 1.
    BlockJacobi,
    /// Algorithm 2 (with explicit residual updates).
    ParallelSouthwell,
    /// Algorithm 2 without explicit updates — the deadlock-prone ICCS'16
    /// scheme, kept as a foil.
    ParallelSouthwellPiggybackOnly,
    /// Algorithm 3 — the paper's contribution.
    DistributedSouthwell,
}

impl Method {
    /// Short display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Method::BlockJacobi => "BJ",
            Method::ParallelSouthwell => "PS",
            Method::ParallelSouthwellPiggybackOnly => "PS-iccs16",
            Method::DistributedSouthwell => "DS",
        }
    }
}

/// How the driver monitors global convergence between parallel steps.
///
/// The paper's whole point (§3) is that residual norms are tracked
/// *locally*, without global reductions — so a driver that gathers the
/// solution and recomputes `‖b − Ax‖₂` after every superstep spends its
/// wall-clock on exactly the global operation the method eliminates.
/// [`MonitorMode::Maintained`] instead sums the per-rank maintained norms
/// (`O(P)` scalars, no gather, no SpMV) and falls back to the exact
/// recompute only where correctness demands it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorMode {
    /// Recompute the exact `‖b − Ax‖₂` at every step boundary (gather +
    /// SpMV — the original measurement hook; `O(n + nnz)` per step).
    Exact,
    /// Drive the step records from the `O(P)` maintained-norm sum. The
    /// exact norm is recomputed only
    ///
    /// * every `verify_every` steps (`0` disables the periodic check),
    /// * before any convergence, divergence, or deadlock verdict is
    ///   declared (**verified convergence** — under chaos drops or
    ///   threshold coalescing the maintained norms can drift, so a claim
    ///   from them alone is never trusted), and
    /// * at the final step, so the last record is always exact.
    ///
    /// Observed drift between the two is recorded in
    /// [`MonitorStats::max_rel_drift`]. With a reliable transport and
    /// coalescing off the maintained norms are exact at every boundary
    /// (up to round-off) and runs behave identically to
    /// [`MonitorMode::Exact`].
    Maintained {
        /// Periodic exact-verification cadence in steps (`0` = only on
        /// verdicts and at the end of the run).
        verify_every: usize,
    },
}

impl Default for MonitorMode {
    /// Maintained monitoring with a 10-step verification cadence: at the
    /// paper's 50-step horizon this bounds undetected drift to 10 steps
    /// while keeping 80–98% of the per-step gather + SpMV cost off the
    /// driver.
    fn default() -> Self {
        MonitorMode::Maintained { verify_every: 10 }
    }
}

/// Which execution substrate drives the ranks.
///
/// Both backends run the same [`RankAlgorithm`] programs and the same
/// driver stack (verified monitoring, watchdog, recovery accounting) —
/// what changes is *when* phases run and puts land:
///
/// * [`ExecBackend::Superstep`] is the lock-step [`Executor`]: every rank
///   runs every phase each parallel step, puts become visible at the next
///   epoch close. Records are per parallel step.
/// * [`ExecBackend::Async`] is the [`AsyncExecutor`]: per-rank phase
///   clocks, a pseudo-random subset advances each scheduler tick (bounded
///   by `max_lag`, optionally skewed by the straggler model), and puts
///   land at the target's next phase boundary. Records are per tick, and
///   `max_steps` counts *logical* full steps — the run ends when the
///   slowest rank has completed that many.
#[derive(Debug, Clone, Copy)]
pub enum ExecBackend {
    /// Lock-step supersteps, sequential or on the persistent worker pool.
    Superstep(ExecMode),
    /// Independent per-rank phase clocks under a probabilistic scheduler.
    Async(AsyncOptions),
}

impl Default for ExecBackend {
    fn default() -> Self {
        ExecBackend::Superstep(ExecMode::Sequential)
    }
}

impl From<ExecMode> for ExecBackend {
    fn from(mode: ExecMode) -> Self {
        ExecBackend::Superstep(mode)
    }
}

/// Options for a distributed run.
#[derive(Debug, Clone, Copy)]
pub struct DistOptions {
    /// Maximum parallel steps (the paper uses 50). On the async backend
    /// these are logical full steps of the slowest rank.
    pub max_steps: usize,
    /// Stop once the global residual norm reaches this value.
    pub target_residual: Option<f64>,
    /// The α–β–γ time model.
    pub cost_model: CostModel,
    /// Execution substrate: lock-step supersteps (sequential or threaded,
    /// identical results) or the asynchronous per-rank scheduler.
    pub backend: ExecBackend,
    /// Where epoch closes run (serial reference or the worker pool; all
    /// solvers declare their neighbor sets, so the executor routes
    /// target-major either way — identical results). Superstep backend
    /// only; the async scheduler has no epoch close.
    pub close_mode: CloseMode,
    /// Configuration for Distributed Southwell (ablations). Its
    /// `local_solver` field is also honored by Block Jacobi and Parallel
    /// Southwell.
    pub ds_config: DsConfig,
    /// Stop once the residual exceeds this multiple of the initial norm
    /// (`None` runs through divergence, as the paper's 50-step sweeps do).
    pub divergence_cutoff: Option<f64>,
    /// Fault injection at the substrate's epoch boundaries (drops,
    /// duplicates, delays, stalls). [`ChaosConfig::none`] — the default —
    /// is a perfectly reliable transport.
    pub chaos: ChaosConfig,
    /// How the global residual norm is obtained between steps
    /// (incremental by default; see [`MonitorMode`]).
    pub monitor: MonitorMode,
    /// Redundancy-coded block placement: `Some(r)` hosts every block on
    /// `r` ranks (replica sets derived deterministically from the
    /// placement seed; see [`dsw_partition::ReplicaMap`]), routes every
    /// logical message to all hosts with first-arrival-wins
    /// reconciliation, and treats a replica set as one logical owner in
    /// the solver protocol. `None` (default) and `Some(r = 1)` are the
    /// uncoded identity placement (`r = 1` still validates the factor).
    /// Extra replica traffic is accounted under
    /// [`dsw_rma::CommClass::Redundancy`].
    pub redundancy: Option<Redundancy>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            max_steps: 50,
            target_residual: Some(0.1),
            cost_model: CostModel::default(),
            backend: ExecBackend::default(),
            close_mode: CloseMode::default(),
            ds_config: DsConfig::default(),
            divergence_cutoff: Some(1e12),
            chaos: ChaosConfig::none(),
            monitor: MonitorMode::default(),
            redundancy: None,
        }
    }
}

impl DistOptions {
    /// Checks the warm-start preconditions of persistent sessions and
    /// fused panels, and returns the superstep exec mode: superstep
    /// backend, reliable transport, no coded redundancy, unbuffered solve
    /// messages (`solve_msg_threshold == 0`), recovery off. Under them the
    /// only payloads in flight at a step boundary are norm estimates, so a
    /// reseed may discard them. `who` names the caller in the panic.
    pub(crate) fn warm_start_mode(&self, who: &str) -> ExecMode {
        let ExecBackend::Superstep(mode) = self.backend else {
            panic!("{who} requires the superstep backend (warm-start precondition)")
        };
        assert!(
            !self.chaos.is_active(),
            "{who} requires a reliable transport (warm-start precondition)"
        );
        assert!(
            self.redundancy.is_none(),
            "{who} does not support coded redundancy"
        );
        assert_eq!(
            self.ds_config.solve_msg_threshold, 0.0,
            "{who} requires unbuffered solve messages (warm-start precondition)"
        );
        assert!(
            !self.ds_config.recovery.is_active(),
            "{who} requires the recovery layer off (discarding in-flight \
             messages would violate sequencing)"
        );
        mode
    }
}

/// The `O(P)` maintained view of the global residual norm.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MaintainedNorm {
    /// `√Σ_p ‖r_p‖²` over the per-rank maintained residuals.
    pub(crate) norm: f64,
    /// `√Σ_p` undelivered-delta² — the root-sum-square of every parked
    /// and in-flight ghost delta. On a reliable link the true norm
    /// differs from `norm` by at most the norm of the summed deltas;
    /// `slack` equals that when deltas hit disjoint rows and understates
    /// it by at most a small overlap factor otherwise, so the monitor
    /// uses it to *widen* its verify trigger, never as a proof — every
    /// verdict is confirmed by an exact recompute regardless.
    pub(crate) slack: f64,
}

/// Out-of-band residual measurement with reusable scratch, lifetime-free.
///
/// Owns the gather and SpMV buffers (allocated once per run, not per
/// step) and the [`MonitorStats`] counters, but *not* the system: every
/// measurement takes `(a, b)` as arguments. This lets a persistent
/// [`SolveSession`](crate::dist::session::SolveSession) — which owns its
/// matrix and right-hand side — hold monitor scratch across solves
/// without a self-referential borrow.
pub(crate) struct MonitorCore {
    /// Gather scratch: every owned row is overwritten on each gather (the
    /// parts partition `0..n`), so no per-use zeroing is needed.
    x: Vec<f64>,
    /// SpMV output scratch.
    ax: Vec<f64>,
    /// Cost and drift observables (copied into `RunStats` by the driver).
    pub(crate) stats: MonitorStats,
}

impl MonitorCore {
    /// Allocates the scratch for `‖b − Ax‖` measurements on an
    /// `n`-dimensional system.
    pub(crate) fn new(n: usize) -> Self {
        MonitorCore {
            x: vec![0.0; n],
            ax: vec![0.0; n],
            stats: MonitorStats::default(),
        }
    }

    /// The `O(P)` maintained global norm: a sum of per-block scalars, no
    /// gather, no SpMV, independent of `n` and `nnz`. `None` if the
    /// algorithm does not maintain local norms
    /// ([`RankAlgorithm::maintained_norm_sq`]). The drive loops read
    /// global state through a [`NormView`], so the uncoded run (one block
    /// per rank), a redundancy-coded run (one representative per replica
    /// set) and a panel column share one loop body and one accounting
    /// path.
    pub(crate) fn maintained_view<R: RankAlgorithm>(
        &mut self,
        ranks: &[R],
        view: &impl NormView<R>,
    ) -> Option<MaintainedNorm> {
        let t0 = Instant::now();
        let (norm_sq, slack_sq) = view.maintained_sums(ranks)?;
        self.stats.evals += 1;
        self.stats.eval_ns += t0.elapsed().as_nanos() as u64;
        Some(MaintainedNorm {
            norm: norm_sq.sqrt(),
            slack: slack_sq.sqrt(),
        })
    }

    /// The exact `‖b − Ax‖₂`: gather into the reusable scratch, one SpMV,
    /// one norm — `O(n + nnz)`.
    pub(crate) fn exact_view<R: RankAlgorithm>(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        ranks: &[R],
        view: &impl NormView<R>,
    ) -> f64 {
        let t0 = Instant::now();
        view.scatter_into(ranks, &mut self.x);
        a.spmv(&self.x, &mut self.ax);
        let norm_sq: f64 = b
            .iter()
            .zip(&self.ax)
            .map(|(&b, &ax)| {
                let d = b - ax;
                d * d
            })
            .sum();
        self.stats.verifications += 1;
        self.stats.verify_ns += t0.elapsed().as_nanos() as u64;
        norm_sq.sqrt()
    }

    /// Gathers the current global solution (reuses the scratch buffer,
    /// clones out once — for the end-of-run report).
    pub(crate) fn gather_view<R: RankAlgorithm>(
        &mut self,
        ranks: &[R],
        view: &impl NormView<R>,
    ) -> Vec<f64> {
        view.scatter_into(ranks, &mut self.x);
        self.x.clone()
    }

    /// First half of a boundary measurement: the `O(P)` maintained sum
    /// (maintained mode only) and the verdict's exact-norm trigger
    /// ([`Verdict::needs_exact`]). Split from [`MonitorCore::measure`] so
    /// a fused panel can block several columns' exact recomputes into one
    /// SpMV.
    pub(crate) fn read<R: RankAlgorithm>(
        &mut self,
        ranks: &[R],
        view: &impl NormView<R>,
        verdict: &Verdict,
        at: Boundary,
    ) -> Reading {
        let m = match verdict.monitor {
            MonitorMode::Maintained { .. } => self.maintained_view(ranks, view),
            MonitorMode::Exact => None,
        };
        match m {
            Some(m) if !verdict.needs_exact(m, at) => Reading::Maintained(m.norm),
            m => Reading::Exact(m),
        }
    }

    /// Second half: records the drift between a maintained reading and
    /// the exact norm `e` that confirmed it; returns `e`.
    pub(crate) fn confirm(&mut self, e: f64, m: Option<MaintainedNorm>) -> f64 {
        if let Some(m) = m {
            self.stats.record_drift(e, m.norm);
        }
        e
    }

    /// Measures one boundary: `(norm, verified)` — `norm` is what the
    /// record carries, `verified` says it is the exact norm (verdicts
    /// require that).
    pub(crate) fn measure<R: RankAlgorithm>(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        ranks: &[R],
        view: &impl NormView<R>,
        verdict: &Verdict,
        at: Boundary,
    ) -> (f64, bool) {
        match self.read(ranks, view, verdict, at) {
            Reading::Maintained(norm) => (norm, false),
            Reading::Exact(m) => {
                let e = self.exact_view(a, b, ranks, view);
                (self.confirm(e, m), true)
            }
        }
    }
}

/// How a boundary's norm is obtained ([`MonitorCore::read`]).
pub(crate) enum Reading {
    /// The maintained sum stands; no exact recompute.
    Maintained(f64),
    /// An exact recompute must follow; carries the maintained reading, if
    /// one was taken, for the drift record.
    Exact(Option<MaintainedNorm>),
}

/// How a drive loop reads global solver state out of a rank set: each
/// logical block contributes exactly once, whatever the physical hosting.
///
/// The uncoded [`DirectView`] is the identity (rank = block). The coded
/// [`ReplicaView`] reads each block from its freshest replica and declares
/// the replica sets as scheduler lag groups.
pub(crate) trait NormView<R: RankAlgorithm> {
    /// The solver state a logical block is read from.
    type Block: RankAlgorithm;

    /// Every logical block's current state, each exactly once, in block
    /// order.
    fn blocks<'a>(&'a self, ranks: &'a [R]) -> impl Iterator<Item = &'a Self::Block>;

    /// A block's local system (its rows and iterate).
    fn local<'a>(&self, block: &'a Self::Block) -> &'a LocalSystem;

    /// Lag groups for the asynchronous scheduler: ranks hosting a common
    /// block progress as one logical owner, so a replica-covered straggler
    /// stops gating the lag bound. `None` keeps per-rank gating.
    fn lag_groups(&self) -> Option<Vec<Vec<u32>>> {
        None
    }

    /// Writes every global row's current value into `x`.
    fn scatter_into(&self, ranks: &[R], x: &mut [f64]) {
        for block in self.blocks(ranks) {
            let ls = self.local(block);
            for (li, &g) in ls.rows.iter().enumerate() {
                x[g] = ls.x[li];
            }
        }
    }

    /// `(Σ norm², Σ slack²)` over logical blocks — the inputs of
    /// [`MaintainedNorm`] — or `None` if the algorithm maintains no norms.
    fn maintained_sums(&self, ranks: &[R]) -> Option<(f64, f64)> {
        let mut norm_sq = 0.0;
        let mut slack_sq = 0.0;
        for block in self.blocks(ranks) {
            norm_sq += block.maintained_norm_sq()?;
            slack_sq += block.undelivered_delta_sq();
        }
        Some((norm_sq, slack_sq))
    }
}

/// The uncoded identity view: one block per rank, read via the solver's
/// `local_of` projection.
pub(crate) struct DirectView<F>(pub(crate) F);

impl<R, F> NormView<R> for DirectView<F>
where
    R: RankAlgorithm,
    F: Fn(&R) -> &LocalSystem,
{
    type Block = R;

    fn blocks<'a>(&'a self, ranks: &'a [R]) -> impl Iterator<Item = &'a R> {
        ranks.iter()
    }

    fn local<'a>(&self, block: &'a R) -> &'a LocalSystem {
        (self.0)(block)
    }
}

/// The coded view over [`RedundantHost`] ranks: block `b` is read from
/// its *representative* — the furthest-along host (first on ties, so
/// lock-step runs always read the primary). Every replica holds a valid
/// estimate state; the representative is simply the freshest one, which is
/// exactly the first-arrival semantics the message plane uses.
struct ReplicaView {
    /// Hosts per logical block, primary first.
    replicas: Vec<Vec<usize>>,
}

impl ReplicaView {
    /// Hosts per logical block, as the `u32` rank ids the substrate takes.
    fn hosts_u32(&self) -> Vec<Vec<u32>> {
        let to_u32 = |hs: &Vec<usize>| hs.iter().map(|&h| h as u32).collect();
        self.replicas.iter().map(to_u32).collect()
    }

    /// Deals `r` solver sets (each from `build_set`) onto the placement:
    /// block `b`'s `j`-th instance goes to host `replicas[b][j]`.
    fn place<R: RankAlgorithm>(
        &self,
        r: usize,
        build_set: impl Fn() -> Vec<R>,
    ) -> Vec<RedundantHost<R>> {
        let mut sets: Vec<Vec<Option<R>>> = (0..r)
            .map(|_| build_set().into_iter().map(Some).collect())
            .collect();
        let mut per_host: Vec<Vec<(usize, R)>> = self.replicas.iter().map(|_| Vec::new()).collect();
        for (b, hosts) in self.replicas.iter().enumerate() {
            for (j, &h) in hosts.iter().enumerate() {
                per_host[h].push((b, sets[j][b].take().expect("each instance dealt once")));
            }
        }
        let groups = self.hosts_u32();
        per_host
            .into_iter()
            .enumerate()
            .map(|(p, solvers)| RedundantHost::new(p, groups.clone(), solvers))
            .collect()
    }

    fn representative<A: RankAlgorithm>(&self, ranks: &[RedundantHost<A>], b: usize) -> usize {
        let mut best = self.replicas[b][0];
        for &h in &self.replicas[b][1..] {
            if ranks[h].clock() > ranks[best].clock() {
                best = h;
            }
        }
        best
    }
}

impl<A: WarmStart> NormView<RedundantHost<A>> for ReplicaView {
    type Block = A;

    fn blocks<'a>(&'a self, ranks: &'a [RedundantHost<A>]) -> impl Iterator<Item = &'a A> {
        (0..self.replicas.len()).map(move |b| {
            ranks[self.representative(ranks, b)]
                .solver_for(b)
                .expect("host carries its block")
        })
    }

    fn local<'a>(&self, block: &'a A) -> &'a LocalSystem {
        block.local()
    }

    fn lag_groups(&self) -> Option<Vec<Vec<u32>>> {
        Some(self.hosts_u32())
    }
}

/// One row of the per-step record (all counters cumulative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Parallel step index (0 = initial state).
    pub step: usize,
    /// True global residual norm ‖b − Ax‖₂ at this boundary.
    pub residual_norm: f64,
    /// Cumulative row relaxations.
    pub relaxations: u64,
    /// Cumulative messages (all classes).
    pub msgs: u64,
    /// Cumulative solve-class messages.
    pub msgs_solve: u64,
    /// Cumulative explicit-residual messages.
    pub msgs_residual: u64,
    /// Cumulative recovery messages (audits, watchdog rebroadcasts).
    pub msgs_recovery: u64,
    /// Cumulative redundancy messages (replica fan-out copies of coded
    /// placements; zero on uncoded runs).
    pub msgs_redundancy: u64,
    /// Cumulative transfer messages (inter-level grid transfers of the
    /// distributed multigrid cycle; zero outside multigrid runs).
    pub msgs_transfer: u64,
    /// Cumulative modelled payload bytes (all classes).
    pub bytes: u64,
    /// Cumulative solve-class payload bytes.
    pub bytes_solve: u64,
    /// Cumulative explicit-residual payload bytes.
    pub bytes_residual: u64,
    /// Cumulative recovery payload bytes.
    pub bytes_recovery: u64,
    /// Cumulative redundancy payload bytes (replica fan-out copies).
    pub bytes_redundancy: u64,
    /// Cumulative transfer payload bytes (inter-level grid transfers).
    pub bytes_transfer: u64,
    /// Cumulative modelled wall-clock seconds.
    pub time: f64,
    /// Ranks that relaxed in this step.
    pub active_ranks: u64,
    /// Cumulative *measured* compute wall-time across all ranks, ns
    /// (observability only — the modelled clock is `time`).
    pub compute_ns: u64,
    /// Load imbalance of this step: slowest rank's measured compute time
    /// over the mean (1.0 = perfectly balanced, 0 steps → 1.0).
    pub imbalance: f64,
}

/// The full report of one distributed run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Which method ran.
    pub method: Method,
    /// Problem size (rows).
    pub n: usize,
    /// Number of ranks.
    pub nranks: usize,
    /// Per-step records, starting with the initial state at step 0.
    pub records: Vec<StepRecord>,
    /// Raw substrate statistics.
    pub stats: RunStats,
    /// Step at which the target was first met.
    pub converged_at: Option<usize>,
    /// The run froze: a step moved no data and relaxed nothing, so no
    /// future step can act (deadlock). With the freeze watchdog enabled
    /// this is only set after nudging failed to restore progress.
    pub deadlocked: bool,
    /// The residual exceeded 10¹² × initial (divergence cut-off).
    pub diverged: bool,
    /// Times the freeze watchdog nudged the ranks after an idle step.
    pub watchdog_nudges: u64,
    /// Boundary residual rows overwritten by the invariant audit, summed
    /// over ranks.
    pub drift_repairs: u64,
    /// Messages discarded as duplicate / stale / subsumed, summed over
    /// ranks.
    pub stale_discards: u64,
    /// Final gathered solution.
    pub x: Vec<f64>,
}

impl DistReport {
    /// The last cumulative record. Infallible: every report carries the
    /// step-0 baseline record from construction.
    fn last_record(&self) -> &StepRecord {
        self.records
            .last()
            .expect("a report holds at least the step-0 baseline record")
    }

    /// Final residual norm.
    pub fn final_residual(&self) -> f64 {
        self.last_record().residual_norm
    }

    /// Convergence-monitor accounting: how many cheap maintained
    /// evaluations ran, how many exact verifications, and the worst
    /// relative drift observed between the two.
    pub fn monitor_stats(&self) -> &MonitorStats {
        &self.stats.monitor
    }

    /// The paper's communication cost: total messages / ranks.
    pub fn comm_cost(&self) -> f64 {
        self.last_record().msgs as f64 / self.nranks as f64
    }

    /// Modelled payload volume per rank, bytes (all classes).
    pub fn byte_cost(&self) -> f64 {
        self.last_record().bytes as f64 / self.nranks as f64
    }

    /// Redundancy payload volume per rank, bytes (replica fan-out copies;
    /// zero on uncoded runs).
    pub fn byte_cost_redundancy(&self) -> f64 {
        self.last_record().bytes_redundancy as f64 / self.nranks as f64
    }

    /// Mean fraction of active ranks per executed step.
    pub fn active_fraction(&self) -> f64 {
        let steps = self.records.len() - 1;
        if steps == 0 {
            return 0.0;
        }
        self.records[1..]
            .iter()
            .map(|r| r.active_ranks as f64)
            .sum::<f64>()
            / (steps as f64 * self.nranks as f64)
    }

    fn crossing(&self, target: f64, f: impl Fn(&StepRecord) -> f64) -> Option<f64> {
        interpolate_crossing(
            self.records.iter().map(|rec| (f(rec), rec.residual_norm)),
            target,
        )
    }

    /// Parallel steps to reach `target` (log-interpolated, Table 2 rule).
    pub fn steps_to_reach(&self, target: f64) -> Option<f64> {
        self.crossing(target, |r| r.step as f64)
    }

    /// Modelled wall-clock seconds to reach `target`.
    pub fn time_to_reach(&self, target: f64) -> Option<f64> {
        self.crossing(target, |r| r.time)
    }

    /// Communication cost (msgs/rank) expended to reach `target`.
    pub fn comm_to_reach(&self, target: f64) -> Option<f64> {
        self.crossing(target, |r| r.msgs as f64 / self.nranks as f64)
    }

    /// Relaxations per unknown expended to reach `target`.
    pub fn relaxations_to_reach(&self, target: f64) -> Option<f64> {
        self.crossing(target, |r| r.relaxations as f64 / self.n as f64)
    }

    /// Mean per-step load imbalance (slowest rank / mean rank measured
    /// compute time; 1.0 = balanced). Reflects the paper's regime where
    /// most ranks idle while the winning ranks relax.
    pub fn mean_imbalance(&self) -> f64 {
        self.stats.mean_imbalance()
    }

    /// Executor worker utilization: busy time / ((dispatch span + epoch
    /// close) × workers); 0.0 when timing was not measured.
    pub fn worker_utilization(&self) -> f64 {
        self.stats.worker_utilization()
    }
}

/// Distributes `(a, b, x0)` over `partition` and runs `method`.
///
/// The global residual is evaluated out-of-band after every parallel step —
/// the same measurement the paper's harness performs — and is *not*
/// counted as solver communication.
pub fn run_method(
    method: Method,
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    partition: &Partition,
    opts: &DistOptions,
) -> DistReport {
    // `r = 1` is the identity placement: run the uncoded path. The wrapper
    // at r = 1 would be message-for-message identical except that its slot
    // reconciliation absorbs chaos *duplicates* before the solver's own
    // sequencing sees them — so the uncoded path is the one that keeps
    // `Some(Redundancy::new(1))` bit-identical to `None` under every chaos
    // mix.
    let coded = opts
        .redundancy
        .map(|red| {
            ReplicaMap::try_new(partition.nparts(), red)
                .unwrap_or_else(|e| panic!("DistOptions::redundancy: {e}"))
        })
        .filter(|map| map.r() > 1);
    let locals = || distribute(a, b, x0, partition).expect("valid distribution");
    with_ranks!(method, opts.ds_config, a.nrows(), |build, _| match coded {
        None => drive(method, build(locals()), WarmStart::local, a, b, opts),
        // Every replica of a block must start from identical state, so
        // `r` full solver sets are built from `r` identical distributions.
        // The DS deadlock-avoidance protocol needs no changes: the
        // `RedundantHost` wrapper translates physical ↔ logical addresses,
        // so Γ̃-set negotiation and recovery audits run purely in logical
        // block space and see a replica set as one owner.
        Some(map) => {
            let view = ReplicaView {
                replicas: map.replicas().to_vec(),
            };
            let hosts = view.place(map.r(), || build(locals()));
            drive_view(method, hosts, view, a, b, opts)
        }
    })
}

/// The one per-method rank constructor. Evaluates `$body` with `$build`
/// bound to the rank constructor of `$method`'s rank type `R` (a
/// `Fn(Vec<LocalSystem>) -> Vec<R>`) and `$wrap` to the matching
/// [`TenantSession`](crate::dist::TenantSession) variant; the body is
/// expanded once per rank type, so it is generic in `R`. `$n` is the
/// global row count.
macro_rules! with_ranks {
    ($method:expr, $cfg:expr, $n:expr, |$build:ident, $wrap:pat_param| $body:expr) => {{
        use $crate::dist::{
            gather_r, BlockJacobiRank, DistributedSouthwellRank, LocalSystem, Method,
            ParallelSouthwellRank, TenantSession,
        };
        let (method, cfg): (Method, $crate::dist::DsConfig) = ($method, $cfg);
        let norms = |locals: &[LocalSystem]| -> Vec<f64> {
            locals.iter().map(LocalSystem::residual_norm_sq).collect()
        };
        match method {
            Method::BlockJacobi => {
                let $wrap = TenantSession::Bj;
                let $build = |locals| BlockJacobiRank::build_with_solver(locals, cfg.local_solver);
                $body
            }
            Method::ParallelSouthwell | Method::ParallelSouthwellPiggybackOnly => {
                let explicit = method == Method::ParallelSouthwell;
                let $wrap = TenantSession::Ps;
                let $build = |locals: Vec<LocalSystem>| {
                    let norms = norms(&locals);
                    ParallelSouthwellRank::build_cfg(locals, &norms, explicit, cfg.local_solver)
                };
                $body
            }
            Method::DistributedSouthwell => {
                let n: usize = $n;
                let $wrap = TenantSession::Ds;
                let $build = |locals: Vec<LocalSystem>| {
                    let norms = norms(&locals);
                    // `distribute` already computed `b − A·x0`: gather its
                    // bits instead of a second global SpMV.
                    let r0 = gather_r(&locals, n);
                    DistributedSouthwellRank::build_with(locals, &norms, &r0, cfg)
                };
                $body
            }
        }
    }};
}
pub(crate) use with_ranks;

/// The generic run loop over any solver rank type, on either substrate
/// ([`DistOptions::backend`]).
///
/// When the run hits a globally idle step (zero relaxations, zero
/// messages, residual above target) while no rank is stalled, the freeze
/// watchdog first [`Recoverable::nudge`]s every rank — a nudged solver
/// forces an explicit residual-norm rebroadcast next step, which restores
/// exact norms and un-freezes estimate-induced deadlocks. Only when no
/// rank reacts, or repeated nudges fail to produce a relaxation, is the
/// run declared deadlocked.
pub fn drive<R>(
    method: Method,
    ranks: Vec<R>,
    local_of: impl Fn(&R) -> &LocalSystem,
    a: &CsrMatrix,
    b: &[f64],
    opts: &DistOptions,
) -> DistReport
where
    R: RankAlgorithm + Recoverable,
{
    drive_view(method, ranks, DirectView(local_of), a, b, opts)
}

/// The backend dispatch over an arbitrary state view (uncoded or coded).
fn drive_view<R, V>(
    method: Method,
    ranks: Vec<R>,
    view: V,
    a: &CsrMatrix,
    b: &[f64],
    opts: &DistOptions,
) -> DistReport
where
    R: RankAlgorithm + Recoverable,
    V: NormView<R>,
{
    match opts.backend {
        ExecBackend::Superstep(mode) => {
            let ex = superstep_executor(ranks, opts, mode, None);
            let mut run = SuperstepRun::new(method, ex, view, a, b, *opts);
            run.step_batch(a, b, opts.max_steps);
            run.finish()
        }
        ExecBackend::Async(aopts) => drive_async(method, ranks, &view, a, b, opts, aopts),
    }
}

/// The superstep executor for `opts`: on the shared `pool` when one is
/// given, else private in `mode`.
pub(crate) fn superstep_executor<R: RankAlgorithm>(
    ranks: Vec<R>,
    opts: &DistOptions,
    mode: ExecMode,
    pool: Option<&SharedPool>,
) -> Executor<R> {
    let mut ex = match pool {
        Some(pool) => Executor::with_shared_pool(ranks, opts.cost_model, opts.chaos, pool),
        None => Executor::with_chaos(ranks, opts.cost_model, mode, opts.chaos),
    };
    ex.set_close_mode(opts.close_mode);
    ex
}

/// The step-0 record: the exactly measured initial state, zero counters.
pub(crate) fn initial_record(initial: f64) -> StepRecord {
    StepRecord {
        step: 0,
        residual_norm: initial,
        relaxations: 0,
        msgs: 0,
        msgs_solve: 0,
        msgs_residual: 0,
        msgs_recovery: 0,
        msgs_redundancy: 0,
        msgs_transfer: 0,
        bytes: 0,
        bytes_solve: 0,
        bytes_residual: 0,
        bytes_recovery: 0,
        bytes_redundancy: 0,
        bytes_transfer: 0,
        time: 0.0,
        active_ranks: 0,
        compute_ns: 0,
        imbalance: 1.0,
    }
}

/// Rank-cumulative recovery counters: `[drift repairs, stale discards]`.
pub(crate) fn recovery_counts<'a, R: Recoverable + 'a>(
    ranks: impl IntoIterator<Item = &'a R>,
) -> [u64; 2] {
    ranks.into_iter().fold([0, 0], |[d, s], r| {
        [d + r.drift_repairs(), s + r.stale_discards()]
    })
}

/// One solve's bookkeeping — monitor, cumulative step records, verdict —
/// as every drive loop keeps it (per column, in a fused panel).
pub(crate) struct SolveLog {
    pub(crate) monitor: MonitorCore,
    records: Vec<StepRecord>,
    pub(crate) verdict: Verdict,
    /// [`recovery_counts`] at solve start: reports carry per-solve deltas.
    base: [u64; 2],
}

impl SolveLog {
    /// A solve from an exactly measured `initial` norm.
    pub(crate) fn new(
        monitor: MonitorCore,
        opts: &DistOptions,
        initial: f64,
        base: [u64; 2],
    ) -> Self {
        SolveLog {
            monitor,
            records: vec![initial_record(initial)],
            verdict: Verdict::new(opts, initial),
            base,
        }
    }

    /// Starts the next solve (the monitor's counters keep accumulating
    /// until the next report).
    pub(crate) fn restart(&mut self, opts: &DistOptions, initial: f64, base: [u64; 2]) {
        self.records = vec![initial_record(initial)];
        self.verdict = Verdict::new(opts, initial);
        self.base = base;
    }

    /// The norm of the latest record.
    pub(crate) fn last_norm(&self) -> f64 {
        self.records
            .last()
            .expect("a log holds at least the step-0 record")
            .residual_norm
    }

    /// Appends the cumulative record for one boundary (a parallel step on
    /// the superstep backend, a scheduler tick on the async one) and
    /// applies the stop rule.
    pub(crate) fn push(
        &mut self,
        at: Boundary,
        (norm, verified): (f64, bool),
        s: &StepStats,
        nranks: usize,
        nudge: impl FnOnce() -> bool,
    ) -> Transition {
        let prev = *self
            .records
            .last()
            .expect("a log holds at least the step-0 record");
        self.records.push(StepRecord {
            step: at.index,
            residual_norm: norm,
            relaxations: prev.relaxations + s.relaxations,
            msgs: prev.msgs + s.msgs,
            msgs_solve: prev.msgs_solve + s.msgs_solve,
            msgs_residual: prev.msgs_residual + s.msgs_residual,
            msgs_recovery: prev.msgs_recovery + s.msgs_recovery,
            msgs_redundancy: prev.msgs_redundancy + s.msgs_redundancy,
            msgs_transfer: prev.msgs_transfer + s.msgs_transfer,
            bytes: prev.bytes + s.bytes,
            bytes_solve: prev.bytes_solve + s.bytes_solve,
            bytes_residual: prev.bytes_residual + s.bytes_residual,
            bytes_recovery: prev.bytes_recovery + s.bytes_recovery,
            bytes_redundancy: prev.bytes_redundancy + s.bytes_redundancy,
            bytes_transfer: prev.bytes_transfer + s.bytes_transfer,
            time: prev.time + s.time,
            active_ranks: s.active_ranks,
            compute_ns: prev.compute_ns + s.compute_ns,
            imbalance: s.imbalance(nranks),
        });
        self.verdict.observe(at, norm, verified, nudge)
    }

    /// Closes the solve into its report — the one [`DistReport`] assembly
    /// site. `stats` is the solve's substrate epoch, `now` the current
    /// [`recovery_counts`], `x` the gathered solution. Moves the records
    /// out: the log must be restarted before it reports again.
    pub(crate) fn report(
        &mut self,
        method: Method,
        nranks: usize,
        mut stats: RunStats,
        now: [u64; 2],
        x: Vec<f64>,
    ) -> DistReport {
        stats.monitor = std::mem::take(&mut self.monitor.stats);
        let [drift0, stale0] = self.base;
        DistReport {
            method,
            n: x.len(),
            nranks,
            records: std::mem::take(&mut self.records),
            stats,
            converged_at: self.verdict.converged_at,
            deadlocked: self.verdict.deadlocked,
            diverged: self.verdict.diverged,
            watchdog_nudges: self.verdict.watchdog_nudges,
            drift_repairs: now[0] - drift0,
            stale_discards: now[1] - stale0,
            x,
        }
    }
}

/// The lock-step run: an executor, the view the monitor reads it through,
/// and the current solve's [`SolveLog`]. [`run_method`] and [`drive`] run
/// one solve and drop it; a
/// [`SolveSession`](crate::dist::session::SolveSession) keeps one across
/// warm-started solves.
pub(crate) struct SuperstepRun<R: RankAlgorithm, V> {
    pub(crate) method: Method,
    pub(crate) ex: Executor<R>,
    view: V,
    pub(crate) opts: DistOptions,
    pub(crate) log: SolveLog,
    step: usize,
}

impl<R, V> SuperstepRun<R, V>
where
    R: RankAlgorithm + Recoverable,
    V: NormView<R>,
{
    /// Wraps a built executor, measuring the initial state exactly.
    pub(crate) fn new(
        method: Method,
        ex: Executor<R>,
        view: V,
        a: &CsrMatrix,
        b: &[f64],
        opts: DistOptions,
    ) -> Self {
        let mut monitor = MonitorCore::new(a.nrows());
        let initial = monitor.exact_view(a, b, ex.ranks(), &view);
        let log = SolveLog::new(monitor, &opts, initial, recovery_counts(ex.ranks()));
        SuperstepRun {
            method,
            ex,
            view,
            opts,
            log,
            step: 0,
        }
    }

    /// Starts a new solve of `(a, b)` from the ranks' current state.
    pub(crate) fn begin(&mut self, a: &CsrMatrix, b: &[f64]) {
        let initial = self
            .log
            .monitor
            .exact_view(a, b, self.ex.ranks(), &self.view);
        self.log
            .restart(&self.opts, initial, recovery_counts(self.ex.ranks()));
        self.step = 0;
    }

    /// Leaves the run finished at the ranks' current state, whose exact
    /// norm is `norm`: one step-0 record, no verdict, no steps to take.
    pub(crate) fn settle(&mut self, norm: f64) {
        self.log
            .restart(&self.opts, norm, recovery_counts(self.ex.ranks()));
        self.log.verdict.stop();
    }

    /// Whether the current solve has reached a verdict or its step budget.
    pub(crate) fn is_done(&self) -> bool {
        self.log.verdict.is_done()
    }

    /// Advances up to `quantum` supersteps of the solve; returns `true`
    /// once it has reached a verdict or run out of steps.
    pub(crate) fn step_batch(&mut self, a: &CsrMatrix, b: &[f64], quantum: usize) -> bool {
        let nranks = self.ex.nranks();
        for _ in 0..quantum {
            if self.is_done() || self.step >= self.opts.max_steps {
                break;
            }
            self.step += 1;
            let s = self.ex.step();
            // A step with no relaxations, no messages, and no stalled rank
            // (which could still hold undelivered puts) is globally idle:
            // nothing can change anymore.
            let at = Boundary {
                index: self.step,
                relaxations: s.relaxations,
                idle: s.relaxations == 0 && s.msgs == 0 && s.faults.stalled_ranks == 0,
                last: self.step == self.opts.max_steps,
            };
            let reading =
                self.log
                    .monitor
                    .measure(a, b, self.ex.ranks(), &self.view, &self.log.verdict, at);
            let ranks = self.ex.ranks_mut();
            self.log.push(at, reading, &s, nranks, || nudge_all(ranks));
        }
        if self.step >= self.opts.max_steps {
            self.log.verdict.stop();
        }
        self.is_done()
    }

    /// Closes the current solve and returns its report. Stats cover this
    /// solve only: the executor's accumulators are harvested as an epoch
    /// ([`RunStats::take_epoch`]). The run is left
    /// [settled](SuperstepRun::settle) at the final norm, so finishing
    /// again reports an empty solve that still holds its step-0 record.
    pub(crate) fn finish(&mut self) -> DistReport {
        let x = self.log.monitor.gather_view(self.ex.ranks(), &self.view);
        let stats = self.ex.stats.take_epoch();
        let now = recovery_counts(self.ex.ranks());
        let last = self.log.last_norm();
        let report = self
            .log
            .report(self.method, self.ex.nranks(), stats, now, x);
        self.settle(last);
        report
    }
}

/// The asynchronous run loop: one scheduler tick per iteration.
///
/// Everything the superstep loop reports is reported here at tick
/// granularity — each tick gets a cumulative [`StepRecord`] (so
/// `converged_at` and the `*_to_reach` interpolations are in ticks), the
/// maintained norm is summed every tick, and the exact `b − Ax` recompute
/// fires on the same triggers (possible claims, the `verify_every`
/// cadence counted in ticks, idle windows, the final tick). The run ends
/// when the *slowest* rank has completed `max_steps` full parallel steps,
/// or on a verdict, or when a generous tick budget derived from the
/// realized advance probabilities runs out.
///
/// Freeze detection cannot use single boundaries (a tick where every coin
/// flip fails is idle by accident): the loop instead accumulates
/// relaxations and messages over a *sweep window* — the span in which
/// *every* rank advances through at least one full step's worth of
/// phases — and treats a window with no work and nothing in flight as the
/// superstep loop treats an idle step (nudge, then deadlock). That is the
/// superstep idle guarantee verbatim: each rank ran all its phases on
/// empty inboxes and neither relaxed nor sent, so rerunning them can only
/// repeat the silence.
fn drive_async<R, V>(
    method: Method,
    ranks: Vec<R>,
    view: &V,
    a: &CsrMatrix,
    b: &[f64],
    opts: &DistOptions,
    aopts: AsyncOptions,
) -> DistReport
where
    R: RankAlgorithm + Recoverable,
    V: NormView<R>,
{
    let nranks = ranks.len();
    let nphases = ranks[0].phases();
    let mut ex = AsyncExecutor::with_chaos(ranks, aopts, opts.chaos)
        .unwrap_or_else(|e| panic!("ExecBackend::Async: {e}"));
    // Under a coded placement the replica sets progress as logical owners:
    // the lag bound and the run goal track each block's freshest replica,
    // so a replica-covered straggler no longer gates the whole run.
    if let Some(groups) = view.lag_groups() {
        ex.set_lag_groups(groups);
    }
    let mut monitor = MonitorCore::new(a.nrows());
    let initial = monitor.exact_view(a, b, ex.ranks(), view);
    let mut log = SolveLog::new(monitor, opts, initial, recovery_counts(ex.ranks()));

    // Clock goal: the slowest logical owner completes `max_steps` full
    // steps (per-rank clocks without lag groups, per-replica-set freshest
    // clocks with them).
    let goal = opts.max_steps * nphases;
    // Tick budget: expected ticks to the goal are `goal / p`, where `p` is
    // the pacing probability of the slowest logical owner; eight times
    // that (plus slack for tiny runs) is unreachable unless the scheduler
    // genuinely cannot make progress.
    let p_min = ex.pacing_probability().max(1e-3);
    let budget = ((goal as f64 / p_min) * 8.0).ceil() as usize + 64;

    // Sweep-window accumulators for freeze detection; the window closes
    // when every logical owner has advanced `nphases` clocks past its
    // checkpoint.
    let mut window_relax = 0u64;
    let mut window_msgs = 0u64;
    let mut window_start: Vec<usize> = ex.logical_clocks();

    for tick in 1..=budget {
        ex.tick();
        let s = *ex.stats.steps.last().expect("tick pushes a step record");
        window_relax += s.relaxations;
        window_msgs += s.msgs;

        let clocks = ex.logical_clocks();
        let swept = clocks
            .iter()
            .zip(&window_start)
            .all(|(&c, &from)| c - from >= nphases);
        let mut idle = false;
        if swept {
            idle = window_relax == 0 && window_msgs == 0 && ex.in_flight() == 0;
            window_start = clocks.clone();
            window_relax = 0;
            window_msgs = 0;
        }
        let at = Boundary {
            index: tick,
            relaxations: s.relaxations,
            idle,
            last: tick == budget || clocks.iter().all(|&c| c >= goal),
        };
        let reading = log
            .monitor
            .measure(a, b, ex.ranks(), view, &log.verdict, at);
        match log.push(at, reading, &s, nranks, || nudge_all(ex.ranks_mut())) {
            Transition::Done(_) => break,
            // A nudge re-arms the run even at its last boundary.
            Transition::Nudged => {}
            Transition::Continue if at.last => break,
            Transition::Continue => {}
        }
    }

    let x = log.monitor.gather_view(ex.ranks(), view);
    let stats = std::mem::take(&mut ex.stats);
    let now = recovery_counts(ex.ranks());
    log.report(method, nranks, stats, now, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_partition::{partition_multilevel, Graph, MultilevelOptions};
    use dsw_sparse::gen;

    fn poisson_setup(nx: usize, ny: usize, p: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>, Partition) {
        let mut a = gen::grid2d_poisson(nx, ny);
        a.scale_unit_diagonal().unwrap();
        let n = a.nrows();
        let b = vec![0.0; n];
        // Random guess scaled so the initial residual has unit norm (§4.2).
        let mut x0 = gen::random_guess(n, 11);
        let r0 = a.residual(&b, &x0);
        let scale = 1.0 / dsw_sparse::vecops::norm2(&r0);
        for v in x0.iter_mut() {
            *v *= scale;
        }
        let g = Graph::from_matrix(&a);
        let part = partition_multilevel(&g, p, MultilevelOptions::default());
        (a, b, x0, part)
    }

    #[test]
    fn initial_residual_is_unit() {
        let (a, b, x0, _) = poisson_setup(16, 16, 4);
        let r0 = a.residual(&b, &x0);
        assert!((dsw_sparse::vecops::norm2(&r0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_methods_reach_point_one_on_poisson() {
        let (a, b, x0, part) = poisson_setup(16, 16, 4);
        let opts = DistOptions {
            max_steps: 50,
            ..DistOptions::default()
        };
        for m in [
            Method::BlockJacobi,
            Method::ParallelSouthwell,
            Method::DistributedSouthwell,
        ] {
            let rep = run_method(m, &a, &b, &x0, &part, &opts);
            assert!(
                rep.converged_at.is_some(),
                "{} failed: final {}",
                m.label(),
                rep.final_residual()
            );
            assert!(!rep.deadlocked && !rep.diverged);
        }
    }

    #[test]
    fn ds_beats_ps_on_communication() {
        let (a, b, x0, part) = poisson_setup(24, 24, 8);
        let opts = DistOptions {
            max_steps: 200,
            ..DistOptions::default()
        };
        let ds = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        let ps = run_method(Method::ParallelSouthwell, &a, &b, &x0, &part, &opts);
        let dsc = ds.comm_to_reach(0.1).expect("DS converged");
        let psc = ps.comm_to_reach(0.1).expect("PS converged");
        assert!(dsc < psc, "DS comm {dsc} !< PS comm {psc}");
    }

    #[test]
    fn piggyback_only_deadlocks_and_is_reported() {
        let (a, b, x0, part) = poisson_setup(16, 16, 8);
        let opts = DistOptions {
            max_steps: 300,
            target_residual: Some(1e-6),
            ..DistOptions::default()
        };
        let rep = run_method(
            Method::ParallelSouthwellPiggybackOnly,
            &a,
            &b,
            &x0,
            &part,
            &opts,
        );
        assert!(rep.deadlocked, "expected deadlock report");
        assert!(rep.converged_at.is_none());
    }

    #[test]
    fn report_metrics_are_consistent() {
        let (a, b, x0, part) = poisson_setup(12, 12, 4);
        let opts = DistOptions::default();
        let rep = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        let last = rep.records.last().unwrap();
        assert_eq!(
            last.msgs,
            last.msgs_solve + last.msgs_residual + last.msgs_recovery + last.msgs_redundancy
        );
        assert_eq!(rep.stats.total_msgs(), last.msgs);
        assert_eq!(
            last.bytes,
            last.bytes_solve + last.bytes_residual + last.bytes_recovery + last.bytes_redundancy
        );
        assert_eq!(rep.stats.total_bytes(), last.bytes);
        assert_eq!(
            last.msgs_redundancy, 0,
            "uncoded runs have no redundancy traffic"
        );
        assert!(last.bytes > 0, "messages carry payload bytes");
        assert!((rep.byte_cost() - last.bytes as f64 / rep.nranks as f64).abs() < 1e-12);
        assert!((rep.stats.total_time() - last.time).abs() < 1e-12);
        assert!(rep.active_fraction() > 0.0 && rep.active_fraction() <= 1.0);
        // Crossing metrics are monotone sensible.
        let s = rep.steps_to_reach(0.1).unwrap();
        assert!(s > 0.0 && s <= rep.records.len() as f64);
        // Measured-timing observables populate and are sane.
        assert!(rep.records.last().unwrap().compute_ns > 0);
        assert!(rep.mean_imbalance() >= 1.0);
        assert!(rep.worker_utilization() > 0.0 && rep.worker_utilization() <= 1.0);
        assert!(rep.records[1..].iter().all(|r| r.imbalance >= 1.0));
    }

    #[test]
    fn watchdog_unfreezes_the_no_avoidance_variant() {
        // Without deadlock avoidance DS freezes on this setup (see
        // `no_deadlock_avoidance_can_freeze`). The freeze watchdog's forced
        // rebroadcast restores exact norms, so the run converges anyway.
        let (a, b, x0, part) = poisson_setup(16, 16, 8);
        let base = DistOptions {
            max_steps: 400,
            target_residual: Some(1e-6),
            ds_config: DsConfig {
                deadlock_avoidance: false,
                ..DsConfig::default()
            },
            ..DistOptions::default()
        };
        let frozen = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &base);
        assert!(frozen.deadlocked, "expected the foil to freeze");
        assert_eq!(frozen.watchdog_nudges, 0);

        let mut healed_opts = base;
        healed_opts.ds_config.recovery = crate::dist::RecoveryConfig {
            watchdog: true,
            ..crate::dist::RecoveryConfig::off()
        };
        let healed = run_method(
            Method::DistributedSouthwell,
            &a,
            &b,
            &x0,
            &part,
            &healed_opts,
        );
        assert!(
            healed.converged_at.is_some(),
            "watchdog should rescue the run: final {}, deadlocked {}",
            healed.final_residual(),
            healed.deadlocked
        );
        assert!(healed.watchdog_nudges > 0);
        assert!(healed.stats.total_msgs_recovery() > 0);
    }

    #[test]
    fn threaded_matches_sequential() {
        let (a, b, x0, part) = poisson_setup(16, 16, 6);
        let o1 = DistOptions {
            max_steps: 20,
            target_residual: None,
            ..DistOptions::default()
        };
        let o2 = DistOptions {
            backend: ExecBackend::Superstep(ExecMode::Threaded(3)),
            ..o1
        };
        let r1 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &o1);
        let r2 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &o2);
        assert_eq!(r1.x, r2.x, "threaded and sequential must be bit-identical");
        assert_eq!(
            r1.records.last().unwrap().msgs,
            r2.records.last().unwrap().msgs
        );
    }

    #[test]
    fn async_backend_converges_with_populated_report() {
        let (a, b, x0, part) = poisson_setup(16, 16, 4);
        let opts = DistOptions {
            max_steps: 200,
            backend: ExecBackend::Async(AsyncOptions {
                advance_probability: 0.6,
                max_lag: 6,
                seed: 5,
                straggler_skew: 0.5,
            }),
            ..DistOptions::default()
        };
        for m in [
            Method::BlockJacobi,
            Method::ParallelSouthwell,
            Method::DistributedSouthwell,
        ] {
            let rep = run_method(m, &a, &b, &x0, &part, &opts);
            assert!(
                rep.converged_at.is_some(),
                "{} failed under async scheduling: final {}",
                m.label(),
                rep.final_residual()
            );
            assert!(!rep.deadlocked && !rep.diverged);
            // The report is as observable as a superstep run: per-class
            // counters, monitor accounting, consistent cumulative records.
            let last = rep.records.last().unwrap();
            assert!(last.msgs_solve > 0, "{}", m.label());
            assert!(last.bytes > 0);
            assert_eq!(
                last.msgs,
                last.msgs_solve + last.msgs_residual + last.msgs_recovery + last.msgs_redundancy
            );
            assert_eq!(rep.stats.total_msgs(), last.msgs);
            let mon = rep.monitor_stats();
            assert!(mon.evals > 0, "maintained sums must drive the records");
            assert!(mon.verifications > 0, "verdicts must be verified");
            // Final record is exact (the last boundary always verifies).
            let true_norm = dsw_sparse::vecops::norm2(&a.residual(&b, &rep.x));
            assert!(
                (true_norm - rep.final_residual()).abs() <= 1e-12 * true_norm.max(1.0),
                "{}: final record {} vs true {}",
                m.label(),
                rep.final_residual(),
                true_norm
            );
        }
    }

    #[test]
    fn async_backend_is_deterministic_per_seed() {
        let (a, b, x0, part) = poisson_setup(12, 12, 4);
        let opts = DistOptions {
            max_steps: 60,
            backend: ExecBackend::Async(AsyncOptions {
                straggler_skew: 0.7,
                ..AsyncOptions::default()
            }),
            ..DistOptions::default()
        };
        let r1 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        let r2 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.converged_at, r2.converged_at);
        assert_eq!(
            r1.records.last().unwrap().msgs,
            r2.records.last().unwrap().msgs
        );
    }

    #[test]
    fn async_backend_accepts_stall_injection() {
        // Tick-window stalls on the async backend: accepted (they freeze
        // whole scheduler windows), counted, and deterministic per seed.
        let (a, b, x0, part) = poisson_setup(12, 12, 4);
        let opts = DistOptions {
            max_steps: 120,
            backend: ExecBackend::Async(AsyncOptions::default()),
            chaos: ChaosConfig {
                stall_rate: 0.2,
                stall_steps: 2,
                seed: 9,
                ..ChaosConfig::none()
            },
            ..DistOptions::default()
        };
        let r1 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        let r2 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.converged_at, r2.converged_at);
        assert!(
            r1.stats.total_faults().stalled_ranks > 0,
            "stall windows must be drawn and counted"
        );
        assert!(!r1.deadlocked && !r1.diverged);
    }

    /// A coded placement on the lock-step backend: converges, pays a
    /// visible redundancy overhead in its own comm class, reconciles every
    /// extra copy exactly, and stays bit-identical per seed.
    #[test]
    fn redundant_superstep_converges_with_accounted_overhead() {
        let (a, b, x0, part) = poisson_setup(16, 16, 6);
        let base = DistOptions {
            max_steps: 80,
            ..DistOptions::default()
        };
        let uncoded = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &base);
        for r in [2, 3] {
            let opts = DistOptions {
                redundancy: Some(Redundancy::new(r)),
                ..base
            };
            let rep = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
            assert!(
                rep.converged_at.is_some(),
                "r = {r} failed: final {}",
                rep.final_residual()
            );
            let last = rep.records.last().unwrap();
            assert!(last.msgs_redundancy > 0, "replica fan-out must be counted");
            assert!(last.bytes_redundancy > 0);
            assert_eq!(
                last.msgs,
                last.msgs_solve + last.msgs_residual + last.msgs_recovery + last.msgs_redundancy
            );
            assert_eq!(
                last.bytes,
                last.bytes_solve
                    + last.bytes_residual
                    + last.bytes_recovery
                    + last.bytes_redundancy
            );
            assert!(rep.byte_cost_redundancy() > 0.0);
            assert!(
                rep.stale_discards > 0,
                "first-arrival reconciliation must discard replica copies"
            );
            // Lock-step replicas are bit-identical, so the representative
            // solution is exactly the uncoded one and convergence lands on
            // the same step.
            assert_eq!(rep.x, uncoded.x, "r = {r}");
            assert_eq!(rep.converged_at, uncoded.converged_at);
            // Same seed ⇒ same report, for every r.
            let again = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
            assert_eq!(rep.x, again.x);
            assert_eq!(
                rep.records.last().unwrap().msgs,
                again.records.last().unwrap().msgs
            );
        }
    }

    /// `Some(Redundancy::new(1))` is the identity placement and must stay
    /// bit-identical to `None` — including under chaos, where the r = 1
    /// dispatch keeps chaos duplicates visible to the solver's sequencing.
    #[test]
    fn redundancy_r1_is_bit_identical_to_uncoded() {
        let (a, b, x0, part) = poisson_setup(12, 12, 4);
        for chaos in [
            ChaosConfig::none(),
            ChaosConfig {
                drop_rate: 0.1,
                duplicate_rate: 0.1,
                seed: 3,
                ..ChaosConfig::none()
            },
        ] {
            let base = DistOptions {
                max_steps: 40,
                chaos,
                ds_config: DsConfig {
                    recovery: crate::dist::RecoveryConfig::standard(),
                    ..DsConfig::default()
                },
                ..DistOptions::default()
            };
            let coded = DistOptions {
                redundancy: Some(Redundancy::new(1)),
                ..base
            };
            let r1 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &base);
            let r2 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &coded);
            assert_eq!(r1.x, r2.x);
            // Deterministic record fields only (`compute_ns` / `imbalance`
            // are measured wall-time observables).
            let key = |rep: &DistReport| {
                rep.records
                    .iter()
                    .map(|r| {
                        (
                            r.step,
                            r.residual_norm.to_bits(),
                            r.relaxations,
                            r.msgs,
                            r.msgs_solve,
                            r.msgs_residual,
                            r.msgs_recovery,
                            r.msgs_redundancy,
                            r.bytes,
                            r.active_ranks,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&r1), key(&r2));
            assert_eq!(r1.converged_at, r2.converged_at);
        }
    }

    /// Coded placements on the async backend: all methods converge, the
    /// run is deterministic per seed, and with replica lag groups a
    /// heavily skewed straggler no longer stalls the run.
    #[test]
    fn redundant_async_converges_and_is_deterministic() {
        let (a, b, x0, part) = poisson_setup(16, 16, 6);
        let opts = DistOptions {
            max_steps: 200,
            backend: ExecBackend::Async(AsyncOptions {
                advance_probability: 0.6,
                max_lag: 6,
                seed: 5,
                straggler_skew: 0.7,
            }),
            redundancy: Some(Redundancy::new(2)),
            ..DistOptions::default()
        };
        for m in [
            Method::BlockJacobi,
            Method::ParallelSouthwell,
            Method::DistributedSouthwell,
        ] {
            let rep = run_method(m, &a, &b, &x0, &part, &opts);
            assert!(
                rep.converged_at.is_some(),
                "{} (r = 2, async) failed: final {}",
                m.label(),
                rep.final_residual()
            );
            assert!(!rep.deadlocked && !rep.diverged);
            assert!(rep.records.last().unwrap().msgs_redundancy > 0);
            let again = run_method(m, &a, &b, &x0, &part, &opts);
            assert_eq!(rep.x, again.x, "{}", m.label());
            assert_eq!(rep.converged_at, again.converged_at);
            // The final record is exact for the representative solution.
            let true_norm = dsw_sparse::vecops::norm2(&a.residual(&b, &rep.x));
            assert!(
                (true_norm - rep.final_residual()).abs() <= 1e-12 * true_norm.max(1.0),
                "{}: final record {} vs true {}",
                m.label(),
                rep.final_residual(),
                true_norm
            );
        }
    }

    /// Degenerate redundancy factors fail fast with the partition error.
    #[test]
    #[should_panic(expected = "redundancy")]
    fn invalid_redundancy_factor_panics_with_clear_message() {
        let (a, b, x0, part) = poisson_setup(12, 12, 4);
        let opts = DistOptions {
            redundancy: Some(Redundancy::new(9)),
            ..DistOptions::default()
        };
        run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
    }
}
