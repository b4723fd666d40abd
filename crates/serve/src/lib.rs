//! Solver as a service: many independent tenants multiplexed over one
//! shared worker pool.
//!
//! The paper optimizes the communication cost of *one* solve; the
//! ROADMAP's north star is heavy traffic — millions of users issuing
//! mostly-repeated solves. The serving layer combines three pieces from
//! the lower crates:
//!
//! * a [`dsw_rma::SharedPool`], so `T` tenants cost one set of worker
//!   threads instead of `T` sets (and per-solve utilization stays honest
//!   via epoch-based busy accounting);
//! * a [`dsw_core::dist::TenantSession`] per tenant — partition, routed
//!   topology, per-rank solver state, and monitor scratch all survive
//!   across solves, so an evolving right-hand side warm-starts from the
//!   previous solution and only re-seeds residuals;
//! * a fair-share scheduler that interleaves superstep batches from
//!   runnable tenants with per-tenant quanta, deterministic given
//!   `(seed, arrival order)`, with backpressure through a bounded
//!   admission queue.
//!
//! Per-tenant [`DistReport`]s are fully isolated: each tenant owns its
//! executor and stats epoch, and the pool's busy time is re-baselined at
//! every superstep, so interleaving never bleeds one tenant's work into
//! another's report. `tests/serve_determinism.rs` pins both properties.

// `unwrap()` is banned in non-test code (clippy `disallowed-methods`, see
// clippy.toml): use `expect` naming the invariant, or propagate the error.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use dsw_core::dist::{DistOptions, DistReport, Method, TenantSession};
use dsw_partition::Partition;
use dsw_rma::{PoolStats, SharedPool};
use dsw_sparse::CsrMatrix;
use std::collections::VecDeque;
use std::time::Instant;

/// Handle to a tenant registered with a [`SolveService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(usize);

impl TenantId {
    /// The tenant's index in registration order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads in the shared pool (all tenants share them).
    pub workers: usize,
    /// Supersteps a runnable tenant advances per scheduler visit. Larger
    /// quanta amortize visit overhead; smaller quanta tighten fairness.
    pub quantum: usize,
    /// Bound on the total number of queued (admitted but unfinished)
    /// jobs across all tenants; [`SolveService::submit`] returns
    /// [`SubmitError::QueueFull`] beyond it — the backpressure signal.
    pub queue_capacity: usize,
    /// Rotates the round-robin visit order. The schedule — and therefore
    /// every per-tenant report — is deterministic given
    /// `(seed, tenant set, arrival order)`.
    pub seed: u64,
    /// Cap on tenants holding a *resident* session (distributed rank
    /// state, routed topology, monitor scratch — the expensive part of a
    /// tenant). At the cap, registering or activating another tenant
    /// evicts the least-recently-used **idle** session; the evicted
    /// tenant keeps its registration and its last solution, and
    /// re-admission rebuilds the session warm-started from it. Active
    /// sessions are never evicted (the count may transiently exceed the
    /// cap when every resident is mid-solve). `usize::MAX` (the default)
    /// never evicts.
    pub max_resident: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            quantum: 4,
            queue_capacity: 1024,
            seed: 0,
            max_resident: usize::MAX,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded admission queue is at capacity: apply backpressure.
    QueueFull,
    /// No tenant with this id is registered.
    UnknownTenant,
    /// The right-hand side has the wrong dimension for the tenant's
    /// system.
    BadRhs {
        /// The tenant's system dimension.
        expected: usize,
        /// The submitted vector's length.
        got: usize,
    },
    /// The right-hand side has a NaN or infinite entry. Admitting it would
    /// poison the tenant: the warm-start reseed adds `Δb` to every rank's
    /// residual, so every later solve would inherit the non-finite values.
    NonFiniteRhs {
        /// Index of the first non-finite entry.
        index: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue full"),
            SubmitError::UnknownTenant => write!(f, "unknown tenant"),
            SubmitError::BadRhs { expected, got } => {
                write!(f, "rhs dimension {got}, tenant system is {expected}")
            }
            SubmitError::NonFiniteRhs { index } => {
                write!(f, "rhs entry {index} is not finite")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Admission check of one right-hand side against a tenant's dimension.
fn check_rhs(b: &[f64], n: usize) -> Result<(), SubmitError> {
    if b.len() != n {
        return Err(SubmitError::BadRhs {
            expected: n,
            got: b.len(),
        });
    }
    match b.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(SubmitError::NonFiniteRhs { index }),
        None => Ok(()),
    }
}

/// An admitted, not-yet-started job: one right-hand side (the scalar
/// path) or a tenant batch fused into a single multi-RHS panel solve.
struct Job {
    bs: Vec<Vec<f64>>,
    submitted_at: Instant,
}

/// One tenant: the (possibly evicted) session, everything needed to
/// rebuild it warm, plus its job queue and finished reports.
struct TenantSlot {
    /// The resident session, or `None` while evicted under the
    /// [`ServeConfig::max_resident`] cap.
    session: Option<TenantSession>,
    /// Rebuild data for warm re-admission after an eviction.
    method: Method,
    a: CsrMatrix,
    partition: Partition,
    opts: DistOptions,
    /// Right-hand side of the tenant's most recent job (re-admission
    /// seeds the rebuilt session with it so the next `begin_solve`
    /// re-seeds from a Δb against the true previous state).
    last_b: Vec<f64>,
    /// The tenant's last solution — the warm-start iterate a rebuilt
    /// session resumes from.
    last_x: Vec<f64>,
    /// LRU stamp (global visit counter at last scheduler touch).
    last_used: u64,
    n: usize,
    /// Admitted jobs waiting to start (FIFO).
    pending: VecDeque<Job>,
    /// The in-progress job's admission time, if a solve is active.
    active_since: Option<Instant>,
    /// Right-hand sides in the in-progress job (1 for scalar solves,
    /// `k` for a fused panel batch); 0 when idle.
    active_k: usize,
    /// Finished per-tenant reports, in completion order.
    reports: Vec<DistReport>,
}

impl TenantSlot {
    fn runnable(&self) -> bool {
        self.active_since.is_some() || !self.pending.is_empty()
    }
}

/// Service-level observables for one [`SolveService::run_until_idle`]
/// window.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Solves completed in the window.
    pub solves: u64,
    /// Wall-clock span of the window, seconds.
    pub wall_s: f64,
    /// Sustained throughput: `solves / wall_s`.
    pub solves_per_sec: f64,
    /// Median solve latency (admission to completion), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile solve latency, milliseconds.
    pub p99_ms: f64,
    /// Peak queued-job count observed since the previous window.
    pub max_queue_depth: usize,
    /// Shared-pool busy fraction over the window:
    /// `Σ worker busy / (wall × workers)`.
    pub pool_utilization: f64,
}

/// Multiplexes many tenants' solves over one shared worker pool.
pub struct SolveService {
    cfg: ServeConfig,
    pool: SharedPool,
    pool_stats: PoolStats,
    tenants: Vec<TenantSlot>,
    /// Total admitted-but-unfinished jobs (the bounded queue occupancy).
    queued: usize,
    max_queue_depth: usize,
    /// Scheduler PRNG state (an LCG stepped once per round).
    rng: u64,
    /// Monotonic LRU clock (bumped per scheduler touch).
    clock: u64,
    /// Sessions evicted under the residency cap so far.
    evictions: u64,
    /// Sessions rebuilt warm after an eviction so far.
    rebuilds: u64,
}

impl SolveService {
    /// Creates a service with its own shared pool.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.workers > 0, "the shared pool needs at least 1 worker");
        assert!(cfg.quantum > 0, "a zero quantum cannot make progress");
        let pool = SharedPool::new(cfg.workers);
        let pool_stats = pool.stats();
        SolveService {
            cfg,
            pool,
            pool_stats,
            tenants: Vec::new(),
            queued: 0,
            max_queue_depth: 0,
            rng: cfg.seed,
            clock: 0,
            evictions: 0,
            rebuilds: 0,
        }
    }

    /// Registers a tenant: distributes its system, builds the per-rank
    /// solver state on the shared pool, and returns the handle. This is
    /// the cold-start cost — paid once, amortized over every subsequent
    /// solve.
    pub fn add_tenant(
        &mut self,
        method: Method,
        a: CsrMatrix,
        b: &[f64],
        x0: &[f64],
        partition: &Partition,
        opts: &DistOptions,
    ) -> TenantId {
        let n = a.nrows();
        self.make_room();
        let session =
            TenantSession::build(method, a.clone(), b, x0, partition, opts, Some(&self.pool));
        self.clock += 1;
        self.tenants.push(TenantSlot {
            session: Some(session),
            method,
            a,
            partition: partition.clone(),
            opts: *opts,
            last_b: b.to_vec(),
            last_x: x0.to_vec(),
            last_used: self.clock,
            n,
            pending: VecDeque::new(),
            active_since: None,
            active_k: 0,
            reports: Vec::new(),
        });
        TenantId(self.tenants.len() - 1)
    }

    /// Evicts least-recently-used idle sessions until a new resident fits
    /// under [`ServeConfig::max_resident`]. Active sessions are never
    /// evicted; if every resident is active the cap transiently
    /// overshoots.
    fn make_room(&mut self) {
        let cap = self.cfg.max_resident.max(1);
        loop {
            let resident = self.tenants.iter().filter(|s| s.session.is_some()).count();
            if resident < cap {
                return;
            }
            let victim = self
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, s)| s.session.is_some() && s.active_since.is_none())
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i);
            let Some(v) = victim else {
                return;
            };
            self.tenants[v].session = None;
            self.evictions += 1;
        }
    }

    /// Rebuilds an evicted tenant's session warm: the partition, routed
    /// topology, and rank state are reconstructed from the registration
    /// data with the tenant's last solution as the starting iterate, so a
    /// re-admitted tenant resumes exactly where its evicted session
    /// stopped.
    fn ensure_resident(&mut self, t: usize) {
        if self.tenants[t].session.is_some() {
            return;
        }
        self.make_room();
        let slot = &mut self.tenants[t];
        slot.session = Some(TenantSession::build(
            slot.method,
            slot.a.clone(),
            &slot.last_b,
            &slot.last_x,
            &slot.partition,
            &slot.opts,
            Some(&self.pool),
        ));
        self.rebuilds += 1;
    }

    /// Submits one right-hand side for `tenant`. Fails with
    /// [`SubmitError::QueueFull`] when the bounded admission queue is at
    /// capacity — callers should drain ([`run_until_idle`]) and retry —
    /// and rejects a wrong-length or non-finite `b` without touching the
    /// tenant.
    ///
    /// [`run_until_idle`]: SolveService::run_until_idle
    pub fn submit(&mut self, tenant: TenantId, b: Vec<f64>) -> Result<(), SubmitError> {
        let slot = self
            .tenants
            .get_mut(tenant.0)
            .ok_or(SubmitError::UnknownTenant)?;
        check_rhs(&b, slot.n)?;
        if self.queued >= self.cfg.queue_capacity {
            return Err(SubmitError::QueueFull);
        }
        slot.pending.push_back(Job {
            bs: vec![b],
            submitted_at: Instant::now(),
        });
        self.queued += 1;
        self.max_queue_depth = self.max_queue_depth.max(self.queued);
        Ok(())
    }

    /// Submits a batch of right-hand sides for one tenant: the whole
    /// batch is admitted as **one fused multi-RHS panel job** — all `k`
    /// columns relax together under the tenant's fair-share quantum, with
    /// one packed message per edge per phase (see
    /// [`dsw_core::dist::PanelRun`]). Each right-hand side still counts
    /// as one queued job for backpressure and produces its own report.
    ///
    /// Admission stops at the first rejected right-hand side; the
    /// admitted prefix still runs (as a smaller fused job). Returns the
    /// number of right-hand sides admitted *by this call* — both in
    /// `Ok(admitted)` and in `Err((admitted, cause))`.
    pub fn submit_many(
        &mut self,
        tenant: TenantId,
        bs: Vec<Vec<f64>>,
    ) -> Result<usize, (usize, SubmitError)> {
        let slot = match self.tenants.get_mut(tenant.0) {
            Some(slot) => slot,
            None => return Err((0, SubmitError::UnknownTenant)),
        };
        let mut admitted: Vec<Vec<f64>> = Vec::with_capacity(bs.len());
        let mut rejected: Option<SubmitError> = None;
        for b in bs {
            if let Err(e) = check_rhs(&b, slot.n) {
                rejected = Some(e);
                break;
            }
            if self.queued + admitted.len() >= self.cfg.queue_capacity {
                rejected = Some(SubmitError::QueueFull);
                break;
            }
            admitted.push(b);
        }
        let nadmitted = admitted.len();
        if nadmitted > 0 {
            slot.pending.push_back(Job {
                bs: admitted,
                submitted_at: Instant::now(),
            });
            self.queued += nadmitted;
            self.max_queue_depth = self.max_queue_depth.max(self.queued);
        }
        match rejected {
            None => Ok(nadmitted),
            Some(e) => Err((nadmitted, e)),
        }
    }

    /// Jobs currently admitted and unfinished.
    pub fn queue_len(&self) -> usize {
        self.queued
    }

    /// Registered tenants.
    pub fn ntenants(&self) -> usize {
        self.tenants.len()
    }

    /// Workers in the shared pool.
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Tenants currently holding a resident session.
    pub fn resident_tenants(&self) -> usize {
        self.tenants.iter().filter(|s| s.session.is_some()).count()
    }

    /// Whether `tenant` currently holds a resident session.
    pub fn is_resident(&self, tenant: TenantId) -> bool {
        self.tenants
            .get(tenant.0)
            .is_some_and(|s| s.session.is_some())
    }

    /// Sessions evicted under the residency cap since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Sessions rebuilt warm after an eviction since construction.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Runs the fair-share scheduler until every admitted job has
    /// completed, then returns the window's service stats.
    ///
    /// Each round visits every runnable tenant once, in registration
    /// order rotated by a seeded offset; a visited tenant starts its next
    /// pending job if idle and then advances up to `quantum` supersteps.
    /// Tenants never share solver state, so the per-tenant reports are
    /// independent of the interleaving — the schedule only shapes
    /// latency.
    pub fn run_until_idle(&mut self) -> ServiceStats {
        let t0 = Instant::now();
        let mut latencies_ms: Vec<f64> = Vec::new();
        let mut solves = 0u64;
        // Harvest pool busy time accumulated outside this window (tenant
        // cold builds, previous windows), so utilization is per-window.
        let _ = self.pool_stats.take_epoch();

        loop {
            let runnable: Vec<usize> = (0..self.tenants.len())
                .filter(|&t| self.tenants[t].runnable())
                .collect();
            if runnable.is_empty() {
                break;
            }
            // Seeded rotation of the visit order: fairness does not favor
            // low tenant ids, yet the schedule stays a pure function of
            // (seed, round) — nothing about timing feeds back into it.
            self.rng = self
                .rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let rot = (self.rng >> 33) as usize % runnable.len();
            for i in 0..runnable.len() {
                let t = runnable[(i + rot) % runnable.len()];
                self.clock += 1;
                self.tenants[t].last_used = self.clock;
                if self.tenants[t].active_since.is_none() {
                    let Some(job) = self.tenants[t].pending.pop_front() else {
                        continue; // became idle this round (was runnable at selection)
                    };
                    // Activation is the (re-)admission point: an evicted
                    // tenant gets its session rebuilt warm here, possibly
                    // evicting the LRU idle resident to make room.
                    self.ensure_resident(t);
                    let slot = &mut self.tenants[t];
                    slot.active_k = job.bs.len();
                    slot.last_b = job
                        .bs
                        .last()
                        .expect("an admitted job has at least one rhs")
                        .clone();
                    let session = slot.session.as_mut().expect("residency ensured above");
                    if job.bs.len() == 1 {
                        session.begin_solve(&job.bs[0]);
                    } else {
                        // A tenant batch runs as one fused panel solve on
                        // the shared pool, under the same quantum.
                        session.begin_panel(&job.bs, Some(&self.pool));
                    }
                    slot.active_since = Some(job.submitted_at);
                }
                let slot = &mut self.tenants[t];
                let session = slot
                    .session
                    .as_mut()
                    .expect("an active tenant's session is never evicted");
                let finished = if session.panel_active() {
                    session.step_panel(self.cfg.quantum)
                } else {
                    session.step_batch(self.cfg.quantum)
                };
                if finished {
                    if session.panel_active() {
                        let reports = session.finish_panel();
                        if let Some(last) = reports.last() {
                            slot.last_x = last.x.clone();
                        }
                        slot.reports.extend(reports);
                    } else {
                        let report = session.finish();
                        slot.last_x = report.x.clone();
                        slot.reports.push(report);
                    }
                    let since = slot
                        .active_since
                        .take()
                        .expect("active solve has an admission time");
                    let latency = since.elapsed().as_secs_f64() * 1e3;
                    for _ in 0..slot.active_k {
                        latencies_ms.push(latency);
                    }
                    self.queued -= slot.active_k;
                    solves += slot.active_k as u64;
                    slot.active_k = 0;
                }
            }
        }

        let wall_s = t0.elapsed().as_secs_f64();
        let busy: u64 = self.pool_stats.take_epoch().iter().sum();
        let denom = wall_s * 1e9 * self.cfg.workers as f64;
        let max_queue_depth = self.max_queue_depth;
        self.max_queue_depth = self.queued;
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let pct = |p: f64| -> f64 {
            if latencies_ms.is_empty() {
                return 0.0;
            }
            let idx = ((latencies_ms.len() - 1) as f64 * p).round() as usize;
            latencies_ms[idx]
        };
        ServiceStats {
            solves,
            wall_s,
            solves_per_sec: if wall_s > 0.0 {
                solves as f64 / wall_s
            } else {
                0.0
            },
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
            max_queue_depth,
            pool_utilization: if denom > 0.0 {
                (busy as f64 / denom).min(1.0)
            } else {
                0.0
            },
        }
    }

    /// Drains the finished reports for one tenant (completion order).
    pub fn take_reports(&mut self, tenant: TenantId) -> Vec<DistReport> {
        self.tenants
            .get_mut(tenant.0)
            .map(|s| std::mem::take(&mut s.reports))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_core::dist::{DistOptions, ExecBackend, Method};
    use dsw_partition::Partition;
    use dsw_rma::ExecMode;
    use dsw_sparse::CsrMatrix;

    fn poisson(side: usize) -> CsrMatrix {
        dsw_sparse::gen::grid2d_poisson(side, side)
    }

    fn block_partition(n: usize, p: usize) -> Partition {
        Partition::new(p, (0..n).map(|i| i * p / n).collect())
    }

    fn opts() -> DistOptions {
        DistOptions {
            backend: ExecBackend::Superstep(ExecMode::Sequential),
            target_residual: Some(1e-3),
            max_steps: 400,
            ..DistOptions::default()
        }
    }

    fn service_with_tenants(k: usize, seed: u64) -> (SolveService, Vec<TenantId>) {
        let a = poisson(12);
        let n = a.nrows();
        let part = block_partition(n, 4);
        let mut svc = SolveService::new(ServeConfig {
            workers: 2,
            quantum: 4,
            queue_capacity: 64,
            seed,
            ..ServeConfig::default()
        });
        let ids = (0..k)
            .map(|i| {
                let b: Vec<f64> = (0..n).map(|j| ((i + j) % 7) as f64 * 0.1).collect();
                let x0 = vec![0.0; n];
                svc.add_tenant(
                    Method::DistributedSouthwell,
                    a.clone(),
                    &b,
                    &x0,
                    &part,
                    &opts(),
                )
            })
            .collect();
        (svc, ids)
    }

    #[test]
    fn solves_complete_and_reports_are_isolated() {
        let (mut svc, ids) = service_with_tenants(3, 7);
        let n = 144;
        for (i, &id) in ids.iter().enumerate() {
            let b: Vec<f64> = (0..n).map(|j| ((i * 3 + j) % 5) as f64 * 0.2).collect();
            svc.submit(id, b).expect("queue has room");
        }
        let stats = svc.run_until_idle();
        assert_eq!(stats.solves, 3);
        assert_eq!(svc.queue_len(), 0);
        assert!(stats.solves_per_sec > 0.0);
        assert!(stats.pool_utilization <= 1.0);
        for &id in &ids {
            let reports = svc.take_reports(id);
            assert_eq!(reports.len(), 1);
            let r = &reports[0];
            assert!(r.converged_at.is_some(), "tenant {id:?} converged");
            // Isolation: each report's step records cover only this
            // tenant's own solve.
            assert!(r.stats.nsteps() > 0);
            assert_eq!(r.records.len(), r.stats.nsteps() + 1);
        }
    }

    #[test]
    fn queue_backpressure() {
        let a = poisson(8);
        let n = a.nrows();
        let part = block_partition(n, 4);
        let mut svc = SolveService::new(ServeConfig {
            workers: 1,
            quantum: 2,
            queue_capacity: 2,
            seed: 0,
            ..ServeConfig::default()
        });
        let b = vec![0.5; n];
        let id = svc.add_tenant(Method::BlockJacobi, a, &b, &vec![0.0; n], &part, &opts());
        svc.submit(id, vec![0.1; n]).expect("1st fits");
        svc.submit(id, vec![0.2; n]).expect("2nd fits");
        assert_eq!(svc.submit(id, vec![0.3; n]), Err(SubmitError::QueueFull));
        assert_eq!(
            svc.submit(id, vec![0.1; 3]),
            Err(SubmitError::BadRhs {
                expected: n,
                got: 3
            })
        );
        assert_eq!(
            svc.submit(TenantId(99), vec![0.1; n]),
            Err(SubmitError::UnknownTenant)
        );
        let stats = svc.run_until_idle();
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.max_queue_depth, 2);
        svc.submit(id, vec![0.3; n])
            .expect("drained queue has room");
    }

    #[test]
    fn submit_many_returns_count_admitted_not_queue_len() {
        // Regression: submit_many used to return the *global* queue length
        // (which includes other tenants' jobs), not the count admitted by
        // the call.
        let (mut svc, ids) = service_with_tenants(2, 3);
        let n = 144;
        // Pre-load tenant 0 so the global queue is non-empty.
        svc.submit(ids[0], vec![0.25; n]).expect("room");
        assert_eq!(svc.queue_len(), 1);
        let admitted = svc
            .submit_many(ids[1], vec![vec![0.1; n], vec![0.2; n]])
            .expect("both fit");
        assert_eq!(admitted, 2, "admitted by this call, not queue_len()");
        assert_eq!(svc.queue_len(), 3);
        svc.run_until_idle();
        assert_eq!(svc.take_reports(ids[1]).len(), 2);
    }

    #[test]
    fn submit_many_partial_admission_runs_prefix() {
        let a = poisson(8);
        let n = a.nrows();
        let part = block_partition(n, 4);
        let mut svc = SolveService::new(ServeConfig {
            workers: 1,
            quantum: 2,
            queue_capacity: 2,
            seed: 0,
            ..ServeConfig::default()
        });
        let id = svc.add_tenant(
            Method::BlockJacobi,
            a,
            &vec![0.5; n],
            &vec![0.0; n],
            &part,
            &opts(),
        );
        // Capacity 2: the third rhs is rejected, the first two still run
        // as a (smaller) fused job.
        let err = svc
            .submit_many(id, vec![vec![0.1; n], vec![0.2; n], vec![0.3; n]])
            .expect_err("third rhs exceeds capacity");
        assert_eq!(err, (2, SubmitError::QueueFull));
        assert_eq!(svc.queue_len(), 2);
        // A bad-dimension rhs also reports the admitted prefix (none here:
        // the queue is still full).
        let err = svc
            .submit_many(id, vec![vec![0.1; 3]])
            .expect_err("bad rhs");
        assert_eq!(
            err,
            (
                0,
                SubmitError::BadRhs {
                    expected: n,
                    got: 3
                }
            )
        );
        let stats = svc.run_until_idle();
        assert_eq!(stats.solves, 2);
        assert_eq!(svc.take_reports(id).len(), 2);
    }

    /// Regression: a non-finite rhs used to be admitted, and its warm
    /// reseed (`Δb = NaN`) poisoned every later solve of the tenant. It is
    /// now rejected at admission, on both submit paths, and leaves the
    /// tenant exactly as an untouched twin.
    #[test]
    fn non_finite_rhs_is_rejected_and_leaves_the_tenant_untouched() {
        let a = poisson(8);
        let n = a.nrows();
        let part = block_partition(n, 4);
        let mut svc = SolveService::new(ServeConfig::default());
        let b0 = vec![0.5; n];
        let x0 = vec![0.0; n];
        let [hit, twin] = [0, 1].map(|_| {
            svc.add_tenant(
                Method::DistributedSouthwell,
                a.clone(),
                &b0,
                &x0,
                &part,
                &opts(),
            )
        });
        let mut bad = vec![0.2; n];
        bad[5] = f64::NAN;
        assert_eq!(
            svc.submit(hit, bad.clone()),
            Err(SubmitError::NonFiniteRhs { index: 5 })
        );
        bad[5] = f64::INFINITY;
        assert_eq!(
            svc.submit_many(hit, vec![vec![0.3; n], bad]),
            Err((1, SubmitError::NonFiniteRhs { index: 5 }))
        );
        svc.submit(twin, vec![0.3; n]).expect("queue has room");
        svc.run_until_idle();
        let b = vec![0.7; n];
        svc.submit(hit, b.clone()).expect("queue has room");
        svc.submit(twin, b).expect("queue has room");
        svc.run_until_idle();
        let (hit_reps, twin_reps) = (svc.take_reports(hit), svc.take_reports(twin));
        assert_eq!(hit_reps.len(), 2);
        for (h, t) in hit_reps.iter().zip(&twin_reps) {
            assert!(h.x.iter().all(|v| v.is_finite()));
            let bits = |r: &DistReport| -> Vec<u64> {
                r.records
                    .iter()
                    .map(|rec| rec.residual_norm.to_bits())
                    .chain(r.x.iter().map(|v| v.to_bits()))
                    .collect()
            };
            assert_eq!(bits(h), bits(t));
            assert_eq!(h.converged_at, t.converged_at);
            assert!(h.stats.steps == t.stats.steps);
        }
    }

    #[test]
    fn fused_batch_completes_with_per_column_reports() {
        let (mut svc, ids) = service_with_tenants(1, 11);
        let id = ids[0];
        let n = 144;
        let bs: Vec<Vec<f64>> = (0..3)
            .map(|c| (0..n).map(|j| ((c * 2 + j) % 5) as f64 * 0.2).collect())
            .collect();
        let admitted = svc.submit_many(id, bs).expect("all fit");
        assert_eq!(admitted, 3);
        let stats = svc.run_until_idle();
        assert_eq!(stats.solves, 3);
        assert_eq!(svc.queue_len(), 0);
        let reports = svc.take_reports(id);
        assert_eq!(reports.len(), 3, "one report per column, in batch order");
        for r in &reports {
            assert!(r.converged_at.is_some(), "column converged");
            // A column's records stop at its own verdict; the run-level
            // stats cover the whole panel.
            assert!(r.records.len() <= r.stats.nsteps() + 1);
        }
        // The tenant's session adopted the last column: a repeat of the
        // last rhs warm-starts and converges at least as fast.
        let b_last: Vec<f64> = (0..n).map(|j| ((2 * 2 + j) % 5) as f64 * 0.2).collect();
        svc.submit(id, b_last).expect("room");
        svc.run_until_idle();
        let warm = svc.take_reports(id).remove(0);
        let cold_steps = reports[2].converged_at.expect("converged");
        let warm_steps = warm.converged_at.expect("converged");
        assert!(
            warm_steps <= cold_steps,
            "adopted panel state warm-starts ({warm_steps} vs {cold_steps})"
        );
    }

    #[test]
    fn lru_eviction_caps_residency_and_readmits_warm() {
        let a = poisson(12);
        let n = a.nrows();
        let part = block_partition(n, 4);
        let mut svc = SolveService::new(ServeConfig {
            workers: 2,
            quantum: 4,
            queue_capacity: 64,
            seed: 3,
            max_resident: 2,
        });
        let b0: Vec<f64> = (0..n).map(|j| (j % 5) as f64 * 0.2).collect();
        let x0 = vec![0.0; n];
        let ids: Vec<TenantId> = (0..4)
            .map(|_| {
                svc.add_tenant(
                    Method::DistributedSouthwell,
                    a.clone(),
                    &b0,
                    &x0,
                    &part,
                    &opts(),
                )
            })
            .collect();
        // Registration alone already respects the cap: the two oldest
        // idle sessions were evicted to admit the two newest.
        assert_eq!(svc.resident_tenants(), 2);
        assert_eq!(svc.evictions(), 2);
        assert!(!svc.is_resident(ids[0]));
        assert!(svc.is_resident(ids[3]));

        // Activating the evicted tenant 0 rebuilds its session warm and
        // solves normally.
        svc.submit(ids[0], b0.clone()).expect("room");
        svc.run_until_idle();
        assert_eq!(svc.rebuilds(), 1);
        assert!(svc.is_resident(ids[0]));
        assert!(svc.resident_tenants() <= 2);
        let first = svc.take_reports(ids[0]).remove(0);
        let cold_steps = first.converged_at.expect("rebuilt session converged");

        // Churn the other tenants so tenant 0 is evicted again — now
        // *after* having solved, so its slot holds the solution.
        for &id in &ids[1..] {
            svc.submit(id, b0.clone()).expect("room");
        }
        svc.run_until_idle();
        assert!(!svc.is_resident(ids[0]), "LRU churn evicts tenant 0");

        // Re-admission warm-starts from the last solution: repeating the
        // same rhs converges (far) faster than the cold solve did.
        svc.submit(ids[0], b0.clone()).expect("room");
        svc.run_until_idle();
        let warm = svc.take_reports(ids[0]).remove(0);
        let warm_steps = warm.converged_at.expect("re-admitted solve converged");
        assert!(
            warm_steps < cold_steps.max(1),
            "warm re-admission ({warm_steps} steps) must beat the cold solve ({cold_steps})"
        );
        assert!(svc.resident_tenants() <= 2, "cap holds throughout");
    }

    #[test]
    fn repeated_solves_warm_start() {
        let (mut svc, ids) = service_with_tenants(1, 1);
        let id = ids[0];
        let n = 144;
        let b1: Vec<f64> = (0..n).map(|j| (j % 5) as f64 * 0.2).collect();
        svc.submit(id, b1.clone()).expect("room");
        svc.run_until_idle();
        let cold = svc.take_reports(id).remove(0);

        // Tiny perturbation: the warm re-solve starts near the solution
        // and must converge in (far) fewer steps than the cold solve.
        let b2: Vec<f64> = b1.iter().map(|v| v + 1e-5).collect();
        svc.submit(id, b2).expect("room");
        svc.run_until_idle();
        let warm = svc.take_reports(id).remove(0);
        let cold_steps = cold.converged_at.expect("cold solve converged");
        let warm_steps = warm.converged_at.expect("warm solve converged");
        assert!(
            warm_steps < cold_steps,
            "warm start ({warm_steps} steps) beats cold ({cold_steps} steps)"
        );
    }
}
