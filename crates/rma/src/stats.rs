//! Communication statistics and the modelled time.

use crate::executor::PhaseTotals;

/// Classification of a message, mirroring Table 3 of the paper (plus the
/// recovery class this reproduction adds for its self-healing protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommClass {
    /// Updates sent to neighbors after a local subdomain solve
    /// ("Solve comm" in Table 3); piggybacked residual norms ride free.
    Solve,
    /// Explicit residual-norm updates ("Res comm" in Table 3): the messages
    /// Parallel Southwell sends whenever its residual changed, and the
    /// deadlock-avoidance messages of Distributed Southwell.
    Residual,
    /// Self-healing traffic that the paper's protocol does not have:
    /// periodic invariant-audit / ghost-resync epochs and the freeze
    /// watchdog's forced residual rebroadcasts. Counted separately so the
    /// resilience overhead is measurable against the paper's metrics.
    Recovery,
    /// Extra replica copies of coded (redundancy-`r`) placements: for every
    /// logical message, the copy to the primary host keeps its original
    /// class while the `r − 1` fan-out copies to the remaining replica
    /// hosts are counted here, so the wire overhead of straggler coding is
    /// measurable per class (Haddadpour et al., PAPERS.md).
    Redundancy,
    /// Inter-level grid-transfer traffic of the distributed multigrid
    /// cycle: the ghost exchanges that carry fine residual values to the
    /// coarse ranks (restriction) and coarse corrections back to the fine
    /// ranks (prolongation). Counted separately from the smoothers'
    /// solve/residual traffic so a V-cycle's per-level communication
    /// breakdown is measurable.
    Transfer,
}

impl CommClass {
    /// All classes, in display order.
    pub const ALL: [CommClass; 5] = [
        CommClass::Solve,
        CommClass::Residual,
        CommClass::Recovery,
        CommClass::Redundancy,
        CommClass::Transfer,
    ];
}

/// Message counts split by [`CommClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// [`CommClass::Solve`] messages.
    pub solve: u64,
    /// [`CommClass::Residual`] messages.
    pub residual: u64,
    /// [`CommClass::Recovery`] messages.
    pub recovery: u64,
    /// [`CommClass::Redundancy`] messages.
    pub redundancy: u64,
    /// [`CommClass::Transfer`] messages.
    pub transfer: u64,
}

impl ClassCounts {
    /// Adds `n` to the counter of `class`.
    #[inline]
    pub fn add(&mut self, class: CommClass, n: u64) {
        match class {
            CommClass::Solve => self.solve += n,
            CommClass::Residual => self.residual += n,
            CommClass::Recovery => self.recovery += n,
            CommClass::Redundancy => self.redundancy += n,
            CommClass::Transfer => self.transfer += n,
        }
    }

    /// The counter of `class`.
    #[inline]
    pub fn of(&self, class: CommClass) -> u64 {
        match class {
            CommClass::Solve => self.solve,
            CommClass::Residual => self.residual,
            CommClass::Recovery => self.recovery,
            CommClass::Redundancy => self.redundancy,
            CommClass::Transfer => self.transfer,
        }
    }

    /// Sum over all classes.
    #[inline]
    pub fn total(&self) -> u64 {
        self.solve + self.residual + self.recovery + self.redundancy + self.transfer
    }

    /// Element-wise accumulation.
    #[inline]
    pub fn accumulate(&mut self, other: &ClassCounts) {
        self.solve += other.solve;
        self.residual += other.residual;
        self.recovery += other.recovery;
        self.redundancy += other.redundancy;
        self.transfer += other.transfer;
    }
}

/// Fault-injection outcomes of one parallel step (or one run), split by
/// message class so chaos experiments can report which protocol traffic
/// was hit (see `ChaosConfig` in [`crate::fault`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped at the epoch boundary.
    pub dropped: ClassCounts,
    /// Messages delivered twice (the extra copy, not the original).
    pub duplicated: ClassCounts,
    /// Messages whose delivery was deferred by one or more epochs.
    pub delayed: ClassCounts,
    /// Rank-steps lost to injected stalls (a rank stalled for one whole
    /// parallel step counts once).
    pub stalled_ranks: u64,
}

impl FaultStats {
    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &FaultStats) {
        self.dropped.accumulate(&other.dropped);
        self.duplicated.accumulate(&other.duplicated);
        self.delayed.accumulate(&other.delayed);
        self.stalled_ranks += other.stalled_ranks;
    }
}

/// α–β–γ communication/computation cost model.
///
/// The modelled time of one phase is
///
/// ```text
/// sync + gamma·max_p(flops_p) + alpha·(Σ msgs / P) + beta·(Σ bytes / P)
/// ```
///
/// and a parallel step is the sum of its phases. Computation is charged at
/// the slowest rank (it is genuinely parallel), while messages are charged
/// on the *average per-rank volume*: at scale, one-sided epoch overheads,
/// progress-engine time, and network contention make the measured
/// time-per-step track the mean message count per rank — exactly the
/// proportionality visible in the paper's Table 4 (BJ ≈ PS > DS per step,
/// in the same ratios as their message counts). Defaults: 20 µs effective
/// per message (RMA epoch + progress cost on a Cori-class system),
/// 2 ns/byte, 1 Gflop/s per core, 10 µs per epoch synchronization.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Seconds per message (effective one-sided latency + epoch share).
    pub alpha: f64,
    /// Seconds per byte (inverse effective bandwidth).
    pub beta: f64,
    /// Seconds per floating-point operation.
    pub gamma: f64,
    /// Seconds per epoch (post/start/complete/wait synchronization).
    pub sync: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alpha: 2.0e-5,
            beta: 2.0e-9,
            gamma: 1.0e-9,
            sync: 1.0e-5,
        }
    }
}

/// Per-parallel-step statistics.
///
/// Two kinds of fields live here. The *deterministic counters* (messages,
/// bytes, flops, relaxations, modelled time, fault outcomes) are
/// bit-identical across [`crate::ExecMode`]s and scheduling orders — the
/// substrate's core guarantee. The *measured timing* fields
/// (`compute_ns`, `compute_ns_max_rank`, `span_ns`, `workers`) record real
/// wall-clock behaviour of the host and naturally vary run to run; they
/// exist to make the load imbalance the paper implies (most ranks idle,
/// few relax) measurable. `PartialEq` compares **only the deterministic
/// counters**, so cross-mode equality assertions express exactly the
/// determinism contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Messages sent by all ranks this step.
    pub msgs: u64,
    /// ... of class [`CommClass::Solve`].
    pub msgs_solve: u64,
    /// ... of class [`CommClass::Residual`].
    pub msgs_residual: u64,
    /// ... of class [`CommClass::Recovery`].
    pub msgs_recovery: u64,
    /// ... of class [`CommClass::Redundancy`] (extra replica copies).
    pub msgs_redundancy: u64,
    /// ... of class [`CommClass::Transfer`] (inter-level grid transfers).
    pub msgs_transfer: u64,
    /// Payload bytes sent by all ranks.
    pub bytes: u64,
    /// ... of class [`CommClass::Solve`].
    pub bytes_solve: u64,
    /// ... of class [`CommClass::Residual`].
    pub bytes_residual: u64,
    /// ... of class [`CommClass::Recovery`].
    pub bytes_recovery: u64,
    /// ... of class [`CommClass::Redundancy`] (extra replica copies).
    pub bytes_redundancy: u64,
    /// ... of class [`CommClass::Transfer`] (inter-level grid transfers).
    pub bytes_transfer: u64,
    /// Flops reported by all ranks.
    pub flops: u64,
    /// Ranks that reported at least one relaxation.
    pub active_ranks: u64,
    /// Row relaxations reported by all ranks.
    pub relaxations: u64,
    /// Modelled wall-clock seconds of the step.
    pub time: f64,
    /// Fault-injection outcomes of this step (all zero without chaos).
    pub faults: FaultStats,
    /// Measured: wall-clock nanoseconds spent inside rank phase callbacks
    /// this step, summed over ranks (the step's total compute volume).
    pub compute_ns: u64,
    /// Measured: the largest per-rank share of [`StepStats::compute_ns`] —
    /// the critical-path rank. `compute_ns_max_rank / (compute_ns / P)` is
    /// the step's load-imbalance factor (see [`StepStats::imbalance`]).
    pub compute_ns_max_rank: u64,
    /// Measured: wall-clock nanoseconds of the step's compute dispatch
    /// windows (all phases, as seen by the executor's driving thread).
    pub span_ns: u64,
    /// Measured: wall-clock nanoseconds the executor spent closing this
    /// step's epochs — fate draws, message routing into inboxes, delayed
    /// expiry, and the stats fold. `span_ns + route_ns` is essentially the
    /// whole step; their ratio is the routing share the parallel close
    /// attacks.
    pub route_ns: u64,
    /// Workers that executed rank phases this step (1 = sequential).
    pub workers: u32,
}

impl PartialEq for StepStats {
    /// Deterministic counters only — measured timing is machine- and
    /// schedule-dependent by nature and deliberately excluded, so that
    /// `Sequential` vs `Threaded` equality assertions check the substrate's
    /// bit-determinism contract.
    fn eq(&self, other: &Self) -> bool {
        self.msgs == other.msgs
            && self.msgs_solve == other.msgs_solve
            && self.msgs_residual == other.msgs_residual
            && self.msgs_recovery == other.msgs_recovery
            && self.msgs_redundancy == other.msgs_redundancy
            && self.msgs_transfer == other.msgs_transfer
            && self.bytes == other.bytes
            && self.bytes_solve == other.bytes_solve
            && self.bytes_residual == other.bytes_residual
            && self.bytes_recovery == other.bytes_recovery
            && self.bytes_redundancy == other.bytes_redundancy
            && self.bytes_transfer == other.bytes_transfer
            && self.flops == other.flops
            && self.active_ranks == other.active_ranks
            && self.relaxations == other.relaxations
            && self.time == other.time
            && self.faults == other.faults
    }
}

impl StepStats {
    /// Adds the deterministic counters of one or more rank phases, plus
    /// their measured compute time. The one place the per-class counters
    /// are spelled out, shared by the superstep and asynchronous executors.
    pub(crate) fn absorb(&mut self, t: &PhaseTotals) {
        self.msgs += t.msgs.total();
        self.msgs_solve += t.msgs.solve;
        self.msgs_residual += t.msgs.residual;
        self.msgs_recovery += t.msgs.recovery;
        self.msgs_redundancy += t.msgs.redundancy;
        self.msgs_transfer += t.msgs.transfer;
        self.bytes += t.bytes.total();
        self.bytes_solve += t.bytes.solve;
        self.bytes_residual += t.bytes.residual;
        self.bytes_recovery += t.bytes.recovery;
        self.bytes_redundancy += t.bytes.redundancy;
        self.bytes_transfer += t.bytes.transfer;
        self.flops += t.flops;
        self.relaxations += t.relaxations;
        self.active_ranks += t.active;
        self.compute_ns += t.wall_ns;
    }

    /// The step's measured load-imbalance factor: the critical-path rank's
    /// compute time over the per-rank mean (`max / mean` across `nranks`
    /// ranks). `1.0` is perfect balance; Distributed Southwell's "few ranks
    /// relax, most idle" regime pushes this toward `nranks`. Returns `1.0`
    /// when nothing was measured.
    pub fn imbalance(&self, nranks: usize) -> f64 {
        if self.compute_ns == 0 || nranks == 0 {
            return 1.0;
        }
        self.compute_ns_max_rank as f64 * nranks as f64 / self.compute_ns as f64
    }
}

/// Cost and drift observables of a run's out-of-band convergence monitor.
///
/// The monitor is a *driver* concern — it performs no solver communication
/// — but its cost is exactly what incremental monitoring exists to remove,
/// so the substrate records it alongside the run statistics. `evals` counts
/// the `O(P)` maintained-norm reductions, `verifications` the full
/// `‖b − Ax‖₂` recomputations (gather + SpMV). The `*_ns` fields are
/// measured wall-clock (machine-dependent, like the executor's timing
/// observables); `max_rel_drift` is the largest observed relative gap
/// between a maintained norm and the exact norm verified at the same step
/// boundary — the monitor's accuracy certificate.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonitorStats {
    /// `O(P)` maintained-norm evaluations performed.
    pub evals: u64,
    /// Exact `‖b − Ax‖₂` recomputations performed (gather + SpMV).
    pub verifications: u64,
    /// Measured wall-clock nanoseconds spent in maintained evaluations.
    pub eval_ns: u64,
    /// Measured wall-clock nanoseconds spent in exact recomputations.
    pub verify_ns: u64,
    /// Largest observed `|exact − maintained| / max(exact, 1)` at a step
    /// boundary where both were computed. `0.0` with exact monitoring.
    pub max_rel_drift: f64,
}

impl MonitorStats {
    /// Records one exact-vs-maintained comparison.
    pub fn record_drift(&mut self, exact: f64, maintained: f64) {
        let rel = (exact - maintained).abs() / exact.max(1.0);
        if rel > self.max_rel_drift {
            self.max_rel_drift = rel;
        }
    }
}

/// Accumulated statistics for a run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// One entry per executed parallel step.
    pub steps: Vec<StepStats>,
    /// Convergence-monitor cost and drift observables (filled by the
    /// driver; all zero for raw executor runs).
    pub monitor: MonitorStats,
    /// Messages sent per rank over the whole run.
    pub msgs_per_rank: Vec<u64>,
    /// Measured wall-clock nanoseconds each rank spent in its phase
    /// callbacks over the whole run (the per-rank compute profile — the
    /// direct observable of the paper's load imbalance).
    pub rank_time_ns: Vec<u64>,
    /// Measured busy wall-clock nanoseconds per worker over the whole run
    /// (one entry per pool worker; a single entry for sequential runs).
    pub worker_busy_ns: Vec<u64>,
}

impl RunStats {
    /// Creates stats for `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        RunStats {
            steps: Vec::new(),
            monitor: MonitorStats::default(),
            msgs_per_rank: vec![0; nranks],
            rank_time_ns: vec![0; nranks],
            worker_busy_ns: Vec::new(),
        }
    }

    /// Number of executed parallel steps.
    pub fn nsteps(&self) -> usize {
        self.steps.len()
    }

    /// Harvests everything accumulated since the last harvest (or since
    /// construction) and resets the accumulators in place, keeping their
    /// shapes. The per-solve accounting primitive of a persistent
    /// executor: a session driving many solves through one executor calls
    /// this at each solve boundary, so every solve's report carries only
    /// its own steps, per-rank compute time, and worker busy time —
    /// `worker_utilization` / `rank_time_ns` stay per-solve instead of
    /// smearing across the executor's lifetime.
    pub fn take_epoch(&mut self) -> RunStats {
        let epoch = RunStats {
            steps: std::mem::take(&mut self.steps),
            monitor: std::mem::take(&mut self.monitor),
            msgs_per_rank: self.msgs_per_rank.clone(),
            rank_time_ns: self.rank_time_ns.clone(),
            worker_busy_ns: self.worker_busy_ns.clone(),
        };
        self.msgs_per_rank.iter_mut().for_each(|v| *v = 0);
        self.rank_time_ns.iter_mut().for_each(|v| *v = 0);
        self.worker_busy_ns.iter_mut().for_each(|v| *v = 0);
        epoch
    }

    /// Total messages over all steps.
    pub fn total_msgs(&self) -> u64 {
        self.steps.iter().map(|s| s.msgs).sum()
    }

    /// Total solve-class messages.
    pub fn total_msgs_solve(&self) -> u64 {
        self.steps.iter().map(|s| s.msgs_solve).sum()
    }

    /// Total residual-class messages.
    pub fn total_msgs_residual(&self) -> u64 {
        self.steps.iter().map(|s| s.msgs_residual).sum()
    }

    /// Total recovery-class messages (audit / resync / watchdog traffic).
    pub fn total_msgs_recovery(&self) -> u64 {
        self.steps.iter().map(|s| s.msgs_recovery).sum()
    }

    /// Total redundancy-class messages (extra replica copies of coded
    /// placements).
    pub fn total_msgs_redundancy(&self) -> u64 {
        self.steps.iter().map(|s| s.msgs_redundancy).sum()
    }

    /// Total transfer-class messages (inter-level grid transfers of the
    /// distributed multigrid cycle).
    pub fn total_msgs_transfer(&self) -> u64 {
        self.steps.iter().map(|s| s.msgs_transfer).sum()
    }

    /// Total payload bytes over all steps.
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.bytes).sum()
    }

    /// Total measured epoch-close (routing) nanoseconds over the run.
    pub fn total_route_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.route_ns).sum()
    }

    /// Fault-injection outcomes accumulated over the whole run.
    pub fn total_faults(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for s in &self.steps {
            total.accumulate(&s.faults);
        }
        total
    }

    /// Total messages dropped by fault injection over the run.
    pub fn total_msgs_dropped(&self) -> u64 {
        self.steps.iter().map(|s| s.faults.dropped.total()).sum()
    }

    /// The paper's "communication cost": total messages / number of ranks.
    pub fn comm_cost(&self) -> f64 {
        self.total_msgs() as f64 / self.msgs_per_rank.len() as f64
    }

    /// Recovery-class communication cost (overhead of self-healing).
    pub fn comm_cost_recovery(&self) -> f64 {
        self.total_msgs_recovery() as f64 / self.msgs_per_rank.len() as f64
    }

    /// Total modelled time.
    pub fn total_time(&self) -> f64 {
        self.steps.iter().map(|s| s.time).sum()
    }

    /// Total relaxations.
    pub fn total_relaxations(&self) -> u64 {
        self.steps.iter().map(|s| s.relaxations).sum()
    }

    /// Total measured compute nanoseconds (sum over ranks and steps).
    pub fn total_compute_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.compute_ns).sum()
    }

    /// Total measured dispatch-window nanoseconds over the run.
    pub fn total_span_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.span_ns).sum()
    }

    /// Mean per-step load-imbalance factor (`max / mean` of per-rank
    /// compute time), over the steps that measured any compute. `1.0` when
    /// nothing was measured.
    pub fn mean_imbalance(&self) -> f64 {
        let nranks = self.msgs_per_rank.len();
        let measured: Vec<f64> = self
            .steps
            .iter()
            .filter(|s| s.compute_ns > 0)
            .map(|s| s.imbalance(nranks))
            .collect();
        if measured.is_empty() {
            return 1.0;
        }
        measured.iter().sum::<f64>() / measured.len() as f64
    }

    /// Mean worker utilization: total busy time across workers over the
    /// total time they were collectively available — the dispatch windows
    /// plus the epoch closes (`(span + route) × workers`), since a pooled
    /// close also counts as worker busy time. `1.0` means every worker was
    /// busy for the whole step; low values quantify how much of the pool
    /// the "few ranks relax" regime leaves idle. Returns `0.0` when nothing
    /// was measured.
    pub fn worker_utilization(&self) -> f64 {
        let window = self.total_span_ns() + self.total_route_ns();
        let nworkers = self.worker_busy_ns.len();
        if window == 0 || nworkers == 0 {
            return 0.0;
        }
        let busy: u64 = self.worker_busy_ns.iter().sum();
        (busy as f64 / (window as f64 * nworkers as f64)).min(1.0)
    }

    /// Mean fraction of ranks active per step (the paper's
    /// "active processes").
    pub fn mean_active_fraction(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        let p = self.msgs_per_rank.len() as f64;
        self.steps
            .iter()
            .map(|s| s.active_ranks as f64 / p)
            .sum::<f64>()
            / self.steps.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stats_aggregation() {
        let mut rs = RunStats::new(4);
        rs.steps.push(StepStats {
            msgs: 8,
            msgs_solve: 6,
            msgs_residual: 2,
            bytes: 100,
            bytes_solve: 80,
            bytes_residual: 20,
            flops: 50,
            active_ranks: 2,
            relaxations: 20,
            time: 0.5,
            ..StepStats::default()
        });
        rs.steps.push(StepStats {
            msgs: 4,
            msgs_solve: 2,
            msgs_residual: 2,
            msgs_recovery: 1,
            bytes: 40,
            bytes_solve: 25,
            bytes_residual: 10,
            bytes_recovery: 5,
            flops: 10,
            active_ranks: 4,
            relaxations: 40,
            time: 0.25,
            faults: FaultStats {
                dropped: ClassCounts {
                    solve: 2,
                    residual: 1,
                    ..ClassCounts::default()
                },
                duplicated: ClassCounts {
                    solve: 1,
                    ..ClassCounts::default()
                },
                delayed: ClassCounts {
                    recovery: 3,
                    ..ClassCounts::default()
                },
                stalled_ranks: 2,
            },
            ..StepStats::default()
        });
        assert_eq!(rs.nsteps(), 2);
        assert_eq!(rs.total_msgs(), 12);
        assert_eq!(rs.total_msgs_solve(), 8);
        assert_eq!(rs.total_msgs_residual(), 4);
        assert!((rs.comm_cost() - 3.0).abs() < 1e-15);
        assert!((rs.total_time() - 0.75).abs() < 1e-15);
        assert_eq!(rs.total_relaxations(), 60);
        assert!((rs.mean_active_fraction() - 0.75).abs() < 1e-15);
        assert_eq!(rs.total_msgs_recovery(), 1);
        assert!((rs.comm_cost_recovery() - 0.25).abs() < 1e-15);
        assert_eq!(rs.total_bytes(), 140);
        let faults = rs.total_faults();
        assert_eq!(faults.dropped.total(), 3);
        assert_eq!(faults.duplicated.of(CommClass::Solve), 1);
        assert_eq!(faults.delayed.of(CommClass::Recovery), 3);
        assert_eq!(faults.stalled_ranks, 2);
        assert_eq!(rs.total_msgs_dropped(), 3);
    }

    #[test]
    fn empty_run_stats() {
        let rs = RunStats::new(2);
        assert_eq!(rs.total_msgs(), 0);
        assert_eq!(rs.mean_active_fraction(), 0.0);
        assert_eq!(rs.total_time(), 0.0);
        assert_eq!(rs.mean_imbalance(), 1.0);
        assert_eq!(rs.worker_utilization(), 0.0);
        assert_eq!(rs.rank_time_ns, vec![0, 0]);
    }

    #[test]
    fn measured_timing_excluded_from_step_equality() {
        let a = StepStats {
            msgs: 5,
            compute_ns: 1000,
            compute_ns_max_rank: 900,
            span_ns: 1200,
            workers: 4,
            ..StepStats::default()
        };
        let b = StepStats {
            msgs: 5,
            compute_ns: 77,
            compute_ns_max_rank: 77,
            span_ns: 99,
            workers: 1,
            ..StepStats::default()
        };
        // Same deterministic counters, different measured timing: equal.
        assert_eq!(a, b);
        let c = StepStats { msgs: 6, ..a };
        assert_ne!(a, c);
    }

    #[test]
    fn imbalance_and_utilization_aggregate() {
        let mut rs = RunStats::new(4);
        // A perfectly balanced step: 4 ranks × 100 ns.
        rs.steps.push(StepStats {
            compute_ns: 400,
            compute_ns_max_rank: 100,
            span_ns: 200,
            workers: 2,
            ..StepStats::default()
        });
        // A fully serial step: one rank did all 400 ns.
        rs.steps.push(StepStats {
            compute_ns: 400,
            compute_ns_max_rank: 400,
            span_ns: 600,
            workers: 2,
            ..StepStats::default()
        });
        assert!((rs.steps[0].imbalance(4) - 1.0).abs() < 1e-12);
        assert!((rs.steps[1].imbalance(4) - 4.0).abs() < 1e-12);
        assert!((rs.mean_imbalance() - 2.5).abs() < 1e-12);
        assert_eq!(rs.total_compute_ns(), 800);
        assert_eq!(rs.total_span_ns(), 800);
        rs.worker_busy_ns = vec![500, 300];
        assert!((rs.worker_utilization() - 0.5).abs() < 1e-12);
        // A pooled close is worker busy time too, so the available window
        // includes the route time: span 200 + route 200 on 2 workers, with
        // one worker busy for 400 ns, is half used.
        let mut routed = RunStats::new(4);
        routed.steps.push(StepStats {
            span_ns: 200,
            route_ns: 200,
            workers: 2,
            ..StepStats::default()
        });
        routed.worker_busy_ns = vec![400, 0];
        assert!((routed.worker_utilization() - 0.5).abs() < 1e-12);
    }
}
