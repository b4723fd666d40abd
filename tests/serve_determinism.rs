//! Determinism and isolation contract for the serving layer
//! (`dsw_serve::SolveService`), in the style of
//! `tests/executor_determinism.rs`:
//!
//! * **Schedule determinism** — given the same `(seed, tenant set,
//!   arrival order)`, every per-tenant [`DistReport`] is bit-identical
//!   regardless of the shared pool's worker count. The scheduler's visit
//!   order is a pure function of `(seed, round)`, and the executor's
//!   pool-size determinism contract (see `executor_determinism.rs`)
//!   extends it down to the superstep level.
//! * **Tenant isolation** — a tenant's reports under multiplexing are
//!   bit-identical to a solo [`TenantSession`] solving the same job
//!   sequence on a dedicated sequential executor. Interleaving with
//!   other tenants shapes only latency, never results or accounting.
//!
//! Timing-derived fields (`compute_ns`, `imbalance`, wall-clock monitor
//! numbers) are measured, not modelled, so fingerprints compare the
//! modelled/semantic fields only.

use distributed_southwell::core::dist::{
    DistOptions, DistReport, ExecBackend, Method, MonitorMode, TenantSession,
};
use distributed_southwell::partition::Partition;
use distributed_southwell::rma::ExecMode;
use distributed_southwell::serve::{ServeConfig, SolveService, TenantId};
use distributed_southwell::sparse::{gen, CsrMatrix};

/// One step record's semantic fields: (step, residual bits, relaxations,
/// msgs, solve msgs, residual msgs, bytes, modelled-time bits, active
/// ranks).
type RecordPrint = (usize, u64, u64, u64, u64, u64, u64, u64, u64);

/// The semantic content of one report, bitwise-comparable. Excludes
/// measured timing (`compute_ns`, `imbalance`, monitor drift floats are
/// kept — they are modelled arithmetic, not clocks).
#[derive(Debug, PartialEq)]
struct ReportPrint {
    method: Method,
    records: Vec<RecordPrint>,
    x: Vec<u64>,
    converged_at: Option<usize>,
    deadlocked: bool,
    diverged: bool,
    msgs_per_rank: Vec<u64>,
}

fn print(rep: &DistReport) -> ReportPrint {
    ReportPrint {
        method: rep.method,
        records: rep
            .records
            .iter()
            .map(|r| {
                (
                    r.step,
                    r.residual_norm.to_bits(),
                    r.relaxations,
                    r.msgs,
                    r.msgs_solve,
                    r.msgs_residual,
                    r.bytes,
                    r.time.to_bits(),
                    r.active_ranks,
                )
            })
            .collect(),
        x: rep.x.iter().map(|v| v.to_bits()).collect(),
        converged_at: rep.converged_at,
        deadlocked: rep.deadlocked,
        diverged: rep.diverged,
        msgs_per_rank: rep.stats.msgs_per_rank.clone(),
    }
}

fn poisson(side: usize) -> CsrMatrix {
    gen::grid2d_poisson(side, side)
}

fn block_partition(n: usize, p: usize) -> Partition {
    Partition::new(p, (0..n).map(|i| i * p / n).collect())
}

fn opts() -> DistOptions {
    DistOptions {
        backend: ExecBackend::Superstep(ExecMode::Sequential),
        monitor: MonitorMode::Exact,
        target_residual: Some(1e-3),
        max_steps: 400,
        ..DistOptions::default()
    }
}

/// Mixed-method tenant set: (method, rhs phase) per tenant.
const TENANTS: [(Method, usize); 5] = [
    (Method::DistributedSouthwell, 0),
    (Method::BlockJacobi, 1),
    (Method::ParallelSouthwell, 2),
    (Method::DistributedSouthwell, 3),
    (Method::BlockJacobi, 4),
];

fn rhs(n: usize, phase: usize, job: usize) -> Vec<f64> {
    (0..n)
        .map(|j| ((phase * 3 + job * 11 + j) % 7) as f64 * 0.1)
        .collect()
}

/// Registers the fixed tenant set, submits `jobs` right-hand sides per
/// tenant (in arrival order: round-robin over tenants), drains the
/// service, and returns each tenant's report fingerprints.
fn run_service(workers: usize, seed: u64, jobs: usize) -> Vec<Vec<ReportPrint>> {
    let a = poisson(12);
    let n = a.nrows();
    let part = block_partition(n, 4);
    let mut svc = SolveService::new(ServeConfig {
        workers,
        quantum: 3,
        queue_capacity: 64,
        seed,
        ..ServeConfig::default()
    });
    let ids: Vec<TenantId> = TENANTS
        .iter()
        .map(|&(method, phase)| {
            svc.add_tenant(
                method,
                a.clone(),
                &rhs(n, phase, 0),
                &vec![0.0; n],
                &part,
                &opts(),
            )
        })
        .collect();
    for job in 0..jobs {
        for (&id, &(_, phase)) in ids.iter().zip(TENANTS.iter()) {
            svc.submit(id, rhs(n, phase, job)).expect("queue has room");
        }
    }
    let stats = svc.run_until_idle();
    assert_eq!(stats.solves as usize, TENANTS.len() * jobs);
    ids.iter()
        .map(|&id| svc.take_reports(id).iter().map(print).collect())
        .collect()
}

/// The same job sequence solved solo: one persistent session per tenant
/// on a dedicated sequential executor, no multiplexing.
fn run_solo(jobs: usize) -> Vec<Vec<ReportPrint>> {
    let a = poisson(12);
    let n = a.nrows();
    let part = block_partition(n, 4);
    TENANTS
        .iter()
        .map(|&(method, phase)| {
            let mut session = TenantSession::build(
                method,
                a.clone(),
                &rhs(n, phase, 0),
                &vec![0.0; n],
                &part,
                &opts(),
            );
            (0..jobs)
                .map(|job| print(&session.solve(&rhs(n, phase, job))))
                .collect()
        })
        .collect()
}

/// Same `(seed, tenant set, arrival order)` ⇒ bit-identical per-tenant
/// reports regardless of the shared pool's size.
#[test]
fn reports_are_bit_identical_across_pool_sizes() {
    let reference = run_service(1, 42, 2);
    for workers in [2usize, 3] {
        let other = run_service(workers, 42, 2);
        assert_eq!(
            reference, other,
            "a {workers}-worker pool changed a tenant report"
        );
    }
}

/// Different scheduler seeds permute the visit order but leave every
/// report untouched: the schedule shapes latency only.
#[test]
fn scheduler_seed_does_not_leak_into_reports() {
    let reference = run_service(2, 0, 2);
    let reseeded = run_service(2, 31337, 2);
    assert_eq!(reference, reseeded, "seed leaked into a tenant report");
}

/// Runs the two-phase eviction scenario at the given residency cap and
/// returns (per-tenant fingerprints, evictions, rebuilds). Tenant 0 is
/// registered first (so the LRU evicts it before it ever solves), sits
/// out phase one while the other four solve twice, then comes back for
/// one job in phase two — forcing a warm re-admission under the cap.
fn run_evicting(cap: usize) -> (Vec<Vec<ReportPrint>>, u64, u64) {
    let a = poisson(12);
    let n = a.nrows();
    let part = block_partition(n, 4);
    let mut svc = SolveService::new(ServeConfig {
        workers: 2,
        quantum: 3,
        queue_capacity: 64,
        seed: 42,
        max_resident: cap,
    });
    let ids: Vec<TenantId> = TENANTS
        .iter()
        .map(|&(method, phase)| {
            svc.add_tenant(
                method,
                a.clone(),
                &rhs(n, phase, 0),
                &vec![0.0; n],
                &part,
                &opts(),
            )
        })
        .collect();
    for job in 0..2 {
        for (&id, &(_, phase)) in ids.iter().zip(TENANTS.iter()).skip(1) {
            svc.submit(id, rhs(n, phase, job)).expect("queue has room");
        }
    }
    svc.run_until_idle();
    assert!(svc.resident_tenants() <= cap.max(1));
    svc.submit(ids[0], rhs(n, TENANTS[0].1, 0))
        .expect("queue has room");
    svc.run_until_idle();
    let prints = ids
        .iter()
        .map(|&id| svc.take_reports(id).iter().map(print).collect())
        .collect();
    (prints, svc.evictions(), svc.rebuilds())
}

/// Capacity eviction is invisible in the results: every tenant's reports
/// under a residency cap — including the tenant that was evicted cold
/// and rebuilt on re-admission — are bit-identical to the uncapped
/// service's. Eviction moves memory, never math.
#[test]
fn lru_eviction_does_not_perturb_any_tenant_report() {
    let (reference, ev_ref, rb_ref) = run_evicting(usize::MAX);
    assert_eq!((ev_ref, rb_ref), (0, 0), "uncapped service must not evict");
    let (capped, ev, rb) = run_evicting(4);
    assert!(
        ev >= 2,
        "registration and re-admission must each evict (got {ev})"
    );
    assert_eq!(rb, 1, "exactly the returning tenant rebuilds");
    assert_eq!(reference, capped, "eviction changed a tenant report");
}

/// Multiplexed tenants get the exact reports a dedicated solo session
/// produces for the same job sequence — step records, message and byte
/// accounting, per-rank counters, solutions, verdicts.
#[test]
fn multiplexed_reports_match_solo_sessions() {
    let multiplexed = run_service(2, 7, 2);
    let solo = run_solo(2);
    for (t, (m, s)) in multiplexed.iter().zip(solo.iter()).enumerate() {
        assert_eq!(
            m, s,
            "tenant {t} ({:?}) diverged from its solo session",
            TENANTS[t].0
        );
    }
}

/// Mixed window: (method, ranks, fused panel jobs) per tenant. Panel
/// tenants submit each job as one `submit_many` batch of
/// [`PANEL_WIDTH`] right-hand sides; the others submit one at a time.
const MIXED: [(Method, usize, bool); 5] = [
    (Method::DistributedSouthwell, 4, false),
    (Method::BlockJacobi, 9, true),
    (Method::DistributedSouthwell, 9, true),
    (Method::ParallelSouthwell, 4, true),
    (Method::BlockJacobi, 9, false),
];

/// Right-hand sides per panel job.
const PANEL_WIDTH: usize = 3;

/// Job `job` of mixed tenant `t`: its right-hand sides (one for a scalar
/// tenant, [`PANEL_WIDTH`] for a panel tenant).
fn mixed_job(n: usize, t: usize, job: usize) -> Vec<Vec<f64>> {
    let width = if MIXED[t].2 { PANEL_WIDTH } else { 1 };
    (0..width)
        .map(|c| rhs(n, t, 1 + job * PANEL_WIDTH + c))
        .collect()
}

/// Runs the mixed window on a `workers`-worker service.
fn run_mixed_service(workers: usize, jobs: usize) -> Vec<Vec<ReportPrint>> {
    let a = poisson(12);
    let n = a.nrows();
    let mut svc = SolveService::new(ServeConfig {
        workers,
        quantum: 3,
        queue_capacity: 64,
        seed: 5,
        ..ServeConfig::default()
    });
    let ids: Vec<TenantId> = MIXED
        .iter()
        .enumerate()
        .map(|(t, &(method, ranks, _))| {
            svc.add_tenant(
                method,
                a.clone(),
                &rhs(n, t, 0),
                &vec![0.0; n],
                &block_partition(n, ranks),
                &opts(),
            )
        })
        .collect();
    for job in 0..jobs {
        for (t, &id) in ids.iter().enumerate() {
            let bs = mixed_job(n, t, job);
            let k = bs.len();
            if MIXED[t].2 {
                assert_eq!(svc.submit_many(id, bs), Ok(k));
            } else {
                svc.submit(id, bs.into_iter().next().expect("one rhs"))
                    .expect("queue has room");
            }
        }
    }
    svc.run_until_idle();
    ids.iter()
        .map(|&id| svc.take_reports(id).iter().map(print).collect())
        .collect()
}

/// The mixed window's job sequences on dedicated solo sessions.
fn run_mixed_solo(jobs: usize) -> Vec<Vec<ReportPrint>> {
    let a = poisson(12);
    let n = a.nrows();
    MIXED
        .iter()
        .enumerate()
        .map(|(t, &(method, ranks, panel))| {
            let mut session = TenantSession::build(
                method,
                a.clone(),
                &rhs(n, t, 0),
                &vec![0.0; n],
                &block_partition(n, ranks),
                &opts(),
            );
            (0..jobs)
                .flat_map(|job| {
                    let bs = mixed_job(n, t, job);
                    if panel {
                        session.solve_panel(&bs)
                    } else {
                        vec![session.solve(&bs[0])]
                    }
                })
                .map(|r| print(&r))
                .collect()
        })
        .collect()
}

/// Scalar and fused-panel tenants of different rank counts share one
/// window; at every worker count each tenant's reports equal its solo
/// session's, column for column.
#[test]
fn mixed_scalar_and_panel_tenants_match_solo_at_every_pool_size() {
    let solo = run_mixed_solo(2);
    for workers in [1usize, 2, 3] {
        let served = run_mixed_service(workers, 2);
        for (t, (m, s)) in served.iter().zip(&solo).enumerate() {
            assert_eq!(
                m, s,
                "{workers} workers: tenant {t} {:?} diverged from its solo session",
                MIXED[t]
            );
        }
    }
}

/// The scheduler round is the unit of parallel work: `tenants` identical
/// tenants with one job each take `⌈steps / quantum⌉` rounds, whatever
/// their number, and the window makes exactly one pool dispatch per
/// round.
fn assert_one_dispatch_per_round(tenants: usize) {
    const QUANTUM: usize = 3;
    let a = poisson(12);
    let n = a.nrows();
    let part = block_partition(n, 4);
    let (b0, b1) = (rhs(n, 0, 0), rhs(n, 0, 1));
    let mut solo = TenantSession::build(
        Method::DistributedSouthwell,
        a.clone(),
        &b0,
        &vec![0.0; n],
        &part,
        &opts(),
    );
    let steps = solo.solve(&b1).records.len() - 1;
    assert!(steps > QUANTUM, "the solve spans several rounds");

    let mut svc = SolveService::new(ServeConfig {
        workers: 2,
        quantum: QUANTUM,
        queue_capacity: 64,
        seed: 3,
        ..ServeConfig::default()
    });
    for _ in 0..tenants {
        let id = svc.add_tenant(
            Method::DistributedSouthwell,
            a.clone(),
            &b0,
            &vec![0.0; n],
            &part,
            &opts(),
        );
        svc.submit(id, b1.clone()).expect("queue has room");
    }
    let pool = svc.pool_stats();
    let stats = svc.run_until_idle();
    assert_eq!(stats.solves as usize, tenants);
    assert_eq!(
        stats.rounds as usize,
        steps.div_ceil(QUANTUM),
        "{tenants} tenants"
    );
    assert_eq!(pool.dispatches(), stats.rounds, "{tenants} tenants");
}

#[test]
fn one_pool_dispatch_per_round_for_one_tenant() {
    assert_one_dispatch_per_round(1);
}

#[test]
fn one_pool_dispatch_per_round_for_sixteen_tenants() {
    assert_one_dispatch_per_round(16);
}

/// Runs one `method` tenant registered at `b0` through `windows`, each
/// a drain window whose jobs (one right-hand side each) are submitted up
/// front, and returns every report's fingerprint plus the last window's
/// scheduler rounds and pool dispatches.
fn run_queue(
    method: Method,
    workers: usize,
    quantum: usize,
    b0: &[f64],
    windows: &[&[Vec<f64>]],
) -> (Vec<ReportPrint>, u64, u64) {
    let a = poisson(12);
    let n = a.nrows();
    let mut svc = SolveService::new(ServeConfig {
        workers,
        quantum,
        queue_capacity: 64,
        seed: 11,
        ..ServeConfig::default()
    });
    let id = svc.add_tenant(
        method,
        a,
        b0,
        &vec![0.0; n],
        &block_partition(n, 4),
        &opts(),
    );
    let (mut rounds, mut dispatches) = (0, 0);
    for jobs in windows {
        for b in *jobs {
            svc.submit(id, b.clone()).expect("queue has room");
        }
        let pool = svc.pool_stats();
        rounds = svc.run_until_idle().rounds;
        dispatches = pool.dispatches();
    }
    let prints = svc.take_reports(id).iter().map(print).collect();
    (prints, rounds, dispatches)
}

/// The same jobs on a solo session registered at `b0`.
fn run_queue_solo(method: Method, b0: &[f64], jobs: &[Vec<f64>]) -> Vec<DistReport> {
    let a = poisson(12);
    let n = a.nrows();
    let part = block_partition(n, 4);
    let mut session = TenantSession::build(method, a, b0, &vec![0.0; n], &part, &opts());
    jobs.iter().map(|b| session.solve(b)).collect()
}

/// A turn spends its whole quantum on the tenant's queue: four warm
/// re-solves of an already converged right-hand side take one superstep
/// each, so at quantum 4 they all finish in one round and one pool
/// dispatch, with the reports of a solo session.
#[test]
fn a_turn_continues_into_the_next_job() {
    let n = poisson(12).nrows();
    let b = rhs(n, 1, 0);
    // The first job converges cold; the four after it re-solve it warm.
    let jobs = vec![b.clone(); 5];
    let solo = run_queue_solo(Method::BlockJacobi, &b, &jobs);
    assert!(solo.iter().all(|r| r.converged_at.is_some()));
    assert!(
        solo[1..].iter().all(|r| r.records.len() == 2),
        "one step each"
    );

    // The cold job runs in a window of its own, the four warm jobs in the
    // window under test.
    let (served, rounds, dispatches) =
        run_queue(Method::BlockJacobi, 2, 4, &b, &[&jobs[..1], &jobs[1..]]);
    assert_eq!(rounds, 1, "four one-step jobs fill one quantum");
    assert_eq!(dispatches, 1);
    let want: Vec<ReportPrint> = solo.iter().map(print).collect();
    assert_eq!(
        served, want,
        "the served queue diverged from its solo session"
    );
}

/// A Distributed Southwell job that reaches its verdict mid-quantum hands
/// the rest of the turn to the tenant's next job: the window takes the
/// rounds of the two jobs' supersteps laid end to end, and at every pool
/// size the reports equal a solo session's.
#[test]
fn a_job_ending_mid_quantum_hands_its_turn_to_the_next() {
    // The jobs take 304 and 57 supersteps: 3 and 1 past a multiple of 7,
    // so laid end to end they share a round.
    const QUANTUM: usize = 7;
    let n = poisson(12).nrows();
    let b0 = rhs(n, 0, 0);
    let jobs = vec![rhs(n, 0, 1), rhs(n, 0, 2)];
    let solo = run_queue_solo(Method::DistributedSouthwell, &b0, &jobs);
    let steps: Vec<usize> = solo.iter().map(|r| r.records.len() - 1).collect();
    assert_ne!(steps[0] % QUANTUM, 0, "the first job ends mid-quantum");
    let end_to_end = (steps[0] + steps[1]).div_ceil(QUANTUM);
    assert!(
        end_to_end < steps[0].div_ceil(QUANTUM) + steps[1].div_ceil(QUANTUM),
        "continuing saves a round"
    );
    let want: Vec<ReportPrint> = solo.iter().map(print).collect();
    for workers in [1usize, 2, 3] {
        let (served, rounds, dispatches) = run_queue(
            Method::DistributedSouthwell,
            workers,
            QUANTUM,
            &b0,
            &[&jobs],
        );
        assert_eq!(served, want, "{workers} workers: diverged from solo");
        assert_eq!(rounds as usize, end_to_end, "{workers} workers");
        assert_eq!(dispatches, rounds, "{workers} workers");
    }
}
