//! Property test for the epoch close: the inboxes a rank observes — every
//! envelope, in order, with source, class, and payload — are
//! **byte-identical** between an independent sequential model of the
//! epoch rule ([`reference`]) and every routing/scheduling combination of
//! the executor: serial or chunked across the worker pool, under any pool
//! size, with drops, duplicates, delays, and stalls injected. The test
//! program exercises multiple puts per edge, multiple message classes,
//! and both phases of a two-phase step on a 64-rank and a 256-rank grid.
//! The asynchronous schedule's epochs are checked the same way against
//! [`scheduled_reference`], a model with per-rank phase clocks.

use distributed_southwell::rma::{
    AsyncOptions, ChaosConfig, CloseMode, CommClass, CostModel, Envelope, ExecMode, Executor,
    FaultInjector, Inbox, PhaseCtx, RankAlgorithm, RedundantHost, RunStats, StepStats,
};
use proptest::prelude::*;

/// A gossiping rank on a `w × h` grid: phase 0 sends a solve update to
/// every 4-neighbor (plus, on a third of the steps, an extra residual
/// message — two puts on the same edge in one epoch); phase 1 sends a
/// recovery message to the first neighbor on alternating steps. Every
/// inbox it ever observes is logged verbatim.
/// One logged inbox: `(phase, [(src, class, payload)])`.
type InboxLog = (usize, Vec<(usize, u8, u64)>);

struct Gossip {
    id: usize,
    w: usize,
    h: usize,
    step: u64,
    log: Vec<InboxLog>,
}

impl Gossip {
    fn neighbors(&self) -> Vec<usize> {
        let (x, y) = (self.id % self.w, self.id / self.w);
        let mut out = Vec::new();
        if x > 0 {
            out.push(self.id - 1);
        }
        if x + 1 < self.w {
            out.push(self.id + 1);
        }
        if y > 0 {
            out.push(self.id - self.w);
        }
        if y + 1 < self.h {
            out.push(self.id + self.w);
        }
        out
    }
}

impl RankAlgorithm for Gossip {
    type Msg = u64;

    fn phases(&self) -> usize {
        2
    }

    fn put_targets(&self) -> Vec<usize> {
        self.neighbors()
    }

    fn phase(&mut self, phase: usize, inbox: Inbox<'_, u64>, ctx: &mut PhaseCtx<u64>) {
        self.log.push((
            phase,
            inbox
                .iter()
                .map(|e| (e.src, e.class as u8, e.payload))
                .collect(),
        ));
        match phase {
            0 => {
                for t in self.neighbors() {
                    let tag = (self.id as u64) << 32 | self.step << 8;
                    ctx.put(t, CommClass::Solve, tag, 16);
                    if (self.id as u64 + self.step).is_multiple_of(3) {
                        ctx.put(t, CommClass::Residual, tag | 1, 8);
                    }
                }
                ctx.add_flops(4);
                ctx.record_relaxations(1);
            }
            _ => {
                if (self.id as u64 + self.step).is_multiple_of(2) {
                    let t = self.neighbors()[0];
                    ctx.put(t, CommClass::Recovery, self.step, 4);
                }
                self.step += 1;
            }
        }
    }
}

/// Everything observable, bitwise-comparable: the full per-rank inbox
/// logs, the per-step deterministic counters, and the fault tallies.
#[derive(Debug, PartialEq)]
struct Observed {
    logs: Vec<Vec<InboxLog>>,
    steps: Vec<StepStats>,
    msgs_per_rank: Vec<u64>,
    faults: (u64, u64, u64, u64),
}

/// The reference: a plain sequential origin-major model of the epoch rule,
/// written only against the public API. Each step draws its stalls; in
/// every phase each running rank reads its inbox and runs against a
/// capture context; the close then keeps a stalled rank's inbox (it did
/// not read it), routes every origin's puts in rank and put order with
/// fates keyed on `(epoch, origin, target, index, class)`, surfaces
/// expired delays in deferral order, and stable-sorts every inbox by
/// origin. Counters and the modelled time follow [`CostModel`]; a rank is
/// active when it relaxed rows.
fn reference<A: RankAlgorithm>(
    mut ranks: Vec<A>,
    chaos: ChaosConfig,
    stalls: &[(usize, usize)],
    steps: usize,
) -> (Vec<A>, RunStats) {
    let n = ranks.len();
    let model = CostModel::default();
    let mut injector = FaultInjector::new(chaos, n);
    for &(rank, k) in stalls {
        injector.inject_stall(rank, k);
    }
    let mut inboxes: Vec<Vec<Envelope<A::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut delayed: Vec<Vec<(u64, Envelope<A::Msg>)>> = (0..n).map(|_| Vec::new()).collect();
    let mut stats = RunStats::new(n);
    let mut epoch = 0u64;
    for _ in 0..steps {
        let stalled = injector.step_stalls();
        let mut step = StepStats::default();
        step.faults.stalled_ranks = stalled.iter().filter(|&&s| s).count() as u64;
        for phase in 0..ranks[0].phases() {
            let (mut msgs, mut bytes, mut max_flops) = (0u64, 0u64, 0u64);
            let mut outboxes = Vec::with_capacity(n);
            for (i, rank) in ranks.iter_mut().enumerate() {
                if stalled[i] {
                    outboxes.push(Vec::new());
                    continue;
                }
                let mut ctx = PhaseCtx::capture(i);
                rank.phase(phase, Inbox::from(&inboxes[i][..]), &mut ctx);
                let (outbox, totals) = ctx.into_captured();
                msgs += totals.msgs;
                bytes += totals.bytes;
                max_flops = max_flops.max(totals.flops);
                step.flops += totals.flops;
                step.relaxations += totals.relaxations;
                step.active_ranks += u64::from(totals.relaxations > 0);
                stats.msgs_per_rank[i] += totals.msgs;
                for (_, env) in &outbox {
                    let (m, b) = match env.class {
                        CommClass::Solve => (&mut step.msgs_solve, &mut step.bytes_solve),
                        CommClass::Residual => (&mut step.msgs_residual, &mut step.bytes_residual),
                        CommClass::Recovery => (&mut step.msgs_recovery, &mut step.bytes_recovery),
                        CommClass::Redundancy => {
                            (&mut step.msgs_redundancy, &mut step.bytes_redundancy)
                        }
                        CommClass::Transfer => (&mut step.msgs_transfer, &mut step.bytes_transfer),
                    };
                    *m += 1;
                    *b += env.bytes;
                }
                outboxes.push(outbox);
            }
            for (inbox, &is_stalled) in inboxes.iter_mut().zip(&stalled) {
                if !is_stalled {
                    inbox.clear();
                }
            }
            for (origin, outbox) in outboxes.into_iter().enumerate() {
                let mut index = vec![0u32; n];
                for (t, env) in outbox {
                    let fate =
                        injector.fate_at(epoch, origin as u32, t as u32, index[t], env.class);
                    index[t] += 1;
                    if fate.dropped {
                        step.faults.dropped.add(env.class, 1);
                        continue;
                    }
                    if fate.duplicated {
                        step.faults.duplicated.add(env.class, 1);
                        inboxes[t].push(env.clone());
                    }
                    if fate.delay > 0 {
                        step.faults.delayed.add(env.class, 1);
                        delayed[t].push((epoch + fate.delay as u64, env));
                    } else {
                        inboxes[t].push(env);
                    }
                }
            }
            for (inbox, queue) in inboxes.iter_mut().zip(&mut delayed) {
                inbox.extend(queue.extract_if(.., |d| d.0 <= epoch).map(|d| d.1));
                inbox.sort_by_key(|env| env.src);
            }
            let p = n as f64;
            step.msgs += msgs;
            step.bytes += bytes;
            step.time += model.sync
                + model.gamma * max_flops as f64
                + model.alpha * msgs as f64 / p
                + model.beta * bytes as f64 / p;
            epoch += 1;
        }
        stats.steps.push(step);
    }
    (ranks, stats)
}

/// Snapshots every observable of a finished run.
fn observe(logs: Vec<Vec<InboxLog>>, stats: &RunStats) -> Observed {
    let f = stats.total_faults();
    Observed {
        logs,
        steps: stats.steps.clone(),
        msgs_per_rank: stats.msgs_per_rank.clone(),
        faults: (
            f.dropped.total(),
            f.duplicated.total(),
            f.delayed.total(),
            f.stalled_ranks,
        ),
    }
}

/// The `side × side` gossip grid.
fn gossip(side: usize) -> Vec<Gossip> {
    let (w, h) = (side, side);
    (0..w * h)
        .map(|id| Gossip {
            id,
            w,
            h,
            step: 0,
            log: Vec::new(),
        })
        .collect()
}

fn logs(ranks: &[Gossip]) -> Vec<Vec<InboxLog>> {
    ranks.iter().map(|r| r.log.clone()).collect()
}

/// The reference model's observables on the plain `side × side` grid.
fn run_reference(side: usize, chaos: ChaosConfig) -> Observed {
    let (ranks, stats) = reference(gossip(side), chaos, &[], 8);
    observe(logs(&ranks), &stats)
}

fn run(side: usize, mode: ExecMode, close: CloseMode, chaos: ChaosConfig) -> Observed {
    let mut ex = Executor::with_chaos(gossip(side), CostModel::default(), mode, chaos);
    ex.set_close_mode(close);
    for _ in 0..8 {
        ex.step();
    }
    observe(logs(ex.ranks()), &ex.stats)
}

proptest! {
    // Each case runs five 64-rank and two 256-rank executors, counting the
    // reference model; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_close_inboxes_identical_to_serial_reference(
        drop_rate in 0.0f64..0.25,
        duplicate_rate in 0.0f64..0.25,
        delay_rate in 0.0f64..0.25,
        max_delay_epochs in 1u64..4,
        stall_rate in 0.0f64..0.15,
        seed in 0u64..10_000,
    ) {
        let chaos = ChaosConfig {
            drop_rate,
            duplicate_rate,
            delay_rate,
            max_delay_epochs: max_delay_epochs as usize,
            stall_rate,
            stall_steps: 2,
            seed,
            ..ChaosConfig::none()
        };
        let reference = run_reference(8, chaos);
        for (mode, close) in [
            (ExecMode::Sequential, CloseMode::Serial),
            // The pool-parallel close, across pool sizes.
            (ExecMode::Threaded(3), CloseMode::Parallel),
            (ExecMode::Threaded(5), CloseMode::Parallel),
            (ExecMode::Threaded(2), CloseMode::Auto),
        ] {
            let other = run(8, mode, close, chaos);
            prop_assert_eq!(
                &reference,
                &other,
                "{:?} × {:?} diverged from the reference model",
                mode,
                close
            );
        }
        // Auto's own volume rule, on both branches: on the 16 × 16 grid,
        // phase 0 puts 960 solve messages (one per directed grid edge)
        // plus the residual extras, at least 256, so Auto closes on the
        // pool; phase 1 puts at most 128 recovery messages, so Auto
        // closes serially.
        prop_assert_eq!(
            &run_reference(16, chaos),
            &run(16, ExecMode::Threaded(2), CloseMode::Auto, chaos),
            "16 × 16 grid: Threaded(2) × Auto diverged from the reference model"
        );
    }
}

/// Builds the coded 8 × 8 gossip fleet: block `b`'s `Gossip` instances are
/// dealt to cyclic-shift replica sets of factor `r` (shift stride 3), the
/// same shape `dsw-partition`'s `ReplicaMap` produces.
fn coded_ranks(r: usize) -> Vec<RedundantHost<Gossip>> {
    let n = 64usize;
    let replicas: Vec<Vec<u32>> = (0..n as u32)
        .map(|b| (0..r as u32).map(|j| (b + j * 3) % n as u32).collect())
        .collect();
    (0..n)
        .map(|p| {
            let mine: Vec<(usize, Gossip)> = (0..n)
                .filter(|&b| replicas[b].contains(&(p as u32)))
                .map(|b| {
                    (
                        b,
                        Gossip {
                            id: b,
                            w: 8,
                            h: 8,
                            step: 0,
                            log: Vec::new(),
                        },
                    )
                })
                .collect();
            RedundantHost::new(p, replicas.clone(), mine)
        })
        .collect()
}

/// All hosted inner logs, per physical rank in ascending block order.
fn hosted_logs(hosts: &[RedundantHost<Gossip>]) -> Vec<Vec<InboxLog>> {
    hosts
        .iter()
        .map(|h| {
            h.solvers()
                .flat_map(|(_, s)| s.log.iter().cloned())
                .collect()
        })
        .collect()
}

/// The reference model's observables on the coded fleet.
fn run_coded_reference(chaos: ChaosConfig, r: usize) -> Observed {
    let (hosts, stats) = reference(coded_ranks(r), chaos, &[], 8);
    observe(hosted_logs(&hosts), &stats)
}

/// Runs the coded fleet and snapshots every observable.
fn run_coded(mode: ExecMode, close: CloseMode, chaos: ChaosConfig, r: usize) -> Observed {
    let mut ex = Executor::with_chaos(coded_ranks(r), CostModel::default(), mode, chaos);
    ex.set_close_mode(close);
    for _ in 0..8 {
        ex.step();
    }
    observe(hosted_logs(ex.ranks()), &ex.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The `r = 1` redundancy wrapper is *transparent*: identity replica
    /// sets produce byte-identical inner inboxes, per-class counters, and
    /// fault tallies to the unwrapped run — under drops, delays, and
    /// stalls. (Chaos *duplicates* are deliberately excluded: the wrapper's
    /// slot reconciliation absorbs the duplicate copy before the solver
    /// sees it, which is exactly why the driver routes `r = 1` through the
    /// uncoded path.)
    #[test]
    fn coded_r1_wrapper_is_transparent(
        drop_rate in 0.0f64..0.25,
        delay_rate in 0.0f64..0.25,
        max_delay_epochs in 1u64..4,
        stall_rate in 0.0f64..0.15,
        seed in 0u64..10_000,
    ) {
        let chaos = ChaosConfig {
            drop_rate,
            delay_rate,
            max_delay_epochs: max_delay_epochs as usize,
            stall_rate,
            stall_steps: 2,
            seed,
            ..ChaosConfig::none()
        };
        let reference = run_reference(8, chaos);
        let plain = run(8, ExecMode::Sequential, CloseMode::Serial, chaos);
        let coded = run_coded(ExecMode::Sequential, CloseMode::Serial, chaos, 1);
        prop_assert_eq!(&reference, &plain, "plain run diverged (seed {})", seed);
        prop_assert_eq!(&reference, &coded, "r = 1 wrapper not transparent (seed {})", seed);
    }

    /// The coded fan-out path (r = 2) is schedule-independent: every
    /// routing/close/pool combination observes byte-identical inner logs
    /// and counters to the reference model, under full chaos (duplicates
    /// included — reconciliation must be deterministic too).
    #[test]
    fn coded_fanout_identical_across_paths(
        drop_rate in 0.0f64..0.25,
        duplicate_rate in 0.0f64..0.25,
        delay_rate in 0.0f64..0.25,
        stall_rate in 0.0f64..0.15,
        seed in 0u64..10_000,
    ) {
        let chaos = ChaosConfig {
            drop_rate,
            duplicate_rate,
            delay_rate,
            max_delay_epochs: 2,
            stall_rate,
            stall_steps: 2,
            seed,
            ..ChaosConfig::none()
        };
        let reference = run_coded_reference(chaos, 2);
        for (mode, close) in [
            (ExecMode::Sequential, CloseMode::Serial),
            (ExecMode::Threaded(3), CloseMode::Parallel),
            (ExecMode::Threaded(2), CloseMode::Auto),
        ] {
            let other = run_coded(mode, close, chaos, 2);
            prop_assert_eq!(
                &reference,
                &other,
                "coded r = 2: {:?} × {:?} diverged",
                mode,
                close
            );
        }
    }
}

/// The stall path deserves a deterministic (non-random) anchor: a targeted
/// stall makes inboxes accumulate across phases, which is exactly where
/// the close's append-to-stalled-target handling must agree with the
/// reference model.
#[test]
fn targeted_stall_accumulation_identical_across_paths() {
    let stalls = [(27, 3), (0, 2)];
    let mk = |mode, close| {
        let mut ex = Executor::new(gossip(8), CostModel::default(), mode);
        ex.set_close_mode(close);
        for (rank, k) in stalls {
            ex.injector_mut().inject_stall(rank, k);
        }
        for _ in 0..6 {
            ex.step();
        }
        (logs(ex.ranks()), ex.stats.steps.clone())
    };
    let (ranks, stats) = reference(gossip(8), ChaosConfig::none(), &stalls, 6);
    let reference = (logs(&ranks), stats.steps);
    for (mode, close) in [
        (ExecMode::Sequential, CloseMode::Serial),
        (ExecMode::Threaded(4), CloseMode::Parallel),
    ] {
        assert_eq!(
            reference,
            mk(mode, close),
            "{mode:?} × {close:?} diverged under targeted stalls"
        );
    }
}

/// The scheduled variant of [`reference`]: one scheduler tick per epoch.
/// Every `phases()` epochs it draws the stalls; each epoch a rank runs
/// iff it is not stalled, is less than `max_lag` phases ahead of the
/// slowest clock, and wins its seeded coin (flipped in rank order, only
/// by ranks that got that far) against its straggler-skewed speed. Each
/// running rank reads its inbox at its own phase `clock % phases()`; the
/// close is [`reference`]'s, except that a rank that did not run keeps
/// its inbox. The xorshift64* coin stream and the splitmix64 speed draw
/// are written out here, independently of the substrate.
fn scheduled_reference<A: RankAlgorithm>(
    mut ranks: Vec<A>,
    chaos: ChaosConfig,
    opts: AsyncOptions,
    epochs: u64,
) -> (Vec<A>, RunStats) {
    let n = ranks.len();
    let nphases = ranks[0].phases();
    let model = CostModel::default();
    let mut injector = FaultInjector::new(chaos, n);
    let splitmix = |mut z: u64| {
        z = z.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
    let speed: Vec<f64> = (0..n as u64)
        .map(|i| {
            let u = if opts.straggler_skew > 0.0 {
                unit(splitmix(opts.seed ^ i.wrapping_mul(0xd1342543de82ef95)))
            } else {
                0.0
            };
            opts.advance_probability * (1.0 - opts.straggler_skew * u)
        })
        .collect();
    let mut coin = opts.seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut flip = || {
        coin ^= coin >> 12;
        coin ^= coin << 25;
        coin ^= coin >> 27;
        unit(coin.wrapping_mul(0x2545F4914F6CDD1D))
    };
    let mut clock = vec![0usize; n];
    let mut stalled = vec![false; n];
    let mut inboxes: Vec<Vec<Envelope<A::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut delayed: Vec<Vec<(u64, Envelope<A::Msg>)>> = (0..n).map(|_| Vec::new()).collect();
    let mut stats = RunStats::new(n);
    for epoch in 0..epochs {
        let mut step = StepStats::default();
        if epoch.is_multiple_of(nphases as u64) {
            stalled = injector.step_stalls();
            step.faults.stalled_ranks = stalled.iter().filter(|&&s| s).count() as u64;
        }
        let gate = *clock.iter().min().unwrap();
        let runs: Vec<bool> = (0..n)
            .map(|i| !stalled[i] && clock[i] < gate + opts.max_lag && flip() < speed[i])
            .collect();
        let (mut msgs, mut bytes, mut max_flops) = (0u64, 0u64, 0u64);
        let mut outboxes = Vec::with_capacity(n);
        for (i, rank) in ranks.iter_mut().enumerate() {
            if !runs[i] {
                outboxes.push(Vec::new());
                continue;
            }
            let mut ctx = PhaseCtx::capture(i);
            rank.phase(clock[i] % nphases, Inbox::from(&inboxes[i][..]), &mut ctx);
            clock[i] += 1;
            let (outbox, totals) = ctx.into_captured();
            msgs += totals.msgs;
            bytes += totals.bytes;
            max_flops = max_flops.max(totals.flops);
            step.flops += totals.flops;
            step.relaxations += totals.relaxations;
            step.active_ranks += u64::from(totals.relaxations > 0);
            stats.msgs_per_rank[i] += totals.msgs;
            for (_, env) in &outbox {
                let (m, b) = match env.class {
                    CommClass::Solve => (&mut step.msgs_solve, &mut step.bytes_solve),
                    CommClass::Residual => (&mut step.msgs_residual, &mut step.bytes_residual),
                    CommClass::Recovery => (&mut step.msgs_recovery, &mut step.bytes_recovery),
                    CommClass::Redundancy => {
                        (&mut step.msgs_redundancy, &mut step.bytes_redundancy)
                    }
                    CommClass::Transfer => (&mut step.msgs_transfer, &mut step.bytes_transfer),
                };
                *m += 1;
                *b += env.bytes;
            }
            outboxes.push(outbox);
        }
        for (inbox, &ran) in inboxes.iter_mut().zip(&runs) {
            if ran {
                inbox.clear();
            }
        }
        for (origin, outbox) in outboxes.into_iter().enumerate() {
            let mut index = vec![0u32; n];
            for (t, env) in outbox {
                let fate = injector.fate_at(epoch, origin as u32, t as u32, index[t], env.class);
                index[t] += 1;
                if fate.dropped {
                    step.faults.dropped.add(env.class, 1);
                    continue;
                }
                if fate.duplicated {
                    step.faults.duplicated.add(env.class, 1);
                    inboxes[t].push(env.clone());
                }
                if fate.delay > 0 {
                    step.faults.delayed.add(env.class, 1);
                    delayed[t].push((epoch + fate.delay as u64, env));
                } else {
                    inboxes[t].push(env);
                }
            }
        }
        for (inbox, queue) in inboxes.iter_mut().zip(&mut delayed) {
            inbox.extend(queue.extract_if(.., |d| d.0 <= epoch).map(|d| d.1));
            inbox.sort_by_key(|env| env.src);
        }
        let p = n as f64;
        step.msgs = msgs;
        step.bytes = bytes;
        step.time = model.sync
            + model.gamma * max_flops as f64
            + model.alpha * msgs as f64 / p
            + model.beta * bytes as f64 / p;
        stats.steps.push(step);
    }
    (ranks, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scheduled epochs — a seeded subset of ranks per epoch, each at its
    /// own phase clock, under the lag gate and straggler skew — observe
    /// byte-identical inboxes, counters, modelled time and fault tallies
    /// to [`scheduled_reference`] on the 64-rank grid, under drops,
    /// duplicates, delays and stalls, sequentially and on the pooled close.
    #[test]
    fn scheduled_epochs_identical_to_scheduled_reference(
        drop_rate in 0.0f64..0.25,
        duplicate_rate in 0.0f64..0.25,
        delay_rate in 0.0f64..0.25,
        max_delay_epochs in 1u64..4,
        stall_rate in 0.0f64..0.15,
        seed in 0u64..10_000,
        advance_probability in 0.3f64..1.0,
        max_lag in 1u64..5,
        straggler_skew in 0.0f64..0.9,
        schedule_seed in 0u64..10_000,
    ) {
        let chaos = ChaosConfig {
            drop_rate,
            duplicate_rate,
            delay_rate,
            max_delay_epochs: max_delay_epochs as usize,
            stall_rate,
            stall_steps: 2,
            seed,
            ..ChaosConfig::none()
        };
        let opts = AsyncOptions {
            advance_probability,
            max_lag: max_lag as usize,
            seed: schedule_seed,
            straggler_skew,
        };
        let epochs = 24;
        let (ranks, stats) = scheduled_reference(gossip(8), chaos, opts, epochs);
        let reference = observe(logs(&ranks), &stats);
        for (mode, close) in [
            (ExecMode::Sequential, CloseMode::Serial),
            (ExecMode::Threaded(3), CloseMode::Parallel),
        ] {
            let mut ex = Executor::scheduled(gossip(8), CostModel::default(), mode, chaos, opts)
                .expect("valid options");
            ex.set_close_mode(close);
            for _ in 0..epochs {
                ex.step();
            }
            let other = observe(logs(ex.ranks()), &ex.stats);
            prop_assert_eq!(
                &reference,
                &other,
                "scheduled {:?} × {:?} diverged from the scheduled reference",
                mode,
                close
            );
        }
    }
}
