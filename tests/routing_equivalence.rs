//! Property test for the target-major parallel epoch close: the inboxes a
//! rank observes — every envelope, in order, with source, class, and
//! payload — are **byte-identical** between the reference serial
//! origin-major close (dynamic flat routing, sequential execution) and
//! every other routing/scheduling combination: the reverse-neighbor
//! bucketed path, serial or chunked across the worker pool, under any
//! pool size and grain, with drops, duplicates, delays, and stalls
//! injected. The test program exercises multiple puts per edge, multiple
//! message classes, and both phases of a two-phase step on a 64-rank grid.

use distributed_southwell::rma::{
    ChaosConfig, CloseMode, CommClass, CostModel, Envelope, ExecMode, Executor, PhaseCtx,
    RankAlgorithm, RedundantHost, StepStats,
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
    /// Advertise `put_targets` (switches the executor to bucketed routing).
    declare: bool,
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

    fn put_targets(&self) -> Option<Vec<usize>> {
        self.declare.then(|| self.neighbors())
    }

    fn phase(&mut self, phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
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

fn run(
    mode: ExecMode,
    close: CloseMode,
    declare: bool,
    grain: Option<usize>,
    chaos: ChaosConfig,
) -> Observed {
    let (w, h) = (8, 8);
    let ranks: Vec<Gossip> = (0..w * h)
        .map(|id| Gossip {
            id,
            w,
            h,
            declare,
            step: 0,
            log: Vec::new(),
        })
        .collect();
    let mut ex = Executor::with_chaos(ranks, CostModel::default(), mode, chaos);
    assert_eq!(ex.has_routing_index(), declare);
    ex.set_close_mode(close);
    ex.set_parallel_close_threshold(0);
    if let Some(g) = grain {
        ex.set_grain(g);
    }
    for _ in 0..8 {
        ex.step();
    }
    let f = ex.stats.total_faults();
    Observed {
        logs: ex.ranks().iter().map(|r| r.log.clone()).collect(),
        steps: ex.stats.steps.clone(),
        msgs_per_rank: ex.stats.msgs_per_rank.clone(),
        faults: (
            f.dropped.total(),
            f.duplicated.total(),
            f.delayed.total(),
            f.stalled_ranks,
        ),
    }
}

proptest! {
    // Each case runs six full 64-rank executors; keep the count modest.
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
        // The reference: dynamic flat routing, closed serially in origin
        // order on the sequential executor.
        let reference = run(ExecMode::Sequential, CloseMode::Serial, false, None, chaos);
        for (mode, close, declare, grain) in [
            // Bucketed routing must match flat routing even fully serial.
            (ExecMode::Sequential, CloseMode::Serial, true, None),
            // The pool-parallel close, across pool sizes and grains.
            (ExecMode::Threaded(3), CloseMode::Parallel, true, None),
            (ExecMode::Threaded(5), CloseMode::Parallel, true, Some(1)),
            (ExecMode::Threaded(2), CloseMode::Auto, true, Some(7)),
            // Flat routing on the pool (close stays serial by construction).
            (ExecMode::Threaded(4), CloseMode::Parallel, false, None),
        ] {
            let other = run(mode, close, declare, grain, chaos);
            prop_assert_eq!(
                &reference,
                &other,
                "{:?} × {:?} (declare {}, grain {:?}) diverged from the serial flat reference",
                mode,
                close,
                declare,
                grain
            );
        }
    }
}

/// Builds the coded 8 × 8 gossip fleet: block `b`'s `Gossip` instances are
/// dealt to cyclic-shift replica sets of factor `r` (shift stride 3), the
/// same shape `dsw-partition`'s `ReplicaMap` produces.
fn coded_ranks(r: usize, declare: bool) -> Vec<RedundantHost<Gossip>> {
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
                            declare,
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

/// Runs the coded fleet and snapshots every observable: all hosted inner
/// logs (per physical rank, ascending block order), steps, counters.
fn run_coded(
    mode: ExecMode,
    close: CloseMode,
    declare: bool,
    grain: Option<usize>,
    chaos: ChaosConfig,
    r: usize,
) -> Observed {
    let mut ex = Executor::with_chaos(coded_ranks(r, declare), CostModel::default(), mode, chaos);
    assert_eq!(ex.has_routing_index(), declare);
    ex.set_close_mode(close);
    ex.set_parallel_close_threshold(0);
    if let Some(g) = grain {
        ex.set_grain(g);
    }
    for _ in 0..8 {
        ex.step();
    }
    let f = ex.stats.total_faults();
    Observed {
        logs: ex
            .ranks()
            .iter()
            .map(|h| {
                h.solvers()
                    .flat_map(|(_, s)| s.log.iter().cloned())
                    .collect()
            })
            .collect(),
        steps: ex.stats.steps.clone(),
        msgs_per_rank: ex.stats.msgs_per_rank.clone(),
        faults: (
            f.dropped.total(),
            f.duplicated.total(),
            f.delayed.total(),
            f.stalled_ranks,
        ),
    }
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
        for declare in [false, true] {
            let plain = run(ExecMode::Sequential, CloseMode::Serial, declare, None, chaos);
            let coded = run_coded(ExecMode::Sequential, CloseMode::Serial, declare, None, chaos, 1);
            prop_assert_eq!(
                &plain,
                &coded,
                "r = 1 wrapper not transparent (declare {}, seed {})",
                declare,
                seed
            );
        }
    }

    /// The coded fan-out path (r = 2) is schedule-independent: every
    /// routing/close/pool combination observes byte-identical inner logs
    /// and counters to the serial flat reference, under full chaos
    /// (duplicates included — reconciliation must be deterministic too).
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
        let reference = run_coded(ExecMode::Sequential, CloseMode::Serial, false, None, chaos, 2);
        for (mode, close, declare, grain) in [
            (ExecMode::Sequential, CloseMode::Serial, true, None),
            (ExecMode::Threaded(3), CloseMode::Parallel, true, None),
            (ExecMode::Threaded(2), CloseMode::Auto, true, Some(7)),
            (ExecMode::Threaded(4), CloseMode::Parallel, false, None),
        ] {
            let other = run_coded(mode, close, declare, grain, chaos, 2);
            prop_assert_eq!(
                &reference,
                &other,
                "coded r = 2: {:?} × {:?} (declare {}, grain {:?}) diverged",
                mode,
                close,
                declare,
                grain
            );
        }
    }
}

/// The stall path deserves a deterministic (non-random) anchor: a targeted
/// stall makes inboxes accumulate across phases, which is exactly where
/// the bucketed close's append-to-stalled-target handling must agree with
/// the flat path.
#[test]
fn targeted_stall_accumulation_identical_across_paths() {
    let mk = |mode, close, declare| {
        let (w, h) = (8, 8);
        let ranks: Vec<Gossip> = (0..w * h)
            .map(|id| Gossip {
                id,
                w,
                h,
                declare,
                step: 0,
                log: Vec::new(),
            })
            .collect();
        let mut ex = Executor::new(ranks, CostModel::default(), mode);
        ex.set_close_mode(close);
        ex.set_parallel_close_threshold(0);
        ex.injector_mut().inject_stall(27, 3);
        ex.injector_mut().inject_stall(0, 2);
        for _ in 0..6 {
            ex.step();
        }
        (
            ex.ranks().iter().map(|r| r.log.clone()).collect::<Vec<_>>(),
            ex.stats.steps.clone(),
        )
    };
    let reference = mk(ExecMode::Sequential, CloseMode::Serial, false);
    for (mode, close, declare) in [
        (ExecMode::Sequential, CloseMode::Serial, true),
        (ExecMode::Threaded(4), CloseMode::Parallel, true),
    ] {
        assert_eq!(
            reference,
            mk(mode, close, declare),
            "{mode:?} × {close:?} (declare {declare}) diverged under targeted stalls"
        );
    }
}
