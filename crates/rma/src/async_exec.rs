//! Asynchronous execution: ranks progress at different rates.
//!
//! The paper's MPI implementation uses Casper ghost processes for
//! asynchronous one-sided progress. A schedule on the one [`Executor`]
//! models it: each scheduler tick is one epoch in which only a
//! pseudo-random subset of ranks runs, each at its own next phase, so some
//! ranks race ahead while others lag (by at most `max_lag` phases). A rank
//! that sits a tick out keeps its inbox, as a stalled rank does, so puts
//! can arrive "early" and several at once — but never mid-phase. Routing,
//! fault fates and modelled time are the epoch close's own. The Southwell
//! protocols tolerate the staleness by design: their neighbor data are
//! estimates.

use crate::executor::{Executor, RankAlgorithm};
use crate::fault::{mix64, XorShift};

/// Scheduling options for the asynchronous executor.
#[derive(Debug, Clone, Copy)]
pub struct AsyncOptions {
    /// Probability that a ready rank is advanced on a given tick.
    pub advance_probability: f64,
    /// Maximum phase lead any rank may have over the slowest rank
    /// (progress bound; prevents unbounded staleness).
    pub max_lag: usize,
    /// Scheduler seed.
    pub seed: u64,
    /// Heterogeneity of rank speeds in `[0, 1]`: rank `i` advances with
    /// probability `advance_probability · (1 − straggler_skew · u_i)`,
    /// where `u_i ∈ [0, 1)` is a per-rank uniform drawn once from `seed`
    /// (deterministic per seed). `0.0` — the default — keeps every rank at
    /// `advance_probability` (the homogeneous model); values near `1.0`
    /// give some ranks nearly zero speed, the straggler regime of the
    /// asynchronous-solver literature.
    pub straggler_skew: f64,
}

impl Default for AsyncOptions {
    fn default() -> Self {
        AsyncOptions {
            advance_probability: 0.7,
            max_lag: 4,
            seed: 1,
            straggler_skew: 0.0,
        }
    }
}

impl AsyncOptions {
    /// Checks ranges; returns a human-readable error for bad options (NaN
    /// is out of every range).
    pub fn validate(&self) -> Result<(), String> {
        let unit = |name: &str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must be in [0, 1], got {v}"))
            }
        };
        unit("advance_probability", self.advance_probability)?;
        unit("straggler_skew", self.straggler_skew)?;
        if self.max_lag == 0 {
            return Err("max_lag must be at least 1".into());
        }
        Ok(())
    }
}

/// The asynchronous scheduler's policy state on a scheduled [`Executor`]:
/// which ranks run each epoch.
#[derive(Debug)]
pub(crate) struct Schedule {
    /// Per-rank advance probability (the straggler model), drawn once.
    pub(crate) advance_p: Vec<f64>,
    /// The coin-flip stream.
    rng: XorShift,
    max_lag: usize,
    /// Lag groups ([`Executor::set_lag_groups`]); `None` = one per rank.
    lag_groups: Option<Vec<Vec<u32>>>,
}

/// Each lag group's largest value of `vals` (`vals` itself without groups).
fn group_max<T: Copy + PartialOrd>(groups: Option<&Vec<Vec<u32>>>, vals: &[T]) -> Vec<T> {
    let Some(groups) = groups else {
        return vals.to_vec();
    };
    let max = |g: &Vec<u32>| {
        g.iter()
            .map(|&m| vals[m as usize])
            .reduce(|a, b| if b > a { b } else { a })
    };
    groups
        .iter()
        .map(|g| max(g).expect("lag groups are non-empty"))
        .collect()
}

impl Schedule {
    /// The schedule of valid `opts` over `n` ranks.
    pub(crate) fn new(opts: &AsyncOptions, n: usize) -> Self {
        // The speed draw is independent of the coin-flip stream, so turning
        // skew on or off never perturbs the flips themselves.
        let advance_p = (0..n as u64)
            .map(|i| {
                let u = if opts.straggler_skew > 0.0 {
                    let key = opts.seed ^ i.wrapping_mul(0xd1342543de82ef95);
                    (mix64(key.wrapping_add(0x9e3779b97f4a7c15)) >> 11) as f64 / (1u64 << 53) as f64
                } else {
                    0.0
                };
                opts.advance_probability * (1.0 - opts.straggler_skew * u)
            })
            .collect();
        Schedule {
            advance_p,
            rng: XorShift::new(opts.seed),
            max_lag: opts.max_lag,
            lag_groups: None,
        }
    }

    /// Installs lag groups, checked to be non-empty and to cover the ranks.
    pub(crate) fn set_lag_groups(&mut self, groups: Vec<Vec<u32>>) {
        let mut covered = vec![false; self.advance_p.len()];
        for &m in groups.iter().flatten() {
            *covered
                .get_mut(m as usize)
                .unwrap_or_else(|| panic!("lag group member {m} out of range")) = true;
        }
        assert!(
            groups.iter().all(|g| !g.is_empty()) && covered.iter().all(|&c| c),
            "lag groups must be non-empty and cover every rank"
        );
        self.lag_groups = Some(groups);
    }

    /// Per-lag-group best clocks.
    pub(crate) fn logical_clocks(&self, clock: &[usize]) -> Vec<usize> {
        group_max(self.lag_groups.as_ref(), clock)
    }

    /// The slowest lag group's fastest member's advance probability.
    pub(crate) fn pacing_probability(&self) -> f64 {
        let best = group_max(self.lag_groups.as_ref(), &self.advance_p);
        best.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// The ranks this epoch skips: a stalled rank, then a rank `max_lag`
    /// or more phases past the slowest logical clock, then each remaining
    /// rank by its coin, flipped in rank order.
    pub(crate) fn pick(&mut self, clock: &[usize], stalled: &[bool]) -> Vec<bool> {
        let gate = self.logical_clocks(clock).into_iter().min();
        let gate = gate.expect("an executor has ranks");
        (0..clock.len())
            .map(|i| {
                stalled[i]
                    || clock[i] >= gate + self.max_lag
                    || self.rng.next_f64() >= self.advance_p[i]
            })
            .collect()
    }
}

impl<A: RankAlgorithm> Executor<A> {
    /// Steps until every *logical* clock (per-rank, or per lag group) has
    /// completed `steps` full parallel steps: `Ok(steps taken)` — also
    /// when the last permitted step gets there — or `Err(max_ticks)` on a
    /// timeout. On a scheduled executor each step is one tick.
    pub fn run_steps(&mut self, steps: usize, max_ticks: usize) -> Result<usize, usize> {
        let goal = steps * self.ranks()[0].phases();
        let mut ticks = 0;
        while self.logical_clocks().iter().any(|&c| c < goal) {
            if ticks == max_ticks {
                return Err(max_ticks);
            }
            self.step();
            ticks += 1;
        }
        Ok(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExecMode, Inbox, PhaseCtx};
    use crate::fault::ChaosConfig;
    use crate::stats::{CommClass, CostModel};

    /// The realized per-rank advance probabilities.
    fn advance_p<A: RankAlgorithm>(ex: &Executor<A>) -> &[f64] {
        &ex.schedule
            .as_ref()
            .expect("a scheduled executor")
            .advance_p
    }

    /// The ring test program from the superstep executor tests.
    struct Ring {
        id: usize,
        n: usize,
        value: u64,
    }

    impl RankAlgorithm for Ring {
        type Msg = u64;
        fn phases(&self) -> usize {
            1
        }
        fn phase(&mut self, _phase: usize, inbox: Inbox<'_, u64>, ctx: &mut PhaseCtx<u64>) {
            for e in inbox {
                self.value += e.payload;
            }
            ctx.put((self.id + 1) % self.n, CommClass::Solve, self.value, 8);
        }
        fn put_targets(&self) -> Vec<usize> {
            vec![(self.id + 1) % self.n]
        }
    }

    #[test]
    fn async_ring_makes_progress_under_lag_bound() {
        let ranks: Vec<Ring> = (0..5).map(|id| Ring { id, n: 5, value: 1 }).collect();
        let mut ex = Executor::scheduled(
            ranks,
            CostModel::default(),
            ExecMode::Sequential,
            ChaosConfig::none(),
            AsyncOptions::default(),
        )
        .expect("valid async options");
        let ticks = ex
            .run_steps(10, 10_000)
            .expect("should reach 10 steps within budget");
        assert!(ticks < 10_000, "should reach 10 steps quickly");
        // Lag bound held throughout (final state check).
        let min = *ex.clocks().iter().min().unwrap();
        let max = *ex.clocks().iter().max().unwrap();
        assert!(max - min <= AsyncOptions::default().max_lag);
        // Values grew (messages flowed).
        assert!(ex.ranks().iter().all(|r| r.value > 1));
        assert!(ex.stats.total_msgs() > 0);
        // Timing observables populate here too.
        assert!(ex.stats.rank_time_ns.iter().all(|&ns| ns > 0));
        assert!(ex.stats.total_compute_ns() > 0);
        assert!(ex.stats.total_span_ns() >= ex.stats.total_compute_ns() / 2);
    }

    #[test]
    fn async_scheduling_is_deterministic_per_seed() {
        let mk = || {
            let ranks: Vec<Ring> = (0..4).map(|id| Ring { id, n: 4, value: 1 }).collect();
            Executor::scheduled(
                ranks,
                CostModel::default(),
                ExecMode::Sequential,
                ChaosConfig::none(),
                AsyncOptions::default(),
            )
            .expect("valid async options")
        };
        let mut a = mk();
        let mut b = mk();
        a.run_steps(8, 1000).unwrap();
        b.run_steps(8, 1000).unwrap();
        let va: Vec<u64> = a.ranks().iter().map(|r| r.value).collect();
        let vb: Vec<u64> = b.ranks().iter().map(|r| r.value).collect();
        assert_eq!(va, vb);
        assert_eq!(a.clocks(), b.clocks());
    }

    /// Regression for the timeout/success conflation: a goal reached
    /// exactly on the final permitted tick must be `Ok`, and only a budget
    /// that genuinely falls short is `Err`.
    #[test]
    fn run_steps_distinguishes_goal_on_final_tick_from_timeout() {
        let mk = || {
            let ranks: Vec<Ring> = (0..4).map(|id| Ring { id, n: 4, value: 1 }).collect();
            Executor::scheduled(
                ranks,
                CostModel::default(),
                ExecMode::Sequential,
                ChaosConfig::none(),
                AsyncOptions::default(),
            )
            .expect("valid async options")
        };
        // Find the exact tick count this seed needs for 6 full steps.
        let needed = mk().run_steps(6, 10_000).expect("ample budget");
        assert!(needed > 0);
        // A budget of exactly `needed` ticks reaches the goal on its final
        // tick: success, reported as such.
        assert_eq!(mk().run_steps(6, needed), Ok(needed));
        // One tick less genuinely times out.
        assert_eq!(mk().run_steps(6, needed - 1), Err(needed - 1));
        // Zero-work goal needs zero ticks regardless of budget.
        assert_eq!(mk().run_steps(0, 0), Ok(0));
    }

    /// A rank that counts every message it absorbs: conservation proves the
    /// window slots and held inboxes deliver each pending put exactly once.
    struct Counter {
        id: usize,
        n: usize,
        received: u64,
        sent: u64,
    }

    impl RankAlgorithm for Counter {
        type Msg = u64;
        fn phases(&self) -> usize {
            1
        }
        fn phase(&mut self, _phase: usize, inbox: Inbox<'_, u64>, ctx: &mut PhaseCtx<u64>) {
            self.received += inbox.len() as u64;
            ctx.put((self.id + 1) % self.n, CommClass::Solve, 1, 8);
            self.sent += 1;
        }
        fn put_targets(&self) -> Vec<usize> {
            vec![(self.id + 1) % self.n]
        }
    }

    /// Message flow through the absorb buffer: on a reliable link every
    /// put is seen by its target exactly once — total received equals
    /// total sent minus what is still in flight at the end.
    #[test]
    fn absorb_buffer_delivers_each_message_exactly_once() {
        let ranks: Vec<Counter> = (0..5)
            .map(|id| Counter {
                id,
                n: 5,
                received: 0,
                sent: 0,
            })
            .collect();
        let mut ex = Executor::scheduled(
            ranks,
            CostModel::default(),
            ExecMode::Sequential,
            ChaosConfig::none(),
            AsyncOptions::default(),
        )
        .expect("valid async options");
        ex.run_steps(20, 10_000).unwrap();
        let sent: u64 = ex.ranks().iter().map(|r| r.sent).sum();
        let received: u64 = ex.ranks().iter().map(|r| r.received).sum();
        assert_eq!(
            received + ex.in_flight() as u64,
            sent,
            "each message must be absorbed exactly once (sent {sent}, received {received}, \
             in flight {})",
            ex.in_flight()
        );
        assert_eq!(ex.stats.total_msgs(), sent);
    }

    #[test]
    fn straggler_skew_slows_some_ranks_deterministically() {
        let opts = AsyncOptions {
            straggler_skew: 0.9,
            seed: 7,
            ..AsyncOptions::default()
        };
        let mk = || {
            let ranks: Vec<Ring> = (0..8).map(|id| Ring { id, n: 8, value: 1 }).collect();
            Executor::scheduled(
                ranks,
                CostModel::default(),
                ExecMode::Sequential,
                ChaosConfig::none(),
                opts,
            )
            .expect("valid async options")
        };
        let ex = mk();
        let ps = advance_p(&ex);
        let lo = ps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ps.iter().cloned().fold(0.0, f64::max);
        assert!(hi - lo > 0.1, "skew 0.9 should spread rank speeds: {ps:?}");
        assert!(ps.iter().all(|&p| p <= opts.advance_probability + 1e-15));
        // Deterministic per seed: same draws, same run.
        let mut a = mk();
        let mut b = mk();
        a.run_steps(8, 100_000).unwrap();
        b.run_steps(8, 100_000).unwrap();
        let va: Vec<u64> = a.ranks().iter().map(|r| r.value).collect();
        let vb: Vec<u64> = b.ranks().iter().map(|r| r.value).collect();
        assert_eq!(va, vb);
        assert_eq!(a.clocks(), b.clocks());
        // Zero skew keeps the homogeneous model exactly.
        let ranks: Vec<Ring> = (0..3).map(|id| Ring { id, n: 3, value: 1 }).collect();
        let flat = Executor::scheduled(
            ranks,
            CostModel::default(),
            ExecMode::Sequential,
            ChaosConfig::none(),
            AsyncOptions::default(),
        )
        .expect("valid async options");
        assert!(advance_p(&flat)
            .iter()
            .all(|&p| p == AsyncOptions::default().advance_probability));
    }

    /// Every out-of-range field, NaN included, is an `Err` naming the
    /// field — from `validate` and from the constructors — never a panic.
    #[test]
    fn bad_options_are_errors() {
        let ok = AsyncOptions::default();
        assert_eq!(ok.validate(), Ok(()));
        let bad = [
            (
                "advance_probability",
                AsyncOptions {
                    advance_probability: 1.5,
                    ..ok
                },
            ),
            (
                "advance_probability",
                AsyncOptions {
                    advance_probability: -0.1,
                    ..ok
                },
            ),
            (
                "advance_probability",
                AsyncOptions {
                    advance_probability: f64::NAN,
                    ..ok
                },
            ),
            (
                "straggler_skew",
                AsyncOptions {
                    straggler_skew: 1.01,
                    ..ok
                },
            ),
            (
                "straggler_skew",
                AsyncOptions {
                    straggler_skew: -1.0,
                    ..ok
                },
            ),
            (
                "straggler_skew",
                AsyncOptions {
                    straggler_skew: f64::NAN,
                    ..ok
                },
            ),
            ("max_lag", AsyncOptions { max_lag: 0, ..ok }),
        ];
        for (field, opts) in bad {
            let err = opts.validate().expect_err(field);
            assert!(err.contains(field), "{err}");
            let ranks: Vec<Ring> = (0..3).map(|id| Ring { id, n: 3, value: 1 }).collect();
            let built = Executor::scheduled(
                ranks,
                CostModel::default(),
                ExecMode::Sequential,
                ChaosConfig::none(),
                opts,
            );
            assert_eq!(built.err(), Some(err));
        }
        let chaos = ChaosConfig {
            drop_rate: 2.0,
            ..ChaosConfig::none()
        };
        let ranks: Vec<Ring> = (0..3).map(|id| Ring { id, n: 3, value: 1 }).collect();
        assert!(
            Executor::scheduled(ranks, CostModel::default(), ExecMode::Sequential, chaos, ok)
                .is_err()
        );
    }

    #[test]
    fn zero_probability_never_advances() {
        let ranks: Vec<Ring> = (0..3).map(|id| Ring { id, n: 3, value: 1 }).collect();
        let mut ex = Executor::scheduled(
            ranks,
            CostModel::default(),
            ExecMode::Sequential,
            ChaosConfig::none(),
            AsyncOptions {
                advance_probability: 0.0,
                ..AsyncOptions::default()
            },
        )
        .expect("valid async options");
        // No rank advanced: every clock is still zero.
        ex.step();
        assert_eq!(ex.clocks(), &[0, 0, 0]);
    }

    /// Stall injection runs at tick-window granularity: the config is
    /// accepted, stalled rank-windows are counted, the run is
    /// deterministic per seed, and message conservation still holds
    /// (a stalled rank's pending puts accumulate until it resumes).
    #[test]
    fn stall_config_accepted_and_deterministic() {
        let chaos = ChaosConfig {
            stall_rate: 0.4,
            stall_steps: 2,
            seed: 5,
            ..ChaosConfig::none()
        };
        let mk = || {
            let ranks: Vec<Counter> = (0..5)
                .map(|id| Counter {
                    id,
                    n: 5,
                    received: 0,
                    sent: 0,
                })
                .collect();
            Executor::scheduled(
                ranks,
                CostModel::default(),
                ExecMode::Sequential,
                chaos,
                AsyncOptions::default(),
            )
            .expect("stall configs are supported at tick-window granularity")
        };
        let mut a = mk();
        let mut b = mk();
        a.run_steps(20, 10_000).unwrap();
        b.run_steps(20, 10_000).unwrap();
        let obs = |ex: &Executor<Counter>| {
            (
                ex.ranks()
                    .iter()
                    .map(|r| (r.sent, r.received))
                    .collect::<Vec<_>>(),
                ex.clocks().to_vec(),
                ex.stats.nsteps(),
            )
        };
        assert_eq!(obs(&a), obs(&b), "stall pattern must be deterministic");
        assert!(
            a.stats.total_faults().stalled_ranks > 0,
            "rate 0.4 over many windows must stall someone"
        );
        let sent: u64 = a.ranks().iter().map(|r| r.sent).sum();
        let received: u64 = a.ranks().iter().map(|r| r.received).sum();
        assert_eq!(received + a.in_flight() as u64, sent);
    }

    /// A targeted stall via `injector_mut` holds the rank still for whole
    /// tick windows while the rest keep moving up to the lag bound.
    #[test]
    fn targeted_stall_freezes_rank_for_windows() {
        let ranks: Vec<Ring> = (0..4).map(|id| Ring { id, n: 4, value: 1 }).collect();
        let mut ex = Executor::scheduled(
            ranks,
            CostModel::default(),
            ExecMode::Sequential,
            ChaosConfig::none(),
            AsyncOptions {
                advance_probability: 1.0,
                ..AsyncOptions::default()
            },
        )
        .expect("valid async options");
        ex.injector_mut().inject_stall(2, 3);
        // 3 stalled windows × 1 phase per window = 3 ticks frozen.
        for _ in 0..3 {
            ex.step();
        }
        assert_eq!(ex.clocks()[2], 0, "stalled rank must not advance");
        assert!(ex.clocks().iter().any(|&c| c > 0), "others keep moving");
        assert_eq!(ex.stats.total_faults().stalled_ranks, 3);
        for _ in 0..10 {
            ex.step();
        }
        assert!(ex.clocks()[2] > 0, "rank resumes after the stall expires");
    }

    /// Lag groups relax the progress bound to logical blocks: with rank 0
    /// never advancing but covered by a two-member group, the others may
    /// run arbitrarily far ahead; with singleton groups they are fenced at
    /// `max_lag`.
    #[test]
    fn lag_groups_ungate_covered_stragglers() {
        let mk = || {
            let ranks: Vec<Ring> = (0..4).map(|id| Ring { id, n: 4, value: 1 }).collect();
            let mut ex = Executor::scheduled(
                ranks,
                CostModel::default(),
                ExecMode::Sequential,
                ChaosConfig::none(),
                AsyncOptions {
                    advance_probability: 1.0,
                    max_lag: 3,
                    ..AsyncOptions::default()
                },
            )
            .expect("valid async options");
            // Rank 0 is a dead straggler.
            ex.injector_mut().inject_stall(0, 1_000_000);
            ex
        };
        // Singleton groups (the default): everyone is fenced at max_lag.
        let mut fenced = mk();
        for _ in 0..50 {
            fenced.step();
        }
        assert!(fenced.clocks().iter().all(|&c| c <= 3));
        // Rank 0's block is replicated on rank 1: the gate follows the
        // group maxima and the live ranks run ahead.
        let mut coded = mk();
        coded.set_lag_groups(vec![vec![0, 1], vec![1], vec![2], vec![3]]);
        for _ in 0..50 {
            coded.step();
        }
        assert_eq!(coded.clocks()[0], 0);
        assert!(
            coded.clocks()[1..].iter().all(|&c| c > 10),
            "covered straggler must stop gating the rest: {:?}",
            coded.clocks()
        );
        assert_eq!(coded.logical_clocks().len(), 4);
        assert!(coded.logical_clocks().iter().all(|&c| c > 10));
        assert!((coded.pacing_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn async_message_faults_deterministic_and_counted() {
        let chaos = ChaosConfig {
            drop_rate: 0.2,
            duplicate_rate: 0.2,
            delay_rate: 0.2,
            max_delay_epochs: 3,
            seed: 9,
            ..ChaosConfig::none()
        };
        let mk = || {
            let ranks: Vec<Ring> = (0..4).map(|id| Ring { id, n: 4, value: 1 }).collect();
            Executor::scheduled(
                ranks,
                CostModel::default(),
                ExecMode::Sequential,
                chaos,
                AsyncOptions::default(),
            )
            .unwrap()
        };
        let mut a = mk();
        let mut b = mk();
        a.run_steps(12, 1000).unwrap();
        b.run_steps(12, 1000).unwrap();
        let va: Vec<u64> = a.ranks().iter().map(|r| r.value).collect();
        let vb: Vec<u64> = b.ranks().iter().map(|r| r.value).collect();
        assert_eq!(va, vb, "fault pattern must be deterministic per seed");
        let faults = a.stats.total_faults();
        assert!(faults.dropped.total() > 0);
        assert!(faults.duplicated.total() > 0);
        assert!(faults.delayed.total() > 0);
        assert_eq!(faults.stalled_ranks, 0);
    }
}
