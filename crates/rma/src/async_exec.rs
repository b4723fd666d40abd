//! Asynchronous execution: ranks progress at different rates.
//!
//! The paper's MPI implementation uses Casper ghost processes for
//! asynchronous one-sided progress, and its predecessor (ICCS'16) was an
//! explicitly asynchronous method. The lock-step [`crate::Executor`]
//! captures the *epoch semantics*; this module captures the *asynchrony*:
//! each scheduler tick advances a pseudo-random subset of ranks by one
//! phase, so some ranks race ahead while others lag (bounded by
//! `max_lag` phases, modelling a progress guarantee). Puts are delivered
//! when the *target* finishes its current phase — a rank never sees a
//! message mid-phase, preserving the window-consistency rule — but unlike
//! the superstep executor, messages from a fast neighbor can arrive
//! "early" and several at once.
//!
//! The Southwell protocols tolerate this by design (their neighbor data
//! are estimates); the `async_execution_still_converges` tests demonstrate
//! it.

use crate::executor::{Envelope, PhaseCtx, RankAlgorithm};
use crate::fault::{ChaosConfig, FaultInjector};
use crate::stats::{RunStats, StepStats};

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

/// SplitMix64 finalizer — the same mixer the fault injector uses; here it
/// turns `(seed, rank)` into the per-rank speed draw.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The outcome of [`AsyncExecutor::run_steps`]: how many ticks elapsed,
/// with `Err` marking a timeout (the goal was NOT reached within the
/// budget). A goal reached exactly on the final permitted tick is
/// `Ok(max_ticks)`, not a timeout.
pub type RunStepsResult = Result<usize, usize>;

/// Runs ranks with independent phase clocks.
pub struct AsyncExecutor<A: RankAlgorithm> {
    ranks: Vec<A>,
    /// Global phase counter per rank (`step * phases + phase`).
    clock: Vec<usize>,
    /// Messages awaiting the target's next phase boundary.
    pending: Vec<Vec<Envelope<A::Msg>>>,
    /// Messages visible to the target's next phase: at each phase boundary
    /// the rank's `pending` queue is drained into this buffer (the moment
    /// of visibility under the window rule), the phase reads it, and it is
    /// cleared — retaining its capacity across ticks.
    inboxes: Vec<Vec<Envelope<A::Msg>>>,
    opts: AsyncOptions,
    /// Per-rank advance probability (the straggler model): uniform at
    /// `advance_probability` when `straggler_skew` is zero, skewed
    /// downward per rank otherwise. Drawn once at construction.
    advance_p: Vec<f64>,
    rng_state: u64,
    /// Fault decisions for messages crossing tick boundaries.
    injector: FaultInjector,
    /// Messages deferred by delay injection: `(due_tick, target, env)`.
    delayed: Vec<(u64, usize, Envelope<A::Msg>)>,
    /// Stall decisions for the current tick window (redrawn every
    /// `phases()` ticks; all `false` without stall injection).
    stall_window: Vec<bool>,
    /// Logical lag groups (see [`AsyncExecutor::set_lag_groups`]): the
    /// progress bound gates on the slowest *group* (a group progresses at
    /// its fastest member), not the slowest rank. `None` = every rank is
    /// its own group — the classic per-rank bound.
    lag_groups: Option<Vec<Vec<u32>>>,
    /// Per-(origin, target) message indices for the fate keys (scratch).
    fate_seq: Vec<u32>,
    /// Targets touched in `fate_seq` by the current origin (scratch).
    seq_touched: Vec<usize>,
    /// Completed scheduler ticks.
    ticks: u64,
    /// Aggregate statistics (time model is not meaningful here; only
    /// message counts are tracked).
    pub stats: RunStats,
}

impl<A: RankAlgorithm> AsyncExecutor<A> {
    /// Creates an asynchronous executor.
    pub fn new(ranks: Vec<A>, opts: AsyncOptions) -> Self {
        Self::with_chaos(ranks, opts, ChaosConfig::none())
            .expect("a no-fault config is always accepted")
    }

    /// As [`new`](Self::new), with message fault injection (drops,
    /// duplicates, delays — delays are measured in scheduler ticks here)
    /// and stall injection at tick-window granularity: stall decisions are
    /// redrawn once every `phases()` ticks (one parallel step's worth of
    /// phases, mirroring the superstep executor's per-step draws), and a
    /// stalled rank executes no phase for the whole window while its
    /// pending messages keep accumulating.
    pub fn with_chaos(
        ranks: Vec<A>,
        opts: AsyncOptions,
        chaos: ChaosConfig,
    ) -> Result<Self, String> {
        assert!(!ranks.is_empty(), "need at least one rank");
        assert!(
            (0.0..=1.0).contains(&opts.advance_probability),
            "advance_probability must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&opts.straggler_skew),
            "straggler_skew must be in [0, 1]"
        );
        assert!(opts.max_lag >= 1, "max_lag must be at least 1");
        chaos.validate()?;
        let n = ranks.len();
        // The per-rank speed draw is independent of the scheduler's
        // coin-flip stream, so turning skew on or off never perturbs the
        // flips themselves.
        let advance_p: Vec<f64> = (0..n)
            .map(|i| {
                let u = if opts.straggler_skew > 0.0 {
                    let h = mix64(opts.seed ^ (i as u64).wrapping_mul(0xd1342543de82ef95));
                    (h >> 11) as f64 / (1u64 << 53) as f64
                } else {
                    0.0
                };
                opts.advance_probability * (1.0 - opts.straggler_skew * u)
            })
            .collect();
        Ok(AsyncExecutor {
            injector: FaultInjector::new(chaos, n),
            ranks,
            clock: vec![0; n],
            pending: (0..n).map(|_| Vec::new()).collect(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            opts,
            advance_p,
            rng_state: opts.seed.wrapping_mul(0x9e3779b97f4a7c15) | 1,
            delayed: Vec::new(),
            stall_window: vec![false; n],
            lag_groups: None,
            fate_seq: vec![0; n],
            seq_touched: Vec::new(),
            ticks: 0,
            stats: RunStats::new(n),
        })
    }

    fn next_f64(&mut self) -> f64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Immutable access to the rank programs.
    pub fn ranks(&self) -> &[A] {
        &self.ranks
    }

    /// Mutable access to the rank programs (the driver's freeze watchdog
    /// nudges through this).
    pub fn ranks_mut(&mut self) -> &mut [A] {
        &mut self.ranks
    }

    /// The per-rank phase clocks.
    pub fn clocks(&self) -> &[usize] {
        &self.clock
    }

    /// Declares logical lag groups for the progress bound, e.g. the
    /// replica sets of a redundancy-coded placement: a logical block has
    /// made progress once its *fastest* host has, so the `max_lag` bound
    /// gates on the slowest group maximum instead of the slowest rank.
    /// With singleton groups this is exactly the per-rank bound. Groups
    /// may overlap (a rank hosting `r` blocks sits in `r` groups); every
    /// rank must appear in at least one group.
    pub fn set_lag_groups(&mut self, groups: Vec<Vec<u32>>) {
        let n = self.ranks.len();
        assert!(!groups.is_empty(), "need at least one lag group");
        let mut covered = vec![false; n];
        for g in &groups {
            assert!(!g.is_empty(), "lag groups must be non-empty");
            for &m in g {
                assert!((m as usize) < n, "lag group member {m} out of range");
                covered[m as usize] = true;
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "every rank must appear in at least one lag group"
        );
        self.lag_groups = Some(groups);
    }

    /// The progress gate: the slowest logical group's best clock (per-rank
    /// minimum when no groups are declared).
    fn lag_gate(&self) -> usize {
        match &self.lag_groups {
            None => *self
                .clock
                .iter()
                .min()
                .expect("an executor has at least one rank"),
            Some(groups) => groups
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|&m| self.clock[m as usize])
                        .max()
                        .expect("lag groups are validated non-empty")
                })
                .min()
                .expect("lag groups are validated non-empty"),
        }
    }

    /// Per-group best clocks (the logical progress observable): one entry
    /// per lag group, or the per-rank clocks when no groups are declared.
    pub fn logical_clocks(&self) -> Vec<usize> {
        match &self.lag_groups {
            None => self.clock.clone(),
            Some(groups) => groups
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|&m| self.clock[m as usize])
                        .max()
                        .expect("lag groups are validated non-empty")
                })
                .collect(),
        }
    }

    /// The pace the run is gated on: the slowest group's fastest member's
    /// advance probability (slowest rank when no groups are declared) —
    /// what a tick budget should divide by.
    pub fn pacing_probability(&self) -> f64 {
        match &self.lag_groups {
            None => self.advance_p.iter().cloned().fold(f64::INFINITY, f64::min),
            Some(groups) => groups
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|&m| self.advance_p[m as usize])
                        .fold(0.0, f64::max)
                })
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Direct access to the fault injector, e.g. to force targeted
    /// stragglers with [`FaultInjector::inject_stall`].
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Completed scheduler ticks.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The realized per-rank advance probabilities (the straggler model's
    /// speed draws; all equal to `advance_probability` at zero skew).
    pub fn advance_probabilities(&self) -> &[f64] {
        &self.advance_p
    }

    /// Messages currently in flight: queued for a future phase boundary or
    /// parked by delay injection. Zero means nothing undelivered remains,
    /// so a globally idle window cannot be woken by the substrate.
    pub fn in_flight(&self) -> usize {
        self.pending.iter().map(Vec::len).sum::<usize>() + self.delayed.len()
    }

    /// One scheduler tick: every rank that wins the coin flip — and is not
    /// too far ahead of the progress gate, and not stalled this window —
    /// executes its next phase. Returns the number of ranks advanced.
    pub fn tick(&mut self) -> usize {
        let n = self.ranks.len();
        let nphases = self.ranks[0].phases();
        let mut advanced = 0;
        let t_tick = std::time::Instant::now();
        let mut step = StepStats::default();
        // Stall window: decisions are redrawn once every `nphases` ticks
        // (one parallel step's worth of phases), mirroring the superstep
        // executor's per-step draws; a stalled rank sits out the window.
        if self.ticks.is_multiple_of(nphases as u64) {
            self.stall_window = self.injector.step_stalls();
            step.faults.stalled_ranks += self.stall_window.iter().filter(|&&s| s).count() as u64;
        }
        let gate = self.lag_gate();
        // Messages produced this tick are held back until the tick ends, so
        // a rank never sees a same-tick neighbor's output mid-flight (the
        // window rule: data lands between the target's phases).
        let mut tick_out: Vec<(usize, Envelope<A::Msg>)> = Vec::new();
        for i in 0..n {
            if self.stall_window[i] {
                continue; // injected stall: no phase, inbox accumulates
            }
            if self.clock[i] >= gate + self.opts.max_lag {
                continue; // progress bound: wait for stragglers
            }
            if self.next_f64() >= self.advance_p[i] {
                continue;
            }
            // Phase boundary for rank i: pending puts become visible by
            // moving into the rank's inbox (cleared after the phase, so
            // each message is seen exactly once; capacity is retained).
            self.inboxes[i].append(&mut self.pending[i]);
            // Deterministic order regardless of arrival interleaving.
            self.inboxes[i].sort_by_key(|e| e.src);
            let phase = self.clock[i] % nphases;
            let mut ctx = PhaseCtx::capture(i);
            let t0 = std::time::Instant::now();
            self.ranks[i].phase(phase, &self.inboxes[i], &mut ctx);
            self.inboxes[i].clear();
            let (outbox, mut totals) = ctx.into_outbox_and_totals();
            totals.wall_ns = t0.elapsed().as_nanos() as u64;
            self.stats.msgs_per_rank[i] += totals.msgs.total();
            self.stats.rank_time_ns[i] += totals.wall_ns;
            step.compute_ns_max_rank = step.compute_ns_max_rank.max(totals.wall_ns);
            step.absorb(&totals);
            tick_out.extend(outbox);
            self.clock[i] += 1;
            advanced += 1;
        }
        // Fault injection at the tick boundary (the serialized delivery
        // point, analogous to the superstep executor's epoch close). Fates
        // are keyed on `(tick, origin, target, index, class)`; `tick_out`
        // is grouped by origin in rank order, so the per-(origin, target)
        // index scratch resets whenever the origin changes.
        let message_faults = self.injector.config().message_faults_active();
        let mut cur_origin = usize::MAX;
        for (target, env) in tick_out {
            let fate = if message_faults {
                if env.src != cur_origin {
                    for &t in &self.seq_touched {
                        self.fate_seq[t] = 0;
                    }
                    self.seq_touched.clear();
                    cur_origin = env.src;
                }
                let idx = self.fate_seq[target];
                self.fate_seq[target] += 1;
                if idx == 0 {
                    self.seq_touched.push(target);
                }
                self.injector
                    .fate_at(self.ticks, env.src as u32, target as u32, idx, env.class)
            } else {
                crate::fault::Fate::DELIVER
            };
            if fate.dropped {
                step.faults.dropped.add(env.class, 1);
                continue;
            }
            if fate.duplicated {
                step.faults.duplicated.add(env.class, 1);
                self.pending[target].push(env.clone());
            }
            if fate.delay > 0 {
                step.faults.delayed.add(env.class, 1);
                self.delayed
                    .push((self.ticks + fate.delay as u64, target, env));
            } else {
                self.pending[target].push(env);
            }
        }
        // Surface deferred messages whose delay expired this tick — one
        // order-preserving partition pass (deferral order is kept for both
        // the extracted and the retained messages).
        if !self.delayed.is_empty() {
            let due = self.ticks;
            for (_, target, env) in self.delayed.extract_if(.., |d| d.0 <= due) {
                self.pending[target].push(env);
            }
        }
        self.ticks += 1;
        // Record a pseudo-step for the counters. The tick runs on the
        // calling thread, so span == one worker's busy time.
        step.span_ns = t_tick.elapsed().as_nanos() as u64;
        step.workers = 1;
        self.stats.steps.push(step);
        advanced
    }

    /// Ticks until every *logical* clock — per-rank clocks, or the group
    /// maxima when lag groups are declared — has completed at least
    /// `steps` full parallel steps (all phases), or `max_ticks` elapses.
    ///
    /// `Ok(ticks)` when the goal was reached — including when the final
    /// permitted tick is the one that gets every clock there — and
    /// `Err(max_ticks)` on a genuine timeout. (An earlier version returned
    /// a bare tick count, which made a goal reached exactly on the last
    /// tick indistinguishable from running out of budget.)
    pub fn run_steps(&mut self, steps: usize, max_ticks: usize) -> RunStepsResult {
        let nphases = self.ranks[0].phases();
        let goal = steps * nphases;
        let done = |ex: &Self| ex.logical_clocks().iter().all(|&c| c >= goal);
        for t in 0..max_ticks {
            if done(self) {
                return Ok(t);
            }
            self.tick();
        }
        if done(self) {
            Ok(max_ticks)
        } else {
            Err(max_ticks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::RankAlgorithm;
    use crate::stats::CommClass;

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
        fn phase(&mut self, _phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
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
        let mut ex = AsyncExecutor::new(ranks, AsyncOptions::default());
        let ticks = ex
            .run_steps(10, 10_000)
            .expect("should reach 10 steps within budget");
        assert!(ticks < 10_000, "should reach 10 steps quickly");
        // Lag bound held throughout (final state check).
        let min = *ex.clocks().iter().min().unwrap();
        let max = *ex.clocks().iter().max().unwrap();
        assert!(max - min <= ex.opts.max_lag);
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
            AsyncExecutor::new(ranks, AsyncOptions::default())
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
            AsyncExecutor::new(ranks, AsyncOptions::default())
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
    /// inbox buffer delivers each pending put exactly once.
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
        fn phase(&mut self, _phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
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
        let mut ex = AsyncExecutor::new(ranks, AsyncOptions::default());
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
            AsyncExecutor::new(ranks, opts)
        };
        let ex = mk();
        let ps = ex.advance_probabilities();
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
        let flat = AsyncExecutor::new(ranks, AsyncOptions::default());
        assert!(flat
            .advance_probabilities()
            .iter()
            .all(|&p| p == AsyncOptions::default().advance_probability));
    }

    #[test]
    fn zero_probability_never_advances() {
        let ranks: Vec<Ring> = (0..3).map(|id| Ring { id, n: 3, value: 1 }).collect();
        let mut ex = AsyncExecutor::new(
            ranks,
            AsyncOptions {
                advance_probability: 0.0,
                ..AsyncOptions::default()
            },
        );
        assert_eq!(ex.tick(), 0);
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
            AsyncExecutor::with_chaos(ranks, AsyncOptions::default(), chaos)
                .expect("stall configs are supported at tick-window granularity")
        };
        let mut a = mk();
        let mut b = mk();
        a.run_steps(20, 10_000).unwrap();
        b.run_steps(20, 10_000).unwrap();
        let obs = |ex: &AsyncExecutor<Counter>| {
            (
                ex.ranks()
                    .iter()
                    .map(|r| (r.sent, r.received))
                    .collect::<Vec<_>>(),
                ex.clocks().to_vec(),
                ex.ticks(),
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
        let mut ex = AsyncExecutor::new(
            ranks,
            AsyncOptions {
                advance_probability: 1.0,
                ..AsyncOptions::default()
            },
        );
        ex.injector_mut().inject_stall(2, 3);
        // 3 stalled windows × 1 phase per window = 3 ticks frozen.
        for _ in 0..3 {
            ex.tick();
        }
        assert_eq!(ex.clocks()[2], 0, "stalled rank must not advance");
        assert!(ex.clocks().iter().any(|&c| c > 0), "others keep moving");
        assert_eq!(ex.stats.total_faults().stalled_ranks, 3);
        for _ in 0..10 {
            ex.tick();
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
            let mut ex = AsyncExecutor::new(
                ranks,
                AsyncOptions {
                    advance_probability: 1.0,
                    max_lag: 3,
                    ..AsyncOptions::default()
                },
            );
            // Rank 0 is a dead straggler.
            ex.injector_mut().inject_stall(0, 1_000_000);
            ex
        };
        // Singleton groups (the default): everyone is fenced at max_lag.
        let mut fenced = mk();
        for _ in 0..50 {
            fenced.tick();
        }
        assert!(fenced.clocks().iter().all(|&c| c <= 3));
        // Rank 0's block is replicated on rank 1: the gate follows the
        // group maxima and the live ranks run ahead.
        let mut coded = mk();
        coded.set_lag_groups(vec![vec![0, 1], vec![1], vec![2], vec![3]]);
        for _ in 0..50 {
            coded.tick();
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
            AsyncExecutor::with_chaos(ranks, AsyncOptions::default(), chaos).unwrap()
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
