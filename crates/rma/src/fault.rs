//! Deterministic fault injection for the RMA substrate.
//!
//! Real one-sided MPI guarantees that a put is visible once the epoch
//! closes; every solver in this workspace *relies* on that (lost solve
//! updates corrupt the receiver's maintained residual, lost explicit
//! residual updates disable Distributed Southwell's deadlock avoidance).
//! Chaos mode makes those failure modes observable and testable by
//! perturbing delivery at the epoch boundary:
//!
//! * **drops** — the put never lands;
//! * **duplicates** — the put lands twice (models a retried RMA op whose
//!   first attempt actually succeeded);
//! * **delays** — the put lands `k ≥ 1` epochs late, reordered behind
//!   younger traffic from the same origin;
//! * **stalls** — a rank skips its compute phases for `k` consecutive
//!   parallel steps (an OS-jitter / straggler model). Its inbox keeps
//!   accumulating while it is stalled, so nothing is lost — only late.
//!
//! Message fates are **counter-based**: the draw for a message is a pure
//! hash of `(seed, epoch, origin, target, index, class)`, where `index`
//! numbers the puts an origin issued to that target within the epoch. A
//! fate therefore never depends on how many other messages exist or in
//! what order they are examined, so the epoch close may compute fates
//! concurrently — target-major, origin-major, chunked across a worker
//! pool — and a given `ChaosConfig` produces the *same* fault pattern
//! under `ExecMode::Sequential` and `ExecMode::Threaded(_)` by
//! construction. Stall draws come from an independent sequential stream
//! (drawn once per step in rank order, which is already order-fixed):
//! changing the message volume (e.g. by switching solvers) does not
//! change which ranks stall, and vice versa.

use crate::stats::CommClass;

/// Fault-injection configuration. All probabilities are per-message (or
/// per-rank-step for stalls) and independent.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability that an eligible message is dropped, in `[0, 1]`.
    pub drop_rate: f64,
    /// Restrict dropping to one message class (`None` = any class).
    pub drop_class: Option<CommClass>,
    /// Probability that a delivered message lands twice, in `[0, 1]`.
    pub duplicate_rate: f64,
    /// Probability that a delivered message is deferred, in `[0, 1]`.
    pub delay_rate: f64,
    /// Maximum deferral in epochs; each delayed message draws uniformly
    /// from `1..=max_delay_epochs`. Must be ≥ 1 when `delay_rate > 0`.
    pub max_delay_epochs: usize,
    /// Per-rank, per-parallel-step probability that an idle rank begins a
    /// stall, in `[0, 1]`.
    pub stall_rate: f64,
    /// Length of each stall in parallel steps. Must be ≥ 1 when
    /// `stall_rate > 0`.
    pub stall_steps: usize,
    /// Seed of the deterministic fault pattern.
    pub seed: u64,
}

impl ChaosConfig {
    /// No faults.
    pub fn none() -> Self {
        ChaosConfig {
            drop_rate: 0.0,
            drop_class: None,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            max_delay_epochs: 1,
            stall_rate: 0.0,
            stall_steps: 1,
            seed: 0,
        }
    }

    /// Any message-level fault configured (drop / duplicate / delay)?
    pub fn message_faults_active(&self) -> bool {
        self.drop_rate > 0.0 || self.duplicate_rate > 0.0 || self.delay_rate > 0.0
    }

    /// Any stall fault configured?
    pub fn stalls_active(&self) -> bool {
        self.stall_rate > 0.0
    }

    /// Any fault configured at all?
    pub fn is_active(&self) -> bool {
        self.message_faults_active() || self.stalls_active()
    }

    /// Checks ranges; returns a human-readable error for bad configs.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must be a probability in [0, 1], got {v}"))
            }
        };
        prob("drop_rate", self.drop_rate)?;
        prob("duplicate_rate", self.duplicate_rate)?;
        prob("delay_rate", self.delay_rate)?;
        prob("stall_rate", self.stall_rate)?;
        if self.delay_rate > 0.0 && self.max_delay_epochs == 0 {
            return Err("delay_rate > 0 requires max_delay_epochs >= 1".into());
        }
        if self.stall_rate > 0.0 && self.stall_steps == 0 {
            return Err("stall_rate > 0 requires stall_steps >= 1".into());
        }
        Ok(())
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// A tiny deterministic PRNG (xorshift64*) so the substrate does not need
/// a rand dependency for fault injection.
#[derive(Debug, Clone)]
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer: a full-avalanche bijection on `u64`, used to
/// turn a structured key into an independent-looking draw.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The decided fate of one about-to-be-delivered message.
///
/// Drops win over everything. A surviving message may be both delayed and
/// duplicated: the duplicate lands *now* while the original lands late,
/// which models a retransmission racing a slow original — the sharpest
/// combination of reordering and duplication a receiver can face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fate {
    /// The message is discarded (no delivery at all, no duplicate).
    pub dropped: bool,
    /// An extra copy is delivered at the current epoch close.
    pub duplicated: bool,
    /// Epochs the original delivery is deferred by (0 = on time).
    pub delay: usize,
}

impl Fate {
    /// Normal, exactly-once, on-time delivery.
    pub const DELIVER: Fate = Fate {
        dropped: false,
        duplicated: false,
        delay: 0,
    };
}

/// Draws fault decisions for an executor. Construct once per run.
///
/// Message fates ([`FaultInjector::fate_at`]) are pure functions of their
/// key, so they may be evaluated from any thread in any order. Stall
/// state ([`FaultInjector::step_stalls`]) is sequential and advances once
/// per parallel step on the coordinating thread.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: ChaosConfig,
    /// Pre-mixed seed for the counter-based message-fate hash.
    msg_key: u64,
    /// Independent stream for per-rank stall draws.
    stall_rng: XorShift,
    /// Remaining stall steps per rank (0 = running).
    stall_left: Vec<usize>,
}

impl FaultInjector {
    /// Creates an injector for `nranks` ranks.
    ///
    /// # Panics
    /// If `cfg` fails [`ChaosConfig::validate`].
    pub fn new(cfg: ChaosConfig, nranks: usize) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ChaosConfig: {e}");
        }
        FaultInjector {
            cfg,
            msg_key: mix64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15),
            // Decorrelate the two streams with a fixed offset on the seed.
            stall_rng: XorShift::new(cfg.seed ^ 0xD5A6_1F2C_93B4_7E81),
            stall_left: vec![0; nranks],
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// One uniform `[0, 1)` draw for `lane` of the keyed message. Each
    /// fault type owns a fixed lane, so its draw is independent of which
    /// other fault types are configured.
    #[inline]
    fn draw(
        &self,
        epoch: u64,
        origin: u32,
        target: u32,
        index: u32,
        class: CommClass,
        lane: u8,
    ) -> u64 {
        let h = self.msg_key ^ mix64(epoch);
        let h = mix64(h ^ (((origin as u64) << 32) | target as u64));
        mix64(h ^ (((index as u64) << 16) | ((class as u8 as u64) << 8) | lane as u64))
    }

    #[inline]
    fn draw_f64(
        &self,
        epoch: u64,
        origin: u32,
        target: u32,
        index: u32,
        class: CommClass,
        lane: u8,
    ) -> f64 {
        (self.draw(epoch, origin, target, index, class, lane) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides the fate of one message, keyed on its delivery coordinates:
    /// the global `epoch` being closed, the `origin` and `target` ranks,
    /// the `index` of the message among the origin's puts to that target
    /// within the epoch, and its `class`.
    ///
    /// The decision is a pure hash of the key — no stream state — so it is
    /// independent of evaluation order and thread, which is what lets the
    /// epoch close route messages in parallel while reproducing the exact
    /// same fault pattern as a serial close. Each fault type draws from
    /// its own lane of the hash, so enabling one fault never perturbs the
    /// pattern of another, and a fault type whose rate is zero is never
    /// even evaluated.
    pub fn fate_at(
        &self,
        epoch: u64,
        origin: u32,
        target: u32,
        index: u32,
        class: CommClass,
    ) -> Fate {
        let mut fate = Fate::DELIVER;
        if self.cfg.drop_rate > 0.0
            && self.cfg.drop_class.is_none_or(|c| c == class)
            && self.draw_f64(epoch, origin, target, index, class, 0) < self.cfg.drop_rate
        {
            fate.dropped = true;
            return fate;
        }
        if self.cfg.duplicate_rate > 0.0
            && self.draw_f64(epoch, origin, target, index, class, 1) < self.cfg.duplicate_rate
        {
            fate.duplicated = true;
        }
        if self.cfg.delay_rate > 0.0
            && self.draw_f64(epoch, origin, target, index, class, 2) < self.cfg.delay_rate
        {
            fate.delay = 1
                + (self.draw(epoch, origin, target, index, class, 3)
                    % self.cfg.max_delay_epochs as u64) as usize;
        }
        fate
    }

    /// Advances the stall state by one parallel step and returns, per rank,
    /// whether that rank is stalled for the *whole* upcoming step. Draws
    /// happen in rank order from the stall stream only.
    pub fn step_stalls(&mut self) -> Vec<bool> {
        let n = self.stall_left.len();
        let mut stalled = vec![false; n];
        for (r, flag) in stalled.iter_mut().enumerate() {
            if self.stall_left[r] > 0 {
                self.stall_left[r] -= 1;
                *flag = true;
            } else if self.cfg.stall_rate > 0.0 && self.stall_rng.next_f64() < self.cfg.stall_rate {
                // stall_steps >= 1 (validated); this step plus k-1 more.
                self.stall_left[r] = self.cfg.stall_steps - 1;
                *flag = true;
            }
        }
        stalled
    }

    /// Forces rank `r` to stall for the next `steps` parallel steps
    /// (counting from the next `step_stalls` call). Lets tests and
    /// experiments inject targeted stragglers on top of the random model.
    pub fn inject_stall(&mut self, r: usize, steps: usize) {
        self.stall_left[r] = self.stall_left[r].max(steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enumerates fates over a small grid of delivery coordinates.
    fn fate_grid(inj: &FaultInjector) -> Vec<Fate> {
        let mut fates = Vec::new();
        for epoch in 0..25u64 {
            for origin in 0..4u32 {
                for target in 0..4u32 {
                    for index in 0..2u32 {
                        fates.push(inj.fate_at(epoch, origin, target, index, CommClass::Solve));
                    }
                }
            }
        }
        fates
    }

    #[test]
    fn zero_config_delivers_everything() {
        let mut inj = FaultInjector::new(ChaosConfig::none(), 4);
        assert!(fate_grid(&inj).iter().all(|&f| f == Fate::DELIVER));
        assert_eq!(inj.step_stalls(), vec![false; 4]);
    }

    #[test]
    fn fates_are_deterministic_per_seed_and_order_independent() {
        let cfg = ChaosConfig {
            drop_rate: 0.2,
            duplicate_rate: 0.2,
            delay_rate: 0.2,
            max_delay_epochs: 3,
            stall_rate: 0.1,
            stall_steps: 2,
            seed: 42,
            ..ChaosConfig::none()
        };
        let inj = FaultInjector::new(cfg, 8);
        assert_eq!(fate_grid(&inj), fate_grid(&inj), "pure function of the key");
        // Evaluating a fate repeatedly or in any order changes nothing:
        // spot-check one key before and after a full sweep.
        let probe = inj.fate_at(7, 3, 1, 0, CommClass::Solve);
        let _ = fate_grid(&inj);
        assert_eq!(probe, inj.fate_at(7, 3, 1, 0, CommClass::Solve));
        let other = FaultInjector::new(ChaosConfig { seed: 43, ..cfg }, 8);
        assert_ne!(
            fate_grid(&inj),
            fate_grid(&other),
            "seed changes the pattern"
        );
        let stalls = |cfg: ChaosConfig| {
            let mut inj = FaultInjector::new(cfg, 8);
            (0..50).map(|_| inj.step_stalls()).collect::<Vec<_>>()
        };
        assert_eq!(stalls(cfg), stalls(cfg));
    }

    #[test]
    fn rates_roughly_respected() {
        let cfg = ChaosConfig {
            drop_rate: 0.3,
            delay_rate: 0.5,
            max_delay_epochs: 4,
            seed: 7,
            ..ChaosConfig::none()
        };
        let inj = FaultInjector::new(cfg, 1);
        let fates: Vec<Fate> = (0..10_000u64)
            .map(|k| {
                inj.fate_at(
                    k / 100,
                    (k % 100 / 10) as u32,
                    (k % 10) as u32,
                    0,
                    CommClass::Residual,
                )
            })
            .collect();
        let drops = fates.iter().filter(|f| f.dropped).count() as f64 / 10_000.0;
        assert!((drops - 0.3).abs() < 0.03, "drop rate {drops}");
        let delayed: Vec<usize> = fates
            .iter()
            .filter(|f| !f.dropped && f.delay > 0)
            .map(|f| f.delay)
            .collect();
        assert!(delayed.iter().all(|&d| (1..=4).contains(&d)));
        assert!(!delayed.is_empty());
        // Dropped messages never carry secondary faults.
        assert!(fates
            .iter()
            .filter(|f| f.dropped)
            .all(|f| !f.duplicated && f.delay == 0));
    }

    #[test]
    fn lanes_are_independent_across_fault_types() {
        // Same seed, same keys: enabling drops must not change which
        // messages get duplicated (each fault type has its own hash lane).
        let dup_only = FaultInjector::new(
            ChaosConfig {
                duplicate_rate: 0.3,
                seed: 11,
                ..ChaosConfig::none()
            },
            1,
        );
        let dup_and_drop = FaultInjector::new(
            ChaosConfig {
                drop_rate: 0.5,
                duplicate_rate: 0.3,
                seed: 11,
                ..ChaosConfig::none()
            },
            1,
        );
        for epoch in 0..500u64 {
            let a = dup_only.fate_at(epoch, 0, 1, 0, CommClass::Solve);
            let b = dup_and_drop.fate_at(epoch, 0, 1, 0, CommClass::Solve);
            if !b.dropped {
                assert_eq!(a.duplicated, b.duplicated, "epoch {epoch}");
            }
        }
    }

    #[test]
    fn drop_class_filter_respected() {
        let cfg = ChaosConfig {
            drop_rate: 1.0,
            drop_class: Some(CommClass::Residual),
            seed: 1,
            ..ChaosConfig::none()
        };
        let inj = FaultInjector::new(cfg, 1);
        assert!(!inj.fate_at(0, 0, 1, 0, CommClass::Solve).dropped);
        assert!(inj.fate_at(0, 0, 1, 0, CommClass::Residual).dropped);
        assert!(!inj.fate_at(0, 0, 1, 0, CommClass::Recovery).dropped);
    }

    #[test]
    fn stalls_last_configured_steps() {
        let cfg = ChaosConfig {
            stall_rate: 1.0,
            stall_steps: 3,
            seed: 5,
            ..ChaosConfig::none()
        };
        let mut inj = FaultInjector::new(cfg, 2);
        // With rate 1.0 every rank stalls immediately and, because re-draws
        // happen as soon as the stall expires, stays stalled forever.
        for _ in 0..5 {
            assert_eq!(inj.step_stalls(), vec![true, true]);
        }
    }

    #[test]
    fn injected_stall_expires() {
        let mut inj = FaultInjector::new(ChaosConfig::none(), 3);
        inj.inject_stall(1, 2);
        assert_eq!(inj.step_stalls(), vec![false, true, false]);
        assert_eq!(inj.step_stalls(), vec![false, true, false]);
        assert_eq!(inj.step_stalls(), vec![false, false, false]);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ChaosConfig {
            drop_rate: 1.5,
            ..ChaosConfig::none()
        }
        .validate()
        .is_err());
        assert!(ChaosConfig {
            delay_rate: 0.1,
            max_delay_epochs: 0,
            ..ChaosConfig::none()
        }
        .validate()
        .is_err());
        assert!(ChaosConfig {
            stall_rate: 0.1,
            stall_steps: 0,
            ..ChaosConfig::none()
        }
        .validate()
        .is_err());
    }
}
