//! The stop rule every drive loop shares: converge on a verified norm;
//! idle → nudge → deadlock; diverge past the cutoff — plus the trigger
//! that confirms a maintained-norm reading exactly before any verdict.
//! The one run loop (`run_method`, `drive`, sessions, fused panels) feeds
//! [`Verdict`] once per column per step — once per scheduler tick on the
//! async backend, idle meaning a silent sweep window.

use super::driver::{DistOptions, MaintainedNorm, MonitorMode};
use super::recovery::Recoverable;

/// One step boundary as the stop rule sees it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Boundary {
    /// Cadence counter: the parallel step, or the async scheduler tick.
    pub(crate) index: usize,
    /// Row relaxations in the step (a relaxation clears the nudge strikes).
    pub(crate) relaxations: u64,
    /// Nothing moved and nothing is in flight, so no later step can act.
    pub(crate) idle: bool,
    /// The run's final boundary, which is always measured exactly.
    pub(crate) last: bool,
}

/// Why a solve ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum End {
    /// A verified norm reached the target.
    Converged,
    /// Idle above target, and nudging could not restore progress.
    Deadlocked,
    /// A verified norm went non-finite or past the divergence cutoff.
    Diverged,
    /// Idle with nothing left to reduce (at or below the target floor).
    Settled,
}

/// What one boundary did to the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// No verdict: keep stepping.
    Continue,
    /// Idle above target, and some rank reacted to the nudge.
    Nudged,
    /// The solve reached a verdict.
    Done(End),
}

/// Verdict state of one solve: the stop rule's inputs, its flags, and
/// the freeze watchdog's strike count.
#[derive(Debug, Clone)]
pub(crate) struct Verdict {
    target: Option<f64>,
    cutoff: Option<f64>,
    /// How boundaries are measured (the trigger's cadence).
    pub(crate) monitor: MonitorMode,
    /// The exactly measured initial norm (divergence is relative to it).
    initial: f64,
    pub(crate) converged_at: Option<usize>,
    pub(crate) deadlocked: bool,
    pub(crate) diverged: bool,
    pub(crate) watchdog_nudges: u64,
    /// Nudges since the last step with a relaxation; two fruitless nudges
    /// in a row mean nudging cannot help.
    strikes: u32,
    done: bool,
}

impl Verdict {
    /// A fresh solve under `opts` from an exactly measured `initial` norm.
    pub(crate) fn new(opts: &DistOptions, initial: f64) -> Self {
        Verdict {
            target: opts.target_residual,
            cutoff: opts.divergence_cutoff,
            monitor: opts.monitor,
            initial,
            converged_at: None,
            deadlocked: false,
            diverged: false,
            watchdog_nudges: 0,
            strikes: 0,
            done: false,
        }
    }

    /// Whether the solve has ended (on a verdict or by [`Verdict::stop`]).
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Ends the solve without a verdict: the step budget ran out.
    pub(crate) fn stop(&mut self) {
        self.done = true;
    }

    fn past_cutoff(&self, norm: f64) -> bool {
        !norm.is_finite()
            || self
                .cutoff
                .is_some_and(|cut| norm > cut * self.initial.max(1e-300))
    }

    /// The exact-norm trigger: whether the maintained reading `m` must be
    /// confirmed by an exact recompute (always, under the exact monitor).
    /// Besides the cadence, idle and final boundaries it fires on any
    /// reading that could hide a verdict: on a reliable link the true norm
    /// is within `slack` of the maintained one (plus a round-off margin),
    /// so only `norm − slack ≤ target` can hide convergence.
    pub(crate) fn needs_exact(&self, m: MaintainedNorm, at: Boundary) -> bool {
        let MonitorMode::Maintained { verify_every } = self.monitor else {
            return true;
        };
        let due = verify_every > 0 && at.index.is_multiple_of(verify_every);
        let claims_convergence = self
            .target
            .is_some_and(|t| m.norm - m.slack <= t * (1.0 + 1e-9));
        due || at.idle || at.last || claims_convergence || self.past_cutoff(m.norm)
    }

    /// Applies one boundary's measured `norm` (`verified`: it is exact).
    /// Only a verified norm can converge or diverge; the trigger above
    /// guarantees `verified` whenever a verdict is possible. An idle
    /// boundary above target calls `nudge`, which must nudge every rank
    /// and report whether any reacted.
    pub(crate) fn observe(
        &mut self,
        at: Boundary,
        norm: f64,
        verified: bool,
        nudge: impl FnOnce() -> bool,
    ) -> Transition {
        if at.relaxations > 0 {
            self.strikes = 0;
        }
        if verified && self.target.is_some_and(|t| norm <= t) {
            self.converged_at = Some(at.index);
            return self.end(End::Converged);
        }
        if at.idle {
            let frozen = norm > self.target.unwrap_or(0.0).max(1e-300);
            if frozen && self.strikes < 2 && nudge() {
                self.watchdog_nudges += 1;
                self.strikes += 1;
                return Transition::Nudged;
            }
            self.deadlocked = frozen;
            return self.end(if frozen {
                End::Deadlocked
            } else {
                End::Settled
            });
        }
        if verified && self.past_cutoff(norm) {
            self.diverged = true;
            return self.end(End::Diverged);
        }
        Transition::Continue
    }

    fn end(&mut self, why: End) -> Transition {
        self.done = true;
        Transition::Done(why)
    }
}

/// The freeze watchdog's nudge: nudges every rank — no short-circuit, a
/// rank that does not react must not hide the ones after it — and reports
/// whether any reacted.
pub(crate) fn nudge_all<'a, R: Recoverable + 'a>(
    ranks: impl IntoIterator<Item = &'a mut R>,
) -> bool {
    let mut any = false;
    for r in ranks {
        any |= r.nudge();
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(monitor: MonitorMode) -> DistOptions {
        DistOptions {
            target_residual: Some(0.1),
            divergence_cutoff: Some(10.0),
            monitor,
            ..DistOptions::default()
        }
    }

    fn at(index: usize, relaxations: u64, idle: bool) -> Boundary {
        Boundary {
            index,
            relaxations,
            idle,
            last: false,
        }
    }

    /// Feeds `(relaxations, idle, norm, verified, any rank reacts)` rows
    /// and returns the transitions and the number of nudge calls.
    fn run(v: &mut Verdict, rows: &[(u64, bool, f64, bool, bool)]) -> (Vec<Transition>, usize) {
        let mut calls = 0;
        let out = rows
            .iter()
            .enumerate()
            .map(|(i, &(relax, idle, norm, verified, reacts))| {
                v.observe(at(i + 1, relax, idle), norm, verified, || {
                    calls += 1;
                    reacts
                })
            })
            .collect();
        (out, calls)
    }

    use Transition::{Continue, Done, Nudged};

    #[test]
    fn transition_table() {
        let exact = opts(MonitorMode::Exact);
        // (name, rows, expected transitions, nudge calls)
        #[allow(clippy::type_complexity)]
        let table: [(
            &str,
            Vec<(u64, bool, f64, bool, bool)>,
            Vec<Transition>,
            usize,
        ); 8] = [
            (
                "converge on a verified norm",
                vec![(5, false, 0.5, true, false), (5, false, 0.05, true, false)],
                vec![Continue, Done(End::Converged)],
                0,
            ),
            (
                "no verdict on an unverified norm",
                vec![
                    (5, false, 0.05, false, false),
                    (5, false, 1e9, false, false),
                ],
                vec![Continue, Continue],
                0,
            ),
            (
                "idle -> nudge -> nudge -> deadlock",
                vec![
                    (0, true, 0.5, true, true),
                    (0, true, 0.5, true, true),
                    (0, true, 0.5, true, true),
                ],
                vec![Nudged, Nudged, Done(End::Deadlocked)],
                2,
            ),
            (
                "a relaxation resets the strike count",
                vec![
                    (0, true, 0.5, true, true),
                    (0, true, 0.5, true, true),
                    (3, false, 0.4, true, false),
                    (0, true, 0.4, true, true),
                    (0, true, 0.4, true, true),
                    (0, true, 0.4, true, true),
                ],
                vec![
                    Nudged,
                    Nudged,
                    Continue,
                    Nudged,
                    Nudged,
                    Done(End::Deadlocked),
                ],
                4,
            ),
            (
                "a nudge no rank reacts to deadlocks at once",
                vec![(0, true, 0.5, true, false)],
                vec![Done(End::Deadlocked)],
                1,
            ),
            (
                "a below-target idle step is not a deadlock",
                vec![(0, true, 0.05, true, true)],
                vec![Done(End::Converged)],
                0,
            ),
            (
                "cutoff divergence",
                vec![(5, false, 9.0, true, false), (5, false, 11.0, true, false)],
                vec![Continue, Done(End::Diverged)],
                0,
            ),
            (
                "non-finite divergence",
                vec![(5, false, f64::NAN, true, false)],
                vec![Done(End::Diverged)],
                0,
            ),
        ];
        for (name, rows, want, want_calls) in table {
            let mut v = Verdict::new(&exact, 1.0);
            let (got, calls) = run(&mut v, &rows);
            assert_eq!(got, want, "{name}");
            assert_eq!(calls, want_calls, "{name}: nudge calls");
            assert_eq!(v.is_done(), matches!(want.last(), Some(Done(_))), "{name}");
            let nudged = want.iter().filter(|&&t| t == Nudged).count();
            assert_eq!(v.watchdog_nudges as usize, nudged, "{name}");
            let end = match want.last() {
                Some(Done(end)) => Some(*end),
                _ => None,
            };
            assert_eq!(
                v.converged_at.is_some(),
                end == Some(End::Converged),
                "{name}"
            );
            assert_eq!(v.deadlocked, end == Some(End::Deadlocked), "{name}");
            assert_eq!(v.diverged, end == Some(End::Diverged), "{name}");
        }
    }

    /// Without a target, an idle boundary at an exact zero residual has
    /// nothing left to reduce: it ends the solve without a deadlock, and
    /// without calling the nudge.
    #[test]
    fn idle_at_zero_residual_settles() {
        let mut v = Verdict::new(
            &DistOptions {
                target_residual: None,
                ..opts(MonitorMode::Exact)
            },
            1.0,
        );
        let (got, calls) = run(&mut v, &[(0, true, 0.0, true, true)]);
        assert_eq!(got, vec![Done(End::Settled)]);
        assert_eq!(calls, 0);
        assert!(!v.deadlocked && v.converged_at.is_none() && !v.diverged);
    }

    #[test]
    fn nudge_reaches_every_rank() {
        struct Rank {
            reacts: bool,
            nudged: bool,
        }
        impl Recoverable for Rank {
            fn nudge(&mut self) -> bool {
                self.nudged = true;
                self.reacts
            }
        }
        let mut ranks: Vec<Rank> = [true, false, true, false]
            .into_iter()
            .map(|reacts| Rank {
                reacts,
                nudged: false,
            })
            .collect();
        assert!(nudge_all(&mut ranks));
        assert!(ranks.iter().all(|r| r.nudged));
        assert!(!nudge_all(&mut ranks[1..2]));
    }

    #[test]
    fn exact_trigger() {
        let m = |norm, slack| MaintainedNorm { norm, slack };
        let quiet = at(3, 1, false);
        // Exact monitoring always recomputes.
        let exact = Verdict::new(&opts(MonitorMode::Exact), 1.0);
        assert!(exact.needs_exact(m(0.5, 0.0), quiet));
        let v = Verdict::new(&opts(MonitorMode::Maintained { verify_every: 4 }), 1.0);
        // A quiet, mid-range reading stands.
        assert!(!v.needs_exact(m(0.5, 0.0), quiet));
        // Cadence, idle and final boundaries.
        assert!(v.needs_exact(m(0.5, 0.0), at(4, 1, false)));
        assert!(v.needs_exact(m(0.5, 0.0), at(3, 0, true)));
        assert!(v.needs_exact(
            m(0.5, 0.0),
            Boundary {
                last: true,
                ..quiet
            }
        ));
        // Possible claims: slack reaching the target, cutoff, non-finite.
        assert!(v.needs_exact(m(0.5, 0.41), quiet));
        assert!(!v.needs_exact(m(0.5, 0.39), quiet));
        assert!(v.needs_exact(m(11.0, 0.0), quiet));
        assert!(v.needs_exact(m(f64::INFINITY, 0.0), quiet));
        // `verify_every: 0` disables the cadence only.
        let never = Verdict::new(&opts(MonitorMode::Maintained { verify_every: 0 }), 1.0);
        assert!(!never.needs_exact(m(0.5, 0.0), at(4, 1, false)));
        assert!(never.needs_exact(m(0.05, 0.0), at(4, 1, false)));
    }
}
