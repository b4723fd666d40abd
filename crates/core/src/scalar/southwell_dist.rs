//! The Distributed Southwell method, scalar form (§3, Figure 5, and the
//! multigrid smoother of §4.1).
//!
//! Each row plays the role of a process. Row `i` keeps, for every neighbor
//! `j`:
//!
//! * `z(i→j)` — its *estimate of the residual* `r_j` (the scalar form of the
//!   ghost residual layer). When `i` relaxes by `δ`, it refines
//!   `z(i→j) −= a_ij·δ` locally, **without communication** — the exact
//!   contribution its relaxation makes to `r_j`.
//! * `t(i→j)` — its record of *what `j` currently believes `r_i` is*
//!   (the scalar form of `Γ̃`). The paper's key claim is that this record is
//!   always exact, because `j`'s belief only changes through messages that
//!   either originate at `i` or are carried to `i` in `j`'s next message.
//!   The implementation `debug_assert`s this invariant.
//!
//! Row `i` relaxes when `|r_i|` beats every estimate `|z(i→j)|`
//! (rank-id tie-break). Because the estimates are inexact, coupled rows may
//! occasionally relax together — the behaviour the paper observes as "more
//! equations relaxed per parallel step". Deadlock — every row believing a
//! neighbor is larger — is averted in a second phase: if `|r_i| < |t(i→j)|`,
//! row `i` sends `j` an explicit residual update (a `Res comm` message).

use super::{beats, ScalarOptions, ScalarState};
use crate::ScalarHistory;
use dsw_sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Result of a scalar Distributed Southwell run.
#[derive(Debug, Clone)]
pub struct DsScalarReport {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Convergence history (per parallel step).
    pub history: ScalarHistory,
    /// Messages a distributed implementation would send for relaxation
    /// updates (one per relaxing row per neighbor).
    pub solve_msgs: u64,
    /// Explicit residual-update (deadlock-avoidance) messages.
    pub res_msgs: u64,
    /// Parallel steps in which no row relaxed (deadlock was being resolved).
    pub idle_steps: u64,
    /// The run was cut short because the residual exploded. In scalar form
    /// a relaxed row piggybacks a residual of exactly zero, so on strongly
    /// coupled systems the selection can widen until the method behaves
    /// like (divergent) Jacobi — the degradation mechanism behind the
    /// paper's remark that "convergence is at risk" when coupled equations
    /// relax simultaneously.
    pub diverged: bool,
}

/// Directed-edge bookkeeping aligned with the CSR off-diagonal entries.
struct EdgeState {
    /// For CSR entry `k = (i → j)`, the position of the reciprocal entry
    /// `(j → i)`; `usize::MAX` for diagonal entries.
    recip: Vec<usize>,
    /// `z[k]`: the signed estimate row `i` holds of `r_j` (diagonal slots
    /// unused).
    z: Vec<f64>,
    /// `t[k]`: row `i`'s record of the signed estimate `j` holds of `r_i`.
    /// Invariant: `t[k] == z[recip[k]]`.
    t: Vec<f64>,
}

impl EdgeState {
    fn new(a: &CsrMatrix, r: &[f64]) -> Self {
        let nnz = a.nnz();
        let mut recip = vec![usize::MAX; nnz];
        let mut z = vec![0.0; nnz];
        let mut t = vec![0.0; nnz];
        for i in 0..a.nrows() {
            let base = a.row_ptr()[i];
            for (off, &j) in a.row_cols(i).iter().enumerate() {
                if j == i {
                    continue;
                }
                let k = base + off;
                let pos = a
                    .row_cols(j)
                    .binary_search(&i)
                    .expect("matrix must be structurally symmetric");
                recip[k] = a.row_ptr()[j] + pos;
                // Setup exchange: all estimates start exact.
                z[k] = r[j];
                t[k] = r[i];
            }
        }
        EdgeState { recip, z, t }
    }

    #[cfg(debug_assertions)]
    fn check_gamma_tilde_invariant(&self) {
        for k in 0..self.recip.len() {
            let rk = self.recip[k];
            if rk != usize::MAX {
                debug_assert!(
                    self.t[k] == self.z[rk],
                    "Γ̃ invariant violated at edge {k}: t={} z_recip={}",
                    self.t[k],
                    self.z[rk]
                );
            }
        }
    }
}

/// The row that owns CSR position `k`.
#[inline]
fn edge_row(a: &CsrMatrix, k: usize) -> usize {
    a.row_ptr().partition_point(|&p| p <= k) - 1
}

/// Runs scalar Distributed Southwell. `opts.max_relaxations` is honored
/// *exactly*: if the final step selects more rows than the remaining
/// budget, a random subset is relaxed (seeded by `opts.seed`), as the paper
/// does for its multigrid comparison ("a random subset of the rows selected
/// to be relaxed are actually relaxed").
pub fn distributed_southwell_scalar(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &ScalarOptions,
) -> DsScalarReport {
    let n = a.nrows();
    let mut st = ScalarState::new(a, b, x0, opts);
    let mut edges = EdgeState::new(a, &st.r);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut solve_msgs = 0u64;
    let mut res_msgs = 0u64;
    let mut idle_steps = 0u64;
    let mut diverged = false;
    let mut selected: Vec<usize> = Vec::new();
    let mut deltas: Vec<f64> = Vec::new();
    let initial_norm = st.residual_norm();

    loop {
        if st.relaxations >= opts.max_relaxations {
            break;
        }
        // ---- Phase A: selection against local estimates, relax, "send". --
        selected.clear();
        'rows: for i in 0..n {
            let mine = st.r[i].abs();
            if mine == 0.0 {
                continue;
            }
            let base = a.row_ptr()[i];
            for (off, &j) in a.row_cols(i).iter().enumerate() {
                if j != i && !beats(mine, i, edges.z[base + off].abs(), j) {
                    continue 'rows;
                }
            }
            selected.push(i);
        }

        // Exact relaxation budget: subsample the final step if needed.
        let remaining = (opts.max_relaxations - st.relaxations) as usize;
        if selected.len() > remaining {
            selected.shuffle(&mut rng);
            selected.truncate(remaining);
            selected.sort_unstable();
        }

        if selected.is_empty() {
            idle_steps += 1;
        } else {
            // Snapshot deltas, then apply all true-residual updates.
            deltas.clear();
            deltas.extend(selected.iter().map(|&i| st.r[i] / a.get(i, i)));
            let mut is_selected = vec![false; n];
            for &i in &selected {
                is_selected[i] = true;
            }
            for (&i, &delta) in selected.iter().zip(&deltas) {
                st.x[i] += delta;
                st.relaxations += 1;
                for (j, aij) in a.row(i) {
                    st.r[j] -= aij * delta;
                }
            }
            // Send pass: every sender refines its own estimates (the exact
            // contribution of its relaxation, no communication needed) and
            // records the piggyback it sends. Sender i's own view of r_i
            // after its relax is exactly 0 — it cannot yet see simultaneous
            // neighbors' updates.
            for (&i, &delta) in selected.iter().zip(&deltas) {
                let base = a.row_ptr()[i];
                for (off, &j) in a.row_cols(i).iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let k = base + off;
                    let aij = a.row_values(i)[off];
                    edges.z[k] -= aij * delta;
                    edges.t[k] = 0.0; // i records the piggyback it sends to j
                    solve_msgs += 1;
                }
            }
            // Delivery pass (epoch close): the message i -> j carries the
            // piggyback r_i = 0 and i's refined estimate of r_j. The
            // receiver overwrites its estimate of the sender with the
            // piggyback unconditionally; it takes the sender's estimate
            // field only if it did not itself send to the sender this step
            // (otherwise its own piggyback is the sender's last word).
            for &i in &selected {
                let base = a.row_ptr()[i];
                for (off, &j) in a.row_cols(i).iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let k = base + off;
                    let rk = edges.recip[k];
                    edges.z[rk] = 0.0;
                    if !is_selected[j] {
                        edges.t[rk] = edges.z[k];
                    }
                }
            }
        }

        // ---- Phase B: deadlock detection / explicit residual updates. ----
        // Decide all sends against the post-phase-A state, then deliver,
        // so crossing explicit updates are handled symmetrically.
        let mut to_send: Vec<usize> = Vec::new(); // edge positions (i -> j)
        for i in 0..n {
            let cur = st.r[i].abs();
            let base = a.row_ptr()[i];
            for (off, &j) in a.row_cols(i).iter().enumerate() {
                if j != i {
                    let k = base + off;
                    if cur < edges.t[k].abs() {
                        // Neighbor j overestimates |r_i|: possible deadlock.
                        to_send.push(k);
                    }
                }
            }
        }
        let sent_b: std::collections::HashSet<usize> = to_send.iter().copied().collect();
        for &k in &to_send {
            let i = edge_row(a, k);
            let rk = edges.recip[k];
            let cur = st.r[i];
            edges.t[k] = cur; // i records the piggyback it sends
            edges.z[rk] = cur; // j's estimate of r_i corrected
            if !sent_b.contains(&rk) {
                edges.t[rk] = edges.z[k]; // j learns i's estimate of r_j
            }
            res_msgs += 1;
        }
        #[cfg(debug_assertions)]
        edges.check_gamma_tilde_invariant();

        let norm = st.end_parallel_step();
        if let Some(t) = opts.target_residual {
            if norm <= t {
                break;
            }
        }
        if norm == 0.0 {
            break;
        }
        if !norm.is_finite() || norm > 1e12 * initial_norm.max(1e-300) {
            diverged = true;
            break;
        }
    }

    let (x, history) = st.finish();
    DsScalarReport {
        x,
        history,
        solve_msgs,
        res_msgs,
        idle_steps,
        diverged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::test_support::{error_norm, poisson_system};

    #[test]
    fn ds_scalar_converges_on_poisson() {
        let (a, b, x_true) = poisson_system(8, 8);
        let n = a.nrows();
        let opts = ScalarOptions {
            max_relaxations: 500 * n as u64,
            target_residual: Some(1e-9),
            record_stride: 1,
            seed: 1,
        };
        let rep = distributed_southwell_scalar(&a, &b, &vec![0.0; n], &opts);
        assert!(rep.history.final_residual <= 1e-9);
        assert!(error_norm(&rep.x, &x_true) < 1e-7);
        assert!(rep.solve_msgs > 0);
    }

    #[test]
    fn ds_scalar_degrades_to_jacobi_on_strong_coupling() {
        // Documented corner of the *scalar* form: a relaxed row piggybacks
        // r_i = 0, so estimates ratchet downward and the selection widens
        // until every row relaxes every step — i.e. Jacobi — which diverges
        // on strongly coupled cliques. (The block form does not degenerate:
        // a subdomain sweep leaves a nonzero norm. The paper only uses the
        // scalar form on Poisson-type problems, Figs. 5–6.)
        let mut a = dsw_sparse::gen::clique_grid2d(
            8,
            8,
            dsw_sparse::gen::CliqueOptions {
                coupling: 0.8,
                weight_jump: 0.0,
                seed: 0,
                hot_fraction: 0.0,
                hot_coupling: 0.0,
            },
        );
        a.scale_unit_diagonal().unwrap();
        let n = a.nrows();
        let b = vec![0.0; n];
        let x0 = dsw_sparse::gen::random_guess(n, 3);
        let opts = ScalarOptions {
            max_relaxations: 3000 * n as u64,
            target_residual: Some(1e-8),
            record_stride: 1,
            seed: 0,
        };
        let rep = distributed_southwell_scalar(&a, &b, &x0, &opts);
        assert!(rep.diverged, "expected the documented Jacobi degeneration");
        // The widened selection is visible as near-n relaxations per step.
        let last_steps: Vec<u64> = rep
            .history
            .step_boundaries
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        assert!(*last_steps.last().unwrap() as usize >= n / 2);
    }

    #[test]
    fn ds_scalar_never_deadlocks_and_budget_exact() {
        let (a, b, _) = poisson_system(10, 10);
        let n = a.nrows() as u64;
        for budget in [n / 2, n, 3 * n + 17] {
            let opts = ScalarOptions {
                max_relaxations: budget,
                target_residual: None,
                record_stride: 1,
                seed: 7,
            };
            let rep = distributed_southwell_scalar(&a, &b, &vec![0.0; 100], &opts);
            assert_eq!(
                rep.history.total_relaxations, budget,
                "exact budget must be honored"
            );
        }
    }

    #[test]
    fn ds_relaxes_more_rows_per_step_than_ps() {
        // §3 / Fig. 5: with inexact estimates, Distributed Southwell relaxes
        // more equations per parallel step than Parallel Southwell.
        let a = dsw_sparse::gen::fe::fe_poisson(dsw_sparse::gen::fe::FeMeshOptions {
            nx: 24,
            ny: 24,
            jitter: 0.25,
            seed: 1,
        });
        let n = a.nrows();
        let b = dsw_sparse::gen::random_rhs(n, 7);
        let opts = ScalarOptions {
            max_relaxations: 2 * n as u64,
            target_residual: None,
            record_stride: 1,
            seed: 0,
        };
        let x0 = vec![0.0; n];
        let rep = distributed_southwell_scalar(&a, &b, &x0, &opts);
        let (_, hp) = crate::scalar::parallel_southwell(&a, &b, &x0, &opts);
        let ds_per_step =
            rep.history.total_relaxations as f64 / rep.history.parallel_steps() as f64;
        let ps_per_step = hp.total_relaxations as f64 / hp.parallel_steps() as f64;
        assert!(
            ds_per_step > ps_per_step,
            "DS {ds_per_step} rows/step !> PS {ps_per_step}"
        );
    }

    #[test]
    fn ds_tracks_ps_convergence_at_low_accuracy() {
        // Fig. 5: DS closely matches PS down to residual ~0.6.
        let a = dsw_sparse::gen::fe::fe_poisson(dsw_sparse::gen::fe::FeMeshOptions {
            nx: 24,
            ny: 24,
            jitter: 0.25,
            seed: 1,
        });
        let n = a.nrows();
        let b = dsw_sparse::gen::random_rhs(n, 7);
        let opts = ScalarOptions {
            max_relaxations: 3 * n as u64,
            target_residual: None,
            record_stride: 1,
            seed: 0,
        };
        let x0 = vec![0.0; n];
        let rep = distributed_southwell_scalar(&a, &b, &x0, &opts);
        let (_, hp) = crate::scalar::parallel_southwell(&a, &b, &x0, &opts);
        let ds = rep.history.relaxations_to_reach(0.6).unwrap();
        let ps = hp.relaxations_to_reach(0.6).unwrap();
        assert!(
            ds < 1.5 * ps,
            "DS should track PS at low accuracy: DS {ds}, PS {ps}"
        );
    }

    #[test]
    fn one_isolated_row_system() {
        let a = CsrMatrix::from_parts(1, 1, vec![0, 1], vec![0], vec![1.0]).unwrap();
        let opts = ScalarOptions {
            max_relaxations: 10,
            target_residual: None,
            record_stride: 1,
            seed: 0,
        };
        let rep = distributed_southwell_scalar(&a, &[3.0], &[0.0], &opts);
        assert_eq!(rep.x, vec![3.0]);
        assert_eq!(rep.solve_msgs, 0);
        assert_eq!(rep.res_msgs, 0);
    }
}
