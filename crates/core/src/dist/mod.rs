//! Block (subdomain) solvers on the simulated one-sided RMA substrate —
//! Algorithms 1–3 of the paper.
//!
//! * [`layout`] — partitioning a system over ranks, ghost maps, the local
//!   Gauss–Seidel sweep,
//! * [`block_jacobi`] — Algorithm 1,
//! * [`parallel_southwell`] — Algorithm 2 (and the deadlock-prone ICCS'16
//!   piggyback-only variant),
//! * [`distributed_southwell`] — Algorithm 3, the paper's contribution,
//! * [`driver`] — the run loop with out-of-band residual measurement and
//!   the per-step records every table and figure of the evaluation is
//!   built from; its convergence / deadlock / divergence rule is one
//!   crate-private `Verdict` shared by every loop,
//! * [`seq`] / [`recovery`] — the fault-tolerant delivery and protocol
//!   self-healing layer this reproduction adds for unreliable transports
//!   (sequence numbers, periodic invariant audits, freeze watchdog),
//! * [`session`] — persistent solve sessions: warm-started repeated
//!   solves with evolving right-hand sides, the building block of the
//!   `dsw-serve` multi-tenant serving layer.

pub mod block_jacobi;
pub mod distributed_southwell;
pub mod driver;
pub mod layout;
pub mod local_solver;
pub mod msg;
pub mod panel;
pub mod parallel_southwell;
pub mod recovery;
pub mod seq;
pub mod session;
mod verdict;

pub use block_jacobi::{BjMsg, BlockJacobiRank};
pub use distributed_southwell::{DistributedSouthwellRank, DsConfig};
pub use driver::{
    drive, run_method, DistOptions, DistReport, ExecBackend, Method, MonitorMode, StepRecord,
};
pub use layout::{distribute, gather_r, gather_x, LocalSystem};
pub use local_solver::{LocalSolver, LocalSolverImpl};
pub use msg::{DistMsg, SeqMsg};
pub use panel::PanelRun;
pub use parallel_southwell::ParallelSouthwellRank;
pub use recovery::{Recoverable, RecoveryConfig};
pub use seq::{SeqIn, SeqVerdict};
pub use session::{SolveSession, TenantSession, WarmStart};

/// Re-exported so callers can request a coded placement
/// ([`DistOptions::redundancy`](driver::DistOptions)) without depending on
/// `dsw-partition` directly.
pub use dsw_partition::{Redundancy, ReplicaMap};

/// The §4.2 freeze instance's partition: 16×16 Poisson over 8 parts, read
/// from a part map (one row of 16 digits per grid row). The deadlock tests
/// pin it so that whether their instance freezes does not depend on the
/// partitioner.
#[cfg(test)]
pub(crate) fn freeze_partition() -> dsw_partition::Partition {
    let map = include_str!("../../../../tests/fixtures/freeze_16x16_8parts.map");
    let assignment = map
        .split_whitespace()
        .flat_map(str::bytes)
        .map(|d| usize::from(d - b'0'))
        .collect();
    dsw_partition::Partition::new(8, assignment)
}
