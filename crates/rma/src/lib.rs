//! A simulated one-sided RMA substrate.
//!
//! The paper implements its solvers with MPI-3 one-sided semantics: each
//! process exposes a *memory window*; during an *access epoch*
//! (`MPI_Win_post/start … MPI_Win_complete/wait`) origin processes `MPI_Put`
//! data into target windows, and the data is guaranteed visible only after
//! the epoch closes. Algorithms 1–3 of the paper are therefore structured as
//! *parallel steps*, each containing one or two communication epochs with
//! computation between them.
//!
//! This crate reproduces those semantics exactly, without real MPI:
//!
//! * a [`RankAlgorithm`] implements the per-process program as a sequence of
//!   *phases* per parallel step; puts issued during phase `k` land in the
//!   target's window slots (one per `(origin, target)` edge, in one of two
//!   generations), and targets read them there, as an [`Inbox`], in phase
//!   `k + 1` — never earlier, which is the one-sided visibility rule. The
//!   epoch close between the two moves no message unless a fault or a
//!   skipped target needs it to;
//! * the [`Executor`] runs all ranks phase-by-phase, either sequentially or
//!   on its persistent `WorkerPool` ([`ExecMode`]); both modes produce
//!   bit-identical results because ranks only interact through the epoch
//!   boundary;
//! * the same executor runs the asynchronous regime: built with a schedule
//!   ([`Executor::scheduled`], [`AsyncOptions`]), each step is one epoch in
//!   which only the picked ranks run, each at its own phase clock, and
//!   the one epoch close routes, injects faults and charges modelled time
//!   exactly as in lock-step;
//! * every put is counted, per rank and per [`CommClass`] — message counts
//!   are the paper's primary communication metric ("total number of
//!   messages sent by all processes divided by the number of processes")
//!   and Table 3 splits them into solve vs. explicit-residual classes;
//! * wall-clock time is *modelled* with an α–β–γ [`CostModel`] (latency per
//!   message, inverse bandwidth per byte, time per flop, plus a per-epoch
//!   synchronization charge), since the simulator is not a supercomputer.
//!   Per phase the charge is `sync + γ·max_p flops + α·Σmsgs/P +
//!   β·Σbytes/P`: the slowest rank gates the computation, while message
//!   and byte volume are charged at the per-rank average.

// `unwrap()` is banned in non-test code (clippy `disallowed-methods`, see
// clippy.toml): use `expect` naming the invariant, or propagate the error.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
// `HashMap` is banned too (clippy `disallowed-types`): index by dense ids
// with arrays and stamps, as `dist::distribute` does.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

pub mod async_exec;
pub mod executor;
pub mod fault;
pub mod panel;
pub(crate) mod pool;
pub mod redundancy;
pub mod stats;

pub use async_exec::AsyncOptions;
pub use executor::{
    CaptureTotals, CloseMode, Envelope, ExecMode, Executor, Inbox, PhaseCtx, RankAlgorithm,
};
pub use fault::{ChaosConfig, Fate, FaultInjector};
pub use panel::{
    FlushFn, FusedPanel, FusedPhaseFn, PanelMsg, PanelPart, PanelPhaseCtx, PanelRank,
    PANEL_HEADER_BYTES, PANEL_MAX_COLS, PANEL_PART_TAG_BYTES,
};
pub use pool::{PoolStats, SharedPool};
pub use redundancy::{CodedMsg, RedundantHost};
pub use stats::{ClassCounts, CommClass, CostModel, FaultStats, MonitorStats, RunStats, StepStats};
