//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md for the experiment index and EXPERIMENTS.md
//! for paper-vs-measured numbers).
//!
//! Run the full set with
//! `cargo run --release -p dsw-bench --bin experiments -- all`
//! or a single experiment by id (`fig2`, `table2`, …). Output goes to the
//! terminal as aligned text tables and, for every experiment, as CSV files
//! under `results/`.

pub mod chart;
pub mod check;
pub mod experiments;
pub mod harness;

pub use harness::{
    setup_problem, suite_partition, write_csv, ExperimentCtx, Problem, DEFAULT_RANKS,
};
