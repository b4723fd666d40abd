//! One module per table/figure of the paper's evaluation.
//!
//! | id     | reproduces                                             |
//! |--------|--------------------------------------------------------|
//! | fig2   | scalar convergence of GS/SW/ParSW/MC-GS/Jacobi          |
//! | fig5   | scalar Distributed Southwell vs the others              |
//! | fig6   | multigrid smoothing, grids 15–255                       |
//! | table1 | the test-matrix inventory (stand-ins)                   |
//! | table2 | DS vs PS vs BJ to ‖r‖ = 0.1 at fixed ranks              |
//! | table3 | communication breakdown (solve vs explicit residual)    |
//! | table4 | per-parallel-step cost over 50 steps                    |
//! | fig7   | residual vs time/comm/steps for 4 contrasting matrices  |
//! | fig8   | strong scaling: time to ‖r‖ = 0.1 vs rank count         |
//! | fig9   | residual after 50 steps vs rank count                   |
//! | ablation | deadlock-avoidance and ghost-refinement ablations     |
//! | chaos  | DS on an unreliable transport, recovery off vs on       |
//! | async  | DS vs PS vs BJ on the asynchronous backend (lag × skew) |
//! | redundancy | coded block placement r ∈ {1,2,3} × straggler skew  |
//! | serve  | multiplexed tenants on one pool vs serialized rebuilds  |
//! | multirhs | fused k-column panel solves vs k sequential warm solves |
//! | fig6_dist | fig6 with the V-cycle on the distributed substrate    |

pub mod ablation;
pub mod async_convergence;
pub mod chaos;
pub mod comm_pattern;
pub mod fig1;
pub mod fig2;
pub mod fig6;
pub mod fig6_dist;
pub mod fig7;
pub mod multirhs;
pub mod redundancy;
pub mod scaling;
pub mod serve;
pub mod suite_tables;
pub mod table1;
pub mod threshold;

pub use scaling::run_scaling;
pub use suite_tables::{run_table2, run_table3, run_table4};
