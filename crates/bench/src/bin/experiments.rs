//! CLI entry point regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [--scale F] [--ranks N] [--steps K] [--out DIR] <ids...>
//!   ids: fig1 fig2 fig5 fig6 fig6_dist table1 table2 table3 table4 fig7 fig8 fig9
//!        ablation threshold comm chaos async redundancy serve multirhs all smoke
//! experiments check DIR
//! ```
//!
//! `check DIR` compares every CSV in `DIR` with its namesake in
//! `results/`, skipping only the columns its experiment declares measured
//! ([`dsw_bench::check`]), and names the first differing cell.

use dsw_bench::experiments::fig2::{run_fig2, run_fig5};
use dsw_bench::experiments::fig6::run_fig6;
use dsw_bench::experiments::fig6_dist::run_fig6_dist;
use dsw_bench::experiments::fig7::{self, FIG7_MATRICES};
use dsw_bench::experiments::scaling::run_scaling;
use dsw_bench::experiments::suite_tables::{suite_runs, table2, table3, table4};
use dsw_bench::experiments::{ablation, table1};
use dsw_bench::harness::ExperimentCtx;
use std::path::{Path, PathBuf};

/// The parsed command line: the context every experiment but `smoke`
/// runs under, the `--out` directory if one was given, and the ids.
struct Cli {
    ctx: ExperimentCtx,
    out: Option<PathBuf>,
    ids: Vec<String>,
}

impl Cli {
    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut ctx = ExperimentCtx::default();
        let mut out = None;
        let mut ids = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    ctx.scale = it.next().expect("--scale F").parse().expect("float scale")
                }
                "--ranks" => {
                    ctx.ranks = it
                        .next()
                        .expect("--ranks N")
                        .parse()
                        .expect("integer ranks")
                }
                "--steps" => {
                    ctx.max_steps = it
                        .next()
                        .expect("--steps K")
                        .parse()
                        .expect("integer steps")
                }
                "--out" => out = Some(PathBuf::from(it.next().expect("--out DIR"))),
                _ => ids.push(a),
            }
        }
        if let Some(dir) = &out {
            ctx.out_dir = dir.clone();
        }
        Cli { ctx, out, ids }
    }
}

/// The smoke context: its own scale and rank count, writing to `out`
/// (the `--out` directory) when given and to the temporary directory
/// otherwise, so a smoke run never overwrites `results/`.
fn smoke_ctx(out: Option<&Path>) -> ExperimentCtx {
    let mut sctx = ExperimentCtx::smoke();
    if let Some(dir) = out {
        sctx.out_dir = dir.to_path_buf();
    }
    sctx
}

fn main() {
    let Cli { ctx, out, ids } = Cli::parse(std::env::args().skip(1));
    if let [check, dir] = &ids[..] {
        if check == "check" {
            let reference = ExperimentCtx::default().out_dir;
            match dsw_bench::check::check_dir(Path::new(dir), &reference) {
                Ok(n) => println!("compared {n} CSVs with {}", reference.display()),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
            return;
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments [--scale F] [--ranks N] [--steps K] [--out DIR] <ids...>\n\
             ids: fig1 fig2 fig5 fig6 fig6_dist table1 table2 table3 table4 fig7 fig8 fig9\n\
                  ablation threshold comm chaos async redundancy serve multirhs all smoke\n\
             experiments check DIR"
        );
        std::process::exit(2);
    }

    let mut scaling_written = false;
    for id in ids {
        match id.as_str() {
            "fig1" | "fig3" => {
                dsw_bench::experiments::fig1::run_fig1(&ctx);
            }
            "fig2" => {
                run_fig2(&ctx);
            }
            "fig5" => {
                run_fig5(&ctx);
            }
            "fig6" => {
                run_fig6(&ctx);
            }
            "fig6_dist" => {
                run_fig6_dist(&ctx);
            }
            "table1" => {
                table1::run_table1(&ctx);
            }
            "table2" | "table3" | "table4" | "tables" => {
                let runs = suite_runs(&ctx);
                match id.as_str() {
                    "table2" => table2(&ctx, &runs),
                    "table3" => table3(&ctx, &runs),
                    "table4" => table4(&ctx, &runs),
                    _ => {
                        table2(&ctx, &runs);
                        table3(&ctx, &runs);
                        table4(&ctx, &runs);
                    }
                }
            }
            "fig7" => {
                fig7::run_fig7(&ctx);
            }
            // One sweep writes both figures' CSVs.
            "fig8" | "fig9" => {
                if !scaling_written {
                    run_scaling(&ctx);
                    scaling_written = true;
                }
            }
            "ablation" => {
                ablation::run_ablation(&ctx);
            }
            "threshold" => {
                dsw_bench::experiments::threshold::run_threshold(&ctx);
            }
            "comm" => {
                dsw_bench::experiments::comm_pattern::run_comm_pattern(&ctx);
            }
            "chaos" => {
                dsw_bench::experiments::chaos::run_chaos(&ctx);
            }
            "async" => {
                dsw_bench::experiments::async_convergence::run_async_convergence(&ctx);
            }
            "redundancy" => {
                dsw_bench::experiments::redundancy::run_redundancy(&ctx);
            }
            "serve" => {
                dsw_bench::experiments::serve::run_serve(&ctx);
            }
            "multirhs" => {
                dsw_bench::experiments::multirhs::run_multirhs(&ctx);
            }
            "all" => {
                dsw_bench::experiments::fig1::run_fig1(&ctx);
                run_fig2(&ctx);
                run_fig5(&ctx);
                run_fig6(&ctx);
                run_fig6_dist(&ctx);
                table1::run_table1(&ctx);
                let runs = suite_runs(&ctx);
                table2(&ctx, &runs);
                table3(&ctx, &runs);
                table4(&ctx, &runs);
                let panels: Vec<_> = runs
                    .into_iter()
                    .filter(|r| FIG7_MATRICES.contains(&r.name))
                    .collect();
                fig7::emit(&ctx, &panels);
                run_scaling(&ctx);
                ablation::run_ablation(&ctx);
                dsw_bench::experiments::threshold::run_threshold(&ctx);
                dsw_bench::experiments::comm_pattern::run_comm_pattern(&ctx);
                dsw_bench::experiments::chaos::run_chaos(&ctx);
                dsw_bench::experiments::async_convergence::run_async_convergence(&ctx);
                dsw_bench::experiments::redundancy::run_redundancy(&ctx);
                dsw_bench::experiments::serve::run_serve(&ctx);
                dsw_bench::experiments::multirhs::run_multirhs(&ctx);
            }
            "smoke" => {
                let sctx = smoke_ctx(out.as_deref());
                run_fig2(&sctx);
                run_fig5(&sctx);
                run_fig6(&sctx);
                run_fig6_dist(&sctx);
                table1::run_table1(&sctx);
                let runs = suite_runs(&sctx);
                table2(&sctx, &runs);
                table3(&sctx, &runs);
                table4(&sctx, &runs);
                ablation::run_ablation(&sctx);
            }
            other => {
                eprintln!("unknown experiment id: {other}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn smoke_writes_to_out_when_given() {
        let cli = parse(&["--out", "some/dir", "smoke"]);
        assert_eq!(cli.ids, ["smoke"]);
        let sctx = smoke_ctx(cli.out.as_deref());
        assert_eq!(sctx.out_dir, PathBuf::from("some/dir"));
        let default = ExperimentCtx::smoke();
        assert_eq!((sctx.scale, sctx.ranks), (default.scale, default.ranks));
        assert_eq!(cli.ctx.out_dir, PathBuf::from("some/dir"));
    }

    #[test]
    fn smoke_without_out_stays_in_the_temp_dir() {
        let cli = parse(&["--scale", "0.5", "smoke"]);
        let sctx = smoke_ctx(cli.out.as_deref());
        assert_eq!(sctx.out_dir, ExperimentCtx::smoke().out_dir);
        assert_ne!(sctx.out_dir, PathBuf::from("results"));
        assert_eq!(cli.ctx.out_dir, PathBuf::from("results"));
        assert_eq!(cli.ctx.scale, 0.5);
    }
}
