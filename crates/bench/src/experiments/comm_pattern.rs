//! Communication-pattern study (beyond the paper's tables): who talks to
//! whom. Each rank runs inside a counting wrapper that tallies its own
//! puts per target and class, to contrast Block Jacobi's uniform
//! all-neighbors traffic with Distributed Southwell's sparse, shifting
//! pattern, and to report the hottest links.

use crate::harness::{setup_problem, suite_partition, write_csv, ExperimentCtx};
use dsw_core::dist::{
    distribute, BlockJacobiRank, DistributedSouthwellRank, ParallelSouthwellRank,
};
use dsw_rma::{
    ClassCounts, CommClass, CostModel, ExecMode, Executor, Inbox, PhaseCtx, RankAlgorithm,
};
use dsw_sparse::suite::by_name;

/// Per-method traffic summary.
pub struct PatternRow {
    /// Method label.
    pub label: &'static str,
    /// Delivered messages.
    pub delivered: usize,
    /// Share of (src,dst) pairs with any traffic, over all neighbor pairs.
    pub link_utilization: f64,
    /// Maximum messages on a single directed link.
    pub hottest_link: u64,
    /// Solve-class share.
    pub solve_share: f64,
}

/// Runs the inner rank's phase on a capture context, counts each put per
/// target and class, and forwards it unchanged. The study runs without
/// faults, so every counted put is delivered.
struct Tap<R> {
    inner: R,
    /// `(target, puts per class)`, target-ascending.
    links: Vec<(usize, ClassCounts)>,
}

impl<R: RankAlgorithm> Tap<R> {
    fn new(inner: R) -> Self {
        let mut targets = inner.put_targets();
        targets.sort_unstable();
        targets.dedup();
        let links = targets
            .into_iter()
            .map(|t| (t, ClassCounts::default()))
            .collect();
        Tap { inner, links }
    }
}

impl<R: RankAlgorithm> RankAlgorithm for Tap<R> {
    type Msg = R::Msg;

    fn phases(&self) -> usize {
        self.inner.phases()
    }

    fn phase(&mut self, phase: usize, inbox: Inbox<'_, R::Msg>, ctx: &mut PhaseCtx<R::Msg>) {
        let mut cap = PhaseCtx::capture(ctx.rank());
        self.inner.phase(phase, inbox, &mut cap);
        let (outbox, totals) = cap.into_captured();
        ctx.add_flops(totals.flops);
        if totals.relaxations > 0 {
            ctx.record_relaxations(totals.relaxations);
        }
        for (target, env) in outbox {
            let at = self
                .links
                .binary_search_by_key(&target, |&(t, _)| t)
                .expect("put to a declared target");
            self.links[at].1.add(env.class, 1);
            ctx.put(target, env.class, env.payload, env.bytes);
        }
    }

    fn put_targets(&self) -> Vec<usize> {
        self.inner.put_targets()
    }
}

fn run_one<R>(label: &'static str, ranks: Vec<R>, steps: usize, npairs: usize) -> PatternRow
where
    R: RankAlgorithm,
{
    let taps = ranks.into_iter().map(Tap::new).collect();
    let mut ex = Executor::new(taps, CostModel::default(), ExecMode::Sequential);
    for _ in 0..steps {
        ex.step();
    }
    let links = || ex.ranks().iter().flat_map(|tap| tap.links.iter());
    let delivered: u64 = links().map(|(_, c)| c.total()).sum();
    let solve: u64 = links().map(|(_, c)| c.of(CommClass::Solve)).sum();
    let used = links().filter(|(_, c)| c.total() > 0).count();
    let hottest = links().map(|(_, c)| c.total()).max().unwrap_or(0);
    PatternRow {
        label,
        delivered: delivered as usize,
        link_utilization: used as f64 / npairs.max(1) as f64,
        hottest_link: hottest,
        solve_share: solve as f64 / delivered.max(1) as f64,
    }
}

/// Runs the study on the msdoor stand-in.
pub fn run_comm_pattern(ctx: &ExperimentCtx) -> Vec<PatternRow> {
    let e = by_name("msdoor").expect("suite matrix");
    let a = ctx.build_suite_matrix(&e);
    let prob = setup_problem(a, 55);
    let p = ctx.scaled_ranks();
    let part = suite_partition(&prob.a, p, 1);
    let locals = distribute(&prob.a, &prob.b, &prob.x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = prob.a.residual(&prob.b, &prob.x0);
    // Directed neighbor-pair count.
    let npairs: usize = locals.iter().map(|l| l.neighbors.len()).sum();
    let steps = 25;

    let rows = vec![
        run_one("BJ", BlockJacobiRank::build(locals.clone()), steps, npairs),
        run_one(
            "PS",
            ParallelSouthwellRank::build(locals.clone(), &norms),
            steps,
            npairs,
        ),
        run_one(
            "DS",
            DistributedSouthwellRank::build(locals, &norms, &r0),
            steps,
            npairs,
        ),
    ];

    println!("\n=== comm — traffic pattern over {steps} steps (msdoor, {p} ranks) ===");
    println!(
        "{:<4} {:>10} {:>12} {:>12} {:>12}",
        "", "delivered", "link util", "hottest", "solve share"
    );
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{:<4} {:>10} {:>12.3} {:>12} {:>12.3}",
            r.label, r.delivered, r.link_utilization, r.hottest_link, r.solve_share
        );
        csv.push(vec![
            r.label.to_string(),
            r.delivered.to_string(),
            format!("{:.4}", r.link_utilization),
            r.hottest_link.to_string(),
            format!("{:.4}", r.solve_share),
        ]);
    }
    write_csv(
        &ctx.out_dir,
        "comm_pattern",
        &[
            "method",
            "delivered",
            "link_utilization",
            "hottest_link",
            "solve_share",
        ],
        &csv,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bj_saturates_links_and_ds_does_not() {
        let ctx = ExperimentCtx::smoke();
        let rows = run_comm_pattern(&ctx);
        let bj = &rows[0];
        let ds = &rows[2];
        // BJ sends on every neighbor link every step.
        assert!(
            bj.link_utilization > 0.999,
            "BJ util {}",
            bj.link_utilization
        );
        assert_eq!(bj.solve_share, 1.0);
        // DS delivers far fewer messages over the same steps.
        assert!(
            (ds.delivered as f64) < 0.6 * bj.delivered as f64,
            "DS {} !< BJ {}",
            ds.delivered,
            bj.delivered
        );
    }
}
