//! Every workload on a tiny seeded instance: the checks pass, the
//! reports repeat bit for bit (also when traced), and every metric is
//! measured.

mod common;

use dsw_perfbench::metrics::{result_json, END_TO_END, PER_LAYER};
use dsw_perfbench::{run, Outcome, RunConfig, Size, Workload};

/// Metrics that are counts, exact across runs of one seed.
const EXACT: &[&str] = &[
    "msgs_per_rank",
    "steps",
    "modelled_s",
    "partition.edge_cut",
    "exec.msgs_per_step",
    "exec.bytes_per_step",
    "exec.active_frac",
    "monitor.verifications_per_solve",
    "serve.max_queue_depth",
    "panel.steps_per_batch",
    "panel.column_efficiency",
];

fn tiny(w: Workload, trace: bool) -> Outcome {
    let out = run(
        w,
        Size::Tiny,
        &RunConfig {
            seed: 7,
            seconds: 0.0,
            trace,
        },
    );
    assert!(out.attempted > 0, "{}: nothing ran", w.name());
    assert_eq!(
        out.failed,
        0,
        "{} (trace {trace}): {:?}",
        w.name(),
        out.failures
    );
    out
}

#[test]
fn tiny_workloads_repeat_exactly_and_measure_every_metric() {
    for w in Workload::ALL {
        let (a, b, traced) = (tiny(w, false), tiny(w, false), tiny(w, true));
        assert_eq!(
            a.digest,
            b.digest,
            "{}: reports differ between runs",
            w.name()
        );
        assert_eq!(
            a.digest,
            traced.digest,
            "{}: tracing changed the reports",
            w.name()
        );
        for key in EXACT {
            assert_eq!(
                a.values.get(key),
                b.values.get(key),
                "{}: {key} differs",
                w.name()
            );
            assert_eq!(
                a.values.get(key),
                traced.values.get(key),
                "{}: {key} differs",
                w.name()
            );
        }
        for d in END_TO_END {
            let v = a.values.get(d.name).copied();
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: {} = {v:?}",
                w.name(),
                d.name
            );
        }
        for (name, v) in &traced.values {
            let known = PER_LAYER.iter().chain(END_TO_END).any(|d| d.name == *name);
            assert!(known, "{}: unlisted metric {name}", w.name());
            assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        }
        assert!(
            !traced.tracer.is_empty(),
            "{}: the traced run recorded no spans",
            w.name()
        );
        assert!(
            a.tracer.is_empty(),
            "{}: the untraced run recorded spans",
            w.name()
        );
    }
}

#[test]
fn result_line_has_the_contract_shape() {
    let out = tiny(Workload::Serve128, false);
    let line = result_json(true, out.attempted, out.failed, END_TO_END, &out.values);
    let json = common::parse(&line);
    assert_eq!(json.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(json.get("correct"), &common::Json::Bool(true));
    assert_eq!(json.get("attempted").num(), out.attempted as f64);
    let metrics = json.get("metrics");
    assert_eq!(metrics.keys().len(), END_TO_END.len());
    for d in END_TO_END {
        let m = metrics.get(d.name);
        assert_eq!(m.keys(), ["unit", "value"]);
        assert_eq!(m.get("unit").str(), d.unit);
        assert_eq!(m.get("value").num(), out.values[d.name]);
    }
}
