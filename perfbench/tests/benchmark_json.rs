//! `BENCHMARK.json` at the repository root declares exactly the
//! workloads and metrics (names and units) this package runs and emits.

mod common;

use dsw_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use dsw_perfbench::Workload;

fn benchmark_json() -> common::Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    common::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn declared(json: &common::Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn declared_metrics_are_the_emitted_ones() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), table(PER_LAYER));
}

#[test]
fn declared_workloads_are_the_runnable_ones() {
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let runnable: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, runnable);
}

#[test]
fn bounds_stay_within_limits_and_setup_has_the_largest() {
    let json = benchmark_json();
    let e2e = json.get("end_to_end").arr();
    let bound = |name: &str| {
        e2e.iter()
            .find(|m| m.get("name").str() == name)
            .map(|m| m.get("bound").num())
            .expect("metric declared")
    };
    let setup = bound("setup_s");
    for m in e2e {
        let b = m.get("bound").num();
        assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.get("name").str());
        assert!(
            b <= setup,
            "{} has a larger bound than setup_s",
            m.get("name").str()
        );
    }
}
