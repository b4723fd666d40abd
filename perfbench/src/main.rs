//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints run metadata, every timing's quartiles, the report digest and
//! each metric as `name value unit`, then, as the last line, the result
//! object. `--trace 0` reports the end-to-end metrics; `--trace 1` the
//! per-layer metrics, and writes the spans to
//! `perfbench/traces/<workload>-seed<n>.json`. Exits 1 when a check
//! failed, 2 on bad arguments.

use dsw_perfbench::metrics::{result_json, END_TO_END, PER_LAYER};
use dsw_perfbench::sys::{git_sha, nproc, CpuTicks};
use dsw_perfbench::{run, RunConfig, Size, Workload};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <ds_4096|bj_8192|serve_128|serve_panel_128> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<(Workload, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        let bad = |what: &str| format!("{key}: {what}, got {value:?}");
        match key.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0);
                seconds = Some(s.ok_or_else(|| bad("expected a non-negative number"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        RunConfig {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ticks = CpuTicks::now();
    let out = run(workload, Size::Paper, &cfg);
    let steal = match (ticks, CpuTicks::now()) {
        (Some(a), Some(b)) => b.steal_since(&a),
        _ => f64::NAN,
    };

    println!("meta workload {}", workload.name());
    println!("meta seed {}", cfg.seed);
    println!("meta trace {}", u8::from(cfg.trace));
    println!("meta nproc {}", nproc());
    println!("meta pool_size {}", out.pool_size);
    println!("meta cpu_steal_frac {steal:.4}");
    println!("meta git_sha {}", git_sha());
    println!(
        "meta profile {}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    for (name, s) in &out.timings {
        println!(
            "timing {name} n={} q1={:.6} median={:.6} q3={:.6}",
            s.n, s.q1, s.median, s.q3
        );
    }
    println!("report_digest {:016x}", out.digest);

    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut correct = out.failed == 0;
    for d in defs {
        match out.values.get(d.name) {
            Some(v) if v.is_finite() => println!("{} {v} {}", d.name, d.unit),
            // Layers a workload does not exercise read 0.
            None if cfg.trace => println!("{} 0 {}", d.name, d.unit),
            other => {
                eprintln!("metric {} was not measured ({other:?})", d.name);
                correct = false;
            }
        }
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("failed_frac {failed_frac} fraction");

    if cfg.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.json", workload.name(), cfg.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, out.tracer.to_chrome_json()))
        {
            Ok(()) => println!("trace {} ({} spans)", path.display(), out.tracer.len()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                correct = false;
            }
        }
    }
    for why in &out.failures {
        eprintln!("check failed: {why}");
    }
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, defs, &out.values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
