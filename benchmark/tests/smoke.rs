//! The benchmark's own test: at tiny sizes every workload runs with
//! tracing off and on, passes its correctness checks, reports the same
//! QoE figures either way, and prints every metric `BENCHMARK.json`
//! names with its unit.

use std::process::Command;
use xlink_obs::json::{parse, Value};

const WORKLOADS: [&str; 3] = ["fleet_short", "mobility_video", "pop_admission"];

fn benchmark_spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

/// Run one tiny workload; returns (figures line, result line).
fn run(workload: &str, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_xlink-benchmark"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: figures and result lines expected, got {stdout}");
    let figures = parse(lines[lines.len() - 2]).expect("figures line is JSON");
    let result = parse(lines[lines.len() - 1]).expect("result line is JSON");
    (figures, result)
}

fn metric_names(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_result(workload: &str, result: &Value, wanted: &[(String, String)]) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload}: {result:?}");
    assert!(result.get("attempted").and_then(Value::as_u64).is_some_and(|n| n >= 1));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{workload}");
    let metrics = result.get("metrics").expect("metrics object");
    let Value::Obj(printed) = metrics else { panic!("metrics is an object") };
    assert_eq!(printed.len(), wanted.len(), "{workload}: exactly the listed metrics");
    for (name, unit) in wanted {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
        assert!(m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite), "{name}");
    }
}

#[test]
fn every_workload_runs_traced_and_untraced_with_every_metric() {
    let spec = benchmark_spec();
    let end_to_end = metric_names(&spec, "end_to_end");
    let per_layer = metric_names(&spec, "per_layer");
    let listed: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    assert_eq!(listed, WORKLOADS);
    for workload in WORKLOADS {
        let (plain_figures, plain) = run(workload, 0);
        assert_result(workload, &plain, &end_to_end);
        for (name, _) in &end_to_end {
            let v = plain.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value"));
            assert!(v.and_then(Value::as_f64).is_some_and(|v| v > 0.0), "{workload}: {name} > 0");
        }
        let (traced_figures, traced) = run(workload, 1);
        assert_result(workload, &traced, &per_layer);
        // The QoE figures are virtual-time outputs: tracing must not
        // move them by a single bit.
        assert_eq!(plain_figures.get("figures"), traced_figures.get("figures"), "{workload}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_xlink-benchmark"))
        .args(["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
