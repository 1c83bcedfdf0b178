//! A tiny-size run of every workload, untraced and traced: each prints
//! every metric `BENCHMARK.json` names, with its unit, and fails nothing.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use zeppelin_core::plan_io::{parse_json, Json};

const WORKLOADS: [&str; 5] = [
    "sweep-64gpu",
    "cluster-policies",
    "serve-low",
    "serve-high",
    "sim-scale",
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload at tiny size and returns its result line.
fn run(workload: &str, trace: bool) -> Json {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .arg("--trace-dir")
        .arg(&dir)
        .output()
        .expect("perfbench runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse_json(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}"))
}

fn check(workload: &str, trace: bool) {
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload} trace={trace}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let metrics = result.get("metrics").expect("metrics");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let names = declared(section);
    let Json::Object(printed) = metrics else {
        panic!("metrics is not an object");
    };
    assert_eq!(printed.len(), names.len(), "{workload}: metric count");
    for (name, unit) in names {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{workload}: {name} has no number"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if !trace {
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for w in WORKLOADS {
        check(w, false);
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for w in WORKLOADS {
        check(w, true);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "sim-scale", "--trace", "2"],
        vec!["--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("perfbench runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
