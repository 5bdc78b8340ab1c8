//! Runs every workload of `BENCHMARK.json` with short windows (6 s untraced,
//! 2 s traced: at the test profile's optimisation level one ResNet-50
//! request takes 1.3 s, and a window shorter than a request can pass
//! without one starting in it, which fails the run), untraced and traced,
//! and holds the output to the contract: the last
//! line of standard output is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`; the metrics are exactly
//! the `end_to_end` list (untraced) or the `per_layer` list (traced), each
//! once, finite, with its unit; every output was correct.
//!
//! One test, so that the runs do not share the machine with each other.

use serde::Value;
use std::path::Path;
use std::process::Command;

fn object(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(fields) => fields,
        other => panic!("expected an object, found {other:?}"),
    }
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    object(v)
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no key `{key}`"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn list(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_every_metric_once() {
    let spec_text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json is at the root");
    let spec: Value = serde_json::from_str(&spec_text).expect("BENCHMARK.json parses");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");

    for workload in list(get(&spec, "workloads")) {
        let workload = text(get(workload, "name"));
        assert!(well_formed(workload), "{workload}");
        for (trace, listed) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_epim-benchmark"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "6"])
                .args(["--trace", trace])
                .arg("--out-dir")
                .arg(&out_dir)
                .env_remove("EPIM_TRACE")
                .env_remove("EPIM_FAULTS")
                .output()
                .expect("the benchmark starts");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let what = format!("{workload} --trace {trace}");
            assert!(
                output.status.success(),
                "{what}: {}\n{stdout}\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("some output");
            let result: Value = serde_json::from_str(last).expect("the last line is JSON");
            let keys: Vec<&str> = object(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(get(&result, "correct"), &Value::Bool(true), "{what}");
            assert_eq!(get(&result, "failed"), &Value::U64(0), "{what}");
            assert!(
                matches!(get(&result, "attempted"), Value::U64(n) if *n >= 1),
                "{what}"
            );

            let metrics = object(get(&result, "metrics"));
            let wanted = list(get(&spec, listed));
            assert_eq!(metrics.len(), wanted.len(), "{what}: metric count");
            for def in wanted {
                let name = text(get(def, "name"));
                assert!(well_formed(name), "{name}");
                let emitted: Vec<_> = metrics.iter().filter(|(k, _)| k == name).collect();
                assert_eq!(
                    emitted.len(),
                    1,
                    "{what}: `{name}` emitted {} times",
                    emitted.len()
                );
                let entry = &emitted[0].1;
                assert_eq!(
                    text(get(entry, "unit")),
                    text(get(def, "unit")),
                    "{what}: {name}"
                );
                let value = match *get(entry, "value") {
                    Value::F64(x) => x,
                    Value::U64(x) => x as f64,
                    Value::I64(x) => x as f64,
                    ref other => panic!("{what}: {name} is {other:?}"),
                };
                assert!(value.is_finite(), "{what}: {name} = {value}");
            }

            if trace == "1" {
                // The writer's output is parsed in its own unit test; the
                // vendored JSON reader is too slow for a whole trace file.
                let path = out_dir.join(format!("trace-{workload}.json"));
                let trace_text = std::fs::read_to_string(&path).expect("the trace file exists");
                assert!(trace_text.starts_with("{\"traceEvents\":["), "{what}");
                assert!(trace_text.trim_end().ends_with('}'), "{what}");
                assert!(trace_text.contains("\"ph\":\"X\""), "{what}");
            }
        }
    }
}

#[test]
fn refuses_to_measure_with_the_crates_own_tracing_on() {
    let output = Command::new(env!("CARGO_BIN_EXE_epim-benchmark"))
        .args(["--workload", "design_r50", "--seconds", "1"])
        .env("EPIM_TRACE", "1")
        .output()
        .expect("the benchmark starts");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

#[test]
fn a_window_in_which_nothing_started_is_a_failed_run() {
    // A design pass takes a third of a second; none starts in 50 ms.
    let output = Command::new(env!("CARGO_BIN_EXE_epim-benchmark"))
        .args(["--workload", "design_r50", "--seconds", "0.05"])
        .arg("--out-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out"))
        .env_remove("EPIM_TRACE")
        .env_remove("EPIM_FAULTS")
        .output()
        .expect("the benchmark starts");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !stdout.lines().last().unwrap_or("").starts_with('{'),
        "{stdout}"
    );
}
