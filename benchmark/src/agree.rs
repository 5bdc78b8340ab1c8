//! Running the whole set: every workload in a fresh process each, and the
//! self-check that two sets of runs of one build agree.

use crate::json::number;
use crate::spec::{Better, Workload, END_TO_END, EXACT_COUNTS};
use crate::summary::median;
use serde::Value;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// What a child run reported on the last line of its standard output.
struct ChildResult {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl ChildResult {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

fn field<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn parse_result(line: &str) -> Option<ChildResult> {
    let Value::Object(fields) = serde_json::from_str::<Value>(line).ok()? else {
        return None;
    };
    let Value::Bool(correct) = *field(&fields, "correct")? else {
        return None;
    };
    let Value::Object(metrics) = field(&fields, "metrics")? else {
        return None;
    };
    Some(ChildResult {
        correct,
        failed: number(field(&fields, "failed")?)? as u64,
        metrics: metrics
            .iter()
            .map(|(name, entry)| {
                let Value::Object(entry) = entry else {
                    return None;
                };
                Some((name.clone(), number(field(entry, "value")?)?))
            })
            .collect::<Option<_>>()?,
    })
}

/// Runs one workload in a fresh process of this same executable. With
/// `echo`, the child's report is passed through; otherwise only its last
/// line is read.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    echo: bool,
) -> Option<ChildResult> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .stderr(Stdio::inherit())
        .output()
        .expect("the child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let result = stdout.lines().last().and_then(parse_result);
    if result.is_none() {
        eprintln!("{workload}: the run printed no result ({})", output.status);
    }
    result
}

/// Runs every workload, untraced and traced unless `trace` picks one, and
/// passes each report through. Fails if any run is incorrect, had a failed
/// operation or printed no result.
pub fn every_workload(seed: u64, seconds: f64, trace: Option<bool>, out_dir: &Path) -> ExitCode {
    let mut clean = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            if trace.is_some_and(|t| t != traced) {
                continue;
            }
            let result = child(workload, seed, seconds, traced, out_dir, true);
            clean &= result.is_some_and(|r| r.correct && r.failed == 0);
            println!();
        }
    }
    println!(
        "{}",
        if clean {
            "every workload ran, and every output was correct"
        } else {
            "FAILED: see above"
        }
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Untraced runs per workload in each of the two sets `--agree` compares.
const RUNS: u64 = 3;

/// One set of runs: per workload, the median of each end-to-end metric
/// over [`RUNS`] untraced runs (seeds `seed`, `seed + 1`, ...), and the
/// exact counts of one traced run.
#[derive(Default)]
struct Set {
    /// `[workload][metric]`, in the order of `END_TO_END`.
    medians: Vec<Vec<f64>>,
    /// `[workload][count]`, in the order of `EXACT_COUNTS`.
    counts: Vec<Vec<f64>>,
    dirty: bool,
}

/// Runs both sets, A and B, taking turns: the machine the benchmark was
/// sized on changes speed by a fifth for minutes at a time, and two sets
/// run one after the other would mostly compare two states of the machine.
/// Run by run, the sets alternate in who goes first.
fn run_sets(seed: u64, seconds: f64, out_dir: &Path) -> [Set; 2] {
    let mut sets = [Set::default(), Set::default()];
    for workload in Workload::ALL {
        let mut values = [0, 1].map(|_| vec![Vec::new(); END_TO_END.len()]);
        for r in 0..RUNS {
            for turn in 0..2 {
                let s = ((r + turn) % 2) as usize;
                let seed = seed + r;
                let Some(result) = child(workload, seed, seconds, false, out_dir, false) else {
                    sets[s].dirty = true;
                    continue;
                };
                sets[s].dirty |= !result.correct || result.failed != 0;
                for (column, def) in values[s].iter_mut().zip(END_TO_END) {
                    column.push(result.metric(def.name));
                }
                println!(
                    "set {} {workload} seed {seed}: throughput {:.3} ops/s, p50 {:.3} ms",
                    ["A", "B"][s],
                    result.metric("throughput_ops_s"),
                    result.metric("latency_p50_ms"),
                );
            }
        }
        for (set, values) in sets.iter_mut().zip(&mut values) {
            set.medians
                .push(values.iter_mut().map(|v| median(v)).collect());
            let traced = child(workload, seed, seconds, true, out_dir, false);
            set.dirty |= !traced.as_ref().is_some_and(|r| r.correct);
            set.counts.push(
                EXACT_COUNTS
                    .iter()
                    .map(|name| traced.as_ref().map_or(f64::NAN, |r| r.metric(name)))
                    .collect(),
            );
        }
    }
    sets
}

/// Runs the full set twice on this build and compares the two: PASS only
/// if, for every workload and end-to-end metric, the second median is
/// within the metric's bound of the first (in either direction), every
/// exact count is identical, and every output was correct (which includes
/// the design numbers equalling the golden file).
pub fn agree(seed: u64, seconds: f64, out_dir: &Path) -> ExitCode {
    let [a, b] = run_sets(seed, seconds, out_dir);
    let mut pass = !a.dirty && !b.dirty;
    if !pass {
        println!("FAIL: a run was incorrect, had failed operations or printed no result");
    }
    println!(
        "\n{:<16}{:<20}{:>14}{:>14}{:>9}{:>10}",
        "workload", "metric", "median A", "median B", "gap", "bound"
    );
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (k, def) in END_TO_END.iter().enumerate() {
            let (x, y) = (a.medians[w][k], b.medians[w][k]);
            let gap = (y - x).abs() / x.abs();
            // NaN (a missing value) must fail, so test for "inside".
            let inside = gap <= def.bound;
            pass &= inside;
            println!(
                "{:<16}{:<20}{:>14.4}{:>14.4}{:>8.2}%{:>9.4}%{}",
                workload.name(),
                def.name,
                x,
                y,
                gap * 100.0,
                def.bound * 100.0,
                match (inside, def.better) {
                    (true, _) => "",
                    (false, Better::Lower) if y < x => "  OUTSIDE (better)",
                    (false, Better::Higher) if y > x => "  OUTSIDE (better)",
                    (false, _) => "  OUTSIDE (worse)",
                }
            );
        }
        for (k, name) in EXACT_COUNTS.iter().enumerate() {
            let (x, y) = (a.counts[w][k], b.counts[w][k]);
            let same = x == y;
            pass &= same;
            println!(
                "{:<16}{:<30}{:>20}{:>20}{}",
                workload.name(),
                name,
                x,
                y,
                if same { "" } else { "  DIFFERS" }
            );
        }
    }
    println!("\n{}", if pass { "PASS" } else { "FAIL" });
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
