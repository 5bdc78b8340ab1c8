//! The design-time workload: one operation is the paper's software side
//! for ResNet-50, end to end — epitome designer, evolutionary layer-wise
//! search, epitome-aware quantization and the PIM cost model — as the
//! Table 1 rows plus the measured Table 2 ablation.
//!
//! Its outputs are simulated quantities (crossbars, latency, energy,
//! utilization, compression, quantization error), so they do not depend on
//! the host: every pass must reproduce `golden/design_r50.json`, integers
//! exactly and floats to a relative 1e-9 (the slack covers `libm`
//! differences between hosts, not algorithm changes).

use crate::json::{number, object, text};
use crate::loadgen::{ClientLog, Outcome, Sample, Window};
use crate::trace::{now_ns, Lane, NO_REQUEST};
use epim_bench::experiments::{table1, table2};
use epim_models::resnet::resnet50;
use serde::Value;

/// Table 2 layers measured per pass.
const TABLE2_LAYERS: usize = 8;

/// The pinned outputs, as committed.
const GOLDEN: &str = include_str!("../golden/design_r50.json");

/// Runs one design pass and returns its simulated outputs.
pub fn design_pass(lane: &mut Lane, seq: u64) -> Value {
    let rows1 = lane.leaf("table1.rows_for", seq, || {
        table1::rows_for(resnet50(), false)
    });
    let rows2 = lane.leaf("table2.measured", seq, || {
        table2::table2_measured(TABLE2_LAYERS)
    });
    // Rows the paper leaves blank carry NaN, which JSON writes as null.
    let float = |x: f64| {
        if x.is_finite() {
            Value::F64(x)
        } else {
            Value::Null
        }
    };
    object(vec![
        (
            "table1",
            Value::Array(
                rows1
                    .iter()
                    .map(|r| {
                        object(vec![
                            ("model", text(&r.model)),
                            ("bitwidth", text(&r.bitwidth)),
                            ("epitome", text(&r.epitome)),
                            ("xbs", Value::U64(r.xbs as u64)),
                            ("cr_xbs", float(r.cr_xbs)),
                            ("latency_ms", float(r.latency_ms)),
                            ("energy_mj", float(r.energy_mj)),
                            ("utilization_pct", float(r.utilization_pct)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "table2",
            Value::Array(
                rows2
                    .iter()
                    .map(|r| {
                        object(vec![
                            ("layer", text(&r.layer)),
                            ("naive_mse", float(r.naive_mse)),
                            ("xbar_mse", float(r.xbar_mse)),
                            ("xbar_weighted_mse", float(r.xbar_weighted_mse)),
                            ("overlap_weighted_mse", float(r.overlap_weighted_mse)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The committed golden outputs.
pub fn golden() -> Value {
    serde_json::from_str(GOLDEN).expect("golden/design_r50.json parses")
}

/// Relative tolerance on golden floats.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// Compares a pass's outputs with the golden ones; the error names the
/// first place they differ.
pub fn matches_golden(got: &Value, want: &Value, path: &str) -> Result<(), String> {
    match (got, want) {
        (Value::Object(g), Value::Object(w)) => {
            if g.len() != w.len() {
                return Err(format!(
                    "{path}: {} fields, golden has {}",
                    g.len(),
                    w.len()
                ));
            }
            g.iter().zip(w).try_for_each(|((gk, gv), (wk, wv))| {
                if gk != wk {
                    return Err(format!("{path}: field `{gk}`, golden has `{wk}`"));
                }
                matches_golden(gv, wv, &format!("{path}.{gk}"))
            })
        }
        (Value::Array(g), Value::Array(w)) => {
            if g.len() != w.len() {
                return Err(format!("{path}: {} rows, golden has {}", g.len(), w.len()));
            }
            g.iter()
                .zip(w)
                .enumerate()
                .try_for_each(|(i, (gv, wv))| matches_golden(gv, wv, &format!("{path}[{i}]")))
        }
        (Value::Null, Value::Null) => Ok(()),
        (Value::String(g), Value::String(w)) if g == w => Ok(()),
        (Value::U64(g), Value::U64(w)) if g == w => Ok(()),
        (Value::U64(g), Value::U64(w)) => Err(format!("{path}: {g}, golden has {w}")),
        (g, w) => match (number(g), number(w)) {
            (Some(g), Some(w)) if (g - w).abs() <= FLOAT_TOLERANCE * w.abs() => Ok(()),
            _ => Err(format!("{path}: {g:?}, golden has {w:?}")),
        },
    }
}

/// A closed loop of one caller running design passes back to back; a pass
/// whose outputs differ from the golden file counts as mismatched.
pub fn closed_design(window: Window, lane: Lane, golden: &Value) -> ClientLog {
    let mut log = ClientLog::new(window, lane);
    let root = log.lane.begin("client", NO_REQUEST);
    for seq in 0u64.. {
        let start_ns = now_ns();
        if start_ns >= window.end_ns {
            break;
        }
        let span = log.lane.begin("design_pass", seq);
        let got = design_pass(&mut log.lane, seq);
        log.lane.end(span);
        let end_ns = now_ns();
        let verdict = log
            .lane
            .leaf("check", seq, || matches_golden(&got, golden, "design_r50"));
        let outcome = match verdict {
            Ok(()) => Outcome::Ok,
            Err(place) => {
                eprintln!("design pass {seq} differs from the golden file at {place}");
                Outcome::Mismatched
            }
        };
        log.record(Sample {
            id: seq,
            start_ns,
            end_ns,
            outcome,
        });
    }
    log.lane.end(root);
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).unwrap()
    }

    #[test]
    fn golden_compare_is_exact_on_integers_and_tolerant_on_floats() {
        let want = parse(r#"{"rows":[{"name":"a","xbs":100,"ms":1.5}]}"#);
        assert!(matches_golden(&want, &want, "g").is_ok());
        let close = parse(r#"{"rows":[{"name":"a","xbs":100,"ms":1.5000000000001}]}"#);
        assert!(matches_golden(&close, &want, "g").is_ok());
        let far = parse(r#"{"rows":[{"name":"a","xbs":100,"ms":1.50001}]}"#);
        assert_eq!(
            matches_golden(&far, &want, "g")
                .unwrap_err()
                .split(':')
                .next(),
            Some("g.rows[0].ms")
        );
        let count = parse(r#"{"rows":[{"name":"a","xbs":101,"ms":1.5}]}"#);
        assert!(matches_golden(&count, &want, "g").is_err());
        let label = parse(r#"{"rows":[{"name":"b","xbs":100,"ms":1.5}]}"#);
        assert!(matches_golden(&label, &want, "g").is_err());
        let short = parse(r#"{"rows":[]}"#);
        assert!(matches_golden(&short, &want, "g").is_err());
    }
}
