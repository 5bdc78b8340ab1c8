//! The per-element implementation that `quantize_epitome` and
//! `quantize_per_crossbar` replaced, kept as their oracle: transposes
//! through `Tensor::from_fn`/`at`, a gathered `Vec` per tile, ranges by a
//! sequential `f32::min`/`f32::max` fold and the scalar
//! `Quantizer::{quantize, dequantize}` per element.

use epim_core::Epitome;
use epim_quant::{QuantError, QuantGranularity, QuantReport, Quantizer, RangeEstimator};
use epim_tensor::Tensor;

fn estimate(
    range: &RangeEstimator,
    vals: &[f32],
    reps: Option<&[f32]>,
) -> Result<(f32, f32), QuantError> {
    if vals.is_empty() {
        return Err(QuantError::invalid("empty tile"));
    }
    let min = |s: &[f32]| s.iter().copied().fold(f32::INFINITY, f32::min);
    let max = |s: &[f32]| s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    match *range {
        RangeEstimator::MinMax => Ok((min(vals), max(vals))),
        RangeEstimator::OverlapWeighted { w1, w2 } => {
            if w1 < 0.0 || w2 < 0.0 || w1 + w2 <= 0.0 {
                return Err(QuantError::invalid("overlap weights must be non-negative"));
            }
            let reps = reps.ok_or_else(|| QuantError::invalid("needs a repetition map"))?;
            let (w1, w2) = (w1 / (w1 + w2), w2 / (w1 + w2));
            let threshold = min(reps);
            let mut ov = (f32::INFINITY, f32::NEG_INFINITY);
            let mut rest = (f32::INFINITY, f32::NEG_INFINITY);
            for (&v, &c) in vals.iter().zip(reps) {
                let slot = if c > threshold { &mut ov } else { &mut rest };
                slot.0 = slot.0.min(v);
                slot.1 = slot.1.max(v);
            }
            let ov = if ov.0.is_finite() { ov } else { rest };
            let rest = if rest.0.is_finite() { rest } else { ov };
            let alpha = w1 * ov.0 + w2 * rest.0;
            let beta = w1 * ov.1 + w2 * rest.1;
            Ok((alpha.min(beta), alpha.max(beta)))
        }
    }
}

fn report(bits: u8, groups: usize, original: &Tensor, quantized: &Tensor) -> QuantReport {
    let mse = original.mse(quantized).expect("same shape") as f64;
    let p_sig = original.norm_sq() as f64 / original.len().max(1) as f64;
    let sqnr_db = if mse <= 0.0 {
        f64::INFINITY
    } else {
        10.0 * (p_sig / mse).log10()
    };
    QuantReport {
        bits,
        groups,
        mse,
        sqnr_db,
    }
}

pub fn quantize_per_crossbar(
    matrix: &Tensor,
    repetition: Option<&Tensor>,
    bits: u8,
    tile_rows: usize,
    tile_cols: usize,
    range: &RangeEstimator,
) -> Result<(Tensor, QuantReport), QuantError> {
    let (rows, cols) = (matrix.shape()[0], matrix.shape()[1]);
    let mut out = matrix.clone();
    let mut groups = 0usize;
    for r0 in (0..rows).step_by(tile_rows) {
        for c0 in (0..cols).step_by(tile_cols) {
            let r1 = (r0 + tile_rows).min(rows);
            let c1 = (c0 + tile_cols).min(cols);
            let mut vals = Vec::new();
            let mut reps_vals = Vec::new();
            for r in r0..r1 {
                for c in c0..c1 {
                    vals.push(matrix.at(&[r, c]));
                    if let Some(reps) = repetition {
                        reps_vals.push(reps.at(&[r, c]));
                    }
                }
            }
            let (alpha, beta) = estimate(range, &vals, repetition.map(|_| &reps_vals[..]))?;
            let q = Quantizer::from_range(bits, alpha, beta)?;
            groups += 1;
            for r in r0..r1 {
                for c in c0..c1 {
                    let v = matrix.at(&[r, c]);
                    out.set(&[r, c], q.dequantize(q.quantize(v)))?;
                }
            }
        }
    }
    let rep = report(bits, groups, matrix, &out);
    Ok((out, rep))
}

pub fn quantize_epitome(
    epitome: &Epitome,
    bits: u8,
    granularity: QuantGranularity,
    range: &RangeEstimator,
) -> Result<(Epitome, QuantReport), QuantError> {
    let shape = epitome.spec().shape();
    let (rows_e, cout_e) = (shape.matrix_rows(), shape.cout);
    let to_matrix = |t: &Tensor| -> Tensor {
        Tensor::from_fn(&[rows_e, cout_e], |idx| {
            let (row, co) = (idx[0], idx[1]);
            let x = row % shape.w;
            let y = (row / shape.w) % shape.h;
            let ci = row / (shape.w * shape.h);
            t.at(&[co, ci, y, x])
        })
    };
    let matrix = to_matrix(epitome.tensor());
    let reps_matrix = matches!(range, RangeEstimator::OverlapWeighted { .. })
        .then(|| to_matrix(&epitome.repetition_map()));
    let (tile_rows, tile_cols) = match granularity {
        QuantGranularity::PerTensor => (rows_e, cout_e),
        QuantGranularity::PerCrossbar { rows, cols } => (rows, cols),
    };
    let (qmatrix, rep) = quantize_per_crossbar(
        &matrix,
        reps_matrix.as_ref(),
        bits,
        tile_rows,
        tile_cols,
        range,
    )?;
    let qdata = Tensor::from_fn(&shape.dims(), |idx| {
        let (co, ci, y, x) = (idx[0], idx[1], idx[2], idx[3]);
        qmatrix.at(&[(ci * shape.h + y) * shape.w + x, co])
    });
    let mut q = epitome.clone();
    q.set_tensor(qdata)?;
    Ok((q, rep))
}
