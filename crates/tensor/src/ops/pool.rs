//! Spatial pooling operators.

use crate::{Tensor, TensorError};
use epim_simd::{dispatch, ScalarSimd, Simd, SimdOp};

use super::conv::conv2d_out_dims;
use super::Conv2dCfg;

/// Window/stride/padding configuration for pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolCfg {
    /// Square window size.
    pub window: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides). Max pooling ignores padded
    /// positions (they never win); average pooling counts them as zeros
    /// (the `count_include_pad` convention). The ResNet stem's 3×3/2
    /// max pool with padding 1 is the canonical user.
    pub padding: usize,
}

impl PoolCfg {
    /// A pooling config without padding.
    pub fn new(window: usize, stride: usize) -> Self {
        PoolCfg {
            window,
            stride,
            padding: 0,
        }
    }

    fn as_conv(&self) -> Conv2dCfg {
        Conv2dCfg {
            stride: self.stride,
            padding: self.padding,
        }
    }
}

/// Average pooling over `(N, C, H, W)`.
///
/// Padded positions contribute zeros to the window sum but still count in
/// the divisor (window area), matching the usual `count_include_pad`
/// default.
///
/// # Errors
///
/// Returns geometry errors if the window does not fit.
pub fn avg_pool2d(x: &Tensor, cfg: PoolCfg) -> Result<Tensor, TensorError> {
    let area = (cfg.window * cfg.window) as f32;
    pool(x, cfg, AvgReduce { area })
}

/// Max pooling over `(N, C, H, W)`.
///
/// Padded positions are skipped (a pad never wins the max). Inputs are
/// assumed finite; on a `-0.0`/`+0.0` tie the first value seen in window
/// order wins (pinned by [`Simd::max`] — the old `f32::max` fold left
/// that sign to the optimizer).
///
/// # Errors
///
/// Returns geometry errors if the window does not fit.
pub fn max_pool2d(x: &Tensor, cfg: PoolCfg) -> Result<Tensor, TensorError> {
    pool(x, cfg, MaxReduce)
}

fn pool<R: PoolReduce>(x: &Tensor, cfg: PoolCfg, red: R) -> Result<Tensor, TensorError> {
    if x.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: x.rank(),
            op: "pool2d",
        });
    }
    let dims = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = pool_out_dims(dims.2, dims.3, cfg)?;
    let mut out = Tensor::zeros(&[dims.0, dims.1, oh, ow]);
    dispatch(Pool2dOp {
        xd: x.data(),
        dims,
        cfg,
        odims: (oh, ow),
        out: out.data_mut(),
        red,
    });
    Ok(out)
}

/// Validates the pooling geometry and returns the output spatial dims.
fn pool_out_dims(h: usize, w: usize, cfg: PoolCfg) -> Result<(usize, usize), TensorError> {
    if cfg.window > 0 && cfg.padding >= cfg.window {
        // A window could then lie entirely in the padding, which has no
        // well-defined max (and a silent -inf would poison downstream
        // stages).
        return Err(TensorError::invalid(format!(
            "pool padding {} must be smaller than the window {}",
            cfg.padding, cfg.window
        )));
    }
    conv2d_out_dims(h, w, cfg.window, cfg.window, cfg.as_conv())
}

/// In-place window reduction: `init`, fold one value at a time, `finish`.
/// Written once over the lane trait: the scalar arm's one-lane fold is the
/// same FP sequence as each lane of a vector arm, so reducing one output
/// per lane is bitwise equal to the scalar fold.
trait PoolReduce: Copy {
    fn init(&self) -> f32;
    fn vaccum<S: Simd>(&self, s: S, acc: S::V, v: S::V) -> S::V;
    fn vfinish<S: Simd>(&self, s: S, acc: S::V) -> S::V;
}

#[derive(Clone, Copy)]
struct MaxReduce;

impl PoolReduce for MaxReduce {
    #[inline(always)]
    fn init(&self) -> f32 {
        f32::NEG_INFINITY
    }
    #[inline(always)]
    fn vaccum<S: Simd>(&self, s: S, acc: S::V, v: S::V) -> S::V {
        // `if v > acc { v } else { acc }`: ties keep the accumulator.
        s.max(v, acc)
    }
    #[inline(always)]
    fn vfinish<S: Simd>(&self, _s: S, acc: S::V) -> S::V {
        acc
    }
}

#[derive(Clone, Copy)]
struct AvgReduce {
    /// Divisor: the full window area (pads included), per
    /// `count_include_pad`.
    area: f32,
}

impl PoolReduce for AvgReduce {
    #[inline(always)]
    fn init(&self) -> f32 {
        0.0
    }
    #[inline(always)]
    fn vaccum<S: Simd>(&self, s: S, acc: S::V, v: S::V) -> S::V {
        s.add(acc, v)
    }
    #[inline(always)]
    fn vfinish<S: Simd>(&self, s: S, acc: S::V) -> S::V {
        s.div(acc, s.splat(self.area))
    }
}

/// The dispatched pooling op, one output per lane so each output's FP
/// reduction sequence is unchanged: each window is reduced **in place**
/// (no gather buffer) over its in-bounds taps, `ky` then `kx` ascending,
/// pads skipped. The in-bounds rows are found once per output row. Over
/// the interior columns, where every `kx` is in bounds, whole vectors of
/// outputs load their taps strided; every other output (the edge columns
/// and the interior's last `ow % LANES`, so every output of a row
/// narrower than one vector) runs the same reduction one lane wide over
/// its in-bounds `kx` range.
struct Pool2dOp<'a, R> {
    xd: &'a [f32],
    dims: (usize, usize, usize, usize),
    cfg: PoolCfg,
    odims: (usize, usize),
    out: &'a mut [f32],
    red: R,
}

impl<R: PoolReduce> SimdOp for Pool2dOp<'_, R> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let (n, c, h, w) = self.dims;
        let (oh, ow) = self.odims;
        let red = self.red;
        let (win, st, pad) = (self.cfg.window, self.cfg.stride, self.cfg.padding);
        // Columns where every kx lands in-bounds: ox*st >= pad and
        // ox*st + win - 1 - pad <= w - 1.
        let ox_hi = if w + pad >= win {
            ((w + pad - win) / st + 1).min(ow)
        } else {
            0
        };
        let ox_lo = pad.div_ceil(st).min(ox_hi);
        let mut outs = self.out[..n * c * oh * ow].chunks_exact_mut(ow);
        for plane in self.xd[..n * c * h * w].chunks_exact(h * w) {
            for (oy, out) in (0..oh).zip(&mut outs) {
                // The window rows in bounds for this oy, the same for
                // every ox.
                let ky_lo = pad.saturating_sub(oy * st);
                let ky_hi = win.min(h + pad - oy * st);
                let rows = &plane[(oy * st + ky_lo - pad) * w..(oy * st + ky_hi - pad) * w];
                for (ox, o) in out[..ox_lo].iter_mut().enumerate() {
                    *o = window(ScalarSimd, &red, rows, w, st, in_bounds(ox, w, self.cfg));
                }
                let mut ox = ox_lo;
                while ox + S::LANES <= ox_hi {
                    let x0 = ox * st - pad;
                    let v = window(s, &red, rows, w, st, x0..x0 + win);
                    s.store(&mut out[ox..ox + S::LANES], v);
                    ox += S::LANES;
                }
                for (ox, o) in out.iter_mut().enumerate().skip(ox) {
                    *o = window(ScalarSimd, &red, rows, w, st, in_bounds(ox, w, self.cfg));
                }
            }
        }
    }
}

/// The input columns of output column `ox`'s window that lie in bounds
/// (never empty: `w + padding > ox * stride` in every output column).
#[inline(always)]
fn in_bounds(ox: usize, w: usize, cfg: PoolCfg) -> std::ops::Range<usize> {
    let x = ox * cfg.stride;
    x.max(cfg.padding) - cfg.padding..(x + cfg.window).min(w + cfg.padding) - cfg.padding
}

/// `LANES` outputs `st` columns apart, reduced over the window rows
/// `rows` (each `w` floats) and, for the first lane, the columns `taps`.
#[inline(always)]
fn window<S: Simd, R: PoolReduce>(
    s: S,
    red: &R,
    rows: &[f32],
    w: usize,
    st: usize,
    taps: std::ops::Range<usize>,
) -> S::V {
    // Floats one strided load of LANES outputs spans.
    let span = (S::LANES - 1) * st + 1;
    let mut acc = s.splat(red.init());
    for row in rows.chunks_exact(w) {
        for x in taps.clone() {
            acc = red.vaccum(s, acc, s.load_strided(&row[x..x + span], st));
        }
    }
    red.vfinish(s, acc)
}

/// Slice-based [`max_pool2d`] for arena-backed executors: pools the
/// `(n, c, h, w)` NCHW block in `xd` into `out`. Bit-identical to the
/// tensor entry point (same iteration and reduction order).
///
/// # Errors
///
/// Returns geometry errors if the window does not fit or a slice is too
/// short.
pub fn max_pool2d_into(
    xd: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    cfg: PoolCfg,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let (oh, ow) = pool_out_dims(h, w, cfg)?;
    if xd.len() < n * c * h * w {
        return Err(TensorError::invalid(
            "max_pool2d_into: input slice too short",
        ));
    }
    if out.len() < n * c * oh * ow {
        return Err(TensorError::invalid(
            "max_pool2d_into: output slice too short",
        ));
    }
    dispatch(Pool2dOp {
        xd,
        dims: (n, c, h, w),
        cfg,
        odims: (oh, ow),
        out,
        red: MaxReduce,
    });
    Ok(())
}

/// Backward pass of [`avg_pool2d`]: distributes gradient uniformly over each
/// window.
///
/// # Errors
///
/// Returns geometry errors if `dy` does not match the pooled shape.
pub fn avg_pool2d_backward(
    x_shape: &[usize],
    dy: &Tensor,
    cfg: PoolCfg,
) -> Result<Tensor, TensorError> {
    if x_shape.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: x_shape.len(),
            op: "avg_pool2d_backward",
        });
    }
    if cfg.window > 0 && cfg.padding >= cfg.window {
        return Err(TensorError::invalid(format!(
            "pool padding {} must be smaller than the window {}",
            cfg.padding, cfg.window
        )));
    }
    let (n, c, h, w) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let (oh, ow) = conv2d_out_dims(h, w, cfg.window, cfg.window, cfg.as_conv())?;
    if dy.shape() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, c, oh, ow],
            actual: dy.shape().to_vec(),
            op: "avg_pool2d_backward",
        });
    }
    let mut dx = Tensor::zeros(x_shape);
    let inv = 1.0 / (cfg.window * cfg.window) as f32;
    let dd = dx.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dy.at(&[ni, ci, oy, ox]) * inv;
                    for ky in 0..cfg.window {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..cfg.window {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dd[((ni * c + ci) * h + iy as usize) * w + ix as usize] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(dx)
}

/// Global average pooling: `(N, C, H, W) -> (N, C)`.
///
/// # Errors
///
/// Returns a rank error for non-4D input.
pub fn global_avg_pool(x: &Tensor) -> Result<Tensor, TensorError> {
    if x.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: x.rank(),
            op: "global_avg_pool",
        });
    }
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let mut out = Tensor::zeros(&[n, c]);
    global_avg_pool_into(x.data(), (n, c, h, w), out.data_mut())?;
    Ok(out)
}

/// Slice-based [`global_avg_pool`] for arena-backed executors: reduces the
/// `(n, c, h, w)` NCHW block in `xd` to `n * c` channel means in `out`.
/// Bit-identical to the tensor entry point (same accumulation order, same
/// `sum * (1/(h*w))` scaling).
///
/// # Errors
///
/// Returns an error if a slice is too short.
pub fn global_avg_pool_into(
    xd: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    out: &mut [f32],
) -> Result<(), TensorError> {
    if xd.len() < n * c * h * w {
        return Err(TensorError::invalid(
            "global_avg_pool_into: input slice too short",
        ));
    }
    if out.len() < n * c {
        return Err(TensorError::invalid(
            "global_avg_pool_into: output slice too short",
        ));
    }
    dispatch(GlobalAvgPoolOp {
        xd,
        nc: n * c,
        hw: h * w,
        out,
    });
    Ok(())
}

/// The dispatched global-average-pool op: one output channel per lane,
/// lanes gathered at stride `h*w`, so each channel's plane is summed in
/// the exact element order of the scalar loop (then scaled by `1/(h*w)`).
/// The scalar chain is latency-bound (one serial add per element); giving
/// each lane its own chain is where the speedup comes from.
struct GlobalAvgPoolOp<'a> {
    xd: &'a [f32],
    nc: usize,
    hw: usize,
    out: &'a mut [f32],
}

impl SimdOp for GlobalAvgPoolOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let (nc, hw) = (self.nc, self.hw);
        if hw == 0 {
            return;
        }
        let vector = nc - nc % S::LANES;
        let (head, tail) = self.out[..nc].split_at_mut(vector);
        gap_channels(s, &self.xd[..vector * hw], hw, head);
        gap_channels(ScalarSimd, &self.xd[vector * hw..nc * hw], hw, tail);
    }
}

/// Channel means of the `out.len()` planes of `hw` floats in `xd`,
/// `LANES` channels at a time: lane `l` sums channel `l`'s plane in
/// element order, gathered at stride `hw`. `out.len()` is a multiple of
/// `LANES`.
#[inline(always)]
fn gap_channels<S: Simd>(s: S, xd: &[f32], hw: usize, out: &mut [f32]) {
    let vinv = s.splat(1.0 / (hw as f32));
    let span = (S::LANES - 1) * hw + 1;
    for (planes, out) in xd
        .chunks_exact(S::LANES * hw)
        .zip(out.chunks_exact_mut(S::LANES))
    {
        let mut acc = s.splat(0.0);
        for i in 0..hw {
            acc = s.add(acc, s.load_strided(&planes[i..i + span], hw));
        }
        s.store(out, s.mul(acc, vinv));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_pool_constant_input() {
        let x = Tensor::full(&[1, 2, 4, 4], 3.0);
        let y = avg_pool2d(&x, PoolCfg::new(2, 2)).unwrap();
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        for v in y.data() {
            assert_eq!(*v, 3.0);
        }
    }

    #[test]
    fn max_pool_picks_max() {
        let x = Tensor::from_fn(&[1, 1, 2, 2], |i| (i[2] * 2 + i[3]) as f32);
        let y = max_pool2d(&x, PoolCfg::new(2, 2)).unwrap();
        assert_eq!(y.data(), &[3.0]);
    }

    #[test]
    fn global_avg_pool_matches_mean() {
        let x = Tensor::from_fn(&[2, 3, 4, 4], |i| i[1] as f32);
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        for ni in 0..2 {
            for ci in 0..3 {
                assert_eq!(y.at(&[ni, ci]), ci as f32);
            }
        }
    }

    #[test]
    fn avg_pool_backward_conserves_gradient_mass() {
        let cfg = PoolCfg::new(2, 2);
        let dy = Tensor::ones(&[1, 1, 2, 2]);
        let dx = avg_pool2d_backward(&[1, 1, 4, 4], &dy, cfg).unwrap();
        assert!((dx.sum() - dy.sum()).abs() < 1e-6);
        for v in dx.data() {
            assert_eq!(*v, 0.25);
        }
    }

    #[test]
    fn padded_max_pool_matches_resnet_stem_geometry() {
        // The ResNet stem pool: 3x3/2 with padding 1 halves the map.
        let x = Tensor::from_fn(&[1, 1, 8, 8], |i| (i[2] * 8 + i[3]) as f32);
        let cfg = PoolCfg {
            window: 3,
            stride: 2,
            padding: 1,
        };
        let y = max_pool2d(&x, cfg).unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        // Top-left window sees only the in-bounds 2x2 corner {0,1,8,9}.
        assert_eq!(y.at(&[0, 0, 0, 0]), 9.0);
        // Bottom-right window sees rows/cols 5..8 -> max is 63.
        assert_eq!(y.at(&[0, 0, 3, 3]), 63.0);
    }

    #[test]
    fn padded_avg_pool_counts_pads_as_zero() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let cfg = PoolCfg {
            window: 2,
            stride: 2,
            padding: 1,
        };
        let y = avg_pool2d(&x, cfg).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Each window holds one real element and three pads: 1/4.
        for v in y.data() {
            assert_eq!(*v, 0.25);
        }
        // Backward distributes only onto in-bounds positions, conserving
        // the in-bounds share of the gradient.
        let dx = avg_pool2d_backward(&[1, 1, 2, 2], &y, cfg).unwrap();
        for v in dx.data() {
            assert_eq!(*v, 0.0625);
        }
    }

    #[test]
    fn into_variants_bit_identical_to_tensor_paths() {
        let mut r = crate::rng::seeded(71);
        let x = crate::init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut r);
        let dims = (2, 3, 8, 8);
        let cfg = PoolCfg {
            window: 3,
            stride: 2,
            padding: 1,
        };

        let want = max_pool2d(&x, cfg).unwrap();
        let mut got = vec![f32::NAN; want.len()];
        max_pool2d_into(x.data(), dims, cfg, &mut got).unwrap();
        assert_eq!(got, want.data());

        let want = global_avg_pool(&x).unwrap();
        let mut got = vec![f32::NAN; want.len()];
        global_avg_pool_into(x.data(), dims, &mut got).unwrap();
        assert_eq!(got, want.data());

        // Short slices are rejected, not silently truncated.
        assert!(max_pool2d_into(&x.data()[1..], dims, cfg, &mut got).is_err());
        assert!(global_avg_pool_into(x.data(), dims, &mut got[..1]).is_err());
    }

    /// The scalar reduction core: one output element per `(ni, ci, oy, ox)`
    /// in row-major order, each window reduced in place in `ky`-then-`kx`
    /// order with pads skipped by signed-index checks — the bitwise
    /// reference for every arm.
    fn pool_into_core<R: PoolReduce>(
        xd: &[f32],
        (n, c, h, w): (usize, usize, usize, usize),
        cfg: PoolCfg,
        (oh, ow): (usize, usize),
        out: &mut [f32],
        red: &R,
    ) {
        let mut idx = 0usize;
        for plane in xd[..n * c * h * w].chunks_exact(h * w) {
            for oy in 0..oh {
                for ox in 0..ow {
                    let s = ScalarSimd;
                    let mut acc = red.init();
                    for ky in 0..cfg.window {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..cfg.window {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc = red.vaccum(s, acc, plane[iy as usize * w + ix as usize]);
                        }
                    }
                    out[idx] = red.vfinish(s, acc);
                    idx += 1;
                }
            }
        }
    }

    /// The pre-refactor reduction core: gathers each window into a Vec in
    /// ky-then-kx pad-skipping order, then reduces the gather. Kept here
    /// as ground truth that the in-place core is a pure refactor.
    fn pool_into_vec_gather(
        xd: &[f32],
        (n, c, h, w): (usize, usize, usize, usize),
        cfg: PoolCfg,
        (oh, ow): (usize, usize),
        out: &mut [f32],
        reduce: impl Fn(&[f32]) -> f32,
    ) {
        let mut vals = Vec::with_capacity(cfg.window * cfg.window);
        let mut idx = 0usize;
        for ni in 0..n {
            for ci in 0..c {
                let plane = &xd[(ni * c + ci) * h * w..][..h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        vals.clear();
                        for ky in 0..cfg.window {
                            let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..cfg.window {
                                let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                vals.push(plane[iy as usize * w + ix as usize]);
                            }
                        }
                        out[idx] = reduce(&vals);
                        idx += 1;
                    }
                }
            }
        }
    }

    /// Inputs stressing the bit gates: signed zeros, denormals, and a
    /// value pattern with repeated window maxima.
    fn pool_inputs(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match i % 13 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::MIN_POSITIVE,
                3 => -1.0e-42,
                _ => ((i as f32 * 0.739).sin() * 4.0).trunc() * 0.5,
            })
            .collect()
    }

    /// Every ISA arm of both pooling reductions matches the in-place
    /// scalar core bitwise, and that core matches the old Vec-gather core
    /// bitwise, across odd shapes, strides and paddings.
    #[test]
    fn pool_arms_match_scalar_core_bitwise() {
        use epim_simd::{dispatch_on, CpuFeatures};
        // The last row is wide enough for two full 16-lane vectors at
        // stride 2, as in a ResNet stem pool.
        let shapes = [
            (1, 1, 5, 7),
            (2, 3, 9, 11),
            (1, 2, 8, 8),
            (1, 1, 4, 30),
            (1, 2, 7, 70),
        ];
        let cfgs = [
            PoolCfg::new(2, 2),
            PoolCfg::new(3, 1),
            PoolCfg {
                window: 3,
                stride: 2,
                padding: 1,
            },
            PoolCfg {
                window: 4,
                stride: 3,
                padding: 2,
            },
        ];
        for &(n, c, h, w) in &shapes {
            let xd = pool_inputs(n * c * h * w);
            for &cfg in &cfgs {
                let Ok((oh, ow)) = pool_out_dims(h, w, cfg) else {
                    continue;
                };
                let olen = n * c * oh * ow;
                let area = (cfg.window * cfg.window) as f32;

                let mut want_max = vec![f32::NAN; olen];
                pool_into_core(&xd, (n, c, h, w), cfg, (oh, ow), &mut want_max, &MaxReduce);
                let mut old_max = vec![f32::NAN; olen];
                pool_into_vec_gather(&xd, (n, c, h, w), cfg, (oh, ow), &mut old_max, |vals| {
                    vals.iter().copied().fold(f32::NEG_INFINITY, f32::max)
                });
                let mut want_avg = vec![f32::NAN; olen];
                pool_into_core(
                    &xd,
                    (n, c, h, w),
                    cfg,
                    (oh, ow),
                    &mut want_avg,
                    &AvgReduce { area },
                );
                let mut old_avg = vec![f32::NAN; olen];
                pool_into_vec_gather(&xd, (n, c, h, w), cfg, (oh, ow), &mut old_avg, |vals| {
                    vals.iter().sum::<f32>() / area
                });
                // `f32::max` documents the sign of a ±0 tie as
                // non-deterministic, so the old gather core had no defined
                // bit pattern there; the in-place core pins first-seen.
                // Everywhere else the refactor must be bit-identical.
                let zero_tie = |a: f32, b: f32| a == 0.0 && b == 0.0;
                for i in 0..olen {
                    assert!(
                        want_max[i].to_bits() == old_max[i].to_bits()
                            || zero_tie(want_max[i], old_max[i]),
                        "max in-place vs gather {i}"
                    );
                    assert_eq!(
                        want_avg[i].to_bits(),
                        old_avg[i].to_bits(),
                        "avg in-place vs gather {i}"
                    );
                }

                for isa in CpuFeatures::get().available() {
                    let mut got = vec![f32::NAN; olen];
                    dispatch_on(
                        isa,
                        Pool2dOp {
                            xd: &xd,
                            dims: (n, c, h, w),
                            cfg,
                            odims: (oh, ow),
                            out: &mut got,
                            red: MaxReduce,
                        },
                    );
                    for i in 0..olen {
                        assert_eq!(
                            got[i].to_bits(),
                            want_max[i].to_bits(),
                            "max {isa:?} ({n},{c},{h},{w}) {cfg:?} elem {i}"
                        );
                    }
                    dispatch_on(
                        isa,
                        Pool2dOp {
                            xd: &xd,
                            dims: (n, c, h, w),
                            cfg,
                            odims: (oh, ow),
                            out: &mut got,
                            red: AvgReduce { area },
                        },
                    );
                    for i in 0..olen {
                        assert_eq!(
                            got[i].to_bits(),
                            want_avg[i].to_bits(),
                            "avg {isa:?} ({n},{c},{h},{w}) {cfg:?} elem {i}"
                        );
                    }
                }
            }
        }
    }

    /// Output rows narrower than a vector keep the window order on every
    /// arm: on a plane of signed zeros a tie keeps the accumulator, and on
    /// a plane with NaNs a NaN never replaces it, at every `ow` from 1 to
    /// 15.
    #[test]
    fn narrow_max_pool_keeps_window_order_on_zeros_and_nans() {
        use epim_simd::{dispatch_on, CpuFeatures};
        let zeros = |i: usize| [0.0, -0.0, -0.0, -1.5, 0.0][i * 7 % 5];
        let nans = |i: usize| [0.0, f32::NAN, -0.0, 2.5, -1.0, f32::NAN, 1.0][i * 3 % 7];
        let cfgs = [
            PoolCfg {
                window: 3,
                stride: 2,
                padding: 1,
            },
            PoolCfg::new(2, 2),
            PoolCfg {
                window: 3,
                stride: 1,
                padding: 1,
            },
        ];
        for cfg in cfgs {
            for ow in 1..=15 {
                let (c, h) = (2, 5);
                let w = (ow - 1) * cfg.stride + cfg.window - 2 * cfg.padding;
                let xd: Vec<f32> = (0..c * h * w)
                    .map(|i| if i < h * w { zeros(i) } else { nans(i) })
                    .collect();
                let (oh, got_ow) = pool_out_dims(h, w, cfg).unwrap();
                assert_eq!(got_ow, ow);
                let mut want = vec![0.0; c * oh * ow];
                pool_into_core(&xd, (1, c, h, w), cfg, (oh, ow), &mut want, &MaxReduce);
                for isa in CpuFeatures::get().available() {
                    let mut got = vec![7.0; want.len()];
                    dispatch_on(
                        isa,
                        Pool2dOp {
                            xd: &xd,
                            dims: (1, c, h, w),
                            cfg,
                            odims: (oh, ow),
                            out: &mut got,
                            red: MaxReduce,
                        },
                    );
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), w.to_bits(), "{isa:?} {cfg:?} ow {ow} elem {i}");
                    }
                }
            }
        }
    }

    /// Every ISA arm of the global average pool matches the scalar loop
    /// bitwise, including channel counts that leave leftover channels.
    #[test]
    fn global_avg_pool_arms_match_scalar_bitwise() {
        use epim_simd::{dispatch_on, CpuFeatures};
        for (nc, hw) in [(1usize, 9usize), (7, 16), (24, 5), (33, 64), (16, 1)] {
            let xd = pool_inputs(nc * hw);
            let inv = 1.0 / hw as f32;
            let want: Vec<f32> = xd
                .chunks(hw)
                .map(|plane| {
                    let mut s = 0.0;
                    for &v in plane {
                        s += v;
                    }
                    s * inv
                })
                .collect();
            for isa in CpuFeatures::get().available() {
                let mut got = vec![f32::NAN; nc];
                dispatch_on(
                    isa,
                    GlobalAvgPoolOp {
                        xd: &xd,
                        nc,
                        hw,
                        out: &mut got,
                    },
                );
                for i in 0..nc {
                    assert_eq!(
                        got[i].to_bits(),
                        want[i].to_bits(),
                        "gap {isa:?} nc={nc} hw={hw} chan {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_rejects_bad_geometry() {
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(avg_pool2d(&x, PoolCfg::new(4, 1)).is_err());
        assert!(max_pool2d(&x, PoolCfg::new(2, 0)).is_err());
        // Padding >= window would create windows entirely in the padding
        // (max over nothing); rejected rather than emitting -inf.
        let fully_padded = PoolCfg {
            window: 1,
            stride: 1,
            padding: 1,
        };
        assert!(max_pool2d(&x, fully_padded).is_err());
        assert!(avg_pool2d(&x, fully_padded).is_err());
        assert!(avg_pool2d_backward(&[1, 1, 3, 3], &x, fully_padded).is_err());
    }
}
