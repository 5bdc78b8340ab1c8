//! 2-D convolution: implicit-GEMM forward, direct reference, and backward
//! passes.
//!
//! The production path is [`conv2d_packed_into`], one GEMM over the whole
//! stacked batch, `out (C_out x N·OH·OW) = W_mat · cols + bias`, on a weight
//! packed once ([`PackedWeights`]: a served layer's at plan compile,
//! [`conv2d`]'s per call). Its B operand is a `gemm::ConvWindow`: the GEMM
//! packs its panels straight from the `NCHW` activation and writes straight
//! into the `NCHW` output, so the lowered `cols` matrix is never
//! materialized and there is no separate output-rearrange or bias pass.
//! [`im2col`] itself stays for the backward pass. The naive 7-loop direct
//! convolution the forward path is checked against lives in this module's
//! tests.

use crate::ops::gemm::{self, PackedWeights};
use crate::{Tensor, TensorError};

/// Stride/padding configuration for [`conv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dCfg {
    /// Spatial stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Default for Conv2dCfg {
    fn default() -> Self {
        Conv2dCfg {
            stride: 1,
            padding: 0,
        }
    }
}

/// Output spatial dimensions of a convolution.
///
/// Returns `(out_h, out_w)` for an `in_h x in_w` input with `kh x kw`
/// kernels under `cfg`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the stride is zero or the
/// kernel does not fit in the padded input.
pub fn conv2d_out_dims(
    in_h: usize,
    in_w: usize,
    kh: usize,
    kw: usize,
    cfg: Conv2dCfg,
) -> Result<(usize, usize), TensorError> {
    if cfg.stride == 0 {
        return Err(TensorError::invalid("stride must be nonzero"));
    }
    let ph = in_h + 2 * cfg.padding;
    let pw = in_w + 2 * cfg.padding;
    if kh == 0 || kw == 0 || kh > ph || kw > pw {
        return Err(TensorError::invalid(format!(
            "kernel {kh}x{kw} does not fit padded input {ph}x{pw}"
        )));
    }
    Ok(((ph - kh) / cfg.stride + 1, (pw - kw) / cfg.stride + 1))
}

/// Number of output floats below which the copy-bound loops (im2col,
/// col2im, gradient transposes) stay serial: thread dispatch costs more
/// than the memcpy work itself.
const PARALLEL_COPY_FLOOR: usize = 1 << 16;

/// The intersection of the kernel's `kx` positions with the valid input
/// columns for an output column `ox`: returns `(kx_start, kx_end, ix_start)`
/// with `kx_end <= kx_start` meaning an empty run.
///
/// Shared by the receptive-field copy ([`im2col`] and the implicit-GEMM
/// conv window) and [`col2im`] — the clipping arithmetic is subtle (empty
/// runs, padding wider than the kernel), so there is exactly one copy of it.
#[inline]
fn kx_run(ox: usize, kw: usize, w: usize, cfg: Conv2dCfg) -> (usize, usize, usize) {
    let base = ox * cfg.stride; // ix = base + kx - padding
    let kx_start = cfg.padding.saturating_sub(base).min(kw);
    let kx_end = (w + cfg.padding).saturating_sub(base).min(kw).max(kx_start);
    // ix0 is meaningless (and unused) for empty runs; saturate to avoid
    // underflow when the whole kernel row falls in the padding.
    (
        kx_start,
        kx_end,
        (base + kx_start).saturating_sub(cfg.padding),
    )
}

/// Copies one output pixel's receptive field — the flattened `(ci, ky, kx)`
/// vector a convolution at `(oy, ox)` reads from image `ni` of the NCHW
/// buffer `xd` — into `dst`, each in-bounds `kx` run as one contiguous
/// slice.
///
/// Padded positions are not written: `dst` (`c_in * kh * kw` floats) must
/// already hold zeros there, as [`im2col`]'s rows do.
#[allow(clippy::too_many_arguments)]
fn copy_receptive_runs(
    xd: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ni: usize,
    oy: usize,
    ox: usize,
    cfg: Conv2dCfg,
    dst: &mut [f32],
) {
    let (kx0, kx1, ix0) = kx_run(ox, kw, w, cfg);
    if kx1 <= kx0 {
        return;
    }
    let run = kx1 - kx0;
    for ci in 0..c_in {
        let plane = &xd[(ni * c_in + ci) * h * w..][..h * w];
        for ky in 0..kh {
            let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
            if iy < 0 || iy >= h as isize {
                continue;
            }
            let src = &plane[iy as usize * w + ix0..][..run];
            let dst_base = (ci * kh + ky) * kw + kx0;
            dst[dst_base..dst_base + run].copy_from_slice(src);
        }
    }
}

/// Lowers image patches to a matrix (`im2col`).
///
/// Input `(N, C, H, W)` becomes a matrix of shape
/// `(N*OH*OW, C*KH*KW)` whose rows are flattened receptive fields. This is
/// the same lowering a PIM accelerator performs when feeding word lines: each
/// row is one crossbar input vector.
///
/// The inner loop copies each in-bounds `kx` run as one contiguous slice,
/// and rows are filled in parallel for large problems.
///
/// # Errors
///
/// Propagates geometry errors from [`conv2d_out_dims`] and rank errors.
pub fn im2col(x: &Tensor, kh: usize, kw: usize, cfg: Conv2dCfg) -> Result<Tensor, TensorError> {
    if x.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: x.rank(),
            op: "im2col",
        });
    }
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = conv2d_out_dims(h, w, kh, kw, cfg)?;
    let rows = n * oh * ow;
    let cols = c * kh * kw;
    // Rows start zeroed and are written exactly once, so the copy core
    // can skip the per-row zeroing.
    let mut out = vec![0.0f32; rows * cols];
    let fill_rows = |row0: usize, chunk: &mut [f32]| {
        for (r, orow) in chunk.chunks_mut(cols).enumerate() {
            let row = row0 + r;
            let ox = row % ow;
            let oy = (row / ow) % oh;
            let ni = row / (oh * ow);
            copy_receptive_runs(x.data(), c, h, w, kh, kw, ni, oy, ox, cfg, orow);
        }
    };
    // One chunk = all rows of one output scanline (ni, oy): big enough to
    // amortize dispatch, small enough to balance. Below the copy floor, one
    // chunk == fully serial (no thread dispatch).
    let chunk_rows = if rows * cols < PARALLEL_COPY_FLOOR {
        rows.max(1)
    } else {
        ow.max(1)
    };
    epim_parallel::for_each_chunk_mut(&mut out, chunk_rows * cols, |ci, chunk| {
        fill_rows(ci * chunk_rows, chunk);
    });
    Tensor::from_vec(out, &[rows, cols])
}

/// Accumulates an im2col matrix back into image space (`col2im`).
///
/// The adjoint of [`im2col`]: overlapping patch positions are summed. Used
/// by [`conv2d_backward`] to form input gradients. Parallelized over
/// `(image, channel)` output planes, which are disjoint.
///
/// # Errors
///
/// Returns geometry errors if `cols` does not match the implied shape.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols_mat: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cfg: Conv2dCfg,
) -> Result<Tensor, TensorError> {
    let (oh, ow) = conv2d_out_dims(h, w, kh, kw, cfg)?;
    let rows = n * oh * ow;
    let cols = c * kh * kw;
    if cols_mat.shape() != [rows, cols] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![rows, cols],
            actual: cols_mat.shape().to_vec(),
            op: "col2im",
        });
    }
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let cd = cols_mat.data();
    // Each (ni, ci) output plane accumulates only from its own column block,
    // so planes parallelize without synchronization.
    let total = out.len();
    let accumulate_plane = |plane_idx: usize, plane: &mut [f32]| {
        let ni = plane_idx / c;
        let ci = plane_idx % c;
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (ni * oh + oy) * ow + ox;
                let (kx0, kx1, ix0) = kx_run(ox, kw, w, cfg);
                if kx1 <= kx0 {
                    continue;
                }
                let run = kx1 - kx0;
                for ky in 0..kh {
                    let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let col = (ci * kh + ky) * kw + kx0;
                    let src = &cd[row * cols + col..row * cols + col + run];
                    let dst = &mut plane[iy as usize * w + ix0..iy as usize * w + ix0 + run];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
        }
    };
    if total < PARALLEL_COPY_FLOOR {
        for (idx, plane) in out.data_mut().chunks_mut(h * w).enumerate() {
            accumulate_plane(idx, plane);
        }
    } else {
        epim_parallel::for_each_chunk_mut(out.data_mut(), h * w, accumulate_plane);
    }
    Ok(out)
}

fn check_conv_operands(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<(), TensorError> {
    if x.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: x.rank(),
            op: "conv2d",
        });
    }
    if weight.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: weight.rank(),
            op: "conv2d",
        });
    }
    let c_in = x.shape()[1];
    let (c_out, wc_in) = (weight.shape()[0], weight.shape()[1]);
    if wc_in != c_in {
        return Err(TensorError::ShapeMismatch {
            expected: vec![c_in],
            actual: vec![wc_in],
            op: "conv2d (input channels)",
        });
    }
    if let Some(b) = bias {
        if b.shape() != [c_out] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![c_out],
                actual: b.shape().to_vec(),
                op: "conv2d (bias)",
            });
        }
    }
    Ok(())
}

/// 2-D convolution (cross-correlation, as in every DL framework).
///
/// `x` is `(N, C_in, H, W)`, `weight` is `(C_out, C_in, KH, KW)`, `bias`
/// (optional) is `(C_out)`. Returns `(N, C_out, OH, OW)`.
///
/// Packs the weight for this call and runs [`conv2d_packed_into`]: one
/// implicit GEMM over the stacked batch that writes **directly into the
/// `NCHW` output layout** with the bias folded into the GEMM epilogue,
/// `out[n] (C_out x OH*OW) = W_mat · cols_n + b`, the columns packed from
/// `x` as the GEMM consumes them. Each image's result is bit-identical to
/// convolving it alone. Unlike the seed implementation there is no lowered
/// matrix, no second rearrange pass over the output and no per-pixel bias
/// lookup.
///
/// # Errors
///
/// Returns rank/shape errors if operands disagree or the geometry is
/// invalid.
pub fn conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
) -> Result<Tensor, TensorError> {
    check_conv_operands(x, weight, bias)?;
    let dims = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (c_out, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let (oh, ow) = conv2d_out_dims(dims.2, dims.3, kh, kw, cfg)?;
    let mut out = Tensor::zeros(&[dims.0, c_out, oh, ow]);
    let packed = PackedWeights::new(weight.data(), c_out, dims.1 * kh * kw, oh * ow);
    conv2d_packed_into(
        x.data(),
        dims,
        &packed,
        (kh, kw),
        bias,
        cfg,
        false,
        out.data_mut(),
    )?;
    Ok(out)
}

/// Slice-based [`conv2d`] on a weight packed once — the `(c_out,
/// c_in·kh·kw)` matrix of a `kh x kw` kernel as [`PackedWeights`] for
/// `oh·ow` pixels — with an optional fused ReLU epilogue, for executors
/// that own the activation storage and run the same layer on every request.
///
/// `xd` holds an `(n, c_in, h, w)` NCHW image block and `out` receives the
/// `(n, c_out, oh, ow)` result (stale contents are fine — every element is
/// overwritten). Bit-identical to [`conv2d`]; with `relu` set, every output
/// element is clamped via the GEMM kernels' fused epilogue, bit-identical
/// to [`conv2d`] followed by a separate elementwise ReLU.
///
/// # Errors
///
/// Returns shape errors if the packed weight's K is not `c_in·kh·kw` or
/// `bias` is not `c_out` long, and invalid-argument errors if the geometry
/// is invalid or a slice is too short.
///
/// # Panics
///
/// Panics if `weight` was packed for more pixels than the convolution has.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_packed_into(
    xd: &[f32],
    (n, c_in, h, w): (usize, usize, usize, usize),
    weight: &PackedWeights,
    (kh, kw): (usize, usize),
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    relu: bool,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let c_out = weight.m();
    if weight.k() != c_in * kh * kw {
        return Err(TensorError::ShapeMismatch {
            expected: vec![c_in * kh * kw],
            actual: vec![weight.k()],
            op: "conv2d_packed_into (input channels x kernel)",
        });
    }
    if let Some(b) = bias {
        if b.shape() != [c_out] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![c_out],
                actual: b.shape().to_vec(),
                op: "conv2d_packed_into (bias)",
            });
        }
    }
    let (oh, ow) = conv2d_out_dims(h, w, kh, kw, cfg)?;
    if xd.len() < n * c_in * h * w {
        return Err(TensorError::invalid(
            "conv2d_packed_into: input slice too short",
        ));
    }
    if out.len() < n * c_out * oh * ow {
        return Err(TensorError::invalid(
            "conv2d_packed_into: output slice too short",
        ));
    }
    let window = gemm::ConvWindow::new(xd, (n, c_in, h, w), (kh, kw), cfg, (oh, ow));
    gemm::gemm_conv(weight, window, bias.map(Tensor::data), relu, out);
    Ok(())
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `(N, C_in, H, W)`.
    pub dx: Tensor,
    /// Gradient w.r.t. the weight, `(C_out, C_in, KH, KW)`.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias, `(C_out)`.
    pub db: Tensor,
}

/// Backward pass of [`conv2d`].
///
/// `dy` is the upstream gradient `(N, C_out, OH, OW)`. All three products
/// run on the stride-aware GEMM kernels: `dW = dY_matᵀ · cols` uses
/// [`gemm::gemm_tn`] on the *pixel-major* gradient without materializing
/// either transpose.
///
/// # Errors
///
/// Returns rank/shape errors if operands disagree with the forward geometry.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    cfg: Conv2dCfg,
) -> Result<Conv2dGrads, TensorError> {
    let (n, c_in, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (c_out, _, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    let (oh, ow) = conv2d_out_dims(h, w, kh, kw, cfg)?;
    if dy.shape() != [n, c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![n, c_out, oh, ow],
            actual: dy.shape().to_vec(),
            op: "conv2d_backward",
        });
    }
    let pixels = oh * ow;
    let rows = n * pixels;

    // dY as pixel-major matrix (N*OH*OW, C_out): transpose each image's
    // (C_out, OH*OW) plane with contiguous reads.
    let mut dy_mat = vec![0.0f32; rows * c_out];
    {
        let yd = dy.data();
        let transpose_image = |ni: usize, chunk: &mut [f32]| {
            for co in 0..c_out {
                let src = &yd[(ni * c_out + co) * pixels..(ni * c_out + co + 1) * pixels];
                for (p, &v) in src.iter().enumerate() {
                    chunk[p * c_out + co] = v;
                }
            }
        };
        if dy_mat.len() < PARALLEL_COPY_FLOOR {
            for (ni, chunk) in dy_mat.chunks_mut(pixels * c_out).enumerate() {
                transpose_image(ni, chunk);
            }
        } else {
            epim_parallel::for_each_chunk_mut(&mut dy_mat, pixels * c_out, transpose_image);
        }
    }

    let cols = im2col(x, kh, kw, cfg)?; // (R, C_in*KH*KW)
    let ckk = c_in * kh * kw;

    // dW = dY_matᵀ · cols -> (C_out, C_in*KH*KW), no explicit transpose.
    let mut dw_mat = vec![0.0f32; c_out * ckk];
    gemm::gemm_tn(c_out, ckk, rows, &dy_mat, cols.data(), &mut dw_mat);
    let dw = Tensor::from_vec(dw_mat, &[c_out, c_in, kh, kw])?;

    // db = column sums of dY_mat (row-wise accumulation vectorizes).
    let mut db = Tensor::zeros(&[c_out]);
    {
        let bd = db.data_mut();
        for row in dy_mat.chunks(c_out) {
            for (b, &v) in bd.iter_mut().zip(row) {
                *b += v;
            }
        }
    }

    // dX: dcols = dY_mat · W_mat, then col2im.
    let mut dcols = vec![0.0f32; rows * ckk];
    gemm::gemm(rows, ckk, c_out, &dy_mat, weight.data(), &mut dcols);
    let dcols = Tensor::from_vec(dcols, &[rows, ckk])?;
    let dx = col2im(&dcols, n, c_in, h, w, kh, kw, cfg)?;

    Ok(Conv2dGrads { dx, dw, db })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive 7-loop direct convolution — the ground truth for the forward
    /// path (no im2col, no GEMM, f32 accumulation in source order).
    fn conv2d_direct(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, cfg: Conv2dCfg) -> Tensor {
        let (n, c_in, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (c_out, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
        let (oh, ow) = conv2d_out_dims(h, wd, kh, kw, cfg).expect("valid geometry");
        Tensor::from_fn(&[n, c_out, oh, ow], |idx| {
            let (ni, co, oy, ox) = (idx[0], idx[1], idx[2], idx[3]);
            let mut acc = bias.map(|b| b.data()[co]).unwrap_or(0.0);
            for ci in 0..c_in {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= wd as isize {
                            continue;
                        }
                        acc += x.at(&[ni, ci, iy as usize, ix as usize]) * w.at(&[co, ci, ky, kx]);
                    }
                }
            }
            acc
        })
    }

    #[test]
    fn out_dims_basic() {
        assert_eq!(
            conv2d_out_dims(
                8,
                8,
                3,
                3,
                Conv2dCfg {
                    stride: 1,
                    padding: 1
                }
            )
            .unwrap(),
            (8, 8)
        );
        assert_eq!(
            conv2d_out_dims(
                8,
                8,
                3,
                3,
                Conv2dCfg {
                    stride: 2,
                    padding: 1
                }
            )
            .unwrap(),
            (4, 4)
        );
        assert_eq!(
            conv2d_out_dims(7, 7, 1, 1, Conv2dCfg::default()).unwrap(),
            (7, 7)
        );
        assert!(conv2d_out_dims(4, 4, 5, 5, Conv2dCfg::default()).is_err());
        assert!(conv2d_out_dims(
            4,
            4,
            3,
            3,
            Conv2dCfg {
                stride: 0,
                padding: 0
            }
        )
        .is_err());
    }

    #[test]
    fn conv_matches_direct_reference() {
        let mut r = crate::rng::seeded(11);
        let x = crate::init::uniform(&[2, 3, 7, 7], -1.0, 1.0, &mut r);
        let w = crate::init::uniform(&[4, 3, 3, 3], -1.0, 1.0, &mut r);
        for cfg in [
            Conv2dCfg {
                stride: 1,
                padding: 0,
            },
            Conv2dCfg {
                stride: 1,
                padding: 1,
            },
            Conv2dCfg {
                stride: 2,
                padding: 1,
            },
        ] {
            let got = conv2d(&x, &w, None, cfg).unwrap();
            let want = conv2d_direct(&x, &w, None, cfg);
            assert!(got.allclose(&want, 1e-4).unwrap(), "cfg {cfg:?}");
        }
    }

    #[test]
    fn fused_matches_unfused_reference_with_bias() {
        let mut r = crate::rng::seeded(12);
        let x = crate::init::uniform(&[2, 3, 9, 7], -1.0, 1.0, &mut r);
        let w = crate::init::uniform(&[5, 3, 3, 3], -1.0, 1.0, &mut r);
        let b = crate::init::uniform(&[5], -1.0, 1.0, &mut r);
        for cfg in [
            Conv2dCfg {
                stride: 1,
                padding: 0,
            },
            Conv2dCfg {
                stride: 1,
                padding: 1,
            },
            Conv2dCfg {
                stride: 2,
                padding: 1,
            },
            Conv2dCfg {
                stride: 2,
                padding: 0,
            },
        ] {
            let fused = conv2d(&x, &w, Some(&b), cfg).unwrap();
            let direct = conv2d_direct(&x, &w, Some(&b), cfg);
            assert!(fused.allclose(&direct, 1e-4).unwrap(), "cfg {cfg:?}");
        }
    }

    #[test]
    fn batched_images_bit_identical_to_per_image() {
        // The multi-image GEMM batching must be invisible: convolving a
        // stacked (N, C, H, W) batch equals convolving each image alone,
        // bitwise. This is what lets the network pipeline stack whole
        // request groups through dense stages.
        let mut r = crate::rng::seeded(51);
        for &(n, c_in, c_out, hw) in &[
            (2usize, 3usize, 4usize, 6usize),
            (16, 8, 16, 7),
            (5, 4, 32, 12),
            (16, 8, 16, 8),
            (8, 16, 32, 14),
        ] {
            let x = crate::init::uniform(&[n, c_in, hw, hw], -1.0, 1.0, &mut r);
            let w = crate::init::uniform(&[c_out, c_in, 3, 3], -1.0, 1.0, &mut r);
            let b = crate::init::uniform(&[c_out], -1.0, 1.0, &mut r);
            let cfg = Conv2dCfg {
                stride: 1,
                padding: 1,
            };
            let stacked = conv2d(&x, &w, Some(&b), cfg).unwrap();
            let plane = c_in * hw * hw;
            for ni in 0..n {
                let xi = Tensor::from_vec(
                    x.data()[ni * plane..(ni + 1) * plane].to_vec(),
                    &[1, c_in, hw, hw],
                )
                .unwrap();
                let yi = conv2d(&xi, &w, Some(&b), cfg).unwrap();
                let oplane = yi.len();
                assert_eq!(
                    &stacked.data()[ni * oplane..(ni + 1) * oplane],
                    yi.data(),
                    "image {ni} of {n} diverged under batching"
                );
            }
        }
    }

    #[test]
    fn conv2d_into_bit_identical_and_fuses_relu() {
        // The slice-based entry on a weight packed once (stale output) must
        // match the allocating path bitwise, and its fused ReLU must match a
        // separate ReLU pass bitwise.
        let mut r = crate::rng::seeded(61);
        for &(n, c_in, c_out, hw, stride, padding) in &[
            (1usize, 2usize, 3usize, 5usize, 1usize, 0usize),
            (2, 3, 4, 7, 1, 1),
            (3, 4, 8, 9, 2, 1),
        ] {
            let x = crate::init::uniform(&[n, c_in, hw, hw], -1.0, 1.0, &mut r);
            let w = crate::init::uniform(&[c_out, c_in, 3, 3], -1.0, 1.0, &mut r);
            let b = crate::init::uniform(&[c_out], -1.0, 1.0, &mut r);
            let cfg = Conv2dCfg { stride, padding };
            let want = conv2d(&x, &w, Some(&b), cfg).unwrap();
            let (oh, ow) = conv2d_out_dims(hw, hw, 3, 3, cfg).unwrap();
            let out_len = n * c_out * oh * ow;
            let dims = (n, c_in, hw, hw);
            let packed = PackedWeights::new(w.data(), c_out, c_in * 9, oh * ow);
            let conv = |relu: bool, out: &mut [f32]| {
                conv2d_packed_into(x.data(), dims, &packed, (3, 3), Some(&b), cfg, relu, out)
            };

            let mut out = vec![f32::NAN; out_len];
            conv(false, &mut out).unwrap();
            assert_eq!(out, want.data(), "unfused into-path diverged");

            let mut relu_want = want.clone();
            for v in relu_want.data_mut() {
                *v = v.max(0.0);
            }
            out.fill(f32::NAN);
            conv(true, &mut out).unwrap();
            assert_eq!(out, relu_want.data(), "fused relu diverged");
        }
    }

    /// The materialised pipeline the implicit GEMM replaced, kept as the
    /// oracle: lower every patch with [`im2col`], then one `W · colsᵀ` GEMM
    /// per image against its block of the lowered matrix.
    fn conv2d_materialised(
        x: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        cfg: Conv2dCfg,
        relu: bool,
    ) -> Vec<f32> {
        let (c_out, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
        let cols = im2col(x, kh, kw, cfg).unwrap();
        let ckk = cols.shape()[1];
        let pixels = cols.shape()[0] / x.shape()[0];
        let packed = PackedWeights::new(weight.data(), c_out, ckk, pixels);
        let bias = bias.map_or(gemm::Bias::None, |b| gemm::Bias::PerRow(b.data()));
        let mut out = vec![f32::NAN; x.shape()[0] * c_out * pixels];
        for (cols_n, out_n) in cols
            .data()
            .chunks(pixels * ckk)
            .zip(out.chunks_mut(c_out * pixels))
        {
            gemm::gemm_packed_nt(&packed, pixels, cols_n, bias, false, out_n);
        }
        if relu {
            for v in &mut out {
                *v = v.max(0.0);
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// `conv2d` and `conv2d_packed_into` (bias and ReLU on and off) against the
    /// materialised oracle, bit for bit, for `(batch, c_in, c_out, h, kernel,
    /// stride, padding)` cases on square inputs.
    fn assert_matches_materialised(cases: &[(usize, usize, usize, usize, usize, usize, usize)]) {
        let mut r = crate::rng::seeded(71);
        for &(n, c_in, c_out, hw, kk, stride, padding) in cases {
            let x = crate::init::uniform(&[n, c_in, hw, hw], -1.0, 1.0, &mut r);
            let w = crate::init::uniform(&[c_out, c_in, kk, kk], -1.0, 1.0, &mut r);
            let b = crate::init::uniform(&[c_out], -1.0, 1.0, &mut r);
            let cfg = Conv2dCfg { stride, padding };
            let case = format!("n={n} {c_in}->{c_out} {kk}x{kk} s{stride} p{padding} on {hw}x{hw}");
            for bias in [None, Some(&b)] {
                let want = conv2d_materialised(&x, &w, bias, cfg, false);
                let got = conv2d(&x, &w, bias, cfg).unwrap();
                assert_eq!(bits(got.data()), bits(&want), "conv2d {case}");
                let (oh, ow) = conv2d_out_dims(hw, hw, kk, kk, cfg).unwrap();
                let packed = PackedWeights::new(w.data(), c_out, c_in * kk * kk, oh * ow);
                for relu in [false, true] {
                    let want = conv2d_materialised(&x, &w, bias, cfg, relu);
                    let mut out = vec![f32::NAN; want.len()];
                    let dims = (n, c_in, hw, hw);
                    conv2d_packed_into(
                        x.data(),
                        dims,
                        &packed,
                        (kk, kk),
                        bias,
                        cfg,
                        relu,
                        &mut out,
                    )
                    .unwrap();
                    assert_eq!(
                        bits(&out),
                        bits(&want),
                        "conv2d_packed_into relu={relu} {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn implicit_gemm_bit_identical_to_materialised_im2col() {
        assert_matches_materialised(&[
            // 1x1 stride 1, k exactly one KC slice; 49 pixels per image, so
            // panels of every width span two images.
            (2, 256, 64, 7, 1, 1, 0),
            (3, 27, 8, 14, 1, 1, 0),
            // 1x1 stride 2, k one past the slice.
            (3, 257, 9, 14, 1, 2, 0),
            (1, 64, 7, 13, 1, 2, 0),
            // 3x3 pad 1: rows shorter than, about, and longer than a panel.
            (1, 3, 8, 31, 3, 1, 1),
            (2, 3, 7, 33, 3, 1, 1),
            (2, 8, 64, 56, 3, 1, 1),
            (8, 32, 1, 14, 3, 1, 1),
            (3, 16, 9, 28, 3, 2, 1),
            (2, 5, 8, 61, 3, 2, 1),
            // The stem: 7x7 stride 2 pad 3.
            (2, 3, 8, 28, 7, 2, 3),
            (1, 3, 64, 62, 7, 2, 3),
            // Many K slices on a 7x7 map.
            (2, 512, 9, 7, 3, 1, 1),
            // One output pixel per image: eight images in one panel.
            (8, 64, 64, 3, 3, 1, 0),
            // Padding wider than the kernel: whole runs fall in it.
            (2, 16, 16, 11, 2, 1, 3),
            (3, 16, 9, 9, 2, 2, 3),
            // The ResNet-50 layers that bracket the network, batch 2: a
            // 56x56 pointwise and 3x3, the deepest 7x7 3x3, the 224x224 stem.
            (2, 256, 64, 56, 1, 1, 0),
            (2, 64, 64, 56, 3, 1, 1),
            (2, 512, 512, 7, 3, 1, 1),
            (2, 3, 64, 224, 7, 2, 3),
        ]);
    }

    #[test]
    fn small_convolutions_bit_identical_to_materialised_im2col() {
        // At or under `SMALL_FLOPS` per image the plain serial loops run on
        // a gathered operand: every conv of the zoo's tiny ResNet at 16x16,
        // a one-pixel output, padding wider than the kernel — alone, in a
        // small batch, and in a batch big enough to cross images in
        // parallel.
        for n in [1, 2, 8, 200] {
            assert_matches_materialised(&[
                (n, 3, 8, 16, 3, 2, 1),
                (n, 8, 4, 4, 1, 1, 0),
                (n, 4, 4, 4, 3, 1, 1),
                (n, 4, 16, 4, 1, 1, 0),
                (n, 8, 16, 4, 1, 1, 0),
                (n, 16, 4, 4, 1, 1, 0),
                (n, 4, 10, 3, 3, 1, 0),
                (n, 2, 3, 5, 2, 1, 3),
            ]);
        }
    }

    #[test]
    fn conv2d_packed_into_names_itself_in_errors() {
        // Its errors reach wire clients: each must name the served entry.
        let packed = PackedWeights::new(&[0.0; 2 * 3 * 9], 2, 3 * 9, 9);
        let dims = (1, 3, 5, 5);
        let cfg = Conv2dCfg::default();
        let x = vec![0.0; 3 * 5 * 5];
        let mut out = vec![0.0; 2 * 3 * 3];
        let bias = Tensor::zeros(&[3]);
        let err = conv2d_packed_into(&x, dims, &packed, (3, 3), Some(&bias), cfg, false, &mut out)
            .unwrap_err();
        assert!(
            matches!(
                err,
                TensorError::ShapeMismatch {
                    op: "conv2d_packed_into (bias)",
                    ..
                }
            ),
            "{err:?}"
        );
        for (x_len, out_len) in [(x.len() - 1, out.len()), (x.len(), out.len() - 1)] {
            let out = &mut out[..out_len];
            let err = conv2d_packed_into(&x[..x_len], dims, &packed, (3, 3), None, cfg, false, out)
                .unwrap_err();
            assert!(err.to_string().contains("conv2d_packed_into"), "{err}");
        }
    }

    #[test]
    fn conv_bias_added_per_channel() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let y = conv2d(&x, &w, Some(&b), Conv2dCfg::default()).unwrap();
        for oy in 0..3 {
            for ox in 0..3 {
                assert_eq!(y.at(&[0, 0, oy, ox]), 1.5);
                assert_eq!(y.at(&[0, 1, oy, ox]), -2.0);
            }
        }
    }

    #[test]
    fn conv_rejects_channel_mismatch() {
        let x = Tensor::zeros(&[1, 3, 5, 5]);
        let w = Tensor::zeros(&[2, 4, 3, 3]);
        assert!(conv2d(&x, &w, None, Conv2dCfg::default()).is_err());
    }

    #[test]
    fn im2col_col2im_adjointness() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let mut r = crate::rng::seeded(21);
        let cfg = Conv2dCfg {
            stride: 2,
            padding: 1,
        };
        let x = crate::init::uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut r);
        let cols = im2col(&x, 3, 3, cfg).unwrap();
        let y = crate::init::uniform(cols.shape(), -1.0, 1.0, &mut r);
        let lhs: f32 = cols.mul(&y).unwrap().sum();
        let back = col2im(&y, 1, 2, 6, 6, 3, 3, cfg).unwrap();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut r = crate::rng::seeded(31);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 1,
        };
        let x = crate::init::uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut r);
        let w = crate::init::uniform(&[3, 2, 3, 3], -1.0, 1.0, &mut r);
        let y = conv2d(&x, &w, None, cfg).unwrap();
        // Loss = sum(y^2)/2, so dy = y.
        let grads = conv2d_backward(&x, &w, &y, cfg).unwrap();

        let eps = 1e-2f32;
        let loss =
            |x: &Tensor, w: &Tensor| -> f32 { conv2d(x, w, None, cfg).unwrap().norm_sq() / 2.0 };
        // Check several weight coordinates.
        for &flat in &[0usize, 7, 23, 53] {
            let mut wp = w.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = w.clone();
            wm.data_mut()[flat] -= eps;
            let fd = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            let an = grads.dw.data()[flat];
            assert!(
                (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                "dw[{flat}] fd {fd} an {an}"
            );
        }
        // Check input coordinates.
        for &flat in &[0usize, 11, 29, 49] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let fd = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            let an = grads.dx.data()[flat];
            assert!(
                (fd - an).abs() < 0.05 * (1.0 + an.abs()),
                "dx[{flat}] fd {fd} an {an}"
            );
        }
    }

    #[test]
    fn backward_bias_is_spatial_sum() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[2, 1, 3, 3]);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 0,
        };
        let dy = Tensor::ones(&[1, 2, 2, 2]);
        let g = conv2d_backward(&x, &w, &dy, cfg).unwrap();
        assert_eq!(g.db.data(), &[4.0, 4.0]);
    }

    #[test]
    fn conv_1x1_is_channel_mixing() {
        // 1x1 conv == per-pixel linear map over channels.
        let x = Tensor::from_fn(&[1, 2, 2, 2], |i| (i[1] + 1) as f32);
        let w = Tensor::from_vec(vec![1.0, 2.0], &[1, 2, 1, 1]).unwrap();
        let y = conv2d(&x, &w, None, Conv2dCfg::default()).unwrap();
        // Every pixel: 1*1 + 2*2 = 5.
        for v in y.data() {
            assert_eq!(*v, 5.0);
        }
    }

    #[test]
    fn large_padding_fully_clipped_rows() {
        // Padding bigger than the kernel produces border rows whose kx runs
        // are empty; both paths must agree (regression for the run math).
        let mut r = crate::rng::seeded(41);
        let x = crate::init::uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut r);
        let w = crate::init::uniform(&[3, 2, 2, 2], -1.0, 1.0, &mut r);
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 3,
        };
        let got = conv2d(&x, &w, None, cfg).unwrap();
        let want = conv2d_direct(&x, &w, None, cfg);
        assert!(got.allclose(&want, 1e-4).unwrap());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused conv path matches the naive direct reference across
        /// odd geometries: stride 2, padding 1, 1x1 kernels, non-square
        /// inputs.
        #[test]
        fn fused_conv_matches_direct(
            (n, cin, cout, seed) in (1usize..3, 1usize..6, 1usize..9, 0u64..1000),
            (k, stride, padding) in (1usize..=4, 1usize..=2, 0usize..=2),
            (h, w) in (4usize..11, 4usize..11),
        ) {
            // Skip geometries where the kernel does not fit.
            if k > h + 2 * padding || k > w + 2 * padding {
                return Ok(());
            }
            let cfg = Conv2dCfg { stride, padding };
            let tensor = |shape: &[usize], seed: u64| {
                crate::init::uniform(shape, -1.0, 1.0, &mut crate::rng::seeded(seed))
            };
            let x = tensor(&[n, cin, h, w], seed);
            let wt = tensor(&[cout, cin, k, k], seed ^ 6);
            let b = tensor(&[cout], seed ^ 7);

            let fused = conv2d(&x, &wt, Some(&b), cfg).unwrap();
            let direct = conv2d_direct(&x, &wt, Some(&b), cfg);
            prop_assert!(fused.allclose(&direct, 1e-4).unwrap(),
                "conv n={} cin={} cout={} k={} s={} p={} {}x{} mse={}",
                n, cin, cout, k, stride, padding, h, w, fused.mse(&direct).unwrap());
        }
    }
}
