//! The batched crossbar matrix-vector multiply of the data path.
//!
//! One activation round drives its word lines with a whole tile of pixels
//! at once and senses `width` bit lines. The pixels' receptive fields are
//! windows of one staged input buffer (zero-padded, DAC-quantized NCHW
//! images): pixel `t`'s window starts at `origins[t]`, and tap `k` of the
//! round, `taps[k] = (word_line, window_offset)`, drives `word_line` with
//! the input element `window_offset` floats past that origin — the round's
//! IFAT ∘ IFRT composition, resolved to buffer addresses:
//!
//! ```text
//! out[t][j] = sum_k input[origins[t] + taps[k].1] * matrix[taps[k].0][col0 + j]
//! ```
//!
//! Both operands are read in place: no weight panel is packed, no
//! receptive-field (im2col) matrix is built and no word-line voltage
//! vector is gathered.
//!
//! **Bit-exactness contract.** Every output element is produced by the same
//! sequence of (round-to-nearest multiply, round-to-nearest add), `k`
//! strictly in order from a `0.0` accumulator, as the scalar per-pixel loop
//! in `DataPath::execute_reference` — the oracle, whose word lines run in
//! ascending order, the order of a round's taps. Blocking only reuses
//! each weight row across `MVM_TB` (8) pixels and keeps the accumulators in
//! registers; vectorizing across the independent pixel/bit-line lanes
//! reorders no per-element sum. That rules out `mul_add` (one rounding
//! instead of two) and `epim_tensor`'s GEMM (FMA micro-kernels, split `k`).
//!
//! Two kernels compute it. Plain Rust compiles for generic x86-64, i.e.
//! SSE2, so [`crossbar_mvm_portable`] runs 4-lane code whatever the host;
//! the wide kernel is a [`SimdOp`] monomorphized per ISA by `epim-simd`.
//! [`crossbar_mvm`] picks between them from what it can see: a round
//! narrower than one AVX-512 vector (the zoo's 2–4 bit lines) has nothing
//! for the wide kernel's vector tiles to do, and its per-call dispatch and
//! per-column tail cost more than the portable block; and on a host whose
//! only `epim-simd` arm is the one-lane reference, the portable block's
//! 4 lanes are the wider code.

use epim_simd::{dispatch, isa, Isa, ScalarSimd, Simd, SimdOp};

/// Pixel rows per register block.
pub(crate) const MVM_TB: usize = 8;

/// Rounds at least this wide run the `epim-simd` kernel.
const WIDE_MIN_WIDTH: usize = 16;

/// One activation round's operands (see the module docs for the sum).
#[derive(Debug, Clone, Copy)]
pub struct CrossbarRound<'a> {
    /// The staged input buffer every pixel's window lies in.
    pub input: &'a [f32],
    /// Per pixel of the tile, where its window starts in `input`.
    pub origins: &'a [usize],
    /// The programmed crossbar, `(word lines, ld)` row-major.
    pub matrix: &'a [f32],
    /// Floats per crossbar row.
    pub ld: usize,
    /// First sensed bit line.
    pub col0: usize,
    /// Number of sensed bit lines.
    pub width: usize,
    /// `(word_line, window_offset)` per driven word line, in sum order.
    pub taps: &'a [(usize, usize)],
}

impl CrossbarRound<'_> {
    /// Panics unless every index the sum addresses lies inside its slice
    /// and `out` holds exactly `pixels * width` floats; the wide kernel's
    /// pointer loads and stores rely on it.
    fn check(&self, out: &[f32]) {
        assert!(self.ld > 0 && self.col0 + self.width <= self.ld);
        assert!(self.ld <= self.matrix.len());
        let word_lines = self.matrix.len() / self.ld;
        assert!(self.taps.iter().all(|&(wl, _)| wl < word_lines));
        let max_origin = self.origins.iter().copied().max().unwrap_or(0);
        let max_offset = self.taps.iter().map(|&(_, at)| at).max().unwrap_or(0);
        assert!(
            self.origins.is_empty() || max_origin.saturating_add(max_offset) < self.input.len()
        );
        assert!(out.len() == self.origins.len() * self.width);
    }
}

/// Computes one round for every pixel of the tile into `out` (`(pixels,
/// width)` row-major), on the kernel the round's width and the host's ISA
/// select. Both kernels produce identical bits.
///
/// # Panics
///
/// Panics if a tap reaches outside `round.input` from any origin or names
/// a word line outside `round.matrix`, or `out` is not exactly `pixels *
/// round.width` long.
pub fn crossbar_mvm(round: CrossbarRound<'_>, out: &mut [f32]) {
    if round.width < WIDE_MIN_WIDTH || isa() == Isa::Scalar {
        return crossbar_mvm_portable(round, out);
    }
    round.check(out);
    dispatch(MvmOp { round, out });
}

/// [`crossbar_mvm`] in plain Rust: an `8 x 8` accumulator block the
/// compiler keeps in (SSE2) registers, plain loops for a short pixel block
/// or a narrow bit-line chunk. The kernel for narrow rounds, and the
/// baseline `bench_kernels` times the wide kernel against.
///
/// # Panics
///
/// Same contract as [`crossbar_mvm`].
pub fn crossbar_mvm_portable(round: CrossbarRound<'_>, out: &mut [f32]) {
    round.check(out);
    let CrossbarRound {
        input,
        origins,
        matrix,
        ld,
        col0,
        width,
        taps,
    } = round;
    if width == 0 {
        return;
    }
    let blocks = origins.chunks(MVM_TB).zip(out.chunks_mut(MVM_TB * width));
    for (origins, out) in blocks {
        let mut j0 = 0;
        while j0 < width {
            let jl = (width - j0).min(8);
            if origins.len() == MVM_TB && jl == 8 {
                let mut acc = [[0.0f32; 8]; MVM_TB];
                for &(wl, at) in taps {
                    let b = &matrix[wl * ld + col0 + j0..][..8];
                    for (acc_row, &origin) in acc.iter_mut().zip(origins) {
                        let v = input[origin + at];
                        for (s, &m) in acc_row.iter_mut().zip(b) {
                            *s += v * m;
                        }
                    }
                }
                for (ti, acc_row) in acc.iter().enumerate() {
                    out[ti * width + j0..][..8].copy_from_slice(acc_row);
                }
            } else {
                for (ti, &origin) in origins.iter().enumerate() {
                    let orow = &mut out[ti * width + j0..][..jl];
                    orow.fill(0.0);
                    for &(wl, at) in taps {
                        let v = input[origin + at];
                        let b = &matrix[wl * ld + col0 + j0..][..jl];
                        for (s, &m) in orow.iter_mut().zip(b) {
                            *s += v * m;
                        }
                    }
                }
            }
            j0 += jl;
        }
    }
}

/// The wide kernel: [`MVM_TB`] pixels × 2·`LANES` bit lines of register
/// accumulators per tile, one vector of `LANES` for a leftover vector and
/// one-lane tiles for the last `width % LANES` columns.
struct MvmOp<'a> {
    round: CrossbarRound<'a>,
    out: &'a mut [f32],
}

impl SimdOp for MvmOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let round = &self.round;
        let width = round.width;
        let blocks = round
            .origins
            .chunks(MVM_TB)
            .zip(self.out.chunks_mut(MVM_TB * width));
        for (origins, out) in blocks {
            // A short block repeats its last pixel up to `MVM_TB` rows, so
            // remainders run the same register tile; only `origins.len()`
            // rows are stored.
            let windows: [*const f32; MVM_TB] = std::array::from_fn(|ti| {
                round.input[origins[ti.min(origins.len() - 1)]..].as_ptr()
            });
            let out = out.as_mut_ptr();
            let mut j = 0;
            // SAFETY: `CrossbarRound::check` held before dispatch: every
            // tap offset from every origin is inside `input`; every word
            // line's `col0..col0 + width` is inside `matrix`; `out` heads
            // `origins.len()` rows of `width` floats. Each tile covers `NV
            // * LANES` columns from `j`, within `width`.
            unsafe {
                while j + 2 * S::LANES <= width {
                    tile::<S, 2>(s, &windows, origins.len(), round, j, out.add(j));
                    j += 2 * S::LANES;
                }
                while j + S::LANES <= width {
                    tile::<S, 1>(s, &windows, origins.len(), round, j, out.add(j));
                    j += S::LANES;
                }
                while j < width {
                    tile::<ScalarSimd, 1>(
                        ScalarSimd,
                        &windows,
                        origins.len(),
                        round,
                        j,
                        out.add(j),
                    );
                    j += 1;
                }
            }
        }
    }
}

/// One register tile: `MVM_TB` pixels × `NV` vectors of bit lines starting
/// at column `j`, every tap in order, the first `tb` rows stored to `out`
/// (row stride `round.width`).
///
/// # Safety
///
/// `round` must pass [`CrossbarRound::check`], every pointer in `windows`
/// must be readable at every tap offset of `round`, `j + NV * S::LANES <=
/// round.width`, and `out` must be writable at `ti * round.width + (0..NV *
/// S::LANES)` for `ti < tb`.
#[inline(always)]
unsafe fn tile<S: Simd, const NV: usize>(
    s: S,
    windows: &[*const f32; MVM_TB],
    tb: usize,
    round: &CrossbarRound<'_>,
    j: usize,
    out: *mut f32,
) {
    let base = round.matrix.as_ptr().add(round.col0 + j);
    let mut acc = [[s.splat(0.0); NV]; MVM_TB];
    for &(wl, at) in round.taps {
        let row = base.add(wl * round.ld);
        let b: [S::V; NV] = std::array::from_fn(|v| s.load(row.add(v * S::LANES)));
        for (acc_row, window) in acc.iter_mut().zip(windows) {
            let v = s.splat(*window.add(at));
            for (acc, &b) in acc_row.iter_mut().zip(&b) {
                *acc = s.add(*acc, s.mul(v, b));
            }
        }
    }
    for (ti, acc_row) in acc.iter().enumerate().take(tb) {
        for (v, &acc) in acc_row.iter().enumerate() {
            s.store(out.add(ti * round.width + v * S::LANES), acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_simd::{dispatch_on, CpuFeatures};

    /// Deterministic, sign-mixed, non-dyadic values: products and sums
    /// round at every step, so a reordered or fused sum shows.
    fn values(n: usize, salt: u32) -> Vec<f32> {
        (0..n as u32)
            .map(|i| {
                let x = i.wrapping_mul(2654435761).wrapping_add(salt) >> 8;
                (x as f32 / (1 << 23) as f32 - 1.0) * 1.37
            })
            .collect()
    }

    /// The per-pixel oracle loop (`DataPath::execute_reference`'s
    /// arithmetic).
    fn oracle(r: CrossbarRound<'_>) -> Vec<f32> {
        let mut out = vec![0.0f32; r.origins.len() * r.width];
        for (&origin, out_row) in r.origins.iter().zip(out.chunks_mut(r.width)) {
            for &(wl, at) in r.taps {
                let v = r.input[origin + at];
                let mrow = &r.matrix[wl * r.ld + r.col0..][..r.width];
                for (a, &m) in out_row.iter_mut().zip(mrow) {
                    *a += v * m;
                }
            }
        }
        out
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} elem {i}: {g} vs {w}");
        }
    }

    #[test]
    fn every_available_arm_matches_scalar_bitwise() {
        let (ld, word_lines) = (300, 1400);
        let matrix = values(word_lines * ld, 1);
        let widths: Vec<usize> = (1..=40).chain([64, 255, 256]).collect();
        for kk in [0usize, 1, 7, 1024] {
            // Non-contiguous, non-monotonic word lines and window offsets.
            let reach = 2 * kk + 5;
            let taps: Vec<(usize, usize)> = (0..kk)
                .map(|k| ((k * 37 + 11) % word_lines, (k * 2 + 3) % reach))
                .collect();
            for (wi, &width) in widths.iter().enumerate() {
                for pixels in 1..=MVM_TB {
                    // Overlapping windows, like neighbouring pixels of one
                    // image row, then a jump, like the next row.
                    let origins: Vec<usize> = (0..pixels).map(|t| 2 * t + t / 5 * 61).collect();
                    let input = values(origins[pixels - 1] + reach, 2);
                    let round = CrossbarRound {
                        input: &input,
                        origins: &origins,
                        matrix: &matrix,
                        ld,
                        col0: (ld - width).min(3 + wi),
                        width,
                        taps: &taps,
                    };
                    let what = format!("width {width} pixels {pixels} kk {kk}");
                    let want = oracle(round);
                    let mut got = vec![f32::NAN; pixels * width];
                    crossbar_mvm_portable(round, &mut got);
                    assert_bits_eq(&got, &want, &format!("portable {what}"));
                    for isa in CpuFeatures::get().available() {
                        got.fill(f32::NAN);
                        dispatch_on(
                            isa,
                            MvmOp {
                                round,
                                out: &mut got,
                            },
                        );
                        assert_bits_eq(&got, &want, &format!("{isa:?} {what}"));
                    }
                }
            }
        }
    }

    #[test]
    fn multi_block_tiles_and_kernel_selection_agree() {
        // More than one pixel block with a ragged last one, through the
        // public selector on both sides of the width rule.
        let (ld, word_lines, kk, pixels) = (48, 64, 33, 21);
        let matrix = values(word_lines * ld, 3);
        let taps: Vec<(usize, usize)> = (0..kk)
            .map(|k| ((k * 5) % word_lines, kk - 1 - k))
            .collect();
        let origins: Vec<usize> = (0..pixels).map(|t| t * kk).collect();
        let input = values(pixels * kk, 4);
        for width in [3, 15, 16, 17, 40] {
            let round = CrossbarRound {
                input: &input,
                origins: &origins,
                matrix: &matrix,
                ld,
                col0: 8,
                width,
                taps: &taps,
            };
            let mut got = vec![f32::NAN; pixels * width];
            crossbar_mvm(round, &mut got);
            assert_bits_eq(&got, &oracle(round), &format!("width {width}"));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_a_tap_outside_the_input() {
        let matrix = vec![0.0f32; 4 * 16];
        let round = CrossbarRound {
            input: &[1.0; 8],
            origins: &[0, 5],
            matrix: &matrix,
            ld: 16,
            col0: 0,
            width: 16,
            taps: &[(0, 0), (3, 3)],
        };
        crossbar_mvm(round, &mut [0.0; 32]);
    }

    #[test]
    #[should_panic]
    fn rejects_a_word_line_outside_the_matrix() {
        let matrix = vec![0.0f32; 4 * 16];
        let round = CrossbarRound {
            input: &[1.0],
            origins: &[0],
            matrix: &matrix,
            ld: 16,
            col0: 0,
            width: 16,
            taps: &[(4, 0)],
        };
        crossbar_mvm(round, &mut [0.0; 16]);
    }
}
