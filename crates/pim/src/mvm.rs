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
//! **Bit-exactness contract.** A crossbar sums its bit-line currents
//! exactly and rounds once, at the ADC; the model rounds once per
//! multiply-accumulate. Every output element is `acc = fma(input, weight,
//! acc)` — [`f32::mul_add`], one round-to-nearest of the exact `x·w + acc`
//! — with `k` strictly in order from a `0.0` accumulator, as in the scalar
//! per-pixel table walk in `crates/pim/tests/oracle`, whose word lines run
//! in ascending order, the order of a round's taps. Blocking only reuses
//! each weight row across the `MVM_TB` (6) pixels of a register tile and
//! keeps the accumulators in registers; vectorizing across the independent
//! pixel/bit-line lanes reorders no per-element sum. A fused multiply-add
//! is exact IEEE arithmetic, so every ISA arm gives the same bits, and
//! `mul_add` is required: an unfused `acc + x * w` rounds twice and moves
//! the last place. `epim_tensor`'s GEMM stays ruled out (it splits `k`).
//!
//! **One dispatched kernel.** [`crossbar_mvm`] is one [`SimdOp`],
//! monomorphized per ISA by `epim-simd`, so every multiply-accumulate
//! compiles inside the arm's `#[target_feature]` wrapper as one `vfmadd`;
//! plain Rust on the generic x86-64 target would call libm's `fmaf` for
//! each (the one-lane reference arm does). A register tile is `MVM_TB`
//! pixels × `NV` vectors of bit lines, `NV` per arm: 4 on AVX-512 (24 of
//! its 32 registers accumulate), 2 on AVX2 (12 of 16). The columns left
//! after the vector tiles — all of a narrow round's 2–4 bit lines — run
//! the same tile on one-lane [`ScalarSimd`] columns, up to 8 at a time,
//! still inside the arm. A short pixel block repeats its last pixel up to
//! `MVM_TB` rows; only its real rows are stored.

use epim_simd::{dispatch, ScalarSimd, Simd, SimdOp};

/// Pixel rows per register tile, on every arm.
pub(crate) const MVM_TB: usize = 6;

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
    /// and `out` holds exactly `pixels * width` floats; the kernel's
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
/// width)` row-major) on the host's widest ISA arm. Every arm produces
/// identical bits.
///
/// # Panics
///
/// Panics if a tap reaches outside `round.input` from any origin or names
/// a word line outside `round.matrix`, or `out` is not exactly `pixels *
/// round.width` long.
pub fn crossbar_mvm(round: CrossbarRound<'_>, out: &mut [f32]) {
    round.check(out);
    if round.width > 0 {
        dispatch(MvmOp { round, out });
    }
}

/// The kernel: per block of [`MVM_TB`] pixels, vector tiles of `NV` and
/// then 1 vectors of bit lines, then one-lane tiles of up to 8 columns for
/// the rest.
struct MvmOp<'a> {
    round: CrossbarRound<'a>,
    out: &'a mut [f32],
}

impl SimdOp for MvmOp<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        match S::LANES {
            16 => self.run::<S, 4>(s),
            8 => self.run::<S, 2>(s),
            // The one-lane arm runs only the narrow tiles.
            _ => self.run::<S, 1>(s),
        }
    }
}

impl MvmOp<'_> {
    /// The kernel with `NV` vectors per register tile. `round.width > 0`
    /// and `round.check(out)` held before dispatch.
    #[inline(always)]
    fn run<S: Simd, const NV: usize>(self, s: S) {
        let round = &self.round;
        let width = round.width;
        let blocks = round
            .origins
            .chunks(MVM_TB)
            .zip(self.out.chunks_mut(MVM_TB * width));
        for (origins, out) in blocks {
            let windows: [*const f32; MVM_TB] = std::array::from_fn(|ti| {
                round.input[origins[ti.min(origins.len() - 1)]..].as_ptr()
            });
            let tb = origins.len();
            let mut j = 0;
            // SAFETY: `CrossbarRound::check` held before dispatch: every
            // tap offset from every origin is inside `input`; every word
            // line's `col0..col0 + width` is inside `matrix`; `out` heads
            // `tb` rows of `width` floats. Each tile covers its columns
            // from `j` within `width`.
            unsafe {
                if S::LANES > 1 {
                    while j + NV * S::LANES <= width {
                        tile::<S, NV>(s, &windows, tb, round, j, out);
                        j += NV * S::LANES;
                    }
                    while j + S::LANES <= width {
                        tile::<S, 1>(s, &windows, tb, round, j, out);
                        j += S::LANES;
                    }
                }
                while j < width {
                    let n = (width - j).min(8);
                    // Direct calls, not a table of function pointers: a
                    // pointer's target is compiled outside the arm, where
                    // `mul_add` is a libm call.
                    match n {
                        1 => tile::<ScalarSimd, 1>(ScalarSimd, &windows, tb, round, j, out),
                        2 => tile::<ScalarSimd, 2>(ScalarSimd, &windows, tb, round, j, out),
                        3 => tile::<ScalarSimd, 3>(ScalarSimd, &windows, tb, round, j, out),
                        4 => tile::<ScalarSimd, 4>(ScalarSimd, &windows, tb, round, j, out),
                        5 => tile::<ScalarSimd, 5>(ScalarSimd, &windows, tb, round, j, out),
                        6 => tile::<ScalarSimd, 6>(ScalarSimd, &windows, tb, round, j, out),
                        7 => tile::<ScalarSimd, 7>(ScalarSimd, &windows, tb, round, j, out),
                        _ => tile::<ScalarSimd, 8>(ScalarSimd, &windows, tb, round, j, out),
                    }
                    j += n;
                }
            }
        }
    }
}

/// One register tile: `MVM_TB` pixels × `NV` vectors of bit lines starting
/// at column `j`, every tap in order, the first `tb` rows stored to `out`
/// (row stride `round.width`) at columns `j..j + NV * S::LANES`.
///
/// # Safety
///
/// `round` must pass [`CrossbarRound::check`], every pointer in `windows`
/// must be readable at every tap offset of `round`, `j + NV * S::LANES <=
/// round.width`, and `out` must hold `tb` rows of `round.width`.
#[inline(always)]
unsafe fn tile<S: Simd, const NV: usize>(
    s: S,
    windows: &[*const f32; MVM_TB],
    tb: usize,
    round: &CrossbarRound<'_>,
    j: usize,
    out: &mut [f32],
) {
    let mut acc = [[s.splat(0.0); NV]; MVM_TB];
    for &(wl, at) in round.taps {
        let row = wl * round.ld + round.col0 + j;
        let b: [S::V; NV] = std::array::from_fn(|v| {
            let lane0 = row + v * S::LANES;
            s.load(round.matrix.get_unchecked(lane0..lane0 + S::LANES))
        });
        for (acc_row, window) in acc.iter_mut().zip(windows) {
            let v = s.splat(*window.add(at));
            for (acc, &b) in acc_row.iter_mut().zip(&b) {
                *acc = s.mul_add(v, b, *acc);
            }
        }
    }
    for (ti, acc_row) in acc.iter().enumerate().take(tb) {
        for (v, &acc) in acc_row.iter().enumerate() {
            let lane0 = ti * round.width + j + v * S::LANES;
            s.store(out.get_unchecked_mut(lane0..lane0 + S::LANES), acc);
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

    /// The per-pixel oracle loop (the arithmetic of the table walk in
    /// `crates/pim/tests/oracle`): one fused multiply-add per tap.
    fn oracle(r: CrossbarRound<'_>) -> Vec<f32> {
        let mut out = vec![0.0f32; r.origins.len() * r.width];
        for (&origin, out_row) in r.origins.iter().zip(out.chunks_mut(r.width)) {
            for &(wl, at) in r.taps {
                let v = r.input[origin + at];
                let mrow = &r.matrix[wl * r.ld + r.col0..][..r.width];
                for (a, &m) in out_row.iter_mut().zip(mrow) {
                    *a = v.mul_add(m, *a);
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
        // One to four pixel blocks, the last one short or whole, through
        // the public entry point: every narrow tile width alone (1–4) and
        // after a full one (9–15), one vector (16–17) and vector tiles
        // with narrow columns after them (40, 83).
        let (ld, word_lines, kk) = (100, 64, 33);
        let matrix = values(word_lines * ld, 3);
        let taps: Vec<(usize, usize)> = (0..kk)
            .map(|k| ((k * 5) % word_lines, kk - 1 - k))
            .collect();
        for pixels in 1..=21 {
            let origins: Vec<usize> = (0..pixels).map(|t| t * kk).collect();
            let input = values(pixels * kk, 4);
            for width in (1..=4).chain(9..=17).chain([40, 83]) {
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
                let what = format!("width {width} pixels {pixels}");
                assert_bits_eq(&got, &oracle(round), &what);
            }
        }
    }

    /// Pins the single rounding. With `x = w = 1 + 2⁻¹²` after an
    /// accumulator of `-(1 + 2⁻¹¹)`, the exact `x·w + acc` is `2⁻²⁴`; an
    /// unfused sum first rounds `x·w` to `1 + 2⁻¹¹` (a tie, to even) and
    /// returns `0.0`. Every narrow and vector tile width, on every arm.
    #[test]
    fn every_tile_fuses_the_multiply_add() {
        let x = 1.0 + 2f32.powi(-12);
        let acc = -(1.0 + 2f32.powi(-11));
        assert_eq!(x * x + acc, 0.0, "the operands must round apart");
        assert_eq!(x.mul_add(x, acc), 2f32.powi(-24));
        let ld = 300;
        // Word line 0 holds `acc` (driven by 1.0), word line 1 holds `x`.
        let matrix: Vec<f32> = [acc, x].iter().flat_map(|&v| vec![v; ld]).collect();
        let taps = [(0, 0), (1, 1)];
        let pixels = MVM_TB + 1;
        let origins: Vec<usize> = (0..pixels).map(|t| 2 * t).collect();
        let input: Vec<f32> = (0..2 * pixels).map(|i| [1.0, x][i % 2]).collect();
        for width in [1, 3, 8, 11, 16, 35, 64, 83, 256] {
            let round = CrossbarRound {
                input: &input,
                origins: &origins,
                matrix: &matrix,
                ld,
                col0: ld - width,
                width,
                taps: &taps,
            };
            let want = vec![2f32.powi(-24); pixels * width];
            let mut got = vec![f32::NAN; pixels * width];
            crossbar_mvm(round, &mut got);
            assert_bits_eq(&got, &want, &format!("crossbar_mvm width {width}"));
            for isa in CpuFeatures::get().available() {
                got.fill(f32::NAN);
                dispatch_on(
                    isa,
                    MvmOp {
                        round,
                        out: &mut got,
                    },
                );
                assert_bits_eq(&got, &want, &format!("{isa:?} width {width}"));
            }
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
