//! Cache-blocked single-precision GEMM kernels.
//!
//! This is the compute spine of the whole reproduction: `Tensor::matmul`,
//! the convolutions, the linear layers and (indirectly) every
//! training/search experiment bottom out here.
//!
//! The implementation follows the standard BLIS-style recipe, in one loop
//! nest (`gemm_nest`) for every entry point:
//!
//! - the N dimension is cut into blocks of `NC` columns, and a task owns a
//!   block of columns (times a block of rows, when there are too few column
//!   blocks to keep the pool busy); tasks are distributed over threads via
//!   `epim-parallel` when the problem is large enough — their parts of C are
//!   disjoint, so no synchronization is needed, and one product is one
//!   fork-join (plus one to pack an A of 2^20 floats or more);
//! - inside a task the K dimension is processed in `KC`-sized slices; for
//!   each slice the task packs its own B block into `NR`-wide column panels
//!   (`bp[p * NR + j]`) in a per-thread buffer that is reused across calls;
//! - the task's rows are swept in `MR`-row bands, each reading its `MR`-wide
//!   A panel (`ap[p * MR + i]`, zero-padded at the edges) from a matrix
//!   packed once per product and driving an `MR x NR` register-blocked
//!   micro-kernel over the panels.
//!
//! A reaches the nest one way, as a [`PackedWeights`] laid out for the
//! path its products take: a served layer's weight packed when its plan is
//! compiled, any other operand packed once per call by the one-shot entry
//! points ([`gemm`], [`gemm_tn`], `ops::conv2d`, `ops::linear`). Only
//! [`gemm_tn`]'s A is gathered through strides.
//!
//! B has two sources: a matrix, row-major or (for the `W · Xᵀ` products of
//! the linear layers) stored transposed and packed through its strides, so
//! callers never materialize an explicit `transpose()` copy; and the
//! convolutions' `ConvWindow`, whose panels are packed straight from the
//! NCHW activation (the stacked batch is one N axis, so a panel may span
//! two images) — the lowered im2col matrix is never stored. Bias addition is
//! fused into the first slice's writeback (per output row or per output
//! column), which lets the convolution and linear layers skip their separate
//! bias passes. A ReLU epilogue (the convolutions and `gemm_packed_nt`)
//! clamps each output element with `v.max(0.0)` at its **final** writeback
//! — the pre-clamp sum is the same arithmetic as the unfused GEMM, so the
//! fused result is bit-identical to a GEMM followed by a separate ReLU pass.
//! No element's arithmetic depends on the blocking, on its place in a panel
//! or on the thread count.
//!
//! Products of at most `SMALL_FLOPS` multiply-adds per image skip the nest
//! and run serial loops on a row-major A, each image's output prefilled
//! with its bias. A matrix B is read in place: row-major by an axpy that
//! adds every term to C, stored transposed by one dot product per element.
//! A convolution's window is lowered per image **k-major** — one row of
//! the image's `oh·ow` pixels per `(ci, ky, kx)`, packed by the same
//! panel packer as the nest — and an `epim-simd` kernel accumulates one
//! output pixel per lane in registers: each element's sum runs over K in
//! order from `0.0`, a rounded multiply then a rounded add per term (never
//! `mul_add`), and is then added to the bias. That is the scalar dot
//! product's arithmetic, element for element, on every ISA arm.
//!
//! The binary stays portable (generic x86-64, same target the seed used):
//! the micro-kernel is selected **at runtime** from the cached
//! `epim-simd` CPU-feature probe — an 8x32 AVX-512F kernel, a 6x16
//! AVX2+FMA kernel, or a scalar-autovectorized 8x8 fallback (the probe's
//! `EPIM_FORCE_ISA` override applies here too). The `unsafe` surface is
//! confined to the `#[target_feature]` kernel bodies, which only touch
//! caller-validated panel/tile buffers.

use crate::ops::conv::Conv2dCfg;
use epim_parallel::for_each_chunk_mut;
use epim_simd::{dispatch, ScalarSimd, Simd, SimdOp};
use std::cell::RefCell;

/// Largest micro-kernel row count across variants (tile sizing).
const MR_MAX: usize = 8;
/// Largest micro-kernel column count across variants (tile sizing).
const NR_MAX: usize = 32;
/// K-dimension cache block: an A panel (at most `MR_MAX * KC` floats)
/// stays L1 resident while B panels stream from L2.
const KC: usize = 256;
/// N-dimension cache block: a task's packed B block (`KC * NC` floats,
/// 512 KB) stays L2 resident while the task's row bands sweep it. A multiple
/// of every micro-kernel's column count.
const NC: usize = 512;

/// The instruction-set variant the tile kernel dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelKind {
    /// 8x32 tiles on 512-bit FMA (16 zmm accumulators).
    Avx512,
    /// 6x16 tiles on 256-bit FMA (12 ymm accumulators).
    Fma,
    /// 8x8 tiles, plain Rust left to the autovectorizer.
    Generic,
}

impl KernelKind {
    #[inline]
    fn mr(self) -> usize {
        match self {
            KernelKind::Avx512 => 8,
            KernelKind::Fma => 6,
            KernelKind::Generic => 8,
        }
    }

    #[inline]
    fn nr(self) -> usize {
        match self {
            KernelKind::Avx512 => 32,
            KernelKind::Fma => 16,
            KernelKind::Generic => 8,
        }
    }
}

/// Maps the cached `epim-simd` ISA selection (feature probe plus the
/// `EPIM_FORCE_ISA` override) onto a micro-kernel variant. The tier
/// requirements line up exactly: `Isa::Avx2` already implies FMA.
fn kernel_kind() -> KernelKind {
    match epim_simd::isa() {
        epim_simd::Isa::Avx512 => KernelKind::Avx512,
        epim_simd::Isa::Avx2 => KernelKind::Fma,
        epim_simd::Isa::Scalar => KernelKind::Generic,
    }
}

/// Problems below this many multiply-adds run the plain serial loops:
/// packing and (above all) thread dispatch would dominate.
const SMALL_FLOPS: usize = 1 << 15;
/// Problems below this many multiply-adds never cross threads.
pub const PARALLEL_FLOPS: usize = 1 << 21;
/// Matrices of at least this many floats are packed on the pool.
const PARALLEL_PACK: usize = 1 << 20;

/// A read-only matrix view with explicit row/column strides, so the same
/// packing code serves normal and transposed operands.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// The row-major matrix whose rows hold `cols` floats.
    fn rows(data: &'a [f32], cols: usize) -> Self {
        MatRef {
            data,
            rs: cols,
            cs: 1,
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// Fused bias: the value every output element's accumulation starts from.
#[derive(Clone, Copy)]
pub(crate) enum Bias<'a> {
    /// No bias: start from zero.
    None,
    /// `bias[i]` is added to every element of output row `i` (length `m`).
    PerRow(&'a [f32]),
    /// `bias[j]` is added to every element of output column `j` (length `n`).
    PerCol(&'a [f32]),
}

/// How a [`PackedWeights`] stores its matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Row-major, read in place by the small path.
    Rows,
    /// The `kind` micro-kernel's A panels: per `KC` slice of K, per `MR`-row
    /// band, k-major (`ap[p * MR + i]`), the last band's rows past `m` zero.
    Panels(KernelKind),
}

/// The `m x k` left operand of every product, laid out for the path its
/// products take — the micro-kernel's panels when they run the blocked
/// nest, row-major when they are small enough for the serial loops.
///
/// A served layer's weight is packed once, when its plan is compiled, so
/// the nest never packs it again; the one-shot entry points pack their A
/// once per call. Every output element gets the same arithmetic either
/// way, bit for bit.
#[derive(Debug)]
pub struct PackedWeights {
    m: usize,
    k: usize,
    layout: Layout,
    data: Vec<f32>,
}

impl PackedWeights {
    /// Packs the row-major `m x k` matrix `a` for products with `pixels`
    /// output columns per image — the fewest any of its products has (a
    /// classifier's single column per image).
    ///
    /// # Panics
    ///
    /// Panics if `a` is shorter than `m * k`.
    pub fn new(a: &[f32], m: usize, k: usize, pixels: usize) -> Self {
        Self::of(MatRef::rows(a, k), m, k, pixels)
    }

    /// Packs the `m x k` view `a` for products with `pixels` output columns
    /// per image: row-major when `m·pixels·k` takes the small path (a copy
    /// of a row-major view, a gather of a strided one), panels otherwise.
    fn of(a: MatRef, m: usize, k: usize, pixels: usize) -> Self {
        if m > 0 && k > 0 {
            assert!(
                a.data.len() > (m - 1) * a.rs + (k - 1) * a.cs,
                "A slice too short for {m}x{k}"
            );
        }
        if m * pixels * k > SMALL_FLOPS {
            return Self::panels(a, m, k, kernel_kind());
        }
        let data = if (a.rs, a.cs) == (k, 1) {
            a.data[..m * k].to_vec()
        } else {
            (0..m)
                .flat_map(|i| (0..k).map(move |p| a.at(i, p)))
                .collect()
        };
        PackedWeights {
            m,
            k,
            layout: Layout::Rows,
            data,
        }
    }

    /// Rows of the matrix: the product's M (output channels or features).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Columns of the matrix: the product's K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Packs `a` into `kind`'s panels in one pass over the destination, one
    /// `KC` slice per pool task when the matrix is large.
    fn panels(a: MatRef, m: usize, k: usize, kind: KernelKind) -> Self {
        let mr = kind.mr();
        let mp = m.div_ceil(mr) * mr;
        // Zeroed, so the last band's rows past `m` are its padding.
        let mut data = vec![0.0f32; mp * k];
        let pack_slice = |s: usize, slice: &mut [f32]| {
            let (pc, kc) = (s * KC, slice.len() / mp);
            for (band, panel) in slice.chunks_mut(kc * mr).enumerate() {
                let rows = mr.min(m - band * mr);
                // Full bands of contiguous rows take the unrolled packer;
                // the padded last band and strided operands (`gemm_tn`)
                // the generic loop.
                match (a.cs, rows, mr) {
                    (1, 8, 8) => pack_band::<8>(panel, a, band * mr, pc, kc),
                    (1, 6, 6) => pack_band::<6>(panel, a, band * mr, pc, kc),
                    _ => {
                        for i in 0..rows {
                            for (p, v) in panel[i..].iter_mut().step_by(mr).enumerate() {
                                *v = a.at(band * mr + i, pc + p);
                            }
                        }
                    }
                }
            }
        };
        if data.len() >= PARALLEL_PACK {
            for_each_chunk_mut(&mut data, KC * mp, pack_slice);
        } else {
            data.chunks_mut(KC * mp)
                .enumerate()
                .for_each(|(s, slice)| pack_slice(s, slice));
        }
        PackedWeights {
            m,
            k,
            layout: Layout::Panels(kind),
            data,
        }
    }
}

/// Packs the full band of `MR` rows `row0..` of a unit-column-stride `a`
/// (columns `pc..pc + kc`) into `panel` in one pass over the panel; with
/// the rows as a fixed-size array the row loop unrolls.
fn pack_band<const MR: usize>(panel: &mut [f32], a: MatRef, row0: usize, pc: usize, kc: usize) {
    let rows: [&[f32]; MR] = std::array::from_fn(|i| &a.data[(row0 + i) * a.rs + pc..][..kc]);
    for (p, col) in panel.chunks_exact_mut(MR).enumerate() {
        for (v, row) in col.iter_mut().zip(&rows) {
            *v = row[p];
        }
    }
}

/// `C = A · B` for row-major `A (m x k)`, `B (k x n)`, `C (m x n)`.
///
/// # Panics
///
/// Panics if a slice is shorter than its `m`/`n`/`k` geometry implies.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let b = MatRef::rows(b, n);
    gemm_strided(&PackedWeights::new(a, m, k, n), n, b, Bias::None, false, c);
}

/// `C = Aᵀ · B` where `A` is *stored* row-major as `(k x m)`.
///
/// Used by the backward passes (`dW = dYᵀ · X`) so they never materialize
/// the transpose.
///
/// # Panics
///
/// Panics if a slice is shorter than its geometry implies.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let a = MatRef {
        data: a,
        rs: 1,
        cs: m,
    };
    let b = MatRef::rows(b, n);
    gemm_strided(&PackedWeights::of(a, m, k, n), n, b, Bias::None, false, c);
}

/// `C (m x n) = W · Xᵀ` for a packed `W (m x k)` and `X (n x k)` stored
/// row-major, with `bias` fused and `relu` clamping each element at its
/// final writeback: a classifier over `n` images, one column per image
/// (`bias` per row), or a one-shot `linear` with its input packed as `W`
/// (`bias` per column).
///
/// An element of `W · Xᵀ` gets the same products (`fma` and `*` are
/// commutative) in the same `KC` slices and order, on the same path, as
/// the matching element of `X · Wᵀ`, so the two results are each other's
/// transpose, bit for bit.
///
/// # Panics
///
/// Panics if a slice is shorter than its geometry implies, if `bias` does
/// not match its axis, or if `w` was packed for more than `n` columns.
pub(crate) fn gemm_packed_nt(
    w: &PackedWeights,
    n: usize,
    x: &[f32],
    bias: Bias,
    relu: bool,
    c: &mut [f32],
) {
    let x = MatRef {
        data: x,
        rs: 1,
        cs: w.k,
    };
    gemm_strided(w, n, x, bias, relu, c);
}

// ---------------------------------------------------------------------------
// Core
// ---------------------------------------------------------------------------

/// Where the nest reads its `k x n` operand from.
#[derive(Clone, Copy)]
enum BSource<'a> {
    /// A strided matrix view.
    Mat(MatRef<'a>),
    /// The lowered (im2col) matrix of a stacked activation, never stored.
    Conv(ConvWindow<'a>),
}

impl BSource<'_> {
    /// Packs K rows `pc..pc+kc` of columns `col0..col0+ncols` into
    /// `nr_k`-wide panels (`bp[p * nr_k + j]`, one after the other in
    /// `dst`, which holds exactly those panels), zero-padding the last
    /// panel's column remainder.
    fn pack(&self, dst: &mut [f32], pc: usize, kc: usize, col0: usize, ncols: usize, nr_k: usize) {
        for (jp, panel) in dst.chunks_mut(nr_k * kc).enumerate() {
            let nr = nr_k.min(ncols - jp * nr_k);
            if nr < nr_k {
                panel.fill(0.0);
            }
            match self {
                BSource::Mat(b) => b.pack_panel(panel, pc, col0 + jp * nr_k, nr, nr_k),
                BSource::Conv(win) => win.pack_panel(panel, pc, col0 + jp * nr_k, nr, nr_k),
            }
        }
    }
}

impl MatRef<'_> {
    /// Fills the first `nr` columns of one panel from rows `pc..` and
    /// columns `col0..col0+nr` of the matrix.
    fn pack_panel(&self, panel: &mut [f32], pc: usize, col0: usize, nr: usize, nr_k: usize) {
        for (p, prow) in panel.chunks_mut(nr_k).enumerate() {
            let base = (pc + p) * self.rs + col0 * self.cs;
            let dst = &mut prow[..nr];
            if self.cs == 1 {
                dst.copy_from_slice(&self.data[base..base + nr]);
            } else {
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = self.data[base + j * self.cs];
                }
            }
        }
    }
}

/// The B operand of a convolution: the `(c_in·kh·kw) x (images·oh·ow)`
/// matrix whose K row `(ci, ky, kx)` holds, for every output pixel of every
/// stacked image, the input value that kernel tap reads (zero in the
/// padding). Panels are packed straight from the NCHW activation.
#[derive(Clone, Copy)]
pub(crate) struct ConvWindow<'a> {
    xd: &'a [f32],
    images: usize,
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cfg: Conv2dCfg,
    oh: usize,
    ow: usize,
}

/// One run of a panel's columns inside a single output row.
#[derive(Clone, Copy, Default)]
struct Segment {
    /// First panel column of the run, and how many it covers.
    off: usize,
    len: usize,
    /// Offset in the activation of the image's first plane.
    base: usize,
    /// Padded input row and column the run's first pixel reads at tap (0, 0).
    y0: usize,
    x0: usize,
}

impl<'a> ConvWindow<'a> {
    /// The window of a `kh x kw` convolution under `cfg` over `images`
    /// stacked `(c_in, h, w)` activations with `oh x ow` outputs each.
    ///
    /// # Panics
    ///
    /// Panics if `xd` is shorter than `images` activations.
    pub(crate) fn new(
        xd: &'a [f32],
        (images, c_in, h, w): (usize, usize, usize, usize),
        (kh, kw): (usize, usize),
        cfg: Conv2dCfg,
        (oh, ow): (usize, usize),
    ) -> Self {
        assert!(
            xd.len() >= images * c_in * h * w,
            "activation slice too short for its geometry"
        );
        // An unpadded stride-1 1x1 window reads each plane front to back:
        // the plane is one long row, and runs break only between images.
        let ((h, w), (oh, ow)) = if (kh, kw, cfg.stride, cfg.padding) == (1, 1, 1, 0) {
            ((1, h * w), (1, oh * ow))
        } else {
            ((h, w), (oh, ow))
        };
        ConvWindow {
            xd,
            images,
            c_in,
            h,
            w,
            kh,
            kw,
            cfg,
            oh,
            ow,
        }
    }

    /// Fills the first `nr` columns of one panel (rows `nr_k` floats apart,
    /// one per K row from `pc`) from stacked pixels `col0..col0+nr`, finding
    /// each output row's in-bounds run once per K row. Stride 1 copies the
    /// run as one slice; other strides gather it.
    fn pack_panel(&self, panel: &mut [f32], pc: usize, col0: usize, nr: usize, nr_k: usize) {
        let (stride, padding) = (self.cfg.stride, self.cfg.padding);
        let (h, w) = (self.h, self.w);

        // Cut the panel's columns where the output row changes.
        let pixels = self.oh * self.ow;
        let (mut img, pixel) = (col0 / pixels, col0 % pixels);
        let (mut oy, mut ox) = (pixel / self.ow, pixel % self.ow);
        let mut segs = [Segment::default(); NR_MAX];
        let mut n_segs = 0;
        let mut off = 0;
        while off < nr {
            let len = (self.ow - ox).min(nr - off);
            segs[n_segs] = Segment {
                off,
                len,
                base: img * self.c_in * h * w,
                y0: oy * stride,
                x0: ox * stride,
            };
            n_segs += 1;
            off += len;
            ox += len;
            if ox == self.ow {
                ox = 0;
                oy += 1;
                if oy == self.oh {
                    oy = 0;
                    img += 1;
                }
            }
        }

        let taps = self.kh * self.kw;
        let (mut ci, mut ky, mut kx) = (pc / taps, pc % taps / self.kw, pc % self.kw);
        for prow in panel.chunks_mut(nr_k) {
            for seg in &segs[..n_segs] {
                let drow = &mut prow[seg.off..seg.off + seg.len];
                let y = seg.y0 + ky;
                if y < padding || y >= h + padding {
                    drow.fill(0.0);
                    continue;
                }
                let src = &self.xd[seg.base + (ci * h + y - padding) * w..][..w];
                // Element `j` reads padded column `x + j * stride`. An output
                // row overhangs either edge by at most the padding, so both
                // clips take a handful of steps.
                let x = seg.x0 + kx;
                let mut lo = 0;
                while lo < seg.len && x + lo * stride < padding {
                    lo += 1;
                }
                let mut hi = seg.len;
                while hi > lo && x + (hi - 1) * stride >= w + padding {
                    hi -= 1;
                }
                // An empty `fill` would still cost a `memset` call.
                if lo > 0 {
                    drow[..lo].fill(0.0);
                }
                if hi < seg.len {
                    drow[hi..].fill(0.0);
                }
                if lo == hi {
                    continue;
                }
                if stride == 1 {
                    drow[lo..hi].copy_from_slice(&src[x + lo - padding..x + hi - padding]);
                } else {
                    for (j, d) in drow[lo..hi].iter_mut().enumerate() {
                        *d = src[x + (lo + j) * stride - padding];
                    }
                }
            }
            kx += 1;
            if kx == self.kw {
                kx = 0;
                ky += 1;
                if ky == self.kh {
                    ky = 0;
                    ci += 1;
                }
            }
        }
    }

    /// Writes image `img`'s lowered matrix into `dst` k-major, the operand
    /// of the small path: K row `(ci, ky, kx)` holds the tap's value for
    /// each of the image's `oh·ow` pixels, contiguous. Packed as panels of
    /// at most `NR_MAX` columns with a row stride of `oh·ow`, so each
    /// output row's in-bounds run is found once per K row.
    fn lower_image(&self, img: usize, dst: &mut [f32]) {
        let pixels = self.oh * self.ow;
        for j0 in (0..pixels).step_by(NR_MAX) {
            let nr = NR_MAX.min(pixels - j0);
            self.pack_panel(&mut dst[j0..], 0, img * pixels + j0, nr, pixels);
        }
    }
}

/// `out[g] (m x oh·ow) = A · window_g (+ bias)` for every stacked image `g`
/// of `win`: the convolution as one product whose N axis runs over all
/// images' pixels, written straight into the `(images, m, oh, ow)` layout.
/// `a` is the packed `(m x c_in·kh·kw)` weight matrix; `bias` (optional,
/// length `m`) is added to every element of its output channel and `relu`
/// clamps each element at its final writeback.
///
/// # Panics
///
/// Panics if a slice is shorter than its geometry implies or `a` is not
/// `c_in·kh·kw` wide.
pub(crate) fn gemm_conv(
    a: &PackedWeights,
    win: ConvWindow,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
) {
    assert_eq!(
        a.k,
        win.c_in * win.kh * win.kw,
        "weights are not c_in·kh·kw wide"
    );
    let (images, pixels) = (win.images, win.oh * win.ow);
    let bias = bias.map_or(Bias::None, Bias::PerRow);
    gemm_nest(a, images, pixels, BSource::Conv(win), bias, relu, out);
}

/// `C (m x n) = A · B (+ bias)` for a `k x n` matrix `B`.
fn gemm_strided(a: &PackedWeights, n: usize, b: MatRef, bias: Bias, relu: bool, c: &mut [f32]) {
    if a.k > 0 && n > 0 {
        assert!(
            b.data.len() > (a.k - 1) * b.rs + (n - 1) * b.cs,
            "B slice too short for its geometry"
        );
    }
    gemm_nest(a, 1, n, BSource::Mat(b), bias, relu, c);
}

/// The one loop nest: `C[g] (m x pixels) = A · B[:, g·pixels..] (+ bias)`
/// for `images` column groups of `pixels` columns each, stored group after
/// group in `c` (a plain GEMM is one group of `n` columns).
///
/// Every output element is `bias or 0.0`, then per `KC` slice of K in order
/// `c + tile`, the tile an accumulation from zero over the slice in order,
/// clamped on the last slice when `relu` is set — whatever the blocking,
/// the element's place in a panel, or the thread count.
fn gemm_nest(
    a: &PackedWeights,
    images: usize,
    pixels: usize,
    b: BSource,
    bias: Bias,
    relu: bool,
    c: &mut [f32],
) {
    let (m, k, n) = (a.m, a.k, images * pixels);
    assert!(
        c.len() >= m * n,
        "output slice too short for {m}x{pixels}x{images}"
    );
    match bias {
        Bias::None => {}
        Bias::PerRow(bias) => assert_eq!(bias.len(), m, "row bias length must equal m"),
        Bias::PerCol(bias) => assert_eq!(bias.len(), n, "column bias length must equal n"),
    }
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];

    if m * pixels * k <= SMALL_FLOPS {
        assert!(
            a.layout == Layout::Rows,
            "weights packed for a larger product than this one"
        );
        // Serial loops per group, accumulating in place, so clamping
        // afterwards is bit-identical to a separate ReLU pass.
        let group = |g: usize, c_g: &mut [f32]| {
            prefill(m, pixels, bias, c_g);
            // An empty sum adds nothing — not even the `+ 0.0` that would
            // turn a `-0.0` bias into `+0.0`.
            if k > 0 {
                match b {
                    BSource::Mat(b) => gemm_small(m, pixels, k, &a.data, b, c_g),
                    BSource::Conv(win) => PACK_BUF.with_borrow_mut(|buf| {
                        if buf.len() < k * pixels {
                            buf.resize(k * pixels, 0.0);
                        }
                        let lowered = &mut buf[..k * pixels];
                        win.lower_image(g, lowered);
                        dispatch(SmallConv {
                            k,
                            pixels,
                            a: &a.data[..m * k],
                            b: lowered,
                            c: c_g,
                        });
                    }),
                }
            }
            if relu {
                relu_pass(c_g);
            }
        };
        if images > 1 && m * n * k >= PARALLEL_FLOPS {
            for_each_chunk_mut(c, m * pixels, group);
        } else {
            c.chunks_mut(m * pixels)
                .enumerate()
                .for_each(|(g, c_g)| group(g, c_g));
        }
        return;
    }

    let kind = kernel_kind();
    // A row-major A in a product larger than it was packed for: pack its
    // panels for this call.
    let packed;
    let a = if a.layout == Layout::Rows {
        packed = PackedWeights::panels(MatRef::rows(&a.data, k), m, k, kind);
        &packed
    } else {
        a
    };
    assert_eq!(
        a.layout,
        Layout::Panels(kind),
        "weights packed for another micro-kernel"
    );
    let mr_k = kind.mr();
    // One task per cell of a grid over C: even column blocks of at most `NC`
    // columns, cut into row blocks only while there are fewer cells than
    // pool threads (each row block packs the B block again, so columns are
    // the cheaper axis to split).
    let (panels, bands) = (n.div_ceil(kind.nr()), m.div_ceil(mr_k));
    let block_cols = panels.div_ceil(n.div_ceil(NC)) * kind.nr();
    let col_blocks = n.div_ceil(block_cols);
    let threads = if m * n * k >= PARALLEL_FLOPS {
        epim_parallel::num_threads()
    } else {
        1
    };
    let rows_per_block = bands.div_ceil(threads.div_ceil(col_blocks).min(bands)) * mr_k;
    let row_blocks = m.div_ceil(rows_per_block);
    let mut tasks: Vec<Task> = (0..col_blocks * row_blocks)
        .map(|idx| {
            let (cb, rb) = (idx / row_blocks, idx % row_blocks);
            let (col0, row0) = (cb * block_cols, rb * rows_per_block);
            let ncols = block_cols.min(n - col0);
            let nrows = rows_per_block.min(m - row0);
            let groups = (col0 + ncols - 1) / pixels - col0 / pixels + 1;
            Task {
                col0,
                ncols,
                row0,
                nrows,
                segs: Vec::with_capacity(groups * nrows),
            }
        })
        .collect();
    // Deal every output row out to the tasks it crosses. Rows arrive in
    // (group, row) order, so a task's segments are group-major.
    for (r, mut row) in c.chunks_mut(pixels).enumerate() {
        let rb = (r % m) / rows_per_block;
        let mut col = (r / m) * pixels;
        while !row.is_empty() {
            let cb = col / block_cols;
            let len = ((cb + 1) * block_cols - col).min(row.len());
            let (seg, rest) = std::mem::take(&mut row).split_at_mut(len);
            tasks[cb * row_blocks + rb].segs.push(seg);
            col += len;
            row = rest;
        }
    }

    let nest = Nest {
        pixels,
        k,
        a,
        b,
        bias,
        relu,
        kind,
    };
    if threads > 1 {
        for_each_chunk_mut(&mut tasks, 1, |_, task| nest.run(&mut task[0]));
    } else {
        tasks.iter_mut().for_each(|task| nest.run(task));
    }
}

thread_local! {
    /// The calling thread's packed B block (at most `NC * KC` floats), kept
    /// across calls so a pool worker's block stays warm in its L2.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// What every task of one product shares.
struct Nest<'a> {
    /// Columns per output group.
    pixels: usize,
    k: usize,
    /// A in `kind`'s panels.
    a: &'a PackedWeights,
    b: BSource<'a>,
    bias: Bias<'a>,
    relu: bool,
    kind: KernelKind,
}

/// One block of columns by one block of rows of the output.
struct Task<'c> {
    col0: usize,
    ncols: usize,
    row0: usize,
    nrows: usize,
    /// The task's part of each output row: `nrows` slices per column group
    /// the block touches, group after group.
    segs: Vec<&'c mut [f32]>,
}

impl Nest<'_> {
    /// Computes one task: per K slice, packs the task's B block into the
    /// thread's buffer, then sweeps the task's row bands' A panels over it.
    fn run(&self, task: &mut Task) {
        let (mr_k, nr_k) = (self.kind.mr(), self.kind.nr());
        let panels = task.ncols.div_ceil(nr_k);
        // Padded rows of A: the panels of one K slice take `mp * kc` floats.
        let mp = self.a.data.len() / self.k;
        PACK_BUF.with_borrow_mut(|buf| {
            let need = panels * nr_k * KC.min(self.k);
            if buf.len() < need {
                buf.resize(need, 0.0);
            }
            let mut tile = [0.0f32; MR_MAX * NR_MAX];
            for pc in (0..self.k).step_by(KC) {
                let kc = KC.min(self.k - pc);
                let bpack = &mut buf[..panels * nr_k * kc];
                self.b.pack(bpack, pc, kc, task.col0, task.ncols, nr_k);
                let aslice = &self.a.data[pc * mp..(pc + kc) * mp];
                for i0 in (0..task.nrows).step_by(mr_k) {
                    let mr = mr_k.min(task.nrows - i0);
                    let band = (task.row0 + i0) / mr_k;
                    let apanel = &aslice[band * kc * mr_k..(band + 1) * kc * mr_k];
                    for (jp, bpanel) in bpack.chunks(nr_k * kc).enumerate() {
                        run_kernel(self.kind, kc, apanel, bpanel, &mut tile);
                        self.write_back(task, &tile, (i0, mr), jp * nr_k, pc);
                    }
                }
            }
        });
    }

    /// Adds rows `i0..i0+mr` of the tile at block column `t0` into the
    /// task's output, group by group. The first K slice (`pc == 0`) writes
    /// the bias under it; the ReLU epilogue fires only on the last slice's
    /// writeback — earlier ones hold partial sums that must stay unclamped —
    /// where `c + tile` is the same arithmetic as the unfused writeback, so
    /// clamping it is bit-identical to a separate ReLU over the finished C.
    fn write_back(
        &self,
        task: &mut Task,
        tile: &[f32; MR_MAX * NR_MAX],
        (i0, mr): (usize, usize),
        t0: usize,
        pc: usize,
    ) {
        let nr_k = self.kind.nr();
        let t1 = task.ncols.min(t0 + nr_k);
        let relu = self.relu && pc + KC >= self.k;
        let first_group = task.col0 / self.pixels;
        let mut s = (task.col0 + t0) / self.pixels - first_group;
        loop {
            // The columns of the block that group `first_group + s` covers.
            let g0 = ((first_group + s) * self.pixels).saturating_sub(task.col0);
            let g1 = ((first_group + s + 1) * self.pixels - task.col0).min(task.ncols);
            let (lo, hi) = (g0.max(t0), g1.min(t1));
            for i in 0..mr {
                let crow = &mut task.segs[s * task.nrows + i0 + i][lo - g0..hi - g0];
                let trow = &tile[i * nr_k + lo - t0..i * nr_k + hi - t0];
                if pc == 0 {
                    match self.bias {
                        Bias::None => crow.fill(0.0),
                        Bias::PerRow(bias) => crow.fill(bias[task.row0 + i0 + i]),
                        Bias::PerCol(bias) => {
                            crow.copy_from_slice(&bias[task.col0 + lo..task.col0 + hi]);
                        }
                    }
                }
                if relu {
                    for (co, &tv) in crow.iter_mut().zip(trow) {
                        *co = (*co + tv).max(0.0);
                    }
                } else {
                    for (co, &tv) in crow.iter_mut().zip(trow) {
                        *co += tv;
                    }
                }
            }
            if g1 >= t1 {
                return;
            }
            s += 1;
        }
    }
}

/// Clamps every element with the same scalar `max` the unfused ReLU uses.
fn relu_pass(c: &mut [f32]) {
    for v in c {
        *v = v.max(0.0);
    }
}

/// Runs the `kind` micro-kernel over one packed A panel and B panel,
/// overwriting `tile` (row stride `kind.nr()`).
#[inline(always)]
fn run_kernel(
    kind: KernelKind,
    kc: usize,
    apanel: &[f32],
    bpanel: &[f32],
    tile: &mut [f32; MR_MAX * NR_MAX],
) {
    assert!(apanel.len() >= kc * kind.mr() && bpanel.len() >= kc * kind.nr());
    match kind {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel_kind()` verified avx512f at runtime; the
        // pointers cover `kc * 8` / `kc * 32` / `8 * 32` floats by the
        // assertion above and the tile's array type.
        KernelKind::Avx512 => unsafe {
            kernel_8x32_avx512(kc, apanel.as_ptr(), bpanel.as_ptr(), tile.as_mut_ptr());
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, with avx2+fma verified and 6x16 geometry.
        KernelKind::Fma => unsafe {
            kernel_6x16_fma(kc, apanel.as_ptr(), bpanel.as_ptr(), tile.as_mut_ptr());
        },
        #[cfg(not(target_arch = "x86_64"))]
        KernelKind::Avx512 | KernelKind::Fma => kernel_8x8_generic(kc, apanel, bpanel, tile),
        KernelKind::Generic => kernel_8x8_generic(kc, apanel, bpanel, tile),
    }
}

/// 8x32 AVX-512F tile kernel: 16 zmm accumulators, two B vector loads and
/// eight A broadcasts per k step. Writes the full `8 x 32` tile (row stride
/// 32) to `tile`.
///
/// # Safety
///
/// Caller must verify `avx512f` is available and that `ap` holds
/// `kc * 8` floats, `bp` `kc * 32` floats and `tile` `8 * 32` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_8x32_avx512(kc: usize, ap: *const f32, bp: *const f32, tile: *mut f32) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); 2]; 8];
    for p in 0..kc {
        let b0 = _mm512_loadu_ps(bp.add(p * 32));
        let b1 = _mm512_loadu_ps(bp.add(p * 32 + 16));
        let arow = ap.add(p * 8);
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*arow.add(i));
            acc_row[0] = _mm512_fmadd_ps(av, b0, acc_row[0]);
            acc_row[1] = _mm512_fmadd_ps(av, b1, acc_row[1]);
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        _mm512_storeu_ps(tile.add(i * 32), acc_row[0]);
        _mm512_storeu_ps(tile.add(i * 32 + 16), acc_row[1]);
    }
}

/// 6x16 AVX2+FMA tile kernel: 12 ymm accumulators. Writes the full
/// `6 x 16` tile (row stride 16) to `tile`.
///
/// # Safety
///
/// Caller must verify `avx2` and `fma` are available and that `ap` holds
/// `kc * 6` floats, `bp` `kc * 16` floats and `tile` `6 * 16` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn kernel_6x16_fma(kc: usize, ap: *const f32, bp: *const f32, tile: *mut f32) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; 6];
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(p * 16));
        let b1 = _mm256_loadu_ps(bp.add(p * 16 + 8));
        let arow = ap.add(p * 6);
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*arow.add(i));
            acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
            acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        _mm256_storeu_ps(tile.add(i * 16), acc_row[0]);
        _mm256_storeu_ps(tile.add(i * 16 + 8), acc_row[1]);
    }
}

/// Portable 8x8 tile kernel, shaped for the autovectorizer. Writes the full
/// `8 x 8` tile (row stride 8) to `tile`.
fn kernel_8x8_generic(kc: usize, apanel: &[f32], bpanel: &[f32], tile: &mut [f32]) {
    let mut acc = [[0.0f32; 8]; 8];
    for p in 0..kc {
        let ap: &[f32] = &apanel[p * 8..p * 8 + 8];
        let bp: &[f32] = &bpanel[p * 8..p * 8 + 8];
        for i in 0..8 {
            let av = ap[i];
            let row = &mut acc[i];
            for j in 0..8 {
                row[j] += av * bp[j];
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        tile[i * 8..i * 8 + 8].copy_from_slice(acc_row);
    }
}

/// Prefills C with the fused bias (or zeros) for the small path, which
/// accumulates in place.
fn prefill(m: usize, n: usize, bias: Bias, c: &mut [f32]) {
    match bias {
        Bias::None => c[..m * n].fill(0.0),
        Bias::PerRow(bias) => {
            for (row, &bv) in c[..m * n].chunks_mut(n).zip(bias) {
                row.fill(bv);
            }
        }
        Bias::PerCol(bias) => {
            for row in c[..m * n].chunks_mut(n) {
                row.copy_from_slice(bias);
            }
        }
    }
}

/// Serial path for tiny products of a matrix B: no packing, no threads.
/// `a` is the row-major `m x k` operand (`k > 0`); `b` is row-major or
/// stored transposed.
fn gemm_small(m: usize, n: usize, k: usize, a: &[f32], b: MatRef, c: &mut [f32]) {
    let rows = a.chunks_exact(k).zip(c.chunks_exact_mut(n)).take(m);
    if b.cs == 1 {
        // Inner loop walks contiguous B rows (ikj / axpy). Every term is
        // added, a zero `a` too: `0 · ∞` and `0 · NaN` are NaN on the
        // nest, and must be here.
        for (arow, crow) in rows {
            for (p, &av) in arow.iter().enumerate() {
                let brow = &b.data[p * b.rs..p * b.rs + n];
                for (co, &bv) in crow.iter_mut().zip(brow) {
                    *co += av * bv;
                }
            }
        }
    } else {
        // B stored transposed (`rs == 1`): A rows and B columns are both
        // contiguous, so each element is one dot product.
        for (arow, crow) in rows {
            for (j, co) in crow.iter_mut().enumerate() {
                let brow = &b.data[j * b.cs..j * b.cs + k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *co += acc;
            }
        }
    }
}

/// The small path's convolution: `C (m x pixels) += A · B` for the
/// row-major `m x k` weight `a` and one image's k-major lowered window `b`
/// (`k x pixels`, see `ConvWindow::lower_image`), one output pixel per
/// lane. Each element's sum runs over K in order from `0.0`, one rounded
/// multiply and one rounded add per term (never `mul_add`), and is then
/// added to C: the arithmetic of one scalar dot product per element,
/// vectorized across independent outputs. Pixels past the last whole
/// vector run the same tiles one lane wide.
struct SmallConv<'a> {
    k: usize,
    pixels: usize,
    a: &'a [f32],
    b: &'a [f32],
    c: &'a mut [f32],
}

impl SimdOp for SmallConv<'_> {
    type Output = ();
    #[inline(always)]
    fn eval<S: Simd>(self, s: S) {
        let (k, pixels) = (self.k, self.pixels);
        let body = pixels - pixels % S::LANES;
        for (arow, crow) in self.a.chunks_exact(k).zip(self.c.chunks_exact_mut(pixels)) {
            small_row(s, arow, self.b, (0, body), crow);
            small_row(ScalarSimd, arow, self.b, (body, pixels), crow);
        }
    }
}

/// Output pixels `j..end` of one output row (`end - j` a multiple of
/// `LANES`), four vectors at a time, then one.
#[inline(always)]
fn small_row<S: Simd>(
    s: S,
    arow: &[f32],
    b: &[f32],
    (mut j, end): (usize, usize),
    crow: &mut [f32],
) {
    while j + 4 * S::LANES <= end {
        small_tile::<S, 4>(s, arow, b, j, crow);
        j += 4 * S::LANES;
    }
    while j < end {
        small_tile::<S, 1>(s, arow, b, j, crow);
        j += S::LANES;
    }
}

/// `NV` vectors of register accumulators for output pixels `j..` of one
/// output row `crow`, over every K row of `b` (each `crow.len()` wide).
#[inline(always)]
fn small_tile<S: Simd, const NV: usize>(s: S, arow: &[f32], b: &[f32], j: usize, crow: &mut [f32]) {
    let cols = j..j + NV * S::LANES;
    let mut acc = [s.splat(0.0); NV];
    for (&av, brow) in arow.iter().zip(b.chunks_exact(crow.len())) {
        let av = s.splat(av);
        for (acc, bv) in acc
            .iter_mut()
            .zip(brow[cols.clone()].chunks_exact(S::LANES))
        {
            *acc = s.add(*acc, s.mul(av, s.load(bv)));
        }
    }
    for (acc, cv) in acc.iter().zip(crow[cols].chunks_exact_mut(S::LANES)) {
        s.store(cv, s.add(s.load(cv), *acc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, rng};

    fn dense(m: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut r = rng::seeded(seed);
        init::uniform(&[m, n], -1.0, 1.0, &mut r).data().to_vec()
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// Reference computed with f64 accumulation through strided views.
    fn reference_strided(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        (ars, acs): (usize, usize),
        b: &[f32],
        (brs, bcs): (usize, usize),
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += a[i * ars + p * acs] as f64 * b[p * brs + j * bcs] as f64;
                }
                c[i * n + j] = acc as f32;
            }
        }
        c
    }

    #[test]
    fn matches_reference_on_odd_shapes() {
        // Deliberately awkward sizes: non-multiples of MR/NR/KC, degenerate
        // rows/columns, k crossing the KC boundary.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (8, 8, 8),
            (9, 17, 33),
            (64, 64, 64),
            (13, 70, 300),
            (70, 13, 257),
            (1, 100, 512),
            (100, 1, 300),
        ] {
            let a = dense(m, k, 1 + m as u64);
            let b = dense(k, n, 2 + n as u64);
            let want = reference_strided(m, n, k, &a, (k, 1), &b, (n, 1));
            let mut c = vec![f32::NAN; m * n];
            gemm(m, n, k, &a, &b, &mut c);
            assert!(
                max_abs_diff(&c, &want) < 1e-4,
                "gemm {m}x{n}x{k}: {}",
                max_abs_diff(&c, &want)
            );
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        for &(m, n, k) in &[(5usize, 9usize, 13usize), (32, 17, 300), (65, 70, 129)] {
            // A stored (k x m).
            let a_t = dense(k, m, 5);
            let b = dense(k, n, 6);
            let want = reference_strided(m, n, k, &a_t, (1, m), &b, (n, 1));
            let mut c = vec![0.0f32; m * n];
            gemm_tn(m, n, k, &a_t, &b, &mut c);
            assert!(max_abs_diff(&c, &want) < 1e-4, "gemm_tn {m}x{n}x{k}");
        }
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        for &(m, n, k) in &[(5usize, 9usize, 13usize), (31, 64, 300), (64, 3, 257)] {
            // B stored (n x k).
            let a = dense(m, k, 7);
            let b_t = dense(n, k, 8);
            let want = reference_strided(m, n, k, &a, (k, 1), &b_t, (1, k));
            let mut c = vec![0.0f32; m * n];
            let a = PackedWeights::new(&a, m, k, n);
            gemm_packed_nt(&a, n, &b_t, Bias::None, false, &mut c);
            assert!(max_abs_diff(&c, &want) < 1e-4, "gemm_packed_nt {m}x{n}x{k}");
        }
    }

    #[test]
    fn fused_bias_epilogues() {
        let (m, n, k) = (9, 20, 33);
        let a = dense(m, k, 9);
        let b_t = dense(n, k, 10);
        let row_bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.5 - 1.0).collect();
        let col_bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 2.0).collect();
        let base = reference_strided(m, n, k, &a, (k, 1), &b_t, (1, k));
        let a = PackedWeights::new(&a, m, k, n);

        let mut c = vec![0.0f32; m * n];
        gemm_packed_nt(&a, n, &b_t, Bias::PerRow(&row_bias), false, &mut c);
        for i in 0..m {
            for j in 0..n {
                let want = base[i * n + j] + row_bias[i];
                assert!((c[i * n + j] - want).abs() < 1e-4);
            }
        }

        let mut c = vec![0.0f32; m * n];
        gemm_packed_nt(&a, n, &b_t, Bias::PerCol(&col_bias), false, &mut c);
        for i in 0..m {
            for j in 0..n {
                let want = base[i * n + j] + col_bias[j];
                assert!((c[i * n + j] - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn conv_empty_batch_is_noop() {
        let cfg = Conv2dCfg {
            stride: 1,
            padding: 0,
        };
        let mut c: Vec<f32> = vec![7.0; 4];
        let window = ConvWindow::new(&[], (0, 3, 2, 2), (1, 1), cfg, (2, 2));
        let a = PackedWeights::new(&[0.0; 6], 2, 3, 4);
        gemm_conv(&a, window, None, false, &mut c);
        assert_eq!(c, vec![7.0; 4]);
        // No output channels is a no-op too, not a zero-sized-chunk panic.
        let window = ConvWindow::new(&[0.0; 24], (2, 3, 2, 2), (1, 1), cfg, (2, 2));
        gemm_conv(
            &PackedWeights::new(&[], 0, 3, 4),
            window,
            None,
            false,
            &mut c,
        );
        assert_eq!(c, vec![7.0; 4]);
    }

    /// `C` (`rows x cols`) transposed, as bits.
    fn transposed_bits(c: &[f32], rows: usize, cols: usize) -> Vec<u32> {
        (0..cols)
            .flat_map(|j| (0..rows).map(move |i| c[i * cols + j].to_bits()))
            .collect()
    }

    fn bits(c: &[f32]) -> Vec<u32> {
        c.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn relu_epilogue_bit_identical_to_post_pass() {
        // Sizes straddling the small/blocked and serial/parallel
        // thresholds, plus k crossing the KC boundary (the epilogue must
        // fire only on the final K slice). The fused epilogue is the
        // packed classifier product's: `W · Xᵀ` against `X · Wᵀ`.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (9, 17, 33),
            (13, 70, 300),
            (64, 64, 64),
            (70, 64, 520),
        ] {
            let a = dense(m, k, 31 + m as u64);
            let b_t = dense(n, k, 32 + n as u64);
            let w = PackedWeights::new(&b_t, n, k, 1);
            let x = PackedWeights::new(&a, m, k, n);
            let col_bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 2.0).collect();

            let mut want = vec![f32::NAN; m * n];
            gemm_packed_nt(&x, n, &b_t, Bias::None, false, &mut want);
            relu_pass(&mut want);
            let mut got = vec![f32::NAN; n * m];
            gemm_packed_nt(&w, m, &a, Bias::None, true, &mut got);
            assert_eq!(bits(&got), transposed_bits(&want, m, n), "relu {m}x{n}x{k}");

            let mut want = vec![f32::NAN; m * n];
            gemm_packed_nt(&x, n, &b_t, Bias::PerCol(&col_bias), false, &mut want);
            relu_pass(&mut want);
            let mut got = vec![f32::NAN; n * m];
            gemm_packed_nt(&w, m, &a, Bias::PerRow(&col_bias), true, &mut got);
            assert_eq!(
                bits(&got),
                transposed_bits(&want, m, n),
                "bias+relu {m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn relu_epilogue_on_batch_and_degenerate_k() {
        // Stacked-batch path (including the cross-image parallel dispatch).
        for &(images, m, c_in, hw) in &[(3usize, 8usize, 1usize, 4usize), (16, 32, 8, 8)] {
            let a = dense(m, c_in * 9, 41);
            let x = dense(images * c_in, hw * hw, 42);
            let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.125 - 1.0).collect();
            let cfg = Conv2dCfg {
                stride: 1,
                padding: 1,
            };
            let window = ConvWindow::new(&x, (images, c_in, hw, hw), (3, 3), cfg, (hw, hw));
            let a = PackedWeights::new(&a, m, c_in * 9, hw * hw);
            let mut want = vec![f32::NAN; images * m * hw * hw];
            gemm_conv(&a, window, Some(&bias), false, &mut want);
            relu_pass(&mut want);
            let mut got = vec![f32::NAN; images * m * hw * hw];
            gemm_conv(&a, window, Some(&bias), true, &mut got);
            assert_eq!(got, want, "batched relu {images}x{m}x{c_in}x{hw}");
        }

        // k == 0: output is pure (clamped) bias — including a negative-zero
        // bias entry, which must clamp to the same bits as the post pass.
        let (m, n) = (4, 6);
        let mut bias: Vec<f32> = (0..n).map(|j| j as f32 - 2.0).collect();
        bias[1] = -0.0;
        let mut want = vec![f32::NAN; m * n];
        let x = PackedWeights::new(&[], m, 0, n);
        gemm_packed_nt(&x, n, &[], Bias::PerCol(&bias), false, &mut want);
        relu_pass(&mut want);
        let mut got = vec![f32::NAN; n * m];
        let w = PackedWeights::new(&[], n, 0, 1);
        gemm_packed_nt(&w, m, &[], Bias::PerRow(&bias), true, &mut got);
        assert_eq!(bits(&got), transposed_bits(&want, m, n));
    }

    /// The arithmetic the GEMM gives element `(i, j)` of an `m x n` product
    /// over `k`, one scalar at a time, from `a(i, p)`, `b(p, j)` and the
    /// starting value `bias(i, j)`. On the small path that is the axpy
    /// loop's in-place sum when B is row-major (`b_rows`), or one dot
    /// product added to the bias when B is stored transposed; on the nest
    /// it is the per-`KC`-slice sums (fused multiply-adds on the SIMD arms)
    /// added to the bias in slice order.
    fn exact(
        (m, n, k): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        bias: impl Fn(usize, usize) -> f32,
        b_rows: bool,
    ) -> Vec<f32> {
        let fused = kernel_kind() != KernelKind::Generic;
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut v = bias(i, j);
                if m * n * k > SMALL_FLOPS {
                    for p0 in (0..k).step_by(KC) {
                        let mut t = 0.0f32;
                        for p in p0..k.min(p0 + KC) {
                            let (x, y) = (a(i, p), b(p, j));
                            t = if fused { x.mul_add(y, t) } else { t + x * y };
                        }
                        v += t;
                    }
                } else if b_rows {
                    for p in 0..k {
                        v += a(i, p) * b(p, j);
                    }
                } else {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a(i, p) * b(p, j);
                    }
                    v += acc;
                }
                c[i * n + j] = v;
            }
        }
        c
    }

    /// Every orientation the one operand type carries gives the scalar
    /// oracle's bits, on both sides of `SMALL_FLOPS`: one-shot `linear`
    /// (`X · Wᵀ`, its input packed, column bias on and off), `gemm_tn`
    /// (its strided A gathered for the small path, panel-packed for the
    /// nest), and a row-major weight in a larger product than it was
    /// packed for (the nest packs it per call).
    #[test]
    fn one_operand_bit_identical_to_scalar_oracle() {
        let (mut small, mut nest) = (0, 0);
        let mut count = |flops: usize| match flops > SMALL_FLOPS {
            false => small += 1,
            true => nest += 1,
        };
        for n in [1usize, 3, 64] {
            for out in [10usize, 1000] {
                for k in [33usize, KC + 44] {
                    let seed = (n * out + k) as u64;
                    let x = init::uniform(&[n, k], -1.0, 1.0, &mut rng::seeded(seed));
                    let w = init::uniform(&[out, k], -1.0, 1.0, &mut rng::seeded(seed + 1));
                    let b = init::uniform(&[out], -1.0, 1.0, &mut rng::seeded(seed + 2));
                    let (xd, wd, bd) = (x.data(), w.data(), b.data());
                    count(n * out * k);
                    for bias in [None, Some(&b)] {
                        let got = crate::ops::linear(&x, &w, bias).unwrap();
                        let want = exact(
                            (n, out, k),
                            |i, p| xd[i * k + p],
                            |p, j| wd[j * k + p],
                            |_, j| bias.map_or(0.0, |_| bd[j]),
                            false,
                        );
                        let case = format!("linear n={n} out={out} k={k} bias={}", bias.is_some());
                        assert_eq!(bits(got.data()), bits(&want), "{case}");
                    }
                }
            }
        }
        for (m, n, k) in [
            (5usize, 9usize, 13usize),
            (7, 3, 600),
            (33, 70, 300),
            (9, 40, 513),
        ] {
            let a_t = dense(k, m, 61 + m as u64);
            let b = dense(k, n, 62 + n as u64);
            count(m * n * k);
            let mut got = vec![f32::NAN; m * n];
            gemm_tn(m, n, k, &a_t, &b, &mut got);
            let want = exact(
                (m, n, k),
                |i, p| a_t[p * m + i],
                |p, j| b[p * n + j],
                |_, _| 0.0,
                true,
            );
            assert_eq!(bits(&got), bits(&want), "gemm_tn {m}x{n}x{k}");
        }
        for (m, n, k) in [(10usize, 64usize, 300usize), (7, 500, 40)] {
            let a = dense(m, k, 71);
            let x = dense(n, k, 72);
            let bias = dense(1, m, 73);
            let w = PackedWeights::new(&a, m, k, 1);
            assert_eq!(w.layout, Layout::Rows, "{m}x{k} packed for one column");
            assert!(m * n * k > SMALL_FLOPS, "{m}x{n}x{k} takes the nest");
            count(m * n * k);
            let mut got = vec![f32::NAN; m * n];
            gemm_packed_nt(&w, n, &x, Bias::PerRow(&bias), false, &mut got);
            let want = exact(
                (m, n, k),
                |i, p| a[i * k + p],
                |p, j| x[j * k + p],
                |i, _| bias[i],
                false,
            );
            assert_eq!(bits(&got), bits(&want), "rows weight {m}x{n}x{k}");
        }
        assert!(small > 0 && nest > 0, "small {small}, nest {nest}");
    }

    /// A served layer's packed weight gives the one-shot op's bits, for
    /// every row count that leaves a padded band at `MR` 6, K on both sides
    /// of one `KC` slice and across 18, and pixel counts of ResNet-50's
    /// last stages — on the small path and the nest.
    #[test]
    fn packed_weights_bit_identical_to_one_shot_conv_and_linear() {
        let (mut small, mut nest) = (0, 0);
        for m in [1usize, 5, 7, 1000] {
            for k in [KC - 1, KC, KC + 1, 4608] {
                for pixels in [1usize, 49, 3136] {
                    // The largest products cost seconds on the scalar arm
                    // and add no layout case the rest do not cover.
                    if m == 1000 && pixels == 3136 && k != KC + 1 {
                        continue;
                    }
                    let seed = (m * k + pixels) as u64;
                    // 4608 = 512 x 3 x 3; other K are 1x1 kernels.
                    let (c_in, kh) = if k == 4608 { (512, 3) } else { (k, 1) };
                    let side = (pixels as f64).sqrt() as usize;
                    let images = if pixels < 3136 { 2 } else { 1 };
                    let x = init::uniform(
                        &[images, c_in, side, side],
                        -1.0,
                        1.0,
                        &mut rng::seeded(seed),
                    );
                    let w =
                        init::uniform(&[m, c_in, kh, kh], -1.0, 1.0, &mut rng::seeded(seed + 1));
                    let b = init::uniform(&[m], -1.0, 1.0, &mut rng::seeded(seed + 2));
                    let cfg = Conv2dCfg {
                        stride: 1,
                        padding: kh / 2,
                    };
                    let packed = PackedWeights::new(w.data(), m, k, pixels);
                    match packed.layout {
                        Layout::Rows => small += 1,
                        Layout::Panels(_) => nest += 1,
                    }
                    let want = crate::ops::conv2d(&x, &w, Some(&b), cfg).unwrap();
                    let mut got = vec![f32::NAN; want.len()];
                    let dims = (images, c_in, side, side);
                    crate::ops::conv2d_packed_into(
                        x.data(),
                        dims,
                        &packed,
                        (kh, kh),
                        Some(&b),
                        cfg,
                        false,
                        &mut got,
                    )
                    .unwrap();
                    assert_eq!(
                        bits(&got),
                        bits(want.data()),
                        "conv m={m} k={k} pixels={pixels}"
                    );

                    // The classifier: one column per image, packed for one.
                    let w = w.reshape(&[m, k]).unwrap();
                    let x = init::uniform(&[pixels, k], -1.0, 1.0, &mut rng::seeded(seed + 3));
                    let want = crate::ops::linear(&x, &w, Some(&b)).unwrap();
                    let packed = PackedWeights::new(w.data(), m, k, 1);
                    let mut got = vec![f32::NAN; want.len()];
                    crate::ops::linear_packed_into(
                        x.data(),
                        pixels,
                        &packed,
                        Some(&b),
                        false,
                        &mut got,
                    )
                    .unwrap();
                    assert_eq!(
                        bits(&got),
                        bits(want.data()),
                        "linear m={m} k={k} n={pixels}"
                    );
                    // Both sides above share the panel packer; this oracle
                    // does not.
                    if m * k * pixels <= 1 << 25 {
                        let (wd, xd, bd) = (w.data(), x.data(), b.data());
                        let exact = exact(
                            (m, pixels, k),
                            |i, p| wd[i * k + p],
                            |p, j| xd[j * k + p],
                            |i, _| bd[i],
                            false,
                        );
                        assert_eq!(
                            bits(&got),
                            transposed_bits(&exact, m, pixels),
                            "linear m={m} k={k} n={pixels} against the scalar oracle"
                        );
                    }
                }
            }
        }
        assert!(small > 0 && nest > 0, "small {small}, nest {nest}");
    }

    /// `0 · ∞` and `0 · NaN` are NaN on both sides of `SMALL_FLOPS`: an
    /// IEEE result does not depend on the problem's size.
    #[test]
    fn small_path_propagates_nan_and_infinity() {
        let mut c = [7.0f32];
        gemm(1, 1, 1, &[0.0], &[f32::INFINITY], &mut c);
        assert!(c[0].is_nan(), "0 · ∞ gave {}", c[0]);
        for n in [16usize, 64] {
            assert_eq!(n * n * n > SMALL_FLOPS, n == 64);
            let a = vec![0.0f32; n * n];
            let mut b = dense(n, n, 81);
            b[3 * n + 5] = f32::NAN;
            let mut c = vec![0.0f32; n * n];
            gemm(n, n, n, &a, &b, &mut c);
            for (idx, v) in c.iter().enumerate() {
                assert_eq!(v.is_nan(), idx % n == 5, "{n}³ element {idx} = {v}");
            }
        }
    }

    /// The small path's convolution gives, bit for bit, the scalar
    /// per-element sum: `bias + Σ_k w·x` over `(ci, ky, kx)` in order from
    /// `0.0`, one rounded multiply and add per term, zero in the padding,
    /// clamped when `relu` is set. Strides 1 and 2, padding 0 and 1, 1×1
    /// and 3×3 kernels, pixel counts that are no multiple of any lane
    /// count, a `-0.0` bias and a stacked batch.
    #[test]
    fn small_conv_bit_identical_to_scalar_reference() {
        let mut cases = 0;
        for (c_in, hw, kk) in [
            (3usize, 13usize, 3usize),
            (2, 7, 3),
            (5, 9, 1),
            (4, 5, 1),
            (1, 3, 3),
        ] {
            for (stride, padding) in [(1usize, 0usize), (1, 1), (2, 0), (2, 1)] {
                let side = (hw + 2 * padding - kk) / stride + 1;
                let (oh, ow) = (side, side);
                let (m, k, images) = (6, c_in * kk * kk, 3);
                assert!(m * oh * ow * k <= SMALL_FLOPS);
                let seed = (c_in * 100 + hw * 10 + kk + stride + padding) as u64;
                let w = dense(m, k, seed);
                let x = dense(images * c_in, hw * hw, seed + 1);
                let mut bias = dense(1, m, seed + 2);
                bias[1] = -0.0;
                let cfg = Conv2dCfg { stride, padding };
                let packed = PackedWeights::new(&w, m, k, oh * ow);
                assert_eq!(packed.layout, Layout::Rows);
                let win = ConvWindow::new(&x, (images, c_in, hw, hw), (kk, kk), cfg, (oh, ow));
                for relu in [false, true] {
                    let mut got = vec![f32::NAN; images * m * oh * ow];
                    gemm_conv(&packed, win, Some(&bias), relu, &mut got);
                    let mut want = Vec::with_capacity(got.len());
                    for g in 0..images {
                        for i in 0..m {
                            for (oy, ox) in (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox))) {
                                let mut acc = 0.0f32;
                                for p in 0..k {
                                    let (ci, ky, kx) = (p / (kk * kk), p / kk % kk, p % kk);
                                    let (y, xx) = (oy * stride + ky, ox * stride + kx);
                                    let inside = (padding..hw + padding).contains(&y)
                                        && (padding..hw + padding).contains(&xx);
                                    let v = if inside {
                                        x[(g * c_in + ci) * hw * hw + (y - padding) * hw + xx
                                            - padding]
                                    } else {
                                        0.0
                                    };
                                    acc += w[i * k + p] * v;
                                }
                                let v = bias[i] + acc;
                                want.push(if relu { v.max(0.0) } else { v });
                            }
                        }
                    }
                    let case = format!(
                        "c_in {c_in} hw {hw} k {kk} stride {stride} pad {padding} relu {relu}"
                    );
                    assert_eq!(bits(&got), bits(&want), "{case}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 40);
    }

    #[test]
    #[should_panic(expected = "packed for another micro-kernel")]
    fn panels_of_another_kernel_are_rejected() {
        let (m, n, k) = (16, 16, 300);
        let other = match kernel_kind() {
            KernelKind::Fma => KernelKind::Generic,
            _ => KernelKind::Fma,
        };
        let a = dense(m, k, 51);
        let w = PackedWeights::panels(MatRef::rows(&a, k), m, k, other);
        let mut c = vec![0.0f32; m * n];
        gemm_packed_nt(&w, n, &dense(n, k, 52), Bias::None, false, &mut c);
    }

    #[test]
    fn zero_k_is_pure_bias() {
        let (m, n) = (4, 6);
        let bias: Vec<f32> = (0..n).map(|j| j as f32).collect();
        let mut c = vec![f32::NAN; m * n];
        let a = PackedWeights::new(&[], m, 0, n);
        gemm_packed_nt(&a, n, &[], Bias::PerCol(&bias), false, &mut c);
        for row in c.chunks(n) {
            assert_eq!(row, &bias[..]);
        }
        let mut c = vec![f32::NAN; m * n];
        gemm(m, n, 0, &[], &[], &mut c);
        assert!(c.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn overwrites_stale_output() {
        let (m, n, k) = (6, 6, 6);
        let a = dense(m, k, 11);
        let b = dense(k, n, 12);
        let mut c1 = vec![123.0f32; m * n];
        let mut c2 = vec![-7.0f32; m * n];
        gemm(m, n, k, &a, &b, &mut c1);
        gemm(m, n, k, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "output slice too short")]
    fn rejects_short_output() {
        let mut c = vec![0.0f32; 5];
        gemm(2, 3, 1, &[1.0, 2.0], &[1.0, 2.0, 3.0], &mut c);
    }
}
