//! Slice sweeps for use *inside* [`SimdOp`] bodies.
//!
//! These are generic over the [`Simd`] token and therefore inherit the
//! caller's ISA context. [`map`] and [`zip_map`] (and their in-place
//! forms) apply one lane closure over `LANES`-wide chunks, then once more
//! to the remainder, zero-padded into a `LANES`-wide stack buffer: every
//! element of a slice runs the same instructions, and no op needs a scalar
//! twin for its tail. An op whose lane closure is the same IEEE sequence in
//! every arm is therefore bitwise identical across arms at every length.
//!
//! Mark the lane closure `#[inline(always)]`. The closure is its own
//! function, compiled without the caller's `#[target_feature]` ISA; if
//! LLVM declines to inline it (a dozen lane ops is enough), every
//! intrinsic in it becomes a call, and the sweep runs ~20× slower.
//!
//! [`SimdOp`]: crate::SimdOp

use crate::vec::Simd;

/// Widest `Simd::LANES` of any arm: the remainder buffer's size.
const MAX_LANES: usize = 16;

/// The whole-vector prefix of `data`: its length rounded down to `LANES`.
#[inline(always)]
fn body_len<S: Simd>(data: &[f32]) -> usize {
    data.len() - data.len() % S::LANES
}

/// `src` (shorter than `LANES`) zero-padded to one vector.
#[inline(always)]
fn load_padded<S: Simd>(s: S, src: &[f32]) -> S::V {
    let mut buf = [0.0f32; MAX_LANES];
    buf[..src.len()].copy_from_slice(src);
    s.load(&buf[..S::LANES])
}

/// The first `dst.len()` (fewer than `LANES`) lanes of `v` into `dst`.
#[inline(always)]
fn store_partial<S: Simd>(s: S, dst: &mut [f32], v: S::V) {
    let mut buf = [0.0f32; MAX_LANES];
    s.store(&mut buf[..S::LANES], v);
    let n = dst.len();
    dst.copy_from_slice(&buf[..n]);
}

/// `dst[i] = f(src[i])` over equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline(always)]
pub fn map<S: Simd>(s: S, src: &[f32], dst: &mut [f32], f: impl Fn(S::V) -> S::V) {
    assert_eq!(src.len(), dst.len(), "map length mismatch");
    let body = body_len::<S>(dst);
    let (dst, dst_tail) = dst.split_at_mut(body);
    for (x, d) in src
        .chunks_exact(S::LANES)
        .zip(dst.chunks_exact_mut(S::LANES))
    {
        s.store(d, f(s.load(x)));
    }
    if !dst_tail.is_empty() {
        store_partial(s, dst_tail, f(load_padded(s, &src[body..])));
    }
}

/// `data[i] = f(data[i])` over the whole slice.
#[inline(always)]
pub fn map_in_place<S: Simd>(s: S, data: &mut [f32], f: impl Fn(S::V) -> S::V) {
    let (data, tail) = data.split_at_mut(body_len::<S>(data));
    for d in data.chunks_exact_mut(S::LANES) {
        s.store(d, f(s.load(d)));
    }
    if !tail.is_empty() {
        store_partial(s, tail, f(load_padded(s, tail)));
    }
}

/// `dst[i] = f(a[i], b[i])` over equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline(always)]
pub fn zip_map<S: Simd>(
    s: S,
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
    f: impl Fn(S::V, S::V) -> S::V,
) {
    assert_eq!(a.len(), dst.len(), "zip_map length mismatch");
    assert_eq!(b.len(), dst.len(), "zip_map length mismatch");
    let body = body_len::<S>(dst);
    let (dst, dst_tail) = dst.split_at_mut(body);
    let lanes = a.chunks_exact(S::LANES).zip(b.chunks_exact(S::LANES));
    for ((x, y), d) in lanes.zip(dst.chunks_exact_mut(S::LANES)) {
        s.store(d, f(s.load(x), s.load(y)));
    }
    if !dst_tail.is_empty() {
        let v = f(load_padded(s, &a[body..]), load_padded(s, &b[body..]));
        store_partial(s, dst_tail, v);
    }
}

/// `dst[i] = f(dst[i], src[i])` over equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline(always)]
pub fn zip_map_in_place<S: Simd>(
    s: S,
    dst: &mut [f32],
    src: &[f32],
    f: impl Fn(S::V, S::V) -> S::V,
) {
    assert_eq!(src.len(), dst.len(), "zip_map_in_place length mismatch");
    let body = body_len::<S>(dst);
    let (dst, dst_tail) = dst.split_at_mut(body);
    for (x, d) in src
        .chunks_exact(S::LANES)
        .zip(dst.chunks_exact_mut(S::LANES))
    {
        s.store(d, f(s.load(d), s.load(x)));
    }
    if !dst_tail.is_empty() {
        let v = f(load_padded(s, dst_tail), load_padded(s, &src[body..]));
        store_partial(s, dst_tail, v);
    }
}

/// `dst[i] += src[i]` over equal-length slices.
#[inline(always)]
pub fn add_assign<S: Simd>(s: S, dst: &mut [f32], src: &[f32]) {
    zip_map_in_place(
        s,
        dst,
        src,
        #[inline(always)]
        |d, x| s.add(d, x),
    );
}

/// `dst[i] += x` over the whole slice.
#[inline(always)]
pub fn add_splat<S: Simd>(s: S, dst: &mut [f32], x: f32) {
    let xv = s.splat(x);
    map_in_place(
        s,
        dst,
        #[inline(always)]
        |d| s.add(d, xv),
    );
}

/// `dst[i] = src[i]` for `n` elements through raw pointers: vector-width
/// chunks, then two lanes at a time as raw `u64` moves, then one last lane.
///
/// The pair tail exists for the only caller, the epitome patch replay,
/// which issues hundreds of thousands of 1-3 element runs: a
/// variable-length `copy_from_slice` pays a `memcpy` call per run and a
/// per-element loop pays a bounds check per lane, while a `u64` move is a
/// single instruction. Bit copies are value-preserving, so every arm stays
/// trivially bitwise equal.
///
/// # Safety
///
/// `src` must be valid for reads and `dst` for writes of `n` elements,
/// and the two ranges must not overlap. Callers that loop over many tiny
/// runs should prove bounds once for the whole batch (the point of the
/// raw-pointer form) rather than per run.
#[inline(always)]
pub unsafe fn copy_raw<S: Simd>(s: S, src: *const f32, dst: *mut f32, n: usize) {
    let mut i = 0;
    if S::LANES > 1 {
        while i + S::LANES <= n {
            let v = s.load(std::slice::from_raw_parts(src.add(i), S::LANES));
            s.store(std::slice::from_raw_parts_mut(dst.add(i), S::LANES), v);
            i += S::LANES;
        }
    }
    while i + 2 <= n {
        dst.add(i)
            .cast::<u64>()
            .write_unaligned(src.add(i).cast::<u64>().read_unaligned());
        i += 2;
    }
    if i < n {
        *dst.add(i) = *src.add(i);
    }
}
