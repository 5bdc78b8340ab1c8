//! Weight initialization schemes.
//!
//! Every initializer is bitwise the serial loop "one draw per element, in
//! row-major order" — and leaves the caller's generator where that loop
//! would — but fills large tensors on the worker pool. Each draw consumes a
//! fixed number of stream words ([`crate::rng`]), so element `i` starts at
//! word `i · words_per_draw`: the tensor is cut into chunks of
//! `SmallRng::BLOCK_WORDS` words and chunk `k` draws from the caller's
//! generator jumped `k` times ([`SmallRng::jump_block`]). Chunk boundaries
//! depend only on that constant, so the output is the same at every
//! `EPIM_THREADS`; a tensor of one chunk or less is the serial loop itself.

use crate::{rng, Shape, Tensor};
use rand::rngs::SmallRng;

/// A tensor of `shape` filled with successive `draw`s from `rng_`, each
/// consuming exactly `words_per_draw` words, in row-major order.
fn filled(
    shape: &[usize],
    rng_: &mut SmallRng,
    words_per_draw: usize,
    draw: impl Fn(&mut SmallRng) -> f32 + Sync,
) -> Tensor {
    let len = Shape::from(shape).len();
    let chunk = SmallRng::BLOCK_WORDS / words_per_draw;
    let starts: Vec<SmallRng> = (0..len.div_ceil(chunk))
        .map(|k| {
            if k > 0 {
                rng_.jump_block();
            }
            rng_.clone()
        })
        .collect();
    let mut data = vec![0.0f32; len];
    let ends = epim_parallel::map_chunks_mut(&mut data, chunk, |k, out| {
        let mut r = starts[k].clone();
        out.fill_with(|| draw(&mut r));
        r
    });
    if let Some(end) = ends.into_iter().next_back() {
        *rng_ = end;
    }
    Tensor::from_vec(data, shape).expect("one draw per element")
}

/// Kaiming/He normal initialization for convolution weights
/// `(c_out, c_in, kh, kw)` or linear weights `(out, in)`.
///
/// The fan-in is the product of all dimensions except the first.
///
/// # Example
///
/// ```
/// let mut rng = epim_tensor::rng::seeded(0);
/// let w = epim_tensor::init::kaiming_normal(&[16, 8, 3, 3], &mut rng);
/// assert_eq!(w.shape(), &[16, 8, 3, 3]);
/// ```
pub fn kaiming_normal(shape: &[usize], rng_: &mut SmallRng) -> Tensor {
    let fan_in: usize = shape.iter().skip(1).product::<usize>().max(1);
    let std = (2.0 / fan_in as f32).sqrt();
    filled(shape, rng_, 2, |r| rng::normal(r, 0.0, std))
}

/// Xavier/Glorot uniform initialization.
pub fn xavier_uniform(shape: &[usize], rng_: &mut SmallRng) -> Tensor {
    let fan_in: usize = shape.iter().skip(1).product::<usize>().max(1);
    let fan_out = shape.first().copied().unwrap_or(1);
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    filled(shape, rng_, 1, |r| rng::uniform(r, -bound, bound))
}

/// Uniform initialization in `[lo, hi)`.
pub fn uniform(shape: &[usize], lo: f32, hi: f32, rng_: &mut SmallRng) -> Tensor {
    filled(shape, rng_, 1, |r| rng::uniform(r, lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut r = rng::seeded(3);
        let w_small_fan = kaiming_normal(&[64, 4, 1, 1], &mut r);
        let mut r = rng::seeded(3);
        let w_large_fan = kaiming_normal(&[64, 256, 1, 1], &mut r);
        let std = |t: &Tensor| (t.norm_sq() / t.len() as f32).sqrt();
        assert!(std(&w_small_fan) > std(&w_large_fan) * 2.0);
    }

    #[test]
    fn xavier_within_bound() {
        let mut r = rng::seeded(4);
        let w = xavier_uniform(&[10, 10], &mut r);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(w.abs_max() <= bound);
    }

    #[test]
    fn uniform_within_range() {
        let mut r = rng::seeded(5);
        let w = uniform(&[100], -0.5, 0.5, &mut r);
        assert!(w.min() >= -0.5 && w.max() < 0.5);
    }

    #[test]
    fn draws_fill_the_tensor_in_row_major_order() {
        // The multi-index walk the initialisers used to make: one draw per
        // element, last axis fastest.
        let shape = [3, 2, 4, 5];
        let std = (2.0f32 / 40.0).sqrt();
        let bound = (6.0f32 / 43.0).sqrt();
        let (mut a, mut b) = (rng::seeded(11), rng::seeded(11));
        assert_eq!(
            kaiming_normal(&shape, &mut a),
            Tensor::from_fn(&shape, |_| rng::normal(&mut b, 0.0, std))
        );
        assert_eq!(
            xavier_uniform(&shape, &mut a),
            Tensor::from_fn(&shape, |_| rng::uniform(&mut b, -bound, bound))
        );
        assert_eq!(
            uniform(&shape, -1.0, 2.0, &mut a),
            Tensor::from_fn(&shape, |_| rng::uniform(&mut b, -1.0, 2.0))
        );
        assert!(uniform(&[0, 3], 0.0, 1.0, &mut a).is_empty());
        assert_eq!(uniform(&[], 0.0, 1.0, &mut a).len(), 1);
    }

    /// FNV-1a over every weight's bits, then the caller's next word.
    fn fnv(t: &Tensor, next: u64) -> u64 {
        let bytes = t.data().iter().flat_map(|v| v.to_bits().to_le_bytes());
        bytes
            .chain(next.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The values the serial loop produced before the block filler existed
    /// (computed with the parent build): the benchmark cannot catch a
    /// weight change, because its oracle is built by this same code.
    #[test]
    fn weights_hash_to_the_serial_builds_values() {
        let mut r = rng::seeded(25);
        let w = kaiming_normal(&[512, 512, 3, 3], &mut r);
        assert_eq!(fnv(&w, r.next_u64()), 0x4ffd_cd55_eb17_80e4);
        let mut r = rng::seeded(26);
        let w = uniform(&[70_000], -1.0, 1.0, &mut r);
        assert_eq!(fnv(&w, r.next_u64()), 0xe05a_f9de_e4f8_7a27);
    }

    #[test]
    fn block_fill_is_the_serial_loop_at_every_chunk_boundary() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for words_per_draw in [1, 2] {
            let c = SmallRng::BLOCK_WORDS / words_per_draw;
            for len in [0, 1, c - 1, c, c + 1, 3 * c + 7] {
                // One axis: fan-in 1, fan-out `len`.
                let (mut a, mut b) = (rng::seeded(len as u64), rng::seeded(len as u64));
                let pairs = if words_per_draw == 2 {
                    let std = 2.0f32.sqrt();
                    vec![(
                        kaiming_normal(&[len], &mut a),
                        Tensor::from_fn(&[len], |_| rng::normal(&mut b, 0.0, std)),
                    )]
                } else {
                    let bound = (6.0 / (len + 1) as f32).sqrt();
                    vec![
                        (
                            xavier_uniform(&[len], &mut a),
                            Tensor::from_fn(&[len], |_| rng::uniform(&mut b, -bound, bound)),
                        ),
                        (
                            uniform(&[len], -0.5, 2.0, &mut a),
                            Tensor::from_fn(&[len], |_| rng::uniform(&mut b, -0.5, 2.0)),
                        ),
                    ]
                };
                for (got, want) in &pairs {
                    assert_eq!(bits(got), bits(want), "{words_per_draw} words, len {len}");
                }
                assert_eq!(a.next_u64(), b.next_u64(), "next draw after len {len}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = rng::seeded(9);
        let mut b = rng::seeded(9);
        assert_eq!(
            kaiming_normal(&[4, 4], &mut a),
            kaiming_normal(&[4, 4], &mut b)
        );
    }
}
