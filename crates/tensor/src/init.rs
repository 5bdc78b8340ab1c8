//! Weight initialization schemes.

use crate::{rng, Shape, Tensor};
use rand::rngs::SmallRng;

/// A tensor of `shape` filled with successive draws, in row-major order.
fn filled(shape: &[usize], draw: impl FnMut() -> f32) -> Tensor {
    let data: Vec<f32> = std::iter::repeat_with(draw)
        .take(Shape::from(shape).len())
        .collect();
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
    filled(shape, || rng::normal(rng_, 0.0, std))
}

/// Xavier/Glorot uniform initialization.
pub fn xavier_uniform(shape: &[usize], rng_: &mut SmallRng) -> Tensor {
    let fan_in: usize = shape.iter().skip(1).product::<usize>().max(1);
    let fan_out = shape.first().copied().unwrap_or(1);
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    filled(shape, || rng::uniform(rng_, -bound, bound))
}

/// Uniform initialization in `[lo, hi)`.
pub fn uniform(shape: &[usize], lo: f32, hi: f32, rng_: &mut SmallRng) -> Tensor {
    filled(shape, || rng::uniform(rng_, lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

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
