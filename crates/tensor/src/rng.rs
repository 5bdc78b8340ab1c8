//! Deterministic random number generation helpers.
//!
//! All stochastic pieces of the EPIM reproduction (weight init, dataset
//! synthesis, evolutionary mutation) draw from [`SmallRng`] instances seeded
//! explicitly, so every experiment is reproducible bit-for-bit.
//!
//! **Words per draw.** [`uniform`] consumes exactly one 64-bit word of the
//! stream and [`normal`] exactly two (float ranges never reject). This is
//! load-bearing: [`crate::init`] splits a tensor into blocks of
//! `SmallRng::BLOCK_WORDS` words and starts each block's generator with
//! `SmallRng::jump_block`, which is only where the serial loop would be if
//! every draw takes a fixed number of words. A sampler that rejects or
//! draws a variable number of words must not be used there.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Example
///
/// ```
/// let mut rng = epim_tensor::rng::seeded(42);
/// let a = epim_tensor::rng::uniform(&mut rng, -1.0, 1.0);
/// let mut rng2 = epim_tensor::rng::seeded(42);
/// let b = epim_tensor::rng::uniform(&mut rng2, -1.0, 1.0);
/// assert_eq!(a, b);
/// ```
pub fn seeded(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// A uniform sample in `[lo, hi)`.
pub fn uniform(rng: &mut SmallRng, lo: f32, hi: f32) -> f32 {
    rng.gen_range(lo..hi)
}

/// A standard-normal sample via Box–Muller.
pub fn normal(rng: &mut SmallRng, mean: f32, std: f32) -> f32 {
    // Box–Muller transform; avoids a dependency on rand_distr.
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
    mean + std * z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(7);
        let mut b = seeded(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = seeded(1);
        for _ in 0..1000 {
            let x = uniform(&mut rng, -2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn draws_consume_a_fixed_number_of_words() {
        // `init`'s block filler relies on this; compare with a clone
        // stepped by hand.
        for seed in 0..64 {
            let mut r = seeded(seed);
            let mut by_hand = r.clone();
            normal(&mut r, 0.0, 1.0);
            by_hand.next_u64();
            by_hand.next_u64();
            assert_eq!(r, by_hand, "normal, seed {seed}");
            uniform(&mut r, -3.0, 0.5);
            by_hand.next_u64();
            assert_eq!(r, by_hand, "uniform, seed {seed}");
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = seeded(2);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng, 1.0, 2.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }
}
