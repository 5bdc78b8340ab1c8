//! Everything a run derives from `--seed`: input values, the order in
//! which clients pick inputs and tenants, and the open-loop arrival
//! schedule. The program under test receives only the generated inputs.

use epim_tensor::{init, rng, Tensor};

/// SplitMix64: enough for index draws and exponential gaps, and keeps the
/// seed's meaning inside this file (the vendored `rand` stand-in states
/// that its streams are not stable across versions of itself).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `(seed, salt)`; distinct salts give unrelated streams
    /// for the same seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut s = SplitMix64(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// `count` input tensors of `shape`, uniform in `[-1, 1)` (inside the DAC's
/// full scale, so no input clips).
pub fn input_pool(seed: u64, salt: u64, shape: &[usize], count: usize) -> Vec<Tensor> {
    let mut r = rng::seeded(SplitMix64::new(seed, salt).next_u64());
    (0..count)
        .map(|_| init::uniform(shape, -1.0, 1.0, &mut r))
        .collect()
}

/// A seeded permutation of `0..n`: the order tenants are visited in,
/// round-robin.
pub fn permutation(seed: u64, salt: u64, n: usize) -> Vec<usize> {
    let mut r = SplitMix64::new(seed, salt);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, r.below(i + 1));
    }
    order
}

/// Poisson arrivals at `rate_per_s` over `horizon_ns`: the offsets, from
/// the start of the run, at which each request is due.
pub fn poisson_schedule(seed: u64, salt: u64, rate_per_s: f64, horizon_ns: u64) -> Vec<u64> {
    let mut r = SplitMix64::new(seed, salt);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((rate_per_s * horizon_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -r.unit().ln() * mean_gap_ns;
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(pool: &[Tensor]) -> Vec<u8> {
        pool.iter()
            .flat_map(|t| t.data().iter().flat_map(|v| v.to_le_bytes()))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = input_pool(7, 1, &[1, 3, 16, 16], 4);
        let b = input_pool(7, 1, &[1, 3, 16, 16], 4);
        let c = input_pool(8, 1, &[1, 3, 16, 16], 4);
        let d = input_pool(7, 2, &[1, 3, 16, 16], 4);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        assert_ne!(bytes(&a), bytes(&d));
        assert!(bytes(&a)
            .chunks(4)
            .all(|c| f32::from_le_bytes(c.try_into().unwrap()).abs() <= 1.0));
    }

    #[test]
    fn same_seed_same_schedule_and_order() {
        let a = poisson_schedule(3, 9, 2000.0, 2_000_000_000);
        assert_eq!(a, poisson_schedule(3, 9, 2000.0, 2_000_000_000));
        assert_ne!(a, poisson_schedule(4, 9, 2000.0, 2_000_000_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 4000 expected arrivals; five standard deviations is ~316.
        assert!((3684..=4316).contains(&a.len()), "{}", a.len());

        let p = permutation(3, 1, 3);
        assert_eq!(p, permutation(3, 1, 3));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2]);
        assert!((0..64).any(|s| permutation(s, 1, 3) != p));
    }
}
