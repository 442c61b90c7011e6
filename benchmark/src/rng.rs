//! The benchmark's own deterministic generator: every input is a pure
//! function of `--seed`. Deliberately not `crates/shim-rand`: a later change
//! to that crate would alter the request lists between a parent commit and
//! its change, and the two would no longer be measured on identical inputs.

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`salt`) of one run (`seed`), so adding a
    /// draw in one place does not shift the inputs made in another.
    pub fn new(seed: u64, salt: &str) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for byte in salt.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut rng = Rng(state);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `0.0..1.0`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Cumulative Zipf(1) weights over `n` ranks, for [`draw_rank`].
pub fn zipf_cdf(n: usize) -> Vec<f64> {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64 / total;
            acc
        })
        .collect()
}

/// Draws a 0-based rank from a cumulative distribution.
pub fn draw_rank(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_salt() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut r = Rng::new(1, "range");
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            assert!((3..=9).contains(&r.between(3, 9)));
            assert!((0.0..1.0).contains(&r.unit()));
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let cdf = zipf_cdf(32);
        assert!((cdf[31] - 1.0).abs() < 1e-12);
        let mut r = Rng::new(3, "zipf");
        let mut hits = [0usize; 32];
        for _ in 0..100_000 {
            hits[draw_rank(&cdf, &mut r)] += 1;
        }
        // Rank 1 has weight 1/H(32) = 0.246; rank 2 half of that.
        assert!((hits[0] as f64 / 100_000.0 - 0.246).abs() < 0.01);
        assert!((hits[1] as f64 / 100_000.0 - 0.123).abs() < 0.01);
        assert!(hits[31] > 0);
    }
}
