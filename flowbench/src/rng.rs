//! The benchmark's own seeded randomness: request mixes and design
//! popularity for the daemon workloads. Kept inside the benchmark so the
//! traffic a seed produces never changes with the library under test.

/// SplitMix64: a tiny, well-mixed 64-bit generator.
#[derive(Clone, Debug)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no values");
        // Truncation is the point: the product is in [0, n).
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let i = (self.next_f64() * n as f64) as usize;
        i.min(n - 1)
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)`.
#[derive(Clone, Debug)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Draws a rank.
    pub(crate) fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1998), draw(1998));
        assert_ne!(draw(1998), draw(1999));
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn zipf_draws_repeat_for_a_seed() {
        let z = Zipf::new(48);
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..500).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_the_range() {
        let z = Zipf::new(48);
        let mut r = SplitMix64::new(11);
        let mut counts = [0usize; 48];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[40]);
        // Rank 0 holds 1/H(48) of the mass, about 22 %.
        let share = counts[0] as f64 / 50_000.0;
        assert!((share - 0.224).abs() < 0.01, "rank-0 share {share}");
        assert!(counts.iter().all(|&c| c > 0));
    }
}
