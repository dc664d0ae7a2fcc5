//! Seeded input generation. Every input a workload hands the library
//! derives from the `--seed` argument through [`Rng`], so one seed always
//! gives the same operations in the same order on the same data.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use so that two streams drawn
    /// from one seed for different purposes do not coincide.
    pub fn new(seed: u64, salt: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ seed;
        for b in salt.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Rng(h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// `counts[c]` copies of each class index `c`, shuffled: one round of a
/// fixed mix whose order depends on the seed but whose composition does
/// not.
pub fn shuffled_round(rng: &mut Rng, counts: &[usize]) -> Vec<usize> {
    let mut round: Vec<usize> =
        counts.iter().enumerate().flat_map(|(c, &k)| std::iter::repeat_n(c, k)).collect();
    rng.shuffle(&mut round);
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_stream() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
    }

    #[test]
    fn rounds_keep_their_composition() {
        let counts = [3, 1, 4];
        let mut r = Rng::new(1, "round");
        let round = shuffled_round(&mut r, &counts);
        for (c, &k) in counts.iter().enumerate() {
            assert_eq!(round.iter().filter(|&&x| x == c).count(), k);
        }
        let again = shuffled_round(&mut Rng::new(1, "round"), &counts);
        assert_eq!(round, again);
    }

    #[test]
    fn range_stays_inside_its_bounds() {
        let mut r = Rng::new(3, "range");
        for _ in 0..1000 {
            let x = r.range(2, 4);
            assert!((2..=4).contains(&x));
        }
    }
}
