//! Deterministic random-number streams.
//!
//! Every stochastic component in the simulation (mobility, channel fading,
//! traffic generation, protocol jitter) draws from a [`SimRng`] derived from
//! the scenario master seed. Components receive *independent streams* derived
//! from the master seed and a stream label, so adding randomness to one
//! component never perturbs the draws seen by another — a property the
//! deterministic-replay integration tests rely on.
//!
//! The generator is a self-contained xoshiro256++ seeded through SplitMix64,
//! so the kernel carries no external dependencies and the byte-exact replay
//! guarantee holds across platforms and toolchains.

/// A seeded random number generator with named sub-stream derivation.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

/// One SplitMix64 step: advances `x` and returns the next output.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let state = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        SimRng { seed, state }
    }

    /// Derives an independent stream identified by `label`.
    ///
    /// Streams derived with the same `(seed, label)` pair are identical;
    /// streams with different labels are statistically independent.
    #[must_use]
    pub fn derive(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng::new(self.seed ^ h.rotate_left(17))
    }

    /// Derives an independent stream for a numbered entity (e.g. a node).
    #[must_use]
    pub fn derive_index(&self, label: &str, index: u64) -> SimRng {
        let base = self.derive(label);
        SimRng::new(base.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits give every representable double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform_range(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "uniform_range requires low < high");
        low + (high - low) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize requires n > 0");
        // Lemire-style widening multiply with rejection keeps the draw
        // unbiased for every n, not just powers of two.
        let n = n as u64;
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                low = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Bernoulli trial returning `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Picks a uniformly random element from a slice, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.uniform_usize(items.len())])
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_streams_are_reproducible_and_independent() {
        let root = SimRng::new(7);
        let mut a1 = root.derive("mobility");
        let mut a2 = root.derive("mobility");
        let mut b = root.derive("channel");
        let sa1: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let sa2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(sa1, sa2);
        assert_ne!(sa1, sb);
    }

    #[test]
    fn derive_index_distinguishes_entities() {
        let root = SimRng::new(7);
        let mut n0 = root.derive_index("node", 0);
        let mut n1 = root.derive_index("node", 1);
        assert_ne!(n0.next_u64(), n1.next_u64());
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let x = rng.uniform_range(5.0, 6.0);
            assert!((5.0..6.0).contains(&x));
        }
    }

    #[test]
    fn uniform_usize_covers_range_without_bias_hotspots() {
        let mut rng = SimRng::new(17);
        let n = 7;
        let mut counts = vec![0u32; n];
        for _ in 0..70_000 {
            counts[rng.uniform_usize(n)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (f64::from(c) / 10_000.0 - 1.0).abs() < 0.05,
                "bucket {i} count {c} too far from uniform"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_mean_is_about_p() {
        let mut rng = SimRng::new(11);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!(
            (freq - 0.3).abs() < 0.02,
            "frequency {freq} too far from 0.3"
        );
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = SimRng::new(9);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(rng.choose(&items).unwrap()));

        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle must be a permutation");
        assert_ne!(v, orig, "shuffle of 50 elements should change order");
    }
}
