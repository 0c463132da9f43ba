//! Stable content hashing for cache keys and journals.
//!
//! `std::hash` makes no stability promises across Rust versions, platforms or
//! processes (and `std`'s default hasher is randomly keyed), so anything that
//! persists a hash — the campaign journal, result caches — needs its own
//! hash with a pinned algorithm. [`StableHasher`] is FNV-1a 64: tiny, fully
//! specified, and byte-order independent because every input is folded in as
//! explicit little-endian bytes. The same inputs produce the same hash on
//! every platform, toolchain and run, forever.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64 hasher with a stable, documented algorithm.
///
/// Unlike `std::hash::Hasher` implementations, the digest is part of the
/// public contract: persisted artifacts (journal keys, cache files) may embed
/// it and expect it to match across runs and machines.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the state.
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a string in, framed by its length so `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Folds a `u64` in as little-endian bytes.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Folds an `f64` in by its IEEE-754 bit pattern (so `-0.0` and `0.0`
    /// hash differently, and NaN payloads are preserved).
    #[cfg(test)]
    fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// The current digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot stable hash of a string.
#[must_use]
pub fn stable_hash_str(s: &str) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write_str(s);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_pinned() {
        // The algorithm is part of the public contract: persisted journal
        // keys depend on these exact values never changing.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn framing_distinguishes_concatenations() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        let mut a = StableHasher::new();
        a.write_f64(0.0);
        let mut b = StableHasher::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn one_shot_matches_incremental() {
        let mut h = StableHasher::new();
        h.write_str("megacity-10000");
        assert_eq!(h.finish(), stable_hash_str("megacity-10000"));
    }
}
