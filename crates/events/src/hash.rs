//! A cheap seeded hasher for the simulator's integer-keyed maps.
//!
//! The maps on the simulator's hot path are keyed by slot numbers, block
//! ids and `(die, block)` pairs the simulator itself computes, so the
//! collision resistance `std`'s SipHash pays for buys nothing there.
//! [`IntHasher`] is the Fx-style word hash — rotate, xor, multiply per
//! word — with the product's well-mixed high bits rotated down to where
//! `HashMap` takes its bucket index from. Do not use it for keys that
//! arrive from outside the program.
//!
//! No simulated result may depend on a map's iteration order. The
//! hasher takes a seed so tests can prove that: a run under
//! [`IntBuildHasher::with_seed`] with two different seeds walks its maps
//! in two different orders and must still produce the same report.
//! [`IntBuildHasher::default`] is one fixed seed, so every process
//! hashes alike.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The multiplier of the Fx hash (64-bit): an odd constant close to
/// 2^64 / φ.
const K: u64 = 0x517C_C1B7_2722_0A95;

/// Seed of [`IntBuildHasher::default`].
const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A `HashMap` hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

/// Builds [`IntHasher`]s that all start from one seed.
///
/// # Example
///
/// ```
/// use rif_events::hash::{IntBuildHasher, IntMap};
///
/// let mut m: IntMap<u64, &str> = IntMap::default();
/// m.insert(7, "slot seven");
/// assert_eq!(m.get(&7), Some(&"slot seven"));
/// // Same contents under another seed, another iteration order.
/// let other: IntMap<u64, &str> = IntMap::with_hasher(IntBuildHasher::with_seed(1));
/// assert!(other.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntBuildHasher {
    seed: u64,
}

impl IntBuildHasher {
    /// A builder whose hashers start from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        IntBuildHasher { seed }
    }
}

impl Default for IntBuildHasher {
    fn default() -> Self {
        IntBuildHasher { seed: DEFAULT_SEED }
    }
}

impl BuildHasher for IntBuildHasher {
    type Hasher = IntHasher;

    fn build_hasher(&self) -> IntHasher {
        IntHasher { state: self.seed }
    }
}

/// The word-at-a-time hasher (see the module documentation).
#[derive(Debug, Clone, Copy)]
pub struct IntHasher {
    state: u64,
}

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A product's low bits depend only on the key's low bits; the
        // map indexes buckets by the hash's low bits, so hand it the
        // high ones.
        self.state.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(build: IntBuildHasher, key: u64) -> u64 {
        build.hash_one(key)
    }

    #[test]
    fn default_is_one_fixed_seed() {
        let (a, b) = (IntBuildHasher::default(), IntBuildHasher::default());
        assert_eq!(a, b);
        for k in [0u64, 1, 42, u64::MAX] {
            assert_eq!(hash_of(a, k), hash_of(b, k));
        }
    }

    #[test]
    fn seeds_change_hashes_and_iteration_order() {
        let walk = |seed| {
            let mut m: IntMap<u64, ()> = IntMap::with_hasher(IntBuildHasher::with_seed(seed));
            for k in 0..256u64 {
                m.insert(k, ());
            }
            m.into_keys().collect::<Vec<u64>>()
        };
        let (a, b) = (walk(1), walk(2));
        assert_ne!(a, b, "two seeds walked 256 keys in the same order");
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(a), sorted(b));
    }

    #[test]
    fn sequential_and_strided_keys_spread_over_buckets() {
        // Slot numbers are sequential; block ids are multiples of the
        // blocks-per-plane stride. Neither may pile into few buckets:
        // count distinct values of the low 10 bits over 1024 keys.
        let build = IntBuildHasher::default();
        for stride in [1u64, 64, 1024, 1 << 20] {
            let mut seen = [false; 1024];
            for i in 0..1024u64 {
                seen[(hash_of(build, i * stride) & 1023) as usize] = true;
            }
            let distinct = seen.iter().filter(|&&s| s).count();
            assert!(
                distinct > 500,
                "stride {stride}: {distinct} of 1024 buckets"
            );
        }
    }

    #[test]
    fn tuple_keys_hash_both_words() {
        let build = IntBuildHasher::default();
        let h = |k: (usize, usize)| build.hash_one(k);
        assert_ne!(h((1, 2)), h((2, 1)));
        assert_ne!(h((0, 1)), h((1, 0)));
        let mut m: IntMap<(usize, usize), u32> = IntMap::default();
        m.insert((3, 4), 7);
        assert_eq!(m.get(&(3, 4)), Some(&7));
        assert_eq!(m.get(&(4, 3)), None);
    }

    #[test]
    fn byte_slices_hash_by_content() {
        let build = IntBuildHasher::default();
        let h = |b: &[u8]| {
            let mut s = build.build_hasher();
            s.write(b);
            s.finish()
        };
        assert_eq!(h(b"0123456789"), h(b"0123456789"));
        assert_ne!(h(b"0123456789"), h(b"0123456788"));
        assert_ne!(h(b"01234567"), h(b"012345670"));
    }
}
