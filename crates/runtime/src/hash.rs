//! An unkeyed integer hasher for maps whose keys the simulator generates
//! itself.
//!
//! [`IntHasher`] is the multiply-rotate mix rustc's own `FxHasher` uses:
//! one rotate, xor and multiply per written integer, no per-map key. It is
//! several times cheaper than std's SipHash on `u32`/`u64` keys, and for
//! the dense keys the simulator produces (`/24` prefixes, addresses, link
//! ids) the odd multiplier spreads consecutive keys over distinct buckets.
//!
//! **Only for keys the simulator generates itself.** With no secret key,
//! anyone who picks the keys can pick colliding ones and turn every lookup
//! into a linear scan. A map keyed by anything a peer sends must keep
//! std's keyed SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's `FxHasher` (from the golden ratio, odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Unkeyed multiply-rotate hasher for simulator-generated integer keys.
/// See the module docs for when it must not be used.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
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

/// A `HashMap` hashed by [`IntHasher`]; create it with
/// `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash<T: Hash>(v: T) -> u64 {
        let mut h = IntHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash(7u32), hash(7u32));
        let mut seen: Vec<u64> = (0..1024u32).map(hash).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1024, "consecutive keys never collide");
    }

    #[test]
    fn int_map_behaves_like_a_map() {
        let mut m: IntMap<u32, u32> = IntMap::default();
        for k in 0..10_000u32 {
            m.insert(k << 8, k);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u32).all(|k| m[&(k << 8)] == k));
        assert_eq!(m.get(&1), None);
    }
}
