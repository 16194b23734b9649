#![warn(missing_docs)]
//! A minimal, dependency-free, offline stand-in for the parts of the
//! `rustc-hash` 1.x API this workspace uses: [`FxHasher`] and the
//! [`FxHashMap`] / [`FxHashSet`] aliases.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the hash itself. It is rustc's FxHash: each word `w` of input
//! updates the state as `h = (h.rotate_left(5) ^ w) * K` (wrapping), with
//! `K = 0x517c_c1b7_2722_0a95`. Byte slices are consumed in 8-byte words,
//! then one 4-, 2- and 1-byte tail word as needed. Words are read
//! little-endian, so hashes are the same on every platform (upstream reads
//! native-endian; on little-endian targets the two agree).
//!
//! FxHash is unkeyed and not collision-resistant: a caller who picks the
//! keys can make every key land in one bucket. Use it only for keys the
//! program makes itself; DESIGN.md §12 states the workspace's policy.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`]. Build one with `default()` or
/// `with_capacity_and_hasher(n, Default::default())`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplier of rustc's 64-bit FxHash.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's FxHash: a fast, unkeyed, word-at-a-time hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, mut rest) = bytes.as_chunks::<8>();
        for word in words {
            self.add_to_hash(u64::from_le_bytes(*word));
        }
        if let Some((word, tail)) = rest.split_first_chunk::<4>() {
            self.add_to_hash(u32::from_le_bytes(*word) as u64);
            rest = tail;
        }
        if let Some((word, tail)) = rest.split_first_chunk::<2>() {
            self.add_to_hash(u16::from_le_bytes(*word) as u64);
            rest = tail;
        }
        if let Some(&byte) = rest.first() {
            self.add_to_hash(byte as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn byte_hashes_match_pinned_values() {
        // Computed independently from the formula in the module docs. A
        // change to the word split, the rotation or the multiplier moves
        // every one of them.
        assert_eq!(hash_bytes(b""), 0);
        assert_eq!(hash_bytes(b"a"), 0xe045_6665_d3e6_0275);
        // 13 bytes: one 8-byte word, then a 4-byte and a 1-byte tail.
        assert_eq!(hash_bytes(b"Hello, world!"), 0xcd24_234d_7617_4949);
        assert_eq!(hash_bytes(b"java/lang/Object"), 0x4a84_ec59_0603_de5b);
    }

    #[test]
    fn word_hashes_match_pinned_values() {
        let word = |w: u64| {
            let mut h = FxHasher::default();
            h.write_u64(w);
            h.finish()
        };
        assert_eq!(word(0), 0);
        assert_eq!(word(1), K);
        // An integer written whole hashes like its little-endian bytes.
        let w = 0x0102_0304_0506_0708u64;
        assert_eq!(word(w), hash_bytes(&w.to_le_bytes()));
    }

    #[test]
    fn str_keys_hash_with_their_terminator() {
        // `Hash for str` writes the bytes and then a 0xff terminator byte.
        let hash_str = |s: &str| {
            let mut h = FxHasher::default();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash_str(""), 0x2b44_f56f_fae8_8a6b);
        assert_eq!(hash_str("a"), 0xaa44_c3c5_b8e2_2aff);
    }

    #[test]
    fn aliases_behave_as_std_collections() {
        let mut map: FxHashMap<&str, u32> = FxHashMap::default();
        map.insert("x", 1);
        map.insert("y", 2);
        assert_eq!(map.insert("x", 3), Some(1));
        assert_eq!(map.get("x"), Some(&3));
        let mut set: FxHashSet<u64> = FxHashSet::with_capacity_and_hasher(4, Default::default());
        assert!(set.insert(7));
        assert!(!set.insert(7));
        assert_eq!(set.len(), 1);
    }
}
