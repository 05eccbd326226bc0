//! A fast, non-cryptographic hasher for the term tables and memos.
//!
//! Every hot table of the solver is keyed by small integers — [`TermId`]s,
//! [`VarIdx`]es, e-class ids — or by term nodes built from them and from
//! the constants of the scanned source. The standard library's SipHash
//! `RandomState` is designed to resist hash flooding by adversarial keys
//! and costs tens of cycles per lookup for it; on the §4 preprocessing
//! passes, which rebuild a small DAG many times, that overhead dominated
//! the rewriting itself. This is the rotate-xor-multiply word hash of the
//! Firefox/rustc "Fx" hasher: one multiply per word.
//!
//! It is **not** resistant to hash flooding. Its keys are term ids minted
//! by the pool and the integer constants of the program being scanned, so
//! a crafted source file can at worst make its own scan slower; no key
//! comes from outside the process the scan runs in.
//!
//! Iteration order of an [`FxHashMap`] is deterministic but arbitrary, so
//! results must not depend on it (the same rule as for `RandomState`).
//!
//! [`TermId`]: crate::term::TermId
//! [`VarIdx`]: crate::term::VarIdx

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// Builds [`FxHasher`]s (stateless, so every map hashes alike).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Multiplier of the Fx word step (from the golden ratio, odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher: `h = (h.rotate_left(5) ^ word) * SEED` per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        FxBuildHasher::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_alike_and_small_ints_spread() {
        assert_eq!(hash_of(&(3u32, 7u64)), hash_of(&(3u32, 7u64)));
        let hashes: FxHashSet<u64> = (0u32..1000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        // Strings differing only past the last full word must differ.
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        assert_ne!(hash_of(&"l1:v2"), hash_of(&"l1:v3"));
    }

    #[test]
    fn maps_work_as_maps() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&42], 84);
    }
}
