//! A small deterministic hasher for maps keyed by word encodings.
//!
//! The checker interns states and view patterns by exact `u64` word
//! encodings ([`crate::View::encode`], [`crate::ViewKey::encode`]).  Those
//! keys are produced by the checker itself, never by an outside party, so
//! the DoS-resistant default hasher buys nothing and its per-byte cost
//! dominates short probes.  [`WordHasher`] is the multiply-rotate hash of
//! the Firefox/rustc "Fx" family, fed a word at a time.  It has no random
//! state, but no map keyed through it is ever iterated for output, so no
//! order in any result depends on it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The Fx-style word hasher behind [`WordMap`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher {
    hash: u64,
}

impl WordHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: &impl Hash) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(value)
    }

    #[test]
    fn a_boxed_key_and_its_borrowed_slice_hash_alike() {
        let words = [3u64, 0, 1, 1, 7, u64::MAX];
        let boxed: Box<[u64]> = words.as_slice().into();
        assert_eq!(hash_of(&boxed), hash_of(&words.as_slice()));
        let mut map: WordMap<Box<[u64]>, usize> = WordMap::default();
        map.insert(boxed, 9);
        assert_eq!(map.get(words.as_slice()), Some(&9));
        assert_eq!(map.get(&words[..5]), None);
    }

    #[test]
    fn the_hash_is_deterministic_and_separates_nearby_keys() {
        assert_eq!(hash_of(&[1u64, 2, 3].as_slice()), hash_of(&[1u64, 2, 3].as_slice()));
        assert_ne!(hash_of(&[1u64, 2, 3].as_slice()), hash_of(&[1u64, 3, 2].as_slice()));
        assert_ne!(hash_of(&[0u64].as_slice()), hash_of(&[0u64, 0].as_slice()));
        // A tail shorter than a word still reaches the hash.
        let mut a = WordHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = WordHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
