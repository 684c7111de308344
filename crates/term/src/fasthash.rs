//! A fast, non-cryptographic hasher for small keys: variable numbers and
//! short identifiers.
//!
//! The front end hashes a name or a variable for nearly every term node it
//! resolves; the standard library's DoS-resistant SipHash costs more than
//! the lookup itself there. [`FastHasher`] is the multiply-rotate hash of
//! the Firefox/rustc `FxHasher`, applied a word at a time. Its inputs are
//! one program's own names, never a peer's.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map using [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// The hasher behind [`FastHashMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_keys_look_up_by_value() {
        let mut m: FastHashMap<&str, usize> = FastHashMap::default();
        let names = ["a", "ab", "abcdefgh", "abcdefghi", "é", "X_1", ""];
        for (i, n) in names.iter().enumerate() {
            m.insert(n, i);
        }
        for (i, n) in names.iter().enumerate() {
            let owned = n.to_string();
            assert_eq!(m.get(owned.as_str()), Some(&i));
        }
        assert_eq!(m.get("abcdefgj"), None);
    }
}
