//! A fast, non-cryptographic hasher for the key-value backends.
//!
//! One-granularity ingest is hash-table bound: every stored pair resolves at
//! least one `Vec<u8>` key through the backend's hash map, and the standard
//! library's default SipHash spends more time per key than the table
//! operation it guards.  Lineage keys are short, structured and never
//! attacker-controlled (they are produced by our own encoder), so a
//! multiply-rotate hash in the style of rustc's FxHash is the right
//! trade-off: a couple of instructions per 8-byte chunk, quality that is
//! ample for bucket selection, and no DoS-resistance tax we don't need.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (same odd 64-bit constant rustc's FxHash uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher: `state = (state.rotate_left(5) ^ word) * SEED` per
/// 8-byte chunk, with the tail folded into one final word.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply mixes entropy upward; fold the high bits back down so
        // tables indexing buckets by the low bits see them too.
        self.state ^ (self.state >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // A tail shorter than a word is read as the *last* 8 bytes,
            // overlapping the previous chunk, when the input has that many:
            // the same information as zero-padding it, without the
            // variable-length copy (which costs more than the rest of the
            // hash on the 9-10 byte lineage keys).
            let word = match bytes.last_chunk::<8>() {
                Some(tail) => u64::from_le_bytes(*tail),
                None => {
                    let mut buf = [0u8; 8];
                    buf[..rem.len()].copy_from_slice(rem);
                    u64::from_le_bytes(buf)
                }
            };
            self.mix(word);
        }
        // Fold the length in so prefixes hash differently from their
        // zero-padded extensions.
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_length_sensitive() {
        assert_eq!(hash_of(b"entry:123"), hash_of(b"entry:123"));
        assert_ne!(hash_of(b"entry:123"), hash_of(b"entry:124"));
        // A prefix must not collide with its zero-padded extension.
        assert_ne!(hash_of(b"ab"), hash_of(b"ab\0\0"));
        assert_ne!(hash_of(b""), hash_of(b"\0"));
    }

    #[test]
    fn structured_keys_spread_over_low_bits() {
        // Sequential little-endian keys (the entry-id key pattern) must not
        // collapse onto a few buckets of a power-of-two table.
        let mut buckets = std::collections::HashSet::new();
        for i in 0..1024u64 {
            buckets.insert(hash_of(&i.to_le_bytes()) & 0xff);
        }
        assert!(
            buckets.len() > 200,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert(i.to_le_bytes().to_vec(), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(42u32.to_le_bytes().as_slice()), Some(&42));
    }
}
