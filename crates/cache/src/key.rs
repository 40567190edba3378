//! Cache addressing: file-relative block keys.
//!
//! The paper's cache is a *file-system* block cache (flush policies act
//! on files — "it flushes the file associated to the oldest block"), so
//! blocks are keyed by (file, block index), not by disk address.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies a file for cache purposes (the engine maps inodes here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file{}", self.0)
    }
}

/// A cached block: file + block index within the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    /// Owning file.
    pub file: FileId,
    /// Block index within the file.
    pub block: u64,
}

impl BlockKey {
    /// Creates a key.
    pub fn new(file: FileId, block: u64) -> Self {
        BlockKey { file, block }
    }
}

impl fmt::Display for BlockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.block)
    }
}

/// A fixed multiplicative hasher for the engine's integer keys
/// ([`BlockKey`], [`FileId`], inode numbers): one rotate-xor-multiply
/// per `u64` written. Every such key is a number the engine itself
/// allocated or bounds-checked, so std's per-process SipHash seed buys
/// nothing here — and since that seed already differs run to run, no
/// seeded output can depend on the order of a map keyed this way.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher(u64);

/// [`FixedHasher`] as a map's `BuildHasher`: `HashMap<K, V, FixedState>`.
pub type FixedState = BuildHasherDefault<FixedHasher>;

impl Hasher for FixedHasher {
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best bits on top; the table indexes
        // buckets with the bottom ones.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn display_forms() {
        let k = BlockKey::new(FileId(3), 9);
        assert_eq!(k.to_string(), "file3:9");
    }

    #[test]
    fn ordering_groups_by_file() {
        let a = BlockKey::new(FileId(1), 9);
        let b = BlockKey::new(FileId(2), 0);
        assert!(a < b);
    }

    #[test]
    fn fixed_hasher_is_stable_and_spreads_neighbours() {
        let hash = |k: BlockKey| FixedState::default().hash_one(k);
        // A pure function of the key: the same in every process.
        assert_eq!(hash(BlockKey::new(FileId(3), 9)), hash(BlockKey::new(FileId(3), 9)));
        // One file's consecutive blocks and consecutive files' first
        // blocks land in distinct buckets of a 1,024-bucket table.
        let buckets = |keys: &mut dyn Iterator<Item = BlockKey>| {
            keys.map(|k| hash(k) & 1023).collect::<std::collections::BTreeSet<_>>().len()
        };
        assert!(buckets(&mut (0..512).map(|b| BlockKey::new(FileId(7), b))) > 384);
        assert!(buckets(&mut (0..512).map(|f| BlockKey::new(FileId(f), 0))) > 384);
        // Derived `Hash` feeds the two fields through `write_u64`.
        let mut h = FixedHasher::default();
        BlockKey::new(FileId(3), 9).hash(&mut h);
        let mut by_hand = FixedHasher::default();
        by_hand.write_u64(3);
        by_hand.write_u64(9);
        assert_eq!(h.finish(), by_hand.finish());
    }
}
