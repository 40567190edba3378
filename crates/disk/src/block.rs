//! One block of real bytes, from the cache to the platter.
//!
//! A [`Block`] is an immutable, reference-counted buffer of at most
//! [`BLOCK_BYTES`] bytes: one 4 KiB file-system block, and one platter
//! frame of eight 512-byte sectors. The cache frame, the request, the
//! log segment and the platter frame that hold a block all hold the same
//! buffer, so a hop between layers is a refcount bump, not a copy. A
//! block is written only through [`Block::make_mut`], which copies it
//! first if anyone else holds it: the one copy lands at the writer.
//! [`Blocks`] is a real payload's list of them.
//!
//! [`counts`] says, per thread, how many bytes were copied into or
//! zeroed in a block, and how many a [`WordHash`] hashed.

use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Bytes in a full block.
pub const BLOCK_BYTES: usize = 4096;

/// A block's bytes and, once asked for, their digest.
#[derive(Clone)]
struct Inner {
    len: u32,
    digest: OnceLock<u128>,
    bytes: [u8; BLOCK_BYTES],
}

/// A reference-counted block of real bytes; see the module docs.
#[derive(Clone)]
pub struct Block(Arc<Inner>);

impl Block {
    /// A full block of zeroes.
    pub fn zeroed() -> Block {
        Block::placed(0, &[], BLOCK_BYTES)
    }

    /// A copy of `src`, at most [`BLOCK_BYTES`] long.
    pub fn copy_of(src: &[u8]) -> Block {
        Block::placed(0, src, src.len())
    }

    /// `len` bytes: a copy of `src`, zero-padded.
    pub fn padded(src: &[u8], len: usize) -> Block {
        Block::placed(0, src, len)
    }

    /// `len` bytes of zeroes but for a copy of `src` at byte `at`.
    pub fn placed(at: usize, src: &[u8], len: usize) -> Block {
        assert!(at + src.len() <= len && len <= BLOCK_BYTES, "{at} + {} in {len}", src.len());
        let mut inner =
            Arc::new(Inner { len: len as u32, digest: OnceLock::new(), bytes: [0; BLOCK_BYTES] });
        Arc::get_mut(&mut inner).expect("new").bytes[at..at + src.len()].copy_from_slice(src);
        note(src.len(), len - src.len(), 0);
        Block(inner)
    }

    /// The bytes, for writing: copied first if another owner holds
    /// them, so no one else sees the write.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if !self.is_unique() {
            note(self.len(), 0, 0);
        }
        let inner = Arc::make_mut(&mut self.0);
        inner.digest = OnceLock::new();
        &mut inner.bytes[..inner.len as usize]
    }

    /// Replaces the bytes with `src`, zero-padded, through
    /// [`Block::make_mut`].
    pub fn overwrite(&mut self, src: &[u8]) {
        let bytes = self.make_mut();
        bytes[..src.len()].copy_from_slice(src);
        bytes[src.len()..].fill(0);
        note(src.len(), bytes.len() - src.len(), 0);
    }

    /// True if no other owner holds these bytes.
    pub(crate) fn is_unique(&self) -> bool {
        Arc::strong_count(&self.0) == 1
    }

    /// True if both are the same buffer.
    fn ptr_eq(&self, other: &Block) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// A 128-bit digest of the bytes ([`WordHash`]), computed at most
    /// once per buffer.
    pub fn digest(&self) -> u128 {
        *self.0.digest.get_or_init(|| {
            let mut h = WordHash::default();
            h.bytes(self);
            h.digest()
        })
    }
}

impl Deref for Block {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.bytes[..self.0.len as usize]
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        self.ptr_eq(other) || **self == **other
    }
}

impl Eq for Block {}

/// The length, not the bytes.
impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({} bytes)", self.len())
    }
}

/// The blocks of a real payload, in order: one inline, more in a list.
/// Every block but the last is full, so byte `i` of the payload is byte
/// `i % BLOCK_BYTES` of block `i / BLOCK_BYTES`.
#[derive(Clone, Debug)]
pub enum Blocks {
    /// One block.
    One(Block),
    /// Any number of blocks.
    Many(Vec<Block>),
}

impl Blocks {
    /// No blocks, with room for `n`.
    pub fn with_capacity(n: usize) -> Blocks {
        Blocks::Many(Vec::with_capacity(n))
    }

    /// `bytes`, cut into blocks.
    pub fn copy_of(bytes: &[u8]) -> Blocks {
        match bytes.len() {
            0..=BLOCK_BYTES => Blocks::One(Block::copy_of(bytes)),
            _ => Blocks::Many(bytes.chunks(BLOCK_BYTES).map(Block::copy_of).collect()),
        }
    }

    /// Appends `block`: shared where the list ends on a full block,
    /// copied onto the short last block otherwise.
    pub fn append(&mut self, block: Block) {
        match self {
            _ if self.last().is_some_and(|b| b.len() < BLOCK_BYTES) => {
                self.extend_from_slice(&block)
            }
            Blocks::Many(v) => v.push(block),
            Blocks::One(first) => *self = Blocks::Many(vec![first.clone(), block]),
        }
    }

    /// Appends a copy of `bytes`, filling a short last block first.
    pub(crate) fn extend_from_slice(&mut self, mut bytes: &[u8]) {
        let short = match self {
            Blocks::One(b) => Some(b),
            Blocks::Many(v) => v.last_mut(),
        };
        if let Some(last) = short.filter(|b| b.len() < BLOCK_BYTES) {
            let n = bytes.len().min(BLOCK_BYTES - last.len());
            *last = Block::copy_of(&[&last[..], &bytes[..n]].concat());
            bytes = &bytes[n..];
        }
        bytes.chunks(BLOCK_BYTES).for_each(|chunk| self.append(Block::copy_of(chunk)));
    }

    /// Bytes `[from, to)`, clipped at the end: whole blocks are shared
    /// where `from` falls on a block boundary, the rest copied.
    pub(crate) fn slice(&self, from: usize, to: usize) -> Blocks {
        let to = to.min(self.byte_len());
        let mut out = Blocks::with_capacity(to.saturating_sub(from).div_ceil(BLOCK_BYTES));
        let mut at = from;
        while at < to {
            let (block, lo) = (&self[at / BLOCK_BYTES], at % BLOCK_BYTES);
            let hi = (lo + to - at).min(block.len());
            match (lo, hi == block.len()) {
                (0, true) => out.append(block.clone()),
                _ => out.extend_from_slice(&block[lo..hi]),
            }
            at += hi - lo;
        }
        out
    }

    /// Total bytes.
    pub fn byte_len(&self) -> usize {
        self.last().map_or(0, |last| (self.len() - 1) * BLOCK_BYTES + last.len())
    }

    /// Every byte, copied into one buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        self.iter().flat_map(|b| b.iter().copied()).collect()
    }
}

impl Deref for Blocks {
    type Target = [Block];

    fn deref(&self) -> &[Block] {
        match self {
            Blocks::One(b) => std::slice::from_ref(b),
            Blocks::Many(v) => v,
        }
    }
}

impl PartialEq for Blocks {
    fn eq(&self, other: &Blocks) -> bool {
        **self == **other
    }
}

impl Eq for Blocks {}

/// What the block path cost this thread, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCounts {
    /// Bytes copied into a block: a new block's contents, a shared
    /// block copied before a write, sectors stored into a frame.
    pub copied: u64,
    /// Bytes of a block set to zero that no copy filled.
    pub zeroed: u64,
    /// Bytes run through a [`WordHash`].
    pub hashed: u64,
}

thread_local! {
    static COUNTS: Cell<BlockCounts> = const {
        Cell::new(BlockCounts { copied: 0, zeroed: 0, hashed: 0 })
    };
}

/// Counts bytes copied into a block, zeroed in one and hashed.
pub(crate) fn note(copied: usize, zeroed: usize, hashed: usize) {
    COUNTS.with(|c| {
        let n = c.get();
        c.set(BlockCounts {
            copied: n.copied + copied as u64,
            zeroed: n.zeroed + zeroed as u64,
            hashed: n.hashed + hashed as u64,
        });
    });
}

/// What the block path has cost this thread so far; a run's cost is
/// the difference across it.
pub fn counts() -> BlockCounts {
    COUNTS.with(Cell::get)
}

/// A word-at-a-time hash with two 64-bit lanes, for keys over whole
/// disk images, where a byte-at-a-time hash costs several times as
/// much. Each step is a bijection of a lane's state for a fixed word,
/// so two inputs of one length that differ in one word never collide;
/// the lanes use different multipliers and rotations, and every
/// variable-length field is length-prefixed.
pub struct WordHash {
    a: u64,
    b: u64,
}

impl Default for WordHash {
    fn default() -> Self {
        WordHash { a: 0x243f_6a88_85a3_08d3, b: 0x1319_8a2e_0370_7344 }
    }
}

impl WordHash {
    /// Absorbs one word.
    pub fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        self.b = (self.b ^ w.rotate_left(32)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(37);
    }

    /// Absorbs `bytes`, length first.
    pub fn bytes(&mut self, bytes: &[u8]) {
        note(0, 0, bytes.len());
        self.word(bytes.len() as u64);
        // Whole 32-byte groups go through four chains of their own, one
        // word each, so a block's words do not wait on each other's
        // multiplies; the chains are folded in after. Every word still
        // takes one bijective step.
        let mut groups = bytes.chunks_exact(32);
        let mut chains = [self.a, self.b, !self.a, !self.b];
        for group in &mut groups {
            for (i, (chain, w)) in chains.iter_mut().zip(group.chunks_exact(8)).enumerate() {
                let w = u64::from_le_bytes(w.try_into().expect("8-byte word"));
                *chain =
                    (*chain ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23 + 8 * i as u32);
            }
        }
        if bytes.len() >= 32 {
            chains.into_iter().for_each(|c| self.word(c));
        }
        let mut words = groups.remainder().chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// The digest.
    pub fn digest(&self) -> u128 {
        // The splitmix64 finalizer per lane: the last words absorbed
        // reach every bit of their lane.
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (mix(self.a) as u128) << 64 | mix(self.b) as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_to_a_shared_block_copies_it_once_and_leaves_the_other_owner_alone() {
        let a = Block::copy_of(&[1; 64]);
        let mut b = a.clone();
        let before = counts();
        b.make_mut()[0] = 9;
        assert_eq!(counts().copied - before.copied, 64, "the shared block is copied");
        b.make_mut()[1] = 9;
        assert_eq!(counts().copied - before.copied, 64, "an unshared block is not");
        assert_eq!((a[0], b[0], b[1], b[2]), (1, 9, 9, 1));
        assert!(!a.ptr_eq(&b) && a.is_unique() && b.is_unique());
    }

    #[test]
    fn a_digest_is_computed_once_and_forgotten_by_a_write() {
        let mut a = Block::copy_of(&[3; BLOCK_BYTES]);
        let before = counts().hashed;
        let d = a.digest();
        assert_eq!(a.clone().digest(), d);
        assert_eq!(counts().hashed - before, BLOCK_BYTES as u64, "hashed once, shared by clones");
        a.make_mut()[7] = 4;
        assert_ne!(a.digest(), d, "a write forgets the digest");
        assert_eq!(Block::copy_of(&[3; BLOCK_BYTES]).digest(), d, "equal bytes, equal digests");
    }

    #[test]
    fn a_list_of_blocks_reads_as_its_bytes() {
        let bytes: Vec<u8> = (0..3 * BLOCK_BYTES + 100).map(|i| (i * 7) as u8).collect();
        let blocks = Blocks::copy_of(&bytes);
        assert_eq!((blocks.len(), blocks.byte_len()), (4, bytes.len()));
        assert_eq!(blocks.to_vec(), bytes);
        let (from, to) = (BLOCK_BYTES - 100, 3 * BLOCK_BYTES + 50);
        assert_eq!(blocks.slice(from, to).to_vec(), bytes[from..to]);
        assert!(blocks.slice(BLOCK_BYTES, to)[0].ptr_eq(&blocks[1]), "an aligned slice shares");
        let mut joined = Blocks::copy_of(&bytes[..10]);
        blocks.iter().for_each(|b| joined.append(b.clone()));
        assert_eq!(joined.to_vec(), [&bytes[..10], &bytes[..]].concat());
        assert!(joined[..joined.len() - 1].iter().all(|b| b.len() == BLOCK_BYTES));
    }
}
