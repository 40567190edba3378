//! The segment usage table: per segment, its live bytes and last
//! modification, and per chunk of [`USAGE_PER_BLOCK`] entries the block
//! that chunk encodes to.
//!
//! A checkpoint persists the table as one block per chunk. Most of the
//! table is unchanged between two checkpoints, so each chunk keeps its
//! last encoding, and a write to an entry drops only its own chunk's:
//! a checkpoint encodes the chunks that changed and hands out the rest
//! as refcount bumps. A [`Block`] is immutable ([`Block::make_mut`]
//! copies a shared one before writing), so a kept block can sit in the
//! log, the platter and this table at once.

use std::cell::RefCell;
use std::ops::{Deref, Range};

use cnp_disk::Block;

use crate::error::{LResult, LayoutError};
use crate::types::codec::{get_u32, get_u64, put_u32, put_u64};
use crate::types::BLOCK_SIZE;

/// Per-segment usage record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegUsage {
    /// Live bytes in the segment.
    pub live: u32,
    /// Last modification (ns of simulation time) for cost-benefit aging.
    pub mtime: u64,
}

/// Bytes before the first entry of a usage block: the entry count and
/// four zero bytes.
const HEADER: usize = 8;
/// Bytes of one encoded entry: `live`, then `mtime`.
const ENTRY: usize = 12;

/// Entries per usage-table block.
pub const USAGE_PER_BLOCK: usize = (BLOCK_SIZE as usize - HEADER) / ENTRY;

/// Live bytes a checkpoint adds to the table it persists, for the
/// segments its own usage blocks land in: `(segment, bytes)`, at most
/// two, and a slot of 0 bytes adds nothing.
pub(super) type Charges = [(usize, u32); 2];

thread_local! {
    /// Per entry count seen on this thread, the block of that many
    /// default entries, which every chunk of a fresh table shares. Per
    /// thread, like `cnp_disk::block::counts`, so what a thread counts
    /// does not depend on what ran on another.
    static FRESH: RefCell<Vec<Block>> = const { RefCell::new(Vec::new()) };
}

/// The segment usage table; see the module docs.
#[derive(Default)]
pub(super) struct UsageTable {
    entries: Vec<SegUsage>,
    /// Number of entries with `live == 0`.
    zero_live: u32,
    /// Per chunk, the block it encodes to, or `None` once one of its
    /// entries changed.
    blocks: Vec<Option<Block>>,
}

impl UsageTable {
    /// `nsegs` unused segments.
    pub(super) fn fresh(nsegs: usize) -> UsageTable {
        let blocks = (0..nsegs.div_ceil(USAGE_PER_BLOCK))
            .map(|i| Some(fresh_block(chunk(nsegs, i).len())))
            .collect();
        UsageTable { entries: vec![SegUsage::default(); nsegs], zero_live: nsegs as u32, blocks }
    }

    /// Parses the usage blocks of a checkpoint into a table of `nsegs`
    /// entries. A block that is exactly its chunk's encoding becomes
    /// that chunk's kept block.
    pub(super) fn decode(nsegs: usize, blocks: &[Block]) -> LResult<UsageTable> {
        let mut table = UsageTable {
            entries: Vec::with_capacity(nsegs),
            zero_live: 0,
            blocks: vec![None; nsegs.div_ceil(USAGE_PER_BLOCK)],
        };
        for b in blocks {
            let n = (b.len() >= HEADER)
                .then(|| get_u32(b, 0) as usize)
                .filter(|&n| n <= USAGE_PER_BLOCK && HEADER + n * ENTRY <= b.len())
                .ok_or_else(|| LayoutError::Corrupt("usage block overflow".into()))?;
            let start = table.entries.len();
            if start + n > nsegs {
                return Err(LayoutError::Corrupt("usage table size mismatch".into()));
            }
            for k in 0..n {
                let off = HEADER + k * ENTRY;
                let u = SegUsage { live: get_u32(b, off), mtime: get_u64(b, off + 4) };
                table.zero_live += (u.live == 0) as u32;
                table.entries.push(u);
            }
            let i = start / USAGE_PER_BLOCK;
            if chunk(nsegs, i) == (start..start + n) && canonical(b, n) {
                if let Some(slot) = table.blocks.get_mut(i) {
                    *slot = Some(b.clone());
                }
            }
        }
        if table.entries.len() != nsegs {
            return Err(LayoutError::Corrupt("usage table size mismatch".into()));
        }
        Ok(table)
    }

    /// Number of usage blocks the table persists as.
    pub(super) fn chunks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of segments with `live == 0`.
    pub(super) fn zero_live(&self) -> u32 {
        self.zero_live
    }

    /// Sets `seg`'s live bytes. True if that moved it into or out of
    /// `live == 0`.
    pub(super) fn set_live(&mut self, seg: usize, live: u32) -> bool {
        let was = std::mem::replace(&mut self.entries[seg].live, live);
        if was == live {
            return false;
        }
        self.blocks[seg / USAGE_PER_BLOCK] = None;
        if live == 0 {
            self.zero_live += 1;
        } else if was == 0 {
            self.zero_live -= 1;
        } else {
            return false;
        }
        true
    }

    /// Sets `seg`'s last modification.
    pub(super) fn set_mtime(&mut self, seg: usize, mtime: u64) {
        if std::mem::replace(&mut self.entries[seg].mtime, mtime) != mtime {
            self.blocks[seg / USAGE_PER_BLOCK] = None;
        }
    }

    /// Usage block `i` of the table with `charges` added. A chunk no
    /// charge falls in is encoded at most once between two writes to
    /// it, and handed out as its kept block after that.
    pub(super) fn block(&mut self, i: usize, charges: &Charges) -> Block {
        let segs = chunk(self.entries.len(), i);
        let entries = &self.entries[segs.clone()];
        if !charges.iter().any(|&(seg, bytes)| bytes > 0 && segs.contains(&seg)) {
            return self.blocks[i].get_or_insert_with(|| encode(entries.iter().copied())).clone();
        }
        encode(entries.iter().zip(segs).map(|(u, seg)| {
            let charged = charges.iter().filter(|&&(s, _)| s == seg).map(|&(_, bytes)| bytes);
            SegUsage { live: u.live + charged.sum::<u32>(), ..*u }
        }))
    }
}

/// The entries, by segment, to read; only the table's own setters
/// write them.
impl Deref for UsageTable {
    type Target = [SegUsage];

    fn deref(&self) -> &[SegUsage] {
        &self.entries
    }
}

/// The segments of chunk `i` of a table of `nsegs`.
fn chunk(nsegs: usize, i: usize) -> Range<usize> {
    let start = (i * USAGE_PER_BLOCK).min(nsegs);
    start..nsegs.min(start + USAGE_PER_BLOCK)
}

/// One usage block: the entry count, then each entry.
fn encode(entries: impl ExactSizeIterator<Item = SegUsage>) -> Block {
    let mut block = Block::zeroed();
    let b = block.make_mut();
    put_u32(b, 0, entries.len() as u32);
    for (k, u) in entries.enumerate() {
        let off = HEADER + k * ENTRY;
        put_u32(b, off, u.live);
        put_u64(b, off + 4, u.mtime);
    }
    block
}

/// Whether `b`, a block of `n` entries, is byte for byte what
/// [`encode`] makes of them: a full block, zero but for the count and
/// the entries.
fn canonical(b: &Block, n: usize) -> bool {
    b.len() == BLOCK_SIZE as usize
        && b[4..HEADER] == [0; 4]
        && b[HEADER + n * ENTRY..].iter().all(|&byte| byte == 0)
}

/// This thread's block of `n` default entries.
fn fresh_block(n: usize) -> Block {
    FRESH.with_borrow_mut(|fresh| {
        if let Some(b) = fresh.iter().find(|b| get_u32(b, 0) as usize == n) {
            return b.clone();
        }
        let b = encode(std::iter::repeat_n(SegUsage::default(), n));
        fresh.push(b.clone());
        b
    })
}

/// Serializes block `i` of the usage table: the executable
/// specification of [`UsageTable::block`].
#[cfg(test)]
pub(super) fn usage_block(usage: &[SegUsage], i: usize) -> Block {
    let chunk = &usage[i * USAGE_PER_BLOCK..usage.len().min((i + 1) * USAGE_PER_BLOCK)];
    let mut block = Block::zeroed();
    let b = block.make_mut();
    put_u32(b, 0, chunk.len() as u32);
    for (i, u) in chunk.iter().enumerate() {
        let off = 8 + i * 12;
        put_u32(b, off, u.live);
        put_u64(b, off + 4, u.mtime);
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table as blocks, by the specification.
    fn usage_to_blocks(usage: &[SegUsage]) -> Vec<Block> {
        (0..usage.len().div_ceil(USAGE_PER_BLOCK)).map(|i| usage_block(usage, i)).collect()
    }

    fn sample(n: u32) -> Vec<SegUsage> {
        (0..n).map(|i| SegUsage { live: i % 5 * 13, mtime: i as u64 * 7 }).collect()
    }

    #[test]
    fn usage_round_trip() {
        let usage = sample(700);
        let blocks = usage_to_blocks(&usage);
        assert!(blocks.len() >= 2, "700 entries need multiple blocks");
        let mut table = UsageTable::decode(700, &blocks).unwrap();
        assert!(table.iter().eq(usage.iter()));
        assert_eq!(table.zero_live(), usage.iter().filter(|u| u.live == 0).count() as u32);
        // Each canonical block read is kept: handing it out copies nothing.
        for (i, b) in blocks.iter().enumerate() {
            let out = table.block(i, &[(0, 0); 2]);
            assert!(std::ptr::eq(&out[..], &b[..]), "block {i} is the one read");
        }
    }

    #[test]
    fn a_block_is_its_chunk_with_the_charges_added() {
        let mut usage = sample(700);
        let mut table = UsageTable::decode(700, &usage_to_blocks(&usage)).unwrap();
        table.set_live(345, 9);
        table.set_mtime(690, 4);
        usage[345].live = 9;
        usage[690].mtime = 4;
        let charges = [(3, 4096), (341, 8192)];
        let mut projected = usage.clone();
        projected[3].live += 4096;
        projected[341].live += 8192;
        for i in 0..3 {
            assert_eq!(table.block(i, &charges), usage_block(&projected, i), "block {i}");
            assert_eq!(table.block(i, &[(0, 0); 2]), usage_block(&usage, i), "block {i}");
        }
        assert_eq!(
            UsageTable::fresh(700).block(2, &[(0, 0); 2]),
            usage_block(&[SegUsage::default(); 700], 2)
        );
    }

    #[test]
    fn a_table_that_is_not_its_own_encoding_still_decodes() {
        let usage = sample(700);
        let mut blocks = usage_to_blocks(&usage);
        // Stray bytes past the last entry, and a block split in two:
        // neither is kept, so both chunks are encoded afresh.
        blocks[2].make_mut()[4000] = 1;
        let halves = [usage_block(&usage[..100], 0), usage_block(&usage[100..340], 0)];
        blocks.splice(0..1, halves);
        let mut table = UsageTable::decode(700, &blocks).unwrap();
        assert!(table.iter().eq(usage.iter()));
        assert_eq!(table.block(0, &[(0, 0); 2]), usage_block(&usage, 0));
        assert_eq!(table.block(2, &[(0, 0); 2]), usage_block(&usage, 2));
        assert!(UsageTable::decode(700, &blocks[1..]).is_err(), "a block short");
    }

    #[test]
    fn a_hostile_usage_count_is_corrupt_not_a_panic() {
        let mut b = Block::zeroed();
        put_u32(b.make_mut(), 0, 4096);
        let r = UsageTable::decode(700, &[b]);
        assert!(matches!(r, Err(LayoutError::Corrupt(_))), "{:?}", r.err());
    }
}
