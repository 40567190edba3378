//! LFS on-disk structures: superblock, checkpoint regions, segment
//! summaries and the inode map (IFILE). The segment usage table is
//! `usage.rs`.

use cnp_disk::Block;

use crate::error::{LResult, LayoutError};
use crate::types::codec::{get_u32, get_u64, put_u32, put_u64};
use crate::types::{BlockAddr, BLOCK_SIZE};

/// Magic number identifying an LFS superblock.
pub const SB_MAGIC: u32 = 0x1f5_5b10;
/// Magic number of a checkpoint block.
pub const CKPT_MAGIC: u32 = 0x1f5_c927;
/// Magic number of a segment summary block.
pub const SUM_MAGIC: u32 = 0x1f5_5a33;

/// Fixed location of the superblock.
pub const SB_ADDR: BlockAddr = BlockAddr(0);
/// Fixed locations of the two alternating checkpoint regions.
pub const CKPT_ADDRS: [BlockAddr; 2] = [BlockAddr(1), BlockAddr(2)];
/// First segment starts here.
pub const DATA_START: u64 = 3;

/// The LFS superblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperBlock {
    /// Blocks per segment (including the summary block).
    pub seg_blocks: u32,
    /// Number of segments.
    pub nsegs: u32,
    /// Format generation: stamps every summary and checkpoint so stale
    /// structures from a previous `format` can never be trusted.
    pub gen: u64,
}

impl SuperBlock {
    /// Serializes to one block.
    pub fn to_block(&self) -> Block {
        encoded(|b| {
            put_u32(b, 0, SB_MAGIC);
            put_u32(b, 4, self.seg_blocks);
            put_u32(b, 8, self.nsegs);
            put_u32(b, 12, BLOCK_SIZE);
            put_u64(b, 16, self.gen);
        })
    }

    /// Parses from a block.
    pub fn from_block(b: &[u8]) -> LResult<SuperBlock> {
        if b.len() < 24 || get_u32(b, 0) != SB_MAGIC {
            return Err(LayoutError::NotFormatted);
        }
        if get_u32(b, 12) != BLOCK_SIZE {
            return Err(LayoutError::Corrupt("block size mismatch".into()));
        }
        Ok(SuperBlock { seg_blocks: get_u32(b, 4), nsegs: get_u32(b, 8), gen: get_u64(b, 16) })
    }
}

/// What a segment payload block holds (summary entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumEntry {
    /// Unused slot (partial segment).
    Free,
    /// File data block.
    Data {
        /// Owning inode.
        ino: u64,
        /// File block index.
        fblk: u64,
    },
    /// Single indirect pointer block of `ino`.
    Indirect {
        /// Owning inode.
        ino: u64,
    },
    /// A block packing up to 16 inodes.
    InodeBlock,
    /// Inode-map (IFILE) block written at a checkpoint.
    Imap,
    /// Segment-usage-table block written at a checkpoint.
    Usage,
}

impl SumEntry {
    fn encode(&self, buf: &mut [u8]) {
        match self {
            SumEntry::Free => buf[0] = 0,
            SumEntry::Data { ino, fblk } => {
                buf[0] = 1;
                put_u64(buf, 1, *ino);
                put_u64(buf, 9, *fblk);
            }
            SumEntry::Indirect { ino } => {
                buf[0] = 2;
                put_u64(buf, 1, *ino);
            }
            SumEntry::InodeBlock => buf[0] = 3,
            SumEntry::Imap => buf[0] = 4,
            SumEntry::Usage => buf[0] = 5,
        }
    }

    fn decode(buf: &[u8]) -> LResult<SumEntry> {
        Ok(match buf[0] {
            0 => SumEntry::Free,
            1 => SumEntry::Data { ino: get_u64(buf, 1), fblk: get_u64(buf, 9) },
            2 => SumEntry::Indirect { ino: get_u64(buf, 1) },
            3 => SumEntry::InodeBlock,
            4 => SumEntry::Imap,
            5 => SumEntry::Usage,
            t => return Err(LayoutError::Corrupt(format!("bad summary tag {t}"))),
        })
    }
}

/// Bytes per encoded summary entry.
const SUM_ENTRY_SIZE: usize = 17;

/// Fixed summary header: magic, count, gen, epoch, seq.
const SUM_HEADER: usize = 32;

/// Payload entries one summary block can describe.
pub const SUM_MAX_ENTRIES: usize = (BLOCK_SIZE as usize - SUM_HEADER - 8) / SUM_ENTRY_SIZE;

/// A decoded segment summary: identity header plus per-slot entries.
///
/// `gen` ties the summary to one `format`; `epoch` to one mount/recover
/// generation; `seq` orders segment flushes within an epoch. Together
/// they let crash recovery find exactly the segments written after the
/// last checkpoint (roll-forward) and never replay stale ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegSummary {
    /// Format generation (must match the superblock).
    pub gen: u64,
    /// Mount epoch the segment was written in.
    pub epoch: u64,
    /// Monotone segment-flush sequence number within the epoch's log.
    pub seq: u64,
    /// What each payload slot holds.
    pub entries: Vec<SumEntry>,
}

/// Serializes a segment summary — `[gen, epoch, seq]` and the entries
/// in slot order — to one checksummed block.
pub fn summary_block(header: [u64; 3], entries: impl ExactSizeIterator<Item = SumEntry>) -> Block {
    encoded(|b| summary_into(b, header, entries))
}

fn summary_into(
    b: &mut [u8],
    [gen, epoch, seq]: [u64; 3],
    entries: impl ExactSizeIterator<Item = SumEntry>,
) {
    debug_assert!(entries.len() <= SUM_MAX_ENTRIES);
    put_u32(b, 0, SUM_MAGIC);
    put_u32(b, 4, entries.len() as u32);
    put_u64(b, 8, gen);
    put_u64(b, 16, epoch);
    put_u64(b, 24, seq);
    for (i, e) in entries.enumerate() {
        let off = SUM_HEADER + i * SUM_ENTRY_SIZE;
        e.encode(&mut b[off..off + SUM_ENTRY_SIZE]);
    }
    let sum = checksum(&b[..BLOCK_SIZE as usize - 8]);
    put_u64(b, BLOCK_SIZE as usize - 8, sum);
}

/// One block of zeroes, with `fill` run over it.
fn encoded(fill: impl FnOnce(&mut [u8])) -> Block {
    let mut b = Block::zeroed();
    fill(b.make_mut());
    b
}

/// Parses and validates a segment summary block.
///
/// The trailing checksum rejects torn summary writes, so a summary that
/// parses implies the whole block (and, because payload runs are written
/// before their summary, the segment contents) hit the media intact.
pub fn summary_from_block(b: &[u8]) -> LResult<SegSummary> {
    if b.len() < BLOCK_SIZE as usize || get_u32(b, 0) != SUM_MAGIC {
        return Err(LayoutError::Corrupt("bad summary magic".into()));
    }
    if checksum(&b[..BLOCK_SIZE as usize - 8]) != get_u64(b, BLOCK_SIZE as usize - 8) {
        return Err(LayoutError::Corrupt("summary checksum mismatch".into()));
    }
    let n = get_u32(b, 4) as usize;
    if n > SUM_MAX_ENTRIES {
        return Err(LayoutError::Corrupt("summary overflow".into()));
    }
    let entries = (0..n)
        .map(|i| SumEntry::decode(&b[SUM_HEADER + i * SUM_ENTRY_SIZE..]))
        .collect::<LResult<Vec<_>>>()?;
    Ok(SegSummary { gen: get_u64(b, 8), epoch: get_u64(b, 16), seq: get_u64(b, 24), entries })
}

/// Inode-map entries per IFILE block.
pub const IMAP_PER_BLOCK: usize = (BLOCK_SIZE as usize - 8) / 8;

/// Sentinel for a free inode-map slot.
pub const IMAP_NONE: u64 = u64::MAX;

/// Packs an inode location (block address + slot within block).
pub fn imap_pack(addr: BlockAddr, slot: usize) -> u64 {
    addr.0 * 16 + slot as u64
}

/// Unpacks an inode location.
pub fn imap_unpack(v: u64) -> (BlockAddr, usize) {
    (BlockAddr(v / 16), (v % 16) as usize)
}

/// Serializes block `i` of the inode map.
pub fn imap_block(imap: &[u64], i: usize) -> Block {
    let chunk = &imap[i * IMAP_PER_BLOCK..imap.len().min((i + 1) * IMAP_PER_BLOCK)];
    encoded(|b| {
        put_u32(b, 0, chunk.len() as u32);
        for (i, v) in chunk.iter().enumerate() {
            put_u64(b, 8 + i * 8, *v);
        }
    })
}

/// Parses inode-map blocks.
pub fn imap_from_blocks(blocks: &[Block]) -> LResult<Vec<u64>> {
    let mut out = Vec::new();
    for b in blocks {
        let n = (b.len() >= 8)
            .then(|| get_u32(b, 0) as usize)
            .filter(|&n| n <= IMAP_PER_BLOCK && 8 + n * 8 <= b.len())
            .ok_or_else(|| LayoutError::Corrupt("imap block overflow".into()))?;
        for i in 0..n {
            out.push(get_u64(b, 8 + i * 8));
        }
    }
    Ok(out)
}

/// A checkpoint: the durable root of the file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotone sequence number (newer wins at mount).
    pub seq: u64,
    /// Next inode number to allocate.
    pub next_ino: u64,
    /// Format generation (must match the superblock at mount).
    pub gen: u64,
    /// Mount epoch the checkpoint was written in.
    pub epoch: u64,
    /// Log sequence number of the last segment sealed before this
    /// checkpoint; segments with a larger in-epoch seq are roll-forward
    /// candidates after a crash.
    pub log_seq: u64,
    /// Addresses of the inode-map blocks, in order.
    pub imap_addrs: Vec<u64>,
    /// Addresses of the usage-table blocks, in order.
    pub usage_addrs: Vec<u64>,
}

impl Checkpoint {
    /// Serializes to one block with a trailing checksum.
    ///
    /// # Panics
    ///
    /// Panics if the address lists do not fit one block (≈ 500 entries;
    /// enough for > 250 k inodes).
    pub fn to_block(&self) -> Block {
        encoded(|b| self.fill(b))
    }

    fn fill(&self, b: &mut [u8]) {
        put_u32(b, 0, CKPT_MAGIC);
        put_u64(b, 8, self.seq);
        put_u64(b, 16, self.next_ino);
        put_u32(b, 24, self.imap_addrs.len() as u32);
        put_u32(b, 28, self.usage_addrs.len() as u32);
        put_u64(b, 32, self.gen);
        put_u64(b, 40, self.epoch);
        put_u64(b, 48, self.log_seq);
        let mut off = 56;
        for &a in self.imap_addrs.iter().chain(self.usage_addrs.iter()) {
            assert!(off + 8 <= BLOCK_SIZE as usize - 8, "checkpoint overflow");
            put_u64(b, off, a);
            off += 8;
        }
        let sum = checksum(&b[..BLOCK_SIZE as usize - 8]);
        put_u64(b, BLOCK_SIZE as usize - 8, sum);
    }

    /// Parses and validates a checkpoint block; `None` if invalid.
    pub fn from_block(b: &[u8]) -> Option<Checkpoint> {
        if b.len() < BLOCK_SIZE as usize || get_u32(b, 0) != CKPT_MAGIC {
            return None;
        }
        let sum = get_u64(b, BLOCK_SIZE as usize - 8);
        if checksum(&b[..BLOCK_SIZE as usize - 8]) != sum {
            return None;
        }
        let ni = get_u32(b, 24) as usize;
        let nu = get_u32(b, 28) as usize;
        // A checksum-valid block may still be crafted: the addresses
        // must fit where `fill` puts them.
        if 56 + (ni + nu) * 8 > BLOCK_SIZE as usize - 8 {
            return None;
        }
        let mut off = 56;
        let mut imap_addrs = Vec::with_capacity(ni);
        for _ in 0..ni {
            imap_addrs.push(get_u64(b, off));
            off += 8;
        }
        let mut usage_addrs = Vec::with_capacity(nu);
        for _ in 0..nu {
            usage_addrs.push(get_u64(b, off));
            off += 8;
        }
        Some(Checkpoint {
            seq: get_u64(b, 8),
            next_ino: get_u64(b, 16),
            gen: get_u64(b, 32),
            epoch: get_u64(b, 40),
            log_seq: get_u64(b, 48),
            imap_addrs,
            usage_addrs,
        })
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `FNV_PRIME` to the eighth: what eight zero bytes do to the hash
/// (`h ^ 0 == h`, so each of them only multiplies).
const FNV_PRIME_8: u64 = {
    let p2 = FNV_PRIME.wrapping_mul(FNV_PRIME);
    let p4 = p2.wrapping_mul(p2);
    p4.wrapping_mul(p4)
};

fn fnv1a(h: u64, data: &[u8]) -> u64 {
    data.iter().fold(h, |h, &byte| (h ^ byte as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a style checksum over summary and checkpoint contents. The
/// blocks are mostly zero, so an all-zero 8-byte word is folded in with
/// one multiply; the value is the byte-by-byte one.
fn checksum(data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(8);
    let h = words.by_ref().fold(FNV_OFFSET, |h, word| match word {
        [0, 0, 0, 0, 0, 0, 0, 0] => h.wrapping_mul(FNV_PRIME_8),
        _ => fnv1a(h, word),
    });
    fnv1a(h, words.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_to_block(summary: &SegSummary) -> Block {
        let SegSummary { gen, epoch, seq, ref entries } = *summary;
        summary_block([gen, epoch, seq], entries.iter().copied())
    }

    /// The inode map as blocks.
    fn imap_to_blocks(imap: &[u64]) -> Vec<Block> {
        (0..imap.len().div_ceil(IMAP_PER_BLOCK)).map(|i| imap_block(imap, i)).collect()
    }

    #[test]
    fn checksum_equals_the_byte_by_byte_fnv1a() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        // Lengths that are and are not multiples of 8, down to empty.
        for len in [0, 1, 7, 8, 9, 64, 1001, 4088, 4093] {
            let random: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut sparse = vec![0u8; len];
            for _ in 0..len / 50 {
                sparse[next() as usize % len] = next() as u8;
            }
            for block in [random, sparse, vec![0u8; len]] {
                assert_eq!(checksum(&block), fnv1a(FNV_OFFSET, &block), "{len} bytes");
                if len > 0 {
                    let mut flipped = block.clone();
                    flipped[next() as usize % len] ^= 1 << (next() % 8);
                    assert_eq!(checksum(&flipped), fnv1a(FNV_OFFSET, &flipped), "{len} bytes");
                    assert_ne!(checksum(&flipped), checksum(&block), "{len} bytes, one bit");
                }
            }
        }
    }

    #[test]
    fn superblock_round_trip() {
        let sb = SuperBlock { seg_blocks: 128, nsegs: 2621, gen: 0xfeed_beef };
        let b = sb.to_block();
        assert_eq!(SuperBlock::from_block(&b).unwrap(), sb);
        assert!(matches!(SuperBlock::from_block(&vec![0u8; 4096]), Err(LayoutError::NotFormatted)));
    }

    #[test]
    fn summary_round_trip() {
        let entries = vec![
            SumEntry::Data { ino: 7, fblk: 3 },
            SumEntry::Indirect { ino: 7 },
            SumEntry::InodeBlock,
            SumEntry::Imap,
            SumEntry::Usage,
            SumEntry::Free,
        ];
        let s = SegSummary { gen: 99, epoch: 3, seq: 41, entries };
        let b = summary_to_block(&s);
        assert_eq!(summary_from_block(&b).unwrap(), s);
    }

    #[test]
    fn summary_checksum_rejects_torn_block() {
        let s = SegSummary {
            gen: 1,
            epoch: 1,
            seq: 1,
            entries: vec![SumEntry::Data { ino: 1, fblk: 0 }],
        };
        let mut b = summary_to_block(&s);
        b.make_mut()[100] ^= 0xff;
        assert!(summary_from_block(&b).is_err());
    }

    #[test]
    fn summary_capacity_fits_big_segments() {
        // SUM_MAX_ENTRIES payload blocks (≈ 1 MB segments) is the limit.
        let entries = vec![SumEntry::Data { ino: 1, fblk: 2 }; SUM_MAX_ENTRIES];
        let s = SegSummary { gen: 0, epoch: 0, seq: 0, entries };
        let b = summary_to_block(&s);
        assert_eq!(summary_from_block(&b).unwrap().entries.len(), SUM_MAX_ENTRIES);
    }

    #[test]
    fn imap_round_trip() {
        let imap: Vec<u64> =
            (0..1200).map(|i| if i % 3 == 0 { IMAP_NONE } else { i * 11 }).collect();
        let blocks = imap_to_blocks(&imap);
        assert_eq!(imap_from_blocks(&blocks), Ok(imap));
        assert!(imap_to_blocks(&[]).is_empty());
    }

    #[test]
    fn a_hostile_imap_count_is_corrupt_not_a_panic() {
        let mut b = Block::zeroed();
        put_u32(b.make_mut(), 0, 4096);
        let r = imap_from_blocks(&[b]);
        assert!(matches!(r, Err(LayoutError::Corrupt(_))), "{r:?}");
    }

    #[test]
    fn imap_packing() {
        let (a, s) = imap_unpack(imap_pack(BlockAddr(1234), 7));
        assert_eq!(a, BlockAddr(1234));
        assert_eq!(s, 7);
    }

    #[test]
    fn checkpoint_round_trip_and_checksum() {
        let c = Checkpoint {
            seq: 42,
            next_ino: 100,
            gen: 7,
            epoch: 3,
            log_seq: 55,
            imap_addrs: vec![10, 11, 12],
            usage_addrs: vec![20, 21],
        };
        let mut b = c.to_block();
        assert_eq!(Checkpoint::from_block(&b), Some(c));
        // Corrupt one byte: checksum must reject.
        b.make_mut()[40] ^= 0xff;
        assert_eq!(Checkpoint::from_block(&b), None);
    }

    #[test]
    fn a_crafted_checkpoint_with_too_many_addresses_is_invalid_not_a_panic() {
        let c = Checkpoint {
            seq: 1,
            next_ino: 2,
            gen: 3,
            epoch: 4,
            log_seq: 5,
            imap_addrs: vec![],
            usage_addrs: vec![],
        };
        let mut b = c.to_block();
        let bytes = b.make_mut();
        put_u32(bytes, 24, 4096);
        let sum = checksum(&bytes[..BLOCK_SIZE as usize - 8]);
        put_u64(bytes, BLOCK_SIZE as usize - 8, sum);
        assert_eq!(Checkpoint::from_block(&b), None);
    }
}
