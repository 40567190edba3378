//! An FFS-like update-in-place layout with allocation groups.
//!
//! The paper positions this as the alternative derived layout: "To
//! implement other storage-layouts (such as a Unix FFS …), a new derived
//! storage-layout class needs to be written" (§2). It also enables a
//! Seltzer-style logging-vs-clustering comparison against the LFS.
//!
//! Disk map: superblock | inode bitmap | block bitmap | inode table |
//! data blocks (divided into allocation groups). Blocks are updated in
//! place; a file's blocks are allocated near its group (ino-hashed),
//! approximating FFS cylinder-group locality.

use cnp_disk::{Block, DiskDriver, Payload};
use cnp_sim::Handle;

use crate::error::{LResult, LayoutError};
use crate::inode::{Inode, INODES_PER_BLOCK, INODE_SIZE};
use crate::io::BlockIo;
use crate::layout::{LayoutStats, StorageLayout};
use crate::types::codec::{get_u32, get_u64, put_u32, put_u64};
use crate::types::{block_slot, BlockAddr, BlockSlot, FileKind, Ino, BLOCK_SIZE, NINDIRECT};

const FFS_MAGIC: u32 = 0xff5_0001;
const BITS_PER_BLOCK: u64 = BLOCK_SIZE as u64 * 8;

/// FFS-like tuning parameters.
#[derive(Debug, Clone)]
pub struct FfsParams {
    /// Maximum number of inodes.
    pub ninodes: u64,
    /// Number of allocation groups.
    pub ngroups: u32,
}

impl Default for FfsParams {
    fn default() -> Self {
        FfsParams { ninodes: 65_536, ngroups: 32 }
    }
}

struct Geometry {
    ibitmap_start: u64,
    ibitmap_blocks: u64,
    bbitmap_start: u64,
    bbitmap_blocks: u64,
    itable_start: u64,
    data_start: u64,
    nblocks: u64,
}

impl Geometry {
    fn compute(capacity_blocks: u64, ninodes: u64) -> Geometry {
        let ibitmap_start = 1;
        let ibitmap_blocks = ninodes.div_ceil(BITS_PER_BLOCK);
        let bbitmap_start = ibitmap_start + ibitmap_blocks;
        let bbitmap_blocks = capacity_blocks.div_ceil(BITS_PER_BLOCK);
        let itable_start = bbitmap_start + bbitmap_blocks;
        let itable_blocks = ninodes.div_ceil(INODES_PER_BLOCK as u64);
        let data_start = itable_start + itable_blocks;
        Geometry {
            ibitmap_start,
            ibitmap_blocks,
            bbitmap_start,
            bbitmap_blocks,
            itable_start,
            data_start,
            nblocks: capacity_blocks,
        }
    }
}

/// A simple in-memory bitmap with dirty tracking.
struct Bitmap {
    bits: Vec<u64>,
    dirty: bool,
}

impl Bitmap {
    fn new(n: u64) -> Bitmap {
        Bitmap { bits: vec![0; (n as usize).div_ceil(64)], dirty: false }
    }

    fn get(&self, i: u64) -> bool {
        (self.bits[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    fn set(&mut self, i: u64, v: bool) {
        let w = &mut self.bits[(i / 64) as usize];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
        self.dirty = true;
    }

    fn to_blocks(&self) -> Vec<Block> {
        let words_per_block = BLOCK_SIZE as usize / 8;
        self.bits
            .chunks(words_per_block)
            .map(|chunk| {
                let mut block = Block::zeroed();
                let b = block.make_mut();
                for (i, w) in chunk.iter().enumerate() {
                    put_u64(b, i * 8, *w);
                }
                block
            })
            .collect()
    }

    fn from_blocks(blocks: &[Block], n: u64) -> Bitmap {
        let words_per_block = BLOCK_SIZE as usize / 8;
        let mut bits = Vec::with_capacity((n as usize).div_ceil(64));
        'outer: for b in blocks {
            for i in 0..words_per_block {
                bits.push(get_u64(b, i * 8));
                if bits.len() * 64 >= n as usize + 64 {
                    break 'outer;
                }
            }
        }
        bits.resize((n as usize).div_ceil(64), 0);
        Bitmap { bits, dirty: false }
    }
}

/// The FFS-like layout.
pub struct FfsLayout {
    handle: Handle,
    io: BlockIo,
    params: FfsParams,
    geo: Geometry,
    ibitmap: Bitmap,
    bbitmap: Bitmap,
    mounted: bool,
    stats: LayoutStats,
}

impl FfsLayout {
    /// Creates an FFS-like layout over `driver`.
    pub fn new(handle: &Handle, driver: DiskDriver, params: FfsParams) -> Self {
        let io = BlockIo::new(driver);
        let geo = Geometry::compute(io.capacity_blocks(), params.ninodes);
        assert!(geo.data_start < geo.nblocks, "disk too small for FFS tables");
        FfsLayout {
            handle: handle.clone(),
            io,
            ibitmap: Bitmap::new(params.ninodes),
            bbitmap: Bitmap::new(geo.nblocks),
            params,
            geo,
            mounted: false,
            stats: LayoutStats::default(),
        }
    }

    fn group_of(&self, ino: Ino) -> u64 {
        let data_blocks = self.geo.nblocks - self.geo.data_start;
        let group_span = (data_blocks / self.params.ngroups as u64).max(1);
        let g = ino.0 % self.params.ngroups as u64;
        self.geo.data_start + g * group_span
    }

    /// Allocates a data block, scanning circularly from `hint`.
    fn alloc_block(&mut self, hint: u64) -> LResult<BlockAddr> {
        let lo = self.geo.data_start;
        let n = self.geo.nblocks - lo;
        let start = hint.clamp(lo, self.geo.nblocks - 1) - lo;
        for off in 0..n {
            let b = lo + (start + off) % n;
            if !self.bbitmap.get(b) {
                self.bbitmap.set(b, true);
                return Ok(BlockAddr(b));
            }
        }
        Err(LayoutError::NoSpace)
    }

    fn free_block(&mut self, addr: BlockAddr) {
        if addr.is_some() && addr.0 >= self.geo.data_start {
            self.bbitmap.set(addr.0, false);
        }
    }

    fn inode_addr(&self, ino: Ino) -> (BlockAddr, usize) {
        let blk = self.geo.itable_start + ino.0 / INODES_PER_BLOCK as u64;
        (BlockAddr(blk), (ino.0 % INODES_PER_BLOCK as u64) as usize)
    }

    async fn read_indirect(&mut self, addr: BlockAddr) -> LResult<Vec<u64>> {
        let p = self.io.read_block(addr).await?;
        self.stats.meta_reads += 1;
        let bytes = p.block(0).ok_or_else(|| LayoutError::Corrupt("indirect lost".into()))?;
        Ok((0..NINDIRECT).map(|i| get_u64(bytes, i * 8)).collect())
    }

    async fn write_indirect(&mut self, addr: BlockAddr, table: &[u64]) -> LResult<()> {
        let mut block = Block::zeroed();
        let bytes = block.make_mut();
        for (i, v) in table.iter().enumerate() {
            put_u64(bytes, i * 8, *v);
        }
        self.stats.meta_writes += 1;
        self.io.write_block(addr, block.into()).await
    }

    async fn write_bitmaps(&mut self) -> LResult<()> {
        if self.ibitmap.dirty {
            for (i, b) in self.ibitmap.to_blocks().into_iter().enumerate() {
                if (i as u64) < self.geo.ibitmap_blocks {
                    self.io
                        .write_block(BlockAddr(self.geo.ibitmap_start + i as u64), b.into())
                        .await?;
                    self.stats.meta_writes += 1;
                }
            }
            self.ibitmap.dirty = false;
        }
        if self.bbitmap.dirty {
            for (i, b) in self.bbitmap.to_blocks().into_iter().enumerate() {
                if (i as u64) < self.geo.bbitmap_blocks {
                    self.io
                        .write_block(BlockAddr(self.geo.bbitmap_start + i as u64), b.into())
                        .await?;
                    self.stats.meta_writes += 1;
                }
            }
            self.bbitmap.dirty = false;
        }
        Ok(())
    }

    fn sb_block(&self) -> Block {
        let mut block = Block::zeroed();
        let b = block.make_mut();
        put_u32(b, 0, FFS_MAGIC);
        put_u64(b, 8, self.params.ninodes);
        put_u32(b, 16, self.params.ngroups);
        put_u64(b, 24, self.geo.nblocks);
        block
    }
}

impl StorageLayout for FfsLayout {
    fn name(&self) -> &'static str {
        "ffs"
    }

    async fn format(&mut self) -> LResult<()> {
        self.io.write_block(BlockAddr(0), self.sb_block().into()).await?;
        self.ibitmap = Bitmap::new(self.params.ninodes);
        self.bbitmap = Bitmap::new(self.geo.nblocks);
        // Inodes 0 (reserved) and 1 (root) are taken. Both bitmaps are
        // forced dirty so a freshly formatted disk always mounts.
        self.ibitmap.set(0, true);
        self.ibitmap.set(1, true);
        self.bbitmap.dirty = true;
        self.mounted = true;
        let mut root = Inode::new(Ino::ROOT, FileKind::Directory);
        root.mtime = self.handle.now().as_nanos();
        self.put_inode(&root).await?;
        self.write_bitmaps().await?;
        Ok(())
    }

    async fn mount(&mut self) -> LResult<()> {
        let p = self.io.read_block(BlockAddr(0)).await?;
        let bytes = p.block(0).ok_or(LayoutError::NotFormatted)?;
        if get_u32(bytes, 0) != FFS_MAGIC {
            return Err(LayoutError::NotFormatted);
        }
        if get_u64(bytes, 8) != self.params.ninodes || get_u64(bytes, 24) != self.geo.nblocks {
            return Err(LayoutError::Corrupt("superblock mismatch".into()));
        }
        let mut iblocks = Vec::new();
        for i in 0..self.geo.ibitmap_blocks {
            let p = self.io.read_block(BlockAddr(self.geo.ibitmap_start + i)).await?;
            self.stats.meta_reads += 1;
            iblocks.push(
                p.block(0).ok_or_else(|| LayoutError::Corrupt("ibitmap lost".into()))?.clone(),
            );
        }
        self.ibitmap = Bitmap::from_blocks(&iblocks, self.params.ninodes);
        let mut bblocks = Vec::new();
        for i in 0..self.geo.bbitmap_blocks {
            let p = self.io.read_block(BlockAddr(self.geo.bbitmap_start + i)).await?;
            self.stats.meta_reads += 1;
            bblocks.push(
                p.block(0).ok_or_else(|| LayoutError::Corrupt("bbitmap lost".into()))?.clone(),
            );
        }
        self.bbitmap = Bitmap::from_blocks(&bblocks, self.geo.nblocks);
        self.mounted = true;
        Ok(())
    }

    async fn recover(&mut self) -> LResult<crate::layout::RecoveryStats> {
        // Validate the superblock only; the on-disk bitmaps may be
        // arbitrarily stale or even unwritten (they are durable only at
        // sync/unmount), so recovery never reads them.
        let p = self.io.read_block(BlockAddr(0)).await?;
        let bytes = p.block(0).ok_or(LayoutError::NotFormatted)?;
        if get_u32(bytes, 0) != FFS_MAGIC {
            return Err(LayoutError::NotFormatted);
        }
        if get_u64(bytes, 8) != self.params.ninodes || get_u64(bytes, 24) != self.geo.nblocks {
            return Err(LayoutError::Corrupt("superblock mismatch".into()));
        }
        self.mounted = true;
        // Crash recovery = fsck pass 1: rebuild both bitmaps from the
        // inode table, the authoritative record — every
        // create/write/delete updates it in place immediately.
        let mut ibm = Bitmap::new(self.params.ninodes);
        let mut bbm = Bitmap::new(self.geo.nblocks);
        ibm.set(0, true); // Reserved.
        for b in 0..self.geo.data_start {
            bbm.set(b, true); // Superblock, bitmaps, inode table.
        }
        let mut stats = crate::layout::RecoveryStats::default();
        let itable_blocks = self.params.ninodes.div_ceil(INODES_PER_BLOCK as u64);
        let mut indirects: Vec<BlockAddr> = Vec::new();
        for tb in 0..itable_blocks {
            let addr = BlockAddr(self.geo.itable_start + tb);
            let p = self.io.read_block(addr).await?;
            let Some(bytes) = p.block(0) else { continue };
            self.stats.meta_reads += 1;
            for slot in 0..INODES_PER_BLOCK {
                let ino = tb * INODES_PER_BLOCK as u64 + slot as u64;
                let off = slot * INODE_SIZE;
                if bytes.len() < off + INODE_SIZE {
                    break;
                }
                let Some(inode) = Inode::from_bytes(&bytes[off..off + INODE_SIZE]) else {
                    continue;
                };
                if inode.ino.0 != ino {
                    continue; // Slot identity mismatch: stale garbage.
                }
                ibm.set(ino, true);
                stats.recovered_inodes += 1;
                for d in inode.direct {
                    if d.is_some() && d.0 < self.geo.nblocks {
                        bbm.set(d.0, true);
                    }
                }
                if inode.indirect.is_some() && inode.indirect.0 < self.geo.nblocks {
                    bbm.set(inode.indirect.0, true);
                    indirects.push(inode.indirect);
                }
            }
        }
        for iaddr in indirects {
            let Ok(table) = self.read_indirect(iaddr).await else { continue };
            for v in table {
                if v != BlockAddr::NONE.0 && v < self.geo.nblocks {
                    bbm.set(v, true);
                }
            }
        }
        self.ibitmap = ibm;
        self.bbitmap = bbm;
        self.ibitmap.dirty = true;
        self.bbitmap.dirty = true;
        self.write_bitmaps().await?;
        Ok(stats)
    }

    async fn unmount(&mut self) -> LResult<()> {
        self.write_bitmaps().await?;
        self.mounted = false;
        Ok(())
    }

    async fn sync(&mut self) -> LResult<()> {
        self.write_bitmaps().await
    }

    fn alloc_ino(&mut self, kind: FileKind, now_ns: u64) -> LResult<Inode> {
        for i in 2..self.params.ninodes {
            if !self.ibitmap.get(i) {
                self.ibitmap.set(i, true);
                let mut inode = Inode::new(Ino(i), kind);
                inode.mtime = now_ns;
                return Ok(inode);
            }
        }
        Err(LayoutError::NoSpace)
    }

    async fn get_inode(&mut self, ino: Ino) -> LResult<Inode> {
        if ino.0 >= self.params.ninodes || !self.ibitmap.get(ino.0) {
            return Err(LayoutError::BadInode(ino));
        }
        let (addr, slot) = self.inode_addr(ino);
        let p = self.io.read_block(addr).await?;
        self.stats.meta_reads += 1;
        let bytes = p.block(0).ok_or_else(|| LayoutError::Corrupt("itable lost".into()))?;
        Inode::from_bytes(&bytes[slot * INODE_SIZE..(slot + 1) * INODE_SIZE])
            .ok_or(LayoutError::BadInode(ino))
    }

    async fn put_inode(&mut self, inode: &Inode) -> LResult<()> {
        let (addr, slot) = self.inode_addr(inode.ino);
        // Read-modify-write the inode table block: the block the read
        // came back with, copied only if the platter still holds it.
        let p = self.io.read_block(addr).await?;
        self.stats.meta_reads += 1;
        let mut block = p.block(0).cloned().unwrap_or_else(Block::zeroed);
        drop(p);
        block.make_mut()[slot * INODE_SIZE..(slot + 1) * INODE_SIZE]
            .copy_from_slice(&inode.to_bytes());
        self.stats.meta_writes += 1;
        self.io.write_block(addr, block.into()).await
    }

    async fn free_inode(&mut self, ino: Ino) -> LResult<()> {
        let inode = self.get_inode(ino).await?;
        for d in inode.direct {
            self.free_block(d);
        }
        if inode.indirect.is_some() {
            let table = self.read_indirect(inode.indirect).await?;
            for v in table {
                if v != BlockAddr::NONE.0 {
                    self.free_block(BlockAddr(v));
                }
            }
            self.free_block(inode.indirect);
        }
        self.ibitmap.set(ino.0, false);
        // Tombstone the on-disk inode so crash recovery's table scan
        // cannot resurrect it (the bitmap alone is only durable at sync).
        let (addr, slot) = self.inode_addr(ino);
        let p = self.io.read_block(addr).await?;
        self.stats.meta_reads += 1;
        let Some(mut block) = p.block(0).cloned() else { return Ok(()) };
        drop(p);
        block.make_mut()[slot * INODE_SIZE..(slot + 1) * INODE_SIZE].fill(0);
        self.stats.meta_writes += 1;
        self.io.write_block(addr, block.into()).await?;
        Ok(())
    }

    async fn map_block(&mut self, inode: &Inode, blk: u64) -> LResult<Option<BlockAddr>> {
        match block_slot(blk).ok_or(LayoutError::FileTooBig(blk))? {
            BlockSlot::Direct(i) => {
                Ok(if inode.direct[i].is_some() { Some(inode.direct[i]) } else { None })
            }
            BlockSlot::Indirect(s) => {
                if !inode.indirect.is_some() {
                    return Ok(None);
                }
                let t = self.read_indirect(inode.indirect).await?;
                let v = t[s];
                Ok(if v == BlockAddr::NONE.0 { None } else { Some(BlockAddr(v)) })
            }
        }
    }

    async fn read_file_block(&mut self, inode: &Inode, blk: u64) -> LResult<Option<Payload>> {
        let Some(addr) = self.map_block(inode, blk).await? else { return Ok(None) };
        self.stats.data_reads += 1;
        Ok(Some(self.io.read_block(addr).await?))
    }

    async fn write_file_blocks_from(
        &mut self,
        inode: &mut Inode,
        blocks: &mut Vec<(u64, Payload)>,
    ) -> LResult<()> {
        let sp = self.handle.trace_span("layout:write");
        blocks.sort_by_key(|(b, _)| *b);
        let hint_base = self.group_of(inode.ino);
        let mut table: Option<Vec<u64>> = None;
        let mut table_dirty = false;
        // Allocation decisions run first; the data writes then go out as
        // one scatter-gather batch.
        let mut pending: Vec<(BlockAddr, Payload)> = Vec::with_capacity(blocks.len());
        for (blk, payload) in blocks.drain(..) {
            let slot = block_slot(blk).ok_or(LayoutError::FileTooBig(blk))?;
            let existing = match slot {
                BlockSlot::Direct(i) => inode.direct[i],
                BlockSlot::Indirect(s) => {
                    if table.is_none() {
                        table = Some(if inode.indirect.is_some() {
                            self.read_indirect(inode.indirect).await?
                        } else {
                            vec![BlockAddr::NONE.0; NINDIRECT]
                        });
                    }
                    let v = table.as_ref().expect("just set")[s];
                    if v == BlockAddr::NONE.0 {
                        BlockAddr::NONE
                    } else {
                        BlockAddr(v)
                    }
                }
            };
            let addr = if existing.is_some() {
                existing // Update in place: the defining FFS behaviour.
            } else {
                // Allocate near the last block or the group base.
                let hint = match slot {
                    BlockSlot::Direct(i) if i > 0 && inode.direct[i - 1].is_some() => {
                        inode.direct[i - 1].0 + 1
                    }
                    _ => hint_base,
                };
                let a = self.alloc_block(hint)?;
                match slot {
                    BlockSlot::Direct(i) => inode.direct[i] = a,
                    BlockSlot::Indirect(s) => {
                        table.as_mut().expect("loaded above")[s] = a.0;
                        table_dirty = true;
                    }
                }
                a
            };
            self.stats.data_writes += 1;
            pending.push((addr, payload));
        }
        self.io.write_scatter(pending).await?;
        if table_dirty {
            if !inode.indirect.is_some() {
                inode.indirect = self.alloc_block(hint_base)?;
            }
            let t = table.expect("dirty implies loaded");
            let iaddr = inode.indirect;
            self.write_indirect(iaddr, &t).await?;
        }
        inode.mtime = self.handle.now().as_nanos();
        self.put_inode(inode).await?;
        self.handle.trace_exit(sp);
        Ok(())
    }

    async fn truncate(&mut self, inode: &mut Inode, new_blocks: u64) -> LResult<()> {
        let old_blocks = inode.blocks();
        for blk in new_blocks..old_blocks {
            if let BlockSlot::Direct(i) = block_slot(blk).ok_or(LayoutError::FileTooBig(blk))? {
                self.free_block(inode.direct[i]);
                inode.direct[i] = BlockAddr::NONE;
            }
        }
        if inode.indirect.is_some() {
            let keep = new_blocks > crate::types::NDIRECT as u64;
            let mut t = self.read_indirect(inode.indirect).await?;
            let first_dead = new_blocks.saturating_sub(crate::types::NDIRECT as u64) as usize;
            let mut dead = Vec::new();
            for slot in t.iter_mut().skip(first_dead) {
                if *slot != BlockAddr::NONE.0 {
                    dead.push(BlockAddr(*slot));
                    *slot = BlockAddr::NONE.0;
                }
            }
            for addr in dead {
                self.free_block(addr);
            }
            if keep {
                let iaddr = inode.indirect;
                self.write_indirect(iaddr, &t).await?;
            } else {
                self.free_block(inode.indirect);
                inode.indirect = BlockAddr::NONE;
            }
        }
        inode.size = new_blocks * BLOCK_SIZE as u64;
        inode.mtime = self.handle.now().as_nanos();
        self.put_inode(inode).await?;
        Ok(())
    }

    fn allocated_inos(&self) -> Vec<Ino> {
        (0..self.params.ninodes).filter(|&i| self.ibitmap.get(i)).map(Ino).collect()
    }

    fn stats(&self) -> LayoutStats {
        self.stats
    }

    fn driver(&self) -> &DiskDriver {
        self.io.driver()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_disk::{sim_disk_driver, CLook, Hp97560};
    use cnp_sim::Sim;

    fn run_ffs<F, Fut>(f: F)
    where
        F: FnOnce(cnp_sim::Handle, FfsLayout) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let sim = Sim::new(23);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let driver2 = driver.clone();
        let layout = FfsLayout::new(&h, driver, FfsParams::default());
        sim.block_on("test", async move {
            f(h, layout).await;
            driver2.shutdown();
        });
    }

    fn data_block(tag: u8) -> Payload {
        Payload::copy_of(&[tag; BLOCK_SIZE as usize])
    }

    #[test]
    fn format_and_root() {
        run_ffs(|_h, mut ffs| async move {
            ffs.format().await.unwrap();
            let root = ffs.get_inode(Ino::ROOT).await.unwrap();
            assert_eq!(root.kind, FileKind::Directory);
        });
    }

    #[test]
    fn in_place_overwrite_keeps_address() {
        run_ffs(|_h, mut ffs| async move {
            ffs.format().await.unwrap();
            let mut f = ffs.alloc_ino(FileKind::Regular, 0).unwrap();
            f.size = BLOCK_SIZE as u64;
            ffs.write_file_blocks(&mut f, vec![(0, data_block(1))]).await.unwrap();
            let a1 = ffs.map_block(&f, 0).await.unwrap().unwrap();
            ffs.write_file_blocks(&mut f, vec![(0, data_block(2))]).await.unwrap();
            let a2 = ffs.map_block(&f, 0).await.unwrap().unwrap();
            assert_eq!(a1, a2, "FFS overwrites in place");
            let p = ffs.read_file_block(&f, 0).await.unwrap().unwrap();
            assert_eq!(p.block(0).unwrap()[0], 2);
        });
    }

    #[test]
    fn sequential_blocks_are_contiguous() {
        run_ffs(|_h, mut ffs| async move {
            ffs.format().await.unwrap();
            let mut f = ffs.alloc_ino(FileKind::Regular, 0).unwrap();
            f.size = 4 * BLOCK_SIZE as u64;
            ffs.write_file_blocks(&mut f, (0..4).map(|b| (b, data_block(1))).collect())
                .await
                .unwrap();
            let a0 = ffs.map_block(&f, 0).await.unwrap().unwrap();
            let a3 = ffs.map_block(&f, 3).await.unwrap().unwrap();
            assert_eq!(a3.0, a0.0 + 3, "cluster allocation keeps blocks adjacent");
        });
    }

    #[test]
    fn remount_preserves_files() {
        let sim = Sim::new(29);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let shutdown_driver = driver.clone();
        sim.block_on("test", async move {
            let mut ffs = FfsLayout::new(&h, driver.clone(), FfsParams::default());
            ffs.format().await.unwrap();
            let mut f = ffs.alloc_ino(FileKind::Regular, 0).unwrap();
            f.size = 14 * BLOCK_SIZE as u64; // Spans into the indirect range.
            ffs.write_file_blocks(&mut f, (0..14).map(|b| (b, data_block(b as u8))).collect())
                .await
                .unwrap();
            let ino = f.ino;
            ffs.unmount().await.unwrap();
            let mut ffs2 = FfsLayout::new(&h, driver, FfsParams::default());
            ffs2.mount().await.unwrap();
            let got = ffs2.get_inode(ino).await.unwrap();
            assert_eq!(got.size, 14 * BLOCK_SIZE as u64);
            let p = ffs2.read_file_block(&got, 13).await.unwrap().unwrap();
            assert_eq!(p.block(0).unwrap()[0], 13);
            shutdown_driver.shutdown();
        });
    }

    #[test]
    fn free_inode_recycles_blocks() {
        run_ffs(|_h, mut ffs| async move {
            ffs.format().await.unwrap();
            let mut f = ffs.alloc_ino(FileKind::Regular, 0).unwrap();
            f.size = 2 * BLOCK_SIZE as u64;
            ffs.write_file_blocks(&mut f, vec![(0, data_block(1)), (1, data_block(2))])
                .await
                .unwrap();
            let a0 = ffs.map_block(&f, 0).await.unwrap().unwrap();
            ffs.free_inode(f.ino).await.unwrap();
            assert!(ffs.get_inode(f.ino).await.is_err());
            // The freed block is allocatable again.
            let got = ffs.alloc_block(a0.0).unwrap();
            assert_eq!(got, a0);
        });
    }

    #[test]
    fn recover_rebuilds_stale_bitmaps() {
        let sim = Sim::new(43);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let shutdown_driver = driver.clone();
        sim.block_on("test", async move {
            let params = FfsParams { ninodes: 1024, ngroups: 4 };
            let mut ffs = FfsLayout::new(&h, driver.clone(), params.clone());
            ffs.format().await.unwrap();
            // Crash with bitmaps never synced: the inode table is the
            // only durable record of this file.
            let mut f = ffs.alloc_ino(FileKind::Regular, 0).unwrap();
            f.size = 3 * BLOCK_SIZE as u64;
            ffs.write_file_blocks(
                &mut f,
                vec![(0, data_block(5)), (1, data_block(6)), (2, data_block(7))],
            )
            .await
            .unwrap();
            let ino = f.ino;
            let a0 = ffs.map_block(&f, 0).await.unwrap().unwrap();
            drop(ffs);
            let mut rec = FfsLayout::new(&h, driver.clone(), params);
            let stats = rec.recover().await.unwrap();
            assert!(stats.recovered_inodes >= 2, "root + file: {}", stats.recovered_inodes);
            let got = rec.get_inode(ino).await.expect("inode survives via table scan");
            assert_eq!(got.size, 3 * BLOCK_SIZE as u64);
            // The rebuilt block bitmap protects the file's blocks.
            let fresh = rec.alloc_block(a0.0).unwrap();
            assert_ne!(fresh, a0, "recovered allocation must not reuse live blocks");
            shutdown_driver.shutdown();
        });
    }

    #[test]
    fn freed_inode_stays_dead_across_recovery() {
        let sim = Sim::new(47);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let shutdown_driver = driver.clone();
        sim.block_on("test", async move {
            let params = FfsParams { ninodes: 1024, ngroups: 4 };
            let mut ffs = FfsLayout::new(&h, driver.clone(), params.clone());
            ffs.format().await.unwrap();
            let mut f = ffs.alloc_ino(FileKind::Regular, 0).unwrap();
            f.size = BLOCK_SIZE as u64;
            ffs.write_file_blocks(&mut f, vec![(0, data_block(1))]).await.unwrap();
            ffs.sync().await.unwrap();
            // Delete after the sync, then crash before the next sync: the
            // tombstoned inode-table slot must keep the file dead.
            ffs.free_inode(f.ino).await.unwrap();
            let ino = f.ino;
            drop(ffs);
            let mut rec = FfsLayout::new(&h, driver.clone(), params);
            rec.recover().await.unwrap();
            assert!(
                rec.get_inode(ino).await.is_err(),
                "tombstone must prevent resurrection of the deleted file"
            );
            shutdown_driver.shutdown();
        });
    }

    #[test]
    fn truncate_frees_blocks() {
        run_ffs(|_h, mut ffs| async move {
            ffs.format().await.unwrap();
            let mut f = ffs.alloc_ino(FileKind::Regular, 0).unwrap();
            f.size = 16 * BLOCK_SIZE as u64;
            ffs.write_file_blocks(&mut f, (0..16).map(|b| (b, data_block(3))).collect())
                .await
                .unwrap();
            ffs.truncate(&mut f, 1).await.unwrap();
            assert_eq!(f.size, BLOCK_SIZE as u64);
            assert!(ffs.read_file_block(&f, 1).await.unwrap().is_none());
            assert!(!f.indirect.is_some());
        });
    }
}
