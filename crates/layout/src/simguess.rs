//! The paper's simulator storage layout.
//!
//! "A storage-layout module can also be instantiated for a simulator. In
//! this case, all information that would have been read or written to
//! disk is simulated by making educated guesses. If, for example, a file
//! is accessed that is not yet known by the storage-layout module, it
//! picks a random location on disk. Once an initial location has been
//! chosen for a file, the simulator sticks to those addresses." (§2)
//!
//! Metadata lives purely in memory; only file data generates disk I/O.

use std::collections::HashMap;

use cnp_disk::{DiskDriver, Payload};
use rand::rngs::StdRng;
use rand::Rng;

use crate::error::{LResult, LayoutError};
use crate::inode::Inode;
use crate::io::BlockIo;
use crate::layout::{LayoutStats, StorageLayout};
use crate::types::{BlockAddr, FileKind, Ino, MAX_FILE_BLOCKS};

/// The educated-guess layout.
pub struct SimGuessLayout {
    io: BlockIo,
    rng: StdRng,
    inodes: HashMap<Ino, Inode>,
    base: HashMap<Ino, u64>,
    next_ino: u64,
    stats: LayoutStats,
}

impl SimGuessLayout {
    /// Creates the layout over a driver with a deterministic RNG.
    pub fn new(driver: DiskDriver, rng: StdRng) -> Self {
        SimGuessLayout {
            io: BlockIo::new(driver),
            rng,
            inodes: HashMap::new(),
            base: HashMap::new(),
            next_ino: 2, // Ino(1) is the root.
            stats: LayoutStats::default(),
        }
    }

    /// Picks (once) and remembers a random contiguous home for a file.
    fn base_of(&mut self, ino: Ino) -> u64 {
        if let Some(&b) = self.base.get(&ino) {
            return b;
        }
        let cap = self.io.capacity_blocks();
        let span = cap.saturating_sub(MAX_FILE_BLOCKS).max(1);
        let b = self.rng.gen_range(0..span);
        self.base.insert(ino, b);
        b
    }
}

impl StorageLayout for SimGuessLayout {
    fn name(&self) -> &'static str {
        "sim-guess"
    }

    async fn format(&mut self) -> LResult<()> {
        self.inodes.clear();
        self.base.clear();
        self.next_ino = 2;
        let root = Inode::new(Ino::ROOT, FileKind::Directory);
        self.inodes.insert(Ino::ROOT, root);
        Ok(())
    }

    async fn mount(&mut self) -> LResult<()> {
        // Nothing on disk to read: guesses persist only per instance.
        if self.inodes.is_empty() {
            return Err(LayoutError::NotFormatted);
        }
        Ok(())
    }

    async fn unmount(&mut self) -> LResult<()> {
        Ok(())
    }

    async fn sync(&mut self) -> LResult<()> {
        Ok(())
    }

    fn alloc_ino(&mut self, kind: FileKind, now_ns: u64) -> LResult<Inode> {
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        let mut inode = Inode::new(ino, kind);
        inode.mtime = now_ns;
        self.inodes.insert(ino, inode.clone());
        Ok(inode)
    }

    async fn get_inode(&mut self, ino: Ino) -> LResult<Inode> {
        self.inodes.get(&ino).cloned().ok_or(LayoutError::BadInode(ino))
    }

    async fn put_inode(&mut self, inode: &Inode) -> LResult<()> {
        if !self.inodes.contains_key(&inode.ino) {
            return Err(LayoutError::BadInode(inode.ino));
        }
        self.inodes.insert(inode.ino, inode.clone());
        Ok(())
    }

    async fn free_inode(&mut self, ino: Ino) -> LResult<()> {
        self.inodes.remove(&ino).ok_or(LayoutError::BadInode(ino))?;
        self.base.remove(&ino);
        Ok(())
    }

    async fn map_block(&mut self, inode: &Inode, blk: u64) -> LResult<Option<BlockAddr>> {
        if blk >= MAX_FILE_BLOCKS {
            return Err(LayoutError::FileTooBig(blk));
        }
        if blk >= inode.blocks() {
            return Ok(None);
        }
        let base = self.base_of(inode.ino);
        Ok(Some(BlockAddr(base + blk)))
    }

    async fn read_file_block(&mut self, inode: &Inode, blk: u64) -> LResult<Option<Payload>> {
        let Some(addr) = self.map_block(inode, blk).await? else {
            return Ok(None);
        };
        self.stats.data_reads += 1;
        Ok(Some(self.io.read_block(addr).await?))
    }

    async fn write_file_blocks(
        &mut self,
        inode: &mut Inode,
        blocks: Vec<(u64, Payload)>,
    ) -> LResult<()> {
        let base = self.base_of(inode.ino);
        // Coalesce contiguous block indices into runs.
        let mut blocks = blocks;
        blocks.sort_by_key(|(b, _)| *b);
        let mut i = 0;
        while i < blocks.len() {
            if blocks[i].0 >= MAX_FILE_BLOCKS {
                return Err(LayoutError::FileTooBig(blocks[i].0));
            }
            let mut j = i + 1;
            while j < blocks.len() && blocks[j].0 == blocks[j - 1].0 + 1 {
                j += 1;
            }
            let start = BlockAddr(base + blocks[i].0);
            let payloads: Vec<Payload> = blocks[i..j].iter().map(|(_, p)| p.clone()).collect();
            self.stats.data_writes += (j - i) as u64;
            self.io.write_run(start, payloads).await?;
            i = j;
        }
        self.inodes.insert(inode.ino, inode.clone());
        Ok(())
    }

    async fn truncate(&mut self, inode: &mut Inode, _new_blocks: u64) -> LResult<()> {
        self.inodes.insert(inode.ino, inode.clone());
        Ok(())
    }

    fn allocated_inos(&self) -> Vec<Ino> {
        let mut inos: Vec<Ino> = self.inodes.keys().copied().collect();
        inos.sort_unstable();
        inos
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
    use rand::SeedableRng;

    fn run_sim<F, Fut>(f: F)
    where
        F: FnOnce(SimGuessLayout) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let sim = Sim::new(5);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let layout = SimGuessLayout::new(driver, StdRng::seed_from_u64(9));
        sim.block_on("test", f(layout));
    }

    #[test]
    fn file_base_is_sticky() {
        run_sim(|mut l| async move {
            l.format().await.unwrap();
            let mut ino = l.alloc_ino(FileKind::Regular, 0).unwrap();
            ino.size = 8 * 4096;
            let a1 = l.map_block(&ino, 0).await.unwrap().unwrap();
            let a2 = l.map_block(&ino, 0).await.unwrap().unwrap();
            assert_eq!(a1, a2, "location must stick once chosen");
            let a3 = l.map_block(&ino, 5).await.unwrap().unwrap();
            assert_eq!(a3.0, a1.0 + 5, "blocks are contiguous from the base");
        });
    }

    #[test]
    fn write_read_cycle() {
        run_sim(|mut l| async move {
            l.format().await.unwrap();
            let mut ino = l.alloc_ino(FileKind::Regular, 0).unwrap();
            ino.size = 3 * 4096;
            l.write_file_blocks(
                &mut ino,
                vec![
                    (0, Payload::Simulated(4096)),
                    (1, Payload::Simulated(4096)),
                    (2, Payload::Simulated(4096)),
                ],
            )
            .await
            .unwrap();
            let p = l.read_file_block(&ino, 1).await.unwrap().unwrap();
            assert_eq!(p.len(), 4096);
            assert!(l.read_file_block(&ino, 3).await.unwrap().is_none(), "hole");
            assert_eq!(l.stats().data_writes, 3);
        });
    }

    #[test]
    fn inode_lifecycle() {
        run_sim(|mut l| async move {
            l.format().await.unwrap();
            let root = l.get_inode(Ino::ROOT).await.unwrap();
            assert_eq!(root.kind, FileKind::Directory);
            let ino = l.alloc_ino(FileKind::Regular, 7).unwrap();
            let got = l.get_inode(ino.ino).await.unwrap();
            assert_eq!(got.mtime, 7);
            l.free_inode(ino.ino).await.unwrap();
            assert!(matches!(l.get_inode(ino.ino).await, Err(LayoutError::BadInode(_))));
        });
    }
}
