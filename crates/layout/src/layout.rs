//! The storage-layout abstraction and its enum-dispatched instantiation.
//!
//! "The storage-layout component is responsible for defining a
//! file-system layout on a raw disk. … The base storage-layout class is
//! only an interface: it does not implement an algorithm. Specific
//! layouts are implemented through derived classes." (§2)

use cnp_disk::{DiskDriver, Payload};

use crate::error::LResult;
use crate::ffs::FfsLayout;
use crate::inode::Inode;
use crate::lfs::LfsLayout;
use crate::types::{BlockAddr, FileKind, Ino};

/// Counters exported by a layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayoutStats {
    /// Metadata blocks read (inodes, indirect, summaries, maps).
    pub meta_reads: u64,
    /// Metadata blocks written.
    pub meta_writes: u64,
    /// Data blocks written.
    pub data_writes: u64,
    /// Data blocks read.
    pub data_reads: u64,
    /// Whole segments written (LFS).
    pub segments_written: u64,
    /// Segments cleaned (LFS).
    pub segments_cleaned: u64,
    /// Live blocks moved by the cleaner (LFS).
    pub cleaner_moved: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

/// What a crash-recovery pass did (see [`StorageLayout::recover`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Segment summaries the roll-forward walk read to find the log
    /// tail (LFS): bounded by the checkpoint, not by the disk.
    pub scanned_segments: u64,
    /// Post-checkpoint segments rolled forward (LFS).
    pub rolled_segments: u64,
    /// Inodes recovered from the log / rebuilt tables.
    pub recovered_inodes: u64,
    /// File-block pointers patched to their rolled-forward locations.
    pub patched_blocks: u64,
}

/// The storage-layout interface every layout implements.
///
/// Rust rendition of the paper's abstract storage-layout base class:
/// "for all layout and policy decisions, there exists a virtual method
/// in the base-class".
///
/// The async methods are used generically (enum dispatch via
/// [`Layout`]), never as `dyn` objects, so auto-trait bounds on the
/// returned futures are not needed.
#[allow(async_fn_in_trait)]
pub trait StorageLayout {
    /// Layout name for configuration and reports.
    fn name(&self) -> &'static str;

    /// Creates an empty file system (with a root directory inode).
    async fn format(&mut self) -> LResult<()>;

    /// Loads on-disk state (checkpoint/superblock).
    async fn mount(&mut self) -> LResult<()>;

    /// Mounts after a crash, repairing and rolling state forward where
    /// the layout can (LFS: checkpoint + segment roll-forward; FFS:
    /// allocation-bitmap rebuild).
    async fn recover(&mut self) -> LResult<RecoveryStats>;

    /// Flushes all state and writes a final checkpoint.
    async fn unmount(&mut self) -> LResult<()>;

    /// Durability point: push buffered layout state to disk.
    async fn sync(&mut self) -> LResult<()>;

    /// Allocates a fresh inode.
    fn alloc_ino(&mut self, kind: FileKind, now_ns: u64) -> LResult<Inode>;

    /// Reads an inode.
    async fn get_inode(&mut self, ino: Ino) -> LResult<Inode>;

    /// Persists an inode (metadata-only change).
    async fn put_inode(&mut self, inode: &Inode) -> LResult<()>;

    /// Frees an inode and every block it references.
    async fn free_inode(&mut self, ino: Ino) -> LResult<()>;

    /// Disk address of file block `blk`, or `None` for a hole.
    async fn map_block(&mut self, inode: &Inode, blk: u64) -> LResult<Option<BlockAddr>>;

    /// The payload of a block still buffered in the layout (not yet on
    /// disk), e.g. in the LFS's unflushed segment, its blocks shared.
    /// `None` means the device copy is authoritative.
    fn staged_block(&self, _addr: BlockAddr) -> Option<Payload> {
        None
    }

    /// Exports the whole staging buffer as the device writes that would
    /// seal it, without touching the device. A crash capture applies
    /// these to the platter image when the staging buffer is
    /// battery-backed, whether the disk is still alive or a power cut
    /// killed it first. Write-through layouts stage nothing.
    fn staged_image(&self) -> Vec<(BlockAddr, Payload)> {
        Vec::new()
    }

    /// Reads one file block (`None` for a hole).
    async fn read_file_block(&mut self, inode: &Inode, blk: u64) -> LResult<Option<Payload>>;

    /// Writes file blocks, allocating/relocating as the layout dictates,
    /// updating `inode`'s pointers, and persisting the inode. Takes the
    /// blocks out of `blocks` and leaves it empty whatever the outcome,
    /// so the caller can fill the same list for its next batch.
    async fn write_file_blocks_from(
        &mut self,
        inode: &mut Inode,
        blocks: &mut Vec<(u64, Payload)>,
    ) -> LResult<()>;

    /// [`StorageLayout::write_file_blocks_from`] for a list the caller
    /// does not keep.
    async fn write_file_blocks(
        &mut self,
        inode: &mut Inode,
        mut blocks: Vec<(u64, Payload)>,
    ) -> LResult<()> {
        self.write_file_blocks_from(inode, &mut blocks).await
    }

    /// Frees file blocks at indices `>= new_blocks` (truncate).
    async fn truncate(&mut self, inode: &mut Inode, new_blocks: u64) -> LResult<()>;

    /// Every inode number currently allocated, in ascending order.
    ///
    /// This is the fsck walker's ground truth for orphan detection: an
    /// allocated inode unreachable from the root is a space leak that
    /// `repair` attaches to `lost+found`. Layouts keep this metadata in
    /// memory once mounted (LFS inode map, FFS inode bitmap), so the
    /// scan is synchronous.
    fn allocated_inos(&self) -> Vec<Ino>;

    /// Counter snapshot.
    fn stats(&self) -> LayoutStats;

    /// Drains the set of inodes whose blocks the layout relocated on
    /// its own initiative (the LFS cleaner) since the last drain.
    /// Engines caching inodes in memory must refresh these pointers or
    /// they will read/supersede through freed segments. Layouts that
    /// never move blocks behind the caller return nothing.
    fn take_relocated(&mut self) -> Vec<Ino> {
        Vec::new()
    }

    /// The disk driver underneath (for plug-in statistics).
    fn driver(&self) -> &DiskDriver;
}

/// Runtime-selected layout (the cut-and-paste configuration point).
///
/// One `Layout` exists per mounted file system, so the size spread
/// between variants (LFS carries its maps and segment builder inline)
/// costs nothing that matters; boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
pub enum Layout {
    /// Segmented log-structured layout (the paper's production choice).
    Lfs(LfsLayout),
    /// FFS-like update-in-place layout.
    Ffs(FfsLayout),
}

macro_rules! dispatch {
    ($self:ident, $m:ident $(, $arg:expr)*) => {
        match $self {
            Layout::Lfs(l) => l.$m($($arg),*),
            Layout::Ffs(l) => l.$m($($arg),*),
        }
    };
}

macro_rules! dispatch_async {
    ($self:ident, $m:ident $(, $arg:expr)*) => {
        match $self {
            Layout::Lfs(l) => l.$m($($arg),*).await,
            Layout::Ffs(l) => l.$m($($arg),*).await,
        }
    };
}

impl StorageLayout for Layout {
    fn name(&self) -> &'static str {
        dispatch!(self, name)
    }

    async fn format(&mut self) -> LResult<()> {
        dispatch_async!(self, format)
    }

    async fn mount(&mut self) -> LResult<()> {
        dispatch_async!(self, mount)
    }

    async fn recover(&mut self) -> LResult<RecoveryStats> {
        dispatch_async!(self, recover)
    }

    async fn unmount(&mut self) -> LResult<()> {
        dispatch_async!(self, unmount)
    }

    async fn sync(&mut self) -> LResult<()> {
        dispatch_async!(self, sync)
    }

    fn alloc_ino(&mut self, kind: FileKind, now_ns: u64) -> LResult<Inode> {
        dispatch!(self, alloc_ino, kind, now_ns)
    }

    async fn get_inode(&mut self, ino: Ino) -> LResult<Inode> {
        dispatch_async!(self, get_inode, ino)
    }

    async fn put_inode(&mut self, inode: &Inode) -> LResult<()> {
        dispatch_async!(self, put_inode, inode)
    }

    async fn free_inode(&mut self, ino: Ino) -> LResult<()> {
        dispatch_async!(self, free_inode, ino)
    }

    async fn map_block(&mut self, inode: &Inode, blk: u64) -> LResult<Option<BlockAddr>> {
        dispatch_async!(self, map_block, inode, blk)
    }

    fn staged_block(&self, addr: BlockAddr) -> Option<Payload> {
        dispatch!(self, staged_block, addr)
    }

    fn staged_image(&self) -> Vec<(BlockAddr, Payload)> {
        dispatch!(self, staged_image)
    }

    async fn read_file_block(&mut self, inode: &Inode, blk: u64) -> LResult<Option<Payload>> {
        dispatch_async!(self, read_file_block, inode, blk)
    }

    async fn write_file_blocks_from(
        &mut self,
        inode: &mut Inode,
        blocks: &mut Vec<(u64, Payload)>,
    ) -> LResult<()> {
        dispatch_async!(self, write_file_blocks_from, inode, blocks)
    }

    async fn truncate(&mut self, inode: &mut Inode, new_blocks: u64) -> LResult<()> {
        dispatch_async!(self, truncate, inode, new_blocks)
    }

    fn allocated_inos(&self) -> Vec<Ino> {
        dispatch!(self, allocated_inos)
    }

    fn stats(&self) -> LayoutStats {
        dispatch!(self, stats)
    }

    fn take_relocated(&mut self) -> Vec<Ino> {
        dispatch!(self, take_relocated)
    }

    fn driver(&self) -> &DiskDriver {
        dispatch!(self, driver)
    }
}
