//! # cnp-layout — storage layouts on a raw disk
//!
//! The paper's storage-layout component (§2): an abstract interface with
//! two derived layouts —
//!
//! * [`lfs`]: the segmented log-structured file system the paper's
//!   experiments run ("On all file-systems we ran a segmented LFS"),
//!   with IFILE inode map, checkpoint regions, and a pluggable cleaner;
//! * [`ffs`]: an FFS-like update-in-place layout with allocation groups.
//!
//! Shared building blocks: [`inode`]s (direct + single-indirect; ≈4 MB
//! max file, documented in DESIGN.md), [`dir`] entry codecs, and
//! block-granular I/O over `cnp-disk` drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dir;
mod error;
pub mod ffs;
pub mod inode;
mod io;
mod layout;
pub mod lfs;
pub mod types;

pub use error::{LResult, LayoutError};
pub use ffs::{FfsLayout, FfsParams};
pub use inode::{Inode, INODES_PER_BLOCK, INODE_SIZE};
pub use io::BlockIo;
pub use layout::{Layout, LayoutStats, RecoveryStats, StorageLayout};
pub use lfs::{CleanerPolicy, LfsLayout, LfsParams};
pub use types::{
    block_slot, BlockAddr, BlockSlot, FileKind, Ino, BLOCK_SIZE, MAX_FILE_BLOCKS, NDIRECT,
    NINDIRECT,
};
