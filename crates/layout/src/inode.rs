//! Inodes: the on-disk per-file metadata record.

use crate::types::codec::{get_u32, get_u64, put_u32, put_u64};
use crate::types::{BlockAddr, FileKind, Ino, BLOCK_SIZE, NDIRECT};

/// Serialized inode size; [`BLOCK_SIZE`]/256 inodes pack per block.
pub const INODE_SIZE: usize = 256;

/// Inodes per file-system block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE as usize / INODE_SIZE;

const MAGIC: u32 = 0x1f5_0de;

/// The in-memory/on-disk inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Inode number.
    pub ino: Ino,
    /// File type.
    pub kind: FileKind,
    /// File size in bytes.
    pub size: u64,
    /// Hard-link count.
    pub nlink: u32,
    /// Modification time (nanoseconds of simulation time).
    pub mtime: u64,
    /// Direct block pointers.
    pub direct: [BlockAddr; NDIRECT],
    /// Single indirect block pointer.
    pub indirect: BlockAddr,
}

impl Inode {
    /// Creates an empty inode of the given kind.
    pub fn new(ino: Ino, kind: FileKind) -> Self {
        Inode {
            ino,
            kind,
            size: 0,
            nlink: 1,
            mtime: 0,
            direct: [BlockAddr::NONE; NDIRECT],
            indirect: BlockAddr::NONE,
        }
    }

    /// File size in whole blocks (rounded up).
    pub fn blocks(&self) -> u64 {
        self.size.div_ceil(BLOCK_SIZE as u64)
    }

    /// Serializes to exactly [`INODE_SIZE`] bytes.
    pub fn to_bytes(&self) -> [u8; INODE_SIZE] {
        let mut buf = [0u8; INODE_SIZE];
        put_u32(&mut buf, 0, MAGIC);
        buf[4] = self.kind.tag();
        put_u64(&mut buf, 8, self.ino.0);
        put_u64(&mut buf, 16, self.size);
        put_u32(&mut buf, 24, self.nlink);
        put_u64(&mut buf, 32, self.mtime);
        for (i, d) in self.direct.iter().enumerate() {
            put_u64(&mut buf, 40 + i * 8, d.0);
        }
        put_u64(&mut buf, 40 + NDIRECT * 8, self.indirect.0);
        buf
    }

    /// Parses an inode from bytes; `None` on bad magic or tag.
    pub fn from_bytes(buf: &[u8]) -> Option<Inode> {
        if buf.len() < INODE_SIZE || get_u32(buf, 0) != MAGIC {
            return None;
        }
        let kind = FileKind::from_tag(buf[4])?;
        let mut direct = [BlockAddr::NONE; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = BlockAddr(get_u64(buf, 40 + i * 8));
        }
        Some(Inode {
            ino: Ino(get_u64(buf, 8)),
            kind,
            size: get_u64(buf, 16),
            nlink: get_u32(buf, 24),
            mtime: get_u64(buf, 32),
            direct,
            indirect: BlockAddr(get_u64(buf, 40 + NDIRECT * 8)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut ino = Inode::new(Ino(42), FileKind::Directory);
        ino.size = 123_456;
        ino.nlink = 3;
        ino.mtime = 987;
        ino.direct[0] = BlockAddr(7);
        ino.direct[11] = BlockAddr(99);
        ino.indirect = BlockAddr(1234);
        let bytes = ino.to_bytes();
        assert_eq!(bytes.len(), INODE_SIZE);
        let back = Inode::from_bytes(&bytes).expect("parse");
        assert_eq!(back, ino);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Inode::from_bytes(&[0u8; INODE_SIZE]).is_none());
        assert!(Inode::from_bytes(&[0u8; 10]).is_none());
    }

    #[test]
    fn blocks_rounds_up() {
        let mut i = Inode::new(Ino(1), FileKind::Regular);
        assert_eq!(i.blocks(), 0);
        i.size = 1;
        assert_eq!(i.blocks(), 1);
        i.size = BLOCK_SIZE as u64;
        assert_eq!(i.blocks(), 1);
        i.size = BLOCK_SIZE as u64 + 1;
        assert_eq!(i.blocks(), 2);
    }

    #[test]
    fn sixteen_inodes_per_block() {
        assert_eq!(INODES_PER_BLOCK, 16);
    }
}
