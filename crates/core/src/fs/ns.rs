//! The name path: the hierarchical name-space half of the abstract
//! client interface. Every directory read-modify-write runs under the
//! `ns` stripe of the directory it rewrites; directory content moves
//! through the data path's block cache like any other block.

use cnp_cache::{BlockKey, FileId};
use cnp_layout::dir::{self, Dirent, Renamed};
use cnp_layout::{FileKind, Ino, Inode, LayoutError, StorageLayout, BLOCK_SIZE};

use super::{FileSystem, InodeRecord};
use crate::error::{FsError, FsResult};

impl FileSystem {
    // ----- Namespace operations (the abstract client interface) -----

    /// Resolves a path to an inode number.
    pub async fn lookup(&self, path: &str) -> FsResult<Ino> {
        self.op_begin().await;
        self.resolve(path).await
    }

    /// Creates a regular (or typed) file; returns its inode number.
    pub async fn create(&self, path: &str, kind: FileKind) -> FsResult<Ino> {
        self.op_begin().await;
        self.s.stats.borrow_mut().creates += 1;
        if kind == FileKind::Directory {
            return self.mkdir_inner(path).await;
        }
        // Resolve before locking: the stripe key is the parent
        // directory's inode. The entries re-read below happens under
        // the stripe, so the read-modify-write stays atomic per
        // directory; a racing remove of the parent surfaces as a clean
        // BadInode/NotFound.
        let (dir_ino, name) = self.resolve_parent(path).await?;
        let _ns = self.lock_ns(dir_ino, dir_ino).await;
        let mut bytes = self.read_dir_bytes(dir_ino, path).await?;
        let walked = dir::walk(&bytes, name).map_err(corrupt)?;
        if walked.found.is_some() {
            return Err(FsError::Exists(path.to_string()));
        }
        let inode = {
            let g = self.lock_core().await;
            let now = self.s.handle.now().as_nanos();
            let inode = g.get_mut().alloc_ino(kind, now)?;
            inode
        };
        let ino = inode.ino;
        self.s.inodes.borrow_mut().insert(ino, InodeRecord::new(inode.clone()));
        {
            let _rg = self.lock_range(ino).await;
            let g = self.lock_core().await;
            g.get_mut().put_inode(&inode).await?;
        }
        walked.push(&mut bytes, ino, kind, name);
        self.write_dir_bytes(dir_ino, bytes).await?;
        Ok(ino)
    }

    /// Creates a directory.
    pub async fn mkdir(&self, path: &str) -> FsResult<Ino> {
        self.op_begin().await;
        self.s.stats.borrow_mut().creates += 1;
        self.mkdir_inner(path).await
    }

    async fn mkdir_inner(&self, path: &str) -> FsResult<Ino> {
        let (dir_ino, name) = self.resolve_parent(path).await?;
        let _ns = self.lock_ns(dir_ino, dir_ino).await;
        let mut bytes = self.read_dir_bytes(dir_ino, path).await?;
        let walked = dir::walk(&bytes, name).map_err(corrupt)?;
        if walked.found.is_some() {
            return Err(FsError::Exists(path.to_string()));
        }
        let inode = {
            let g = self.lock_core().await;
            let now = self.s.handle.now().as_nanos();
            let inode = g.get_mut().alloc_ino(FileKind::Directory, now)?;
            g.get_mut().put_inode(&inode).await?;
            inode
        };
        let ino = inode.ino;
        self.s.inodes.borrow_mut().insert(ino, InodeRecord::new(inode));
        walked.push(&mut bytes, ino, FileKind::Directory, name);
        self.write_dir_bytes(dir_ino, bytes).await?;
        Ok(ino)
    }

    /// Lists a directory.
    pub async fn readdir(&self, path: &str) -> FsResult<Vec<Dirent>> {
        self.op_begin().await;
        let ino = self.resolve(path).await?;
        self.scan_dir(ino, path, |bytes, _| dir::decode(bytes)).await
    }

    /// Opens a file, bumping its open count; spawns the prefetch thread
    /// of multimedia ("active") files on first open.
    pub async fn open(&self, path: &str) -> FsResult<Ino> {
        self.op_begin().await;
        let ino = self.resolve(path).await?;
        let rec = self.inode_record(ino).await?;
        rec.opens.set(rec.opens.get() + 1);
        if rec.opens.get() == 1 && rec.inode.borrow().kind == FileKind::Multimedia {
            let fs = self.clone();
            self.s.handle.spawn(&format!("mm-prefetch:{ino}"), async move {
                fs.multimedia_prefetch(ino).await;
            });
        }
        Ok(ino)
    }

    /// Closes an open file.
    pub async fn close(&self, ino: Ino) -> FsResult<()> {
        self.op_begin().await;
        if let Some(rec) = self.s.inodes.borrow().get(&ino) {
            rec.opens.set(rec.opens.get().saturating_sub(1));
        }
        Ok(())
    }

    /// Stats a file by path.
    pub async fn stat(&self, path: &str) -> FsResult<Inode> {
        self.op_begin().await;
        let ino = self.resolve(path).await?;
        let rc = self.inode_record(ino).await?;
        let inode = rc.inode.borrow().clone();
        Ok(inode)
    }

    /// Stats a file by inode number — no path walk. This is the
    /// attribute path for handle-based front-ends (NFS fhandles): the
    /// caller already resolved the name once and holds the ino.
    pub async fn stat_ino(&self, ino: Ino) -> FsResult<Inode> {
        self.op_begin().await;
        let rc = self.inode_record(ino).await?;
        let inode = rc.inode.borrow().clone();
        Ok(inode)
    }

    /// Removes a file; dirty cached blocks are absorbed, never written.
    pub async fn unlink(&self, path: &str) -> FsResult<()> {
        self.op_begin().await;
        self.s.stats.borrow_mut().deletes += 1;
        let (dir_ino, name) = self.resolve_parent(path).await?;
        let _ns = self.lock_ns(dir_ino, dir_ino).await;
        let mut bytes = self.read_dir_bytes(dir_ino, path).await?;
        let (ino, kind) = dir::remove(&mut bytes, name)
            .map_err(corrupt)?
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        if kind == FileKind::Directory {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        self.write_dir_bytes(dir_ino, bytes).await?;
        let absorbed = self.s.cache.borrow_mut().remove_file(FileId(ino.0));
        self.s.stats.borrow_mut().absorbed_blocks += absorbed;
        self.s.inodes.borrow_mut().remove(&ino);
        let _rg = self.lock_range(ino).await;
        let g = self.lock_core().await;
        g.get_mut().free_inode(ino).await?;
        Ok(())
    }

    /// Removes an empty directory.
    pub async fn rmdir(&self, path: &str) -> FsResult<()> {
        self.op_begin().await;
        self.s.stats.borrow_mut().deletes += 1;
        let (dir_ino, name) = self.resolve_parent(path).await?;
        // The victim's stripe must be held too: its emptiness check has
        // to exclude a concurrent create *inside* the victim, which
        // holds only the victim's stripe. The victim ino is discovered
        // by an unlocked probe, then both stripes are taken in the
        // family's deadlock-free order and the lookup revalidated.
        loop {
            let (victim, _) = self.lookup_in(dir_ino, name, path).await?;
            let _ns = self.lock_ns(dir_ino, victim).await;
            let mut bytes = self.read_dir_bytes(dir_ino, path).await?;
            let walked = dir::walk(&bytes, name).map_err(corrupt)?;
            let (ino, kind) = walked.target().ok_or_else(|| FsError::NotFound(path.to_string()))?;
            if ino != victim {
                // Raced: the name now points at a different inode, so
                // the held victim stripe is the wrong one. Re-probe.
                continue;
            }
            if kind != FileKind::Directory {
                return Err(FsError::NotADirectory(path.to_string()));
            }
            // A listing that ends where it starts holds no entry.
            if self.scan_dir(ino, path, |bytes, _| dir::scan(bytes, |_| {})).await? != 0 {
                return Err(FsError::NotEmpty(path.to_string()));
            }
            walked.cut(&mut bytes);
            self.write_dir_bytes(dir_ino, bytes).await?;
            let absorbed = self.s.cache.borrow_mut().remove_file(FileId(ino.0));
            self.s.stats.borrow_mut().absorbed_blocks += absorbed;
            self.s.inodes.borrow_mut().remove(&ino);
            self.s.names.borrow_mut().forget(ino);
            let _rg = self.lock_range(ino).await;
            let g = self.lock_core().await;
            g.get_mut().free_inode(ino).await?;
            return Ok(());
        }
    }

    /// Renames a file or directory (same-parent and cross-parent).
    pub async fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.op_begin().await;
        let (from_dir, from_name) = self.resolve_parent(from).await?;
        let (to_dir, to_name) = self.resolve_parent(to).await?;
        let _ns = self.lock_ns(from_dir, to_dir).await;
        let mut from_bytes = self.read_dir_bytes(from_dir, from).await?;
        if from_dir == to_dir {
            match dir::rename(&mut from_bytes, from_name, to_name).map_err(corrupt)? {
                Renamed::Moved => self.write_dir_bytes(from_dir, from_bytes).await?,
                Renamed::Missing => return Err(FsError::NotFound(from.to_string())),
                Renamed::Taken => return Err(FsError::Exists(to.to_string())),
            }
        } else {
            let (ino, kind) = dir::remove(&mut from_bytes, from_name)
                .map_err(corrupt)?
                .ok_or_else(|| FsError::NotFound(from.to_string()))?;
            if kind == FileKind::Directory {
                // A directory moved below itself would leave the root
                // as a cycle nothing reaches. No entry records its
                // parent, so walk `to` from the root again — under the
                // held pair, which pins both ends of the move — and
                // refuse if the walk passes through the moved inode.
                let mut ancestors = split_path(to)?;
                ancestors.next_back();
                let mut cur = Ino::ROOT;
                for part in ancestors {
                    cur = self.lookup_in(cur, part, to).await?.0;
                    if cur == ino {
                        return Err(FsError::BadPath(to.to_string()));
                    }
                }
            }
            let mut to_bytes = self.read_dir_bytes(to_dir, to).await?;
            let walked = dir::walk(&to_bytes, to_name).map_err(corrupt)?;
            if walked.found.is_some() {
                return Err(FsError::Exists(to.to_string()));
            }
            walked.push(&mut to_bytes, ino, kind, to_name);
            self.write_dir_bytes(from_dir, from_bytes).await?;
            self.write_dir_bytes(to_dir, to_bytes).await?;
        }
        Ok(())
    }

    /// Creates a symbolic link holding `target`.
    pub async fn symlink(&self, path: &str, target: &str) -> FsResult<Ino> {
        let ino = self.create(path, FileKind::Symlink).await?;
        // Symlink targets are metadata: always real. `write` drops the
        // bytes off-line, so the target takes the directory content path.
        self.write_dir_bytes(ino, target.as_bytes().to_vec()).await?;
        Ok(ino)
    }

    /// Reads a symlink's target.
    pub async fn readlink(&self, path: &str) -> FsResult<String> {
        self.op_begin().await;
        let ino = self.resolve(path).await?;
        let rc = self.inode_record(ino).await?;
        let (kind, size) = {
            let i = rc.inode.borrow();
            (i.kind, i.size)
        };
        if kind != FileKind::Symlink {
            return Err(FsError::BadPath(path.to_string()));
        }
        let target = |data: Option<&[u8]>, _| {
            let bytes = data.ok_or_else(|| "symlink content unavailable".to_string())?;
            let target = std::str::from_utf8(&bytes[..(size as usize).min(bytes.len())]);
            target.map(str::to_string).map_err(|e| e.to_string())
        };
        self.read_block_with(ino, 0, target).await?.map_err(FsError::BadPath)
    }

    // ----- Internals -----

    async fn resolve(&self, path: &str) -> FsResult<Ino> {
        let mut cur = Ino::ROOT;
        for part in split_path(path)? {
            cur = self.lookup_in(cur, part, path).await?.0;
        }
        Ok(cur)
    }

    /// Resolves all but the last component of `path`; returns the
    /// parent directory and the last component (a valid entry name,
    /// borrowed from `path`).
    async fn resolve_parent<'p>(&self, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let mut parts = split_path(path)?;
        let name = parts.next_back().ok_or_else(|| FsError::BadPath(path.to_string()))?;
        if !dir::valid_name(name) {
            return Err(FsError::BadPath(path.to_string()));
        }
        let mut cur = Ino::ROOT;
        for part in parts {
            let (ino, kind) = self.lookup_in(cur, part, path).await?;
            if kind != FileKind::Directory {
                return Err(FsError::NotADirectory(path.to_string()));
            }
            cur = ino;
        }
        Ok((cur, name))
    }

    /// Looks `name` up in directory `dir`; `path` names the walk in the
    /// errors. A single-block directory is looked up where it sits in
    /// its cache frame, through the name memo, which knows bytes it has
    /// validated before by the frame's content stamp.
    async fn lookup_in(&self, dir: Ino, name: &str, path: &str) -> FsResult<(Ino, FileKind)> {
        let look = |bytes: &[u8], stamp: Option<u64>| match stamp {
            Some(stamp) => self.s.names.borrow_mut().lookup(dir, stamp, bytes, name),
            None => dir::lookup(bytes, name),
        };
        self.scan_dir(dir, path, look).await?.ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// Size in bytes of directory `ino`'s packed content; `path` names
    /// the walk that expected a directory there.
    async fn dir_size(&self, ino: Ino, path: &str) -> FsResult<usize> {
        let rc = self.inode_record(ino).await?;
        let inode = rc.inode.borrow();
        if inode.kind != FileKind::Directory {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        Ok(inode.size as usize)
    }

    /// Gathers the first `size` bytes of directory `ino` into one
    /// buffer. Every block is read through the cache, in ascending
    /// order: the hits, misses, LRU touches and copy delays of a
    /// directory read are part of the simulated timeline, whatever the
    /// caller goes on to do with the bytes.
    async fn gather_dir(&self, ino: Ino, size: usize) -> FsResult<Vec<u8>> {
        let bs = BLOCK_SIZE as usize;
        let blocks = size.div_ceil(bs);
        let mut bytes = Vec::with_capacity(blocks * bs);
        for blk in 0..blocks as u64 {
            self.read_block_with(ino, blk, |data, _| data.map(|d| bytes.extend_from_slice(d)))
                .await?
                .ok_or_else(dir_data_unavailable)?;
        }
        bytes.truncate(size);
        Ok(bytes)
    }

    /// Reads a directory's packed content for a read-modify-write; the
    /// `dir::` call the caller makes on it validates every entry, and
    /// the buffer goes on to [`FileSystem::write_dir_bytes`].
    async fn read_dir_bytes(&self, ino: Ino, path: &str) -> FsResult<Vec<u8>> {
        let size = self.dir_size(ino, path).await?;
        self.gather_dir(ino, size).await
    }

    /// Runs `scan` over a directory's packed content without keeping
    /// it: a single-block directory is scanned where it sits in its
    /// cache frame, and `scan` is told the frame's content stamp; a
    /// longer one in a gathered copy, which has none.
    pub(super) async fn scan_dir<T>(
        &self,
        ino: Ino,
        path: &str,
        scan: impl FnOnce(&[u8], Option<u64>) -> Result<T, String>,
    ) -> FsResult<T> {
        let size = self.dir_size(ino, path).await?;
        let scanned = if size > 0 && size <= BLOCK_SIZE as usize {
            let in_frame = |data: Option<&[u8]>, stamp| {
                data.map(|d| scan(&d[..size.min(d.len())], Some(stamp)))
            };
            self.read_block_with(ino, 0, in_frame).await?.ok_or_else(dir_data_unavailable)?
        } else {
            scan(&self.gather_dir(ino, size).await?, None)
        };
        scanned.map_err(corrupt)
    }

    /// Writes `bytes` as directory `ino`'s whole content. A content of
    /// one block is padded where it is and moves into the cache frame;
    /// a longer one is cut into a buffer a block.
    async fn write_dir_bytes(&self, ino: Ino, mut bytes: Vec<u8>) -> FsResult<()> {
        let rc = self.inode_record(ino).await?;
        let old_blocks = rc.inode.borrow().blocks();
        let bs = BLOCK_SIZE as usize;
        let size = bytes.len();
        let new_blocks = size.div_ceil(bs) as u64;
        // Extend the size *before* dirtying any block — the directory
        // twin of the stale-size write race: a mid-update NVRAM
        // pressure flush (e.g. another client's) snapshots the inode
        // while its dirty content block is already selected, and a
        // stale size makes the acked dirent durable but unreachable
        // after a crash (found by cnp-check's crash-point enumeration
        // on the zipf multi-client workload).
        if size as u64 > rc.inode.borrow().size {
            rc.inode.borrow_mut().size = size as u64;
        }
        // Directory content is metadata: always real bytes.
        if new_blocks == 1 {
            bytes.resize(bs, 0);
            self.write_block_cached(cnp_cache::UNATTRIBUTED, ino, 0, Some(bytes)).await?;
        } else {
            for (blk, chunk) in bytes.chunks(bs).enumerate() {
                let mut block = vec![0u8; bs];
                block[..chunk.len()].copy_from_slice(chunk);
                self.write_block_cached(cnp_cache::UNATTRIBUTED, ino, blk as u64, Some(block))
                    .await?;
            }
        }
        {
            let mut inode = rc.inode.borrow_mut();
            inode.size = size as u64;
            inode.mtime = self.s.handle.now().as_nanos();
        }
        for blk in new_blocks..old_blocks {
            self.s.cache.borrow_mut().remove_block(BlockKey::new(FileId(ino.0), blk));
        }
        if new_blocks < old_blocks {
            let g = self.s.layout.lock().await;
            let mut copy = rc.inode.borrow().clone();
            g.get_mut().truncate(&mut copy, new_blocks).await?;
            let mut inode = rc.inode.borrow_mut();
            inode.direct = copy.direct;
            inode.indirect = copy.indirect;
        }
        Ok(())
    }
}

/// Splits an absolute path into its components, borrowed from `path`.
fn split_path(path: &str) -> FsResult<impl DoubleEndedIterator<Item = &str>> {
    if !path.starts_with('/') {
        return Err(FsError::BadPath(path.to_string()));
    }
    Ok(path.split('/').filter(|p| !p.is_empty()))
}

/// A directory whose packed entries do not parse.
fn corrupt(detail: String) -> FsError {
    FsError::Layout(LayoutError::Corrupt(detail))
}

/// A directory block that came back without bytes.
fn dir_data_unavailable() -> FsError {
    corrupt("directory data unavailable".into())
}
