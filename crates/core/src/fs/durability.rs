//! Durability: getting dirty blocks from the cache to the layout (the
//! flush batches the policies ask for, under the file's range stripe
//! and the core lock), and what a crash harness needs around a power
//! cut — the NVRAM snapshot and its replay, the layout's staging buffer.

use cnp_cache::BlockKey;
use cnp_disk::{IoError, Payload};
use cnp_layout::{BlockAddr, Ino, LayoutError, StorageLayout, BLOCK_SIZE};

use super::FileSystem;
use crate::error::FsResult;

/// What a battery-backed (NVRAM) cache preserves across a crash: the
/// dirty blocks and the in-memory sizes of the files owning them.
///
/// Empty unless the cache was configured with an NVRAM bound — volatile
/// dirty data does not survive a power cut.
#[derive(Debug, Clone, Default)]
pub struct NvramSnapshot {
    /// Surviving dirty blocks: `(ino, file block index, bytes)`; bytes
    /// are `None` in simulated-payload mode.
    pub blocks: Vec<(u64, u64, Option<Vec<u8>>)>,
    /// Exact file sizes at capture for every file in `blocks`.
    pub sizes: Vec<(u64, u64)>,
}

impl NvramSnapshot {
    /// True if nothing survived (no NVRAM, or nothing was dirty).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Consecutive failed flushes of a block before it is given up.
pub(super) const FLUSH_RETRIES: u8 = 3;

impl FileSystem {
    /// Captures what survives a power cut in battery-backed cache RAM.
    ///
    /// Returns an empty snapshot unless the cache has an NVRAM bound:
    /// with volatile RAM, dirty data simply dies with the machine. The
    /// snapshot pairs each dirty block with its owner's exact in-memory
    /// size so a recovery harness can replay acknowledged writes.
    pub fn nvram_snapshot(&self) -> NvramSnapshot {
        if self.s.cfg.cache.nvram_bytes.is_none() {
            return NvramSnapshot::default();
        }
        let dirty = self.s.cache.borrow().dirty_snapshot();
        let mut blocks = Vec::with_capacity(dirty.len());
        let mut files: Vec<u64> = Vec::new();
        for (key, data) in dirty {
            if !files.contains(&key.file.0) {
                files.push(key.file.0);
            }
            blocks.push((key.file.0, key.block, data));
        }
        files.sort_unstable();
        let sizes = files
            .into_iter()
            .filter_map(|ino| {
                self.s.inodes.borrow().get(&Ino(ino)).map(|rc| (ino, rc.inode.borrow().size))
            })
            .collect();
        NvramSnapshot { blocks, sizes }
    }

    /// Crash-recovery helper: re-establishes one cached block exactly
    /// as an NVRAM snapshot preserved it — real bytes when the snapshot
    /// has them (metadata is always real, even off-line), length-only
    /// otherwise — and dirties it so the next flush persists it.
    ///
    /// NVRAM replay must NOT route through [`FileSystem::write`]: in
    /// [`crate::DataMode::Simulated`] the write path deliberately drops
    /// payload bytes, which would replace a battery-backed *directory*
    /// block with a simulated payload and destroy the namespace the
    /// snapshot was meant to restore.
    pub async fn restore_block(&self, ino: Ino, blk: u64, data: Option<Vec<u8>>) -> FsResult<()> {
        // Surface a dead identity as BadInode (the caller skips those).
        let _ = self.inode_record(ino).await?;
        self.write_block_cached(cnp_cache::UNATTRIBUTED, ino, blk, data).await
    }

    /// Restores a file's logical size (crash-recovery helper: NVRAM
    /// snapshots carry exact sizes that may exceed what block-granular
    /// replay re-establishes). Never shrinks the file.
    pub async fn restore_size(&self, ino: Ino, size: u64) -> FsResult<()> {
        let rc = self.inode_record(ino).await?;
        {
            let mut inode = rc.inode.borrow_mut();
            if size <= inode.size {
                return Ok(());
            }
            inode.size = size;
        }
        let copy = rc.inode.borrow().clone();
        let _rg = self.s.layout_ranges.lock(ino.0).await;
        let g = self.s.layout.lock().await;
        g.get_mut().put_inode(&copy).await?;
        Ok(())
    }

    /// A stalled writer's or reservation's flush: hands `keys` (if any)
    /// to the flush daemon and waits for the daemon's next finished
    /// batch. The requester never does the I/O itself (the §5.2 lesson).
    pub(super) async fn request_flush_and_wait(&self, keys: Vec<BlockKey>) {
        let sp = self.s.handle.trace_span("flush:wait");
        let wait = self.s.flush_done.wait();
        if !keys.is_empty() {
            self.enqueue_flush(keys);
        }
        wait.await;
        self.s.handle.trace_exit(sp);
    }

    /// Hands a flush batch to the flush daemon (dropped after shutdown).
    pub(super) fn enqueue_flush(&self, keys: Vec<BlockKey>) {
        if let Some(tx) = self.s.flush_tx.borrow().as_ref() {
            let _ = tx.try_send(keys);
        }
    }

    /// Writes the given dirty blocks out through the layout.
    pub(super) async fn do_flush(&self, keys: Vec<BlockKey>) {
        let sp = if cnp_obs::trace::enabled() {
            let sp = self.s.handle.trace_span("flush:batch");
            cnp_obs::trace::span_field(sp, "blocks", cnp_obs::trace::Field::U64(keys.len() as u64));
            sp
        } else {
            cnp_obs::trace::SpanToken::NONE
        };
        self.do_flush_inner(keys).await;
        self.s.handle.trace_exit(sp);
    }

    async fn do_flush_inner(&self, mut keys: Vec<BlockKey>) {
        // Group by file in file order (a deterministic flush sequence);
        // the stable sort keeps each file's blocks in the batch's order.
        keys.sort_by_key(|k| k.file);
        self.s.stats.borrow_mut().flush_batches += 1;
        for keys in keys.chunk_by(|a, b| a.file == b.file) {
            let ino = Ino(keys[0].file.0);
            let started = self.s.cache.borrow_mut().begin_flush(keys);
            if started.is_empty() {
                continue;
            }
            // Snapshot payloads.
            let blocks: Vec<(u64, Payload)> = {
                let cache = self.s.cache.borrow();
                started
                    .iter()
                    .filter_map(|k| {
                        cache.peek(*k).map(|frame| {
                            let payload = match cache.data(frame) {
                                Some(d) => Payload::Data(d.to_vec()),
                                None => Payload::Simulated(BLOCK_SIZE),
                            };
                            (k.block, payload)
                        })
                    })
                    .collect()
            };
            let rc = match self.inode_record(ino).await {
                Ok(rc) => rc,
                Err(_) => {
                    // File deleted while the flush was queued: nothing to
                    // persist, just release the cache state.
                    let now = self.s.handle.now();
                    let mut cache = self.s.cache.borrow_mut();
                    for k in &started {
                        cache.end_flush(*k, now);
                    }
                    continue;
                }
            };
            let result = {
                // The file's extent-range stripe serializes this
                // write-back against truncate/free of the same file;
                // the core lock below covers the single layout call
                // (which may run the cleaner — the global residue).
                let _rg = self.lock_range(ino).await;
                let g = self.lock_core().await;
                let mut copy = rc.inode.borrow().clone();
                let r = g.get_mut().write_file_blocks(&mut copy, blocks).await;
                if r.is_ok() {
                    let mut inode = rc.inode.borrow_mut();
                    inode.direct = copy.direct;
                    inode.indirect = copy.indirect;
                }
                // The write may have run the cleaner, relocating other
                // files' blocks; refresh their cached pointers before
                // anything reads through the stale ones.
                let relocated = g.get_mut().take_relocated();
                for rino in relocated {
                    let cached = self.s.inodes.borrow().get(&rino).cloned();
                    if let Some(rc2) = cached {
                        if let Ok(fresh) = g.get_mut().get_inode(rino).await {
                            let mut inode = rc2.inode.borrow_mut();
                            inode.direct = fresh.direct;
                            inode.indirect = fresh.indirect;
                        }
                    }
                }
                r
            };
            let now = self.s.handle.now();
            let mut cache = self.s.cache.borrow_mut();
            let mut st = self.s.stats.borrow_mut();
            match result {
                Ok(()) => {
                    started.iter().for_each(|k| cache.end_flush(*k, now));
                    st.blocks_flushed += started.len() as u64;
                }
                Err(e) => {
                    // An acknowledged dirty block must not vanish on a
                    // recoverable error: the cache re-dirties it until
                    // its FLUSH_RETRIES-th consecutive failure (bounded,
                    // so a permanently failing block cannot livelock the
                    // demand-flush loop). A dead disk is final. Retry
                    // accounting is per batch: a healthy block co-batched
                    // with a permanently bad one shares its fate (LFS
                    // converges anyway — each retry appends to a new
                    // location).
                    let dead =
                        matches!(e, LayoutError::Io(IoError::PowerCut | IoError::DeviceGone));
                    let retries = if dead { 0 } else { FLUSH_RETRIES };
                    started.iter().for_each(|k| cache.fail_flush(*k, now, retries));
                    st.flush_errors += 1;
                }
            }
        }
    }

    /// Exports the layout's staging buffer as the device writes that
    /// would seal it ([`cnp_layout::StorageLayout::staged_image`]) —
    /// the dead-disk crash-capture hook: when a power cut killed the
    /// disk first, [`FileSystem::seal_nvram_staging`] cannot write, so
    /// the battery-backed staging content is applied to the captured
    /// image directly.
    pub async fn staging_image(&self) -> Vec<(BlockAddr, Payload)> {
        let g = self.s.layout.lock().await;
        let staged = g.get().staged_image();
        staged
    }

    /// Non-blocking [`FileSystem::staging_image`]: `None` while the
    /// layout lock is held. A crash-instant probe must not wait for an
    /// in-flight (doomed) operation to release the lock — by then the
    /// staging buffer no longer reflects what the battery preserved at
    /// the cut.
    pub fn try_staging_image(&self) -> Option<Vec<(BlockAddr, Payload)>> {
        self.s.layout.try_lock().map(|g| g.get().staged_image())
    }

    /// Crash-capture hook for NVRAM configurations: the layout's staging
    /// buffer (the LFS in-memory segment) is modelled as residing in the
    /// same battery-backed memory as the dirty cache, so a power cut
    /// preserves it. Sealing it to the media here is equivalent to
    /// replaying that buffer at power-on, just performed before the
    /// platter snapshot. No-op without NVRAM — volatile staging dies
    /// with the machine.
    pub async fn seal_nvram_staging(&self) -> FsResult<()> {
        if self.s.cfg.cache.nvram_bytes.is_none() {
            return Ok(());
        }
        let g = self.s.layout.lock().await;
        g.get_mut().flush_staged().await?;
        Ok(())
    }
}
