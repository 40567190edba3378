//! Durability: getting dirty blocks from the cache to the layout (the
//! flush batches the policies ask for, under the file's range stripe
//! and the core lock), and what a crash harness needs around a power
//! cut — the NVRAM snapshot and the layout's staging buffer.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use cnp_cache::BlockKey;
use cnp_disk::{Block, IoError, Payload};
use cnp_layout::{BlockAddr, Ino, LayoutError, StorageLayout, BLOCK_SIZE};
use cnp_obs::trace::SpanToken;
use cnp_sim::sync::EventWait;
use cnp_sim::Handle;

use super::FileSystem;

/// What a battery-backed (NVRAM) cache preserves across a crash: the
/// dirty blocks and the in-memory sizes of the files owning them.
///
/// Empty unless the cache was configured with an NVRAM bound — volatile
/// dirty data does not survive a power cut.
#[derive(Debug, Clone, Default)]
pub struct NvramSnapshot {
    /// Surviving dirty blocks: `(ino, file block index, bytes)`; bytes
    /// are `None` in simulated-payload mode, else the cache frame's
    /// block, shared.
    pub blocks: Vec<(u64, u64, Option<Block>)>,
    /// Exact file sizes at capture for every file in `blocks`.
    pub sizes: Vec<(u64, u64)>,
}

impl NvramSnapshot {
    /// True if nothing survived (no NVRAM, or nothing was dirty).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// A stalled request's wait for the flush daemon's next finished batch
/// ([`FileSystem::request_flush`]); it closes the `flush:wait` span
/// when it ends.
pub(super) struct FlushWait {
    handle: Handle,
    wait: EventWait,
    span: SpanToken,
}

impl Future for FlushWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let done = Pin::new(&mut this.wait).poll(cx);
        if done.is_ready() {
            this.handle.trace_exit(this.span);
        }
        done
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
    /// size so the power-on can write acknowledged writes back.
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

    /// A stalled writer's or reservation's flush: hands `keys` (if any)
    /// to the flush daemon and returns the wait for the daemon's next
    /// finished batch, its `flush:wait` span open until the wait ends.
    /// The requester never does the I/O itself (the §5.2 lesson).
    pub(super) fn request_flush(&self, keys: Vec<BlockKey>) -> FlushWait {
        let span = self.s.handle.trace_span("flush:wait");
        let wait = self.s.flush_done.wait();
        self.enqueue_flush(keys);
        FlushWait { handle: self.s.handle.clone(), wait, span }
    }

    /// A reservation's wait when the policy picked nothing, because no
    /// frame is dirty: every frame is reserved or flushing, and no flush
    /// may be coming. Ends when a frame may be back ([`Self::frame_back`],
    /// or a finished batch); its `flush:wait` span is open until then.
    pub(super) fn await_frame(&self) -> FlushWait {
        let span = self.s.handle.trace_span("flush:wait");
        FlushWait { handle: self.s.handle.clone(), wait: self.s.frame_back.wait(), span }
    }

    /// A reserved frame was committed or released: a reservation waiting
    /// for one may look again.
    pub(super) fn frame_back(&self) {
        self.s.frame_back.signal();
    }

    /// A flush batch finished: wakes the requests stalled on it, and any
    /// reservation waiting for a frame.
    pub(super) fn flushed(&self) {
        self.s.flush_done.signal();
        self.s.frame_back.signal();
    }

    /// Hands a flush batch to the flush daemon (dropped after shutdown),
    /// which hands the list back to the cache once it is written; an
    /// empty batch goes back at once.
    pub(super) fn enqueue_flush(&self, keys: Vec<BlockKey>) {
        if keys.is_empty() {
            self.s.cache.borrow_mut().recycle(keys);
        } else if let Some(tx) = self.s.flush_tx.borrow().as_ref() {
            let _ = tx.try_send(keys);
        }
    }

    /// Writes the given dirty blocks out through the layout, then hands
    /// the key list back to the cache.
    pub(super) async fn do_flush(&self, mut keys: Vec<BlockKey>) {
        let sp = if cnp_obs::trace::enabled() {
            let sp = self.s.handle.trace_span("flush:batch");
            cnp_obs::trace::span_field(sp, "blocks", cnp_obs::trace::Field::U64(keys.len() as u64));
            sp
        } else {
            cnp_obs::trace::SpanToken::NONE
        };
        // Group by file in file order (a deterministic flush sequence);
        // the stable sort keeps each file's blocks in the batch's order.
        keys.sort_by_key(|k| k.file);
        self.s.stats.borrow_mut().flush_batches += 1;
        let mut blocks = self.s.flush_blocks.borrow_mut().pop().unwrap_or_default();
        for keys in keys.chunk_by(|a, b| a.file == b.file) {
            let started = self.s.cache.borrow_mut().begin_flush(keys);
            if !started.is_empty() {
                self.write_back(Ino(keys[0].file.0), &started, &mut blocks).await;
            }
            self.s.cache.borrow_mut().recycle(started);
        }
        self.s.flush_blocks.borrow_mut().push(blocks);
        self.s.cache.borrow_mut().recycle(keys);
        self.s.handle.trace_exit(sp);
    }

    /// Writes the blocks of file `ino` a flush `started` through the
    /// layout, their payloads gathered in `blocks` (empty, and left
    /// empty), and completes or fails their flushes in the cache.
    async fn write_back(&self, ino: Ino, started: &[BlockKey], blocks: &mut Vec<(u64, Payload)>) {
        // Snapshot payloads: the frames' blocks, shared.
        {
            let cache = self.s.cache.borrow();
            blocks.extend(started.iter().filter_map(|k| {
                cache.peek(*k).map(|frame| {
                    let payload = match cache.data(frame) {
                        Some(block) => block.clone().into(),
                        None => Payload::Simulated(BLOCK_SIZE),
                    };
                    (k.block, payload)
                })
            }));
        }
        let rc = match self.inode_record(ino).await {
            Ok(rc) => rc,
            Err(_) => {
                // File deleted while the flush was queued: nothing to
                // persist, just release the cache state.
                blocks.clear();
                let now = self.s.handle.now();
                let mut cache = self.s.cache.borrow_mut();
                for k in started {
                    cache.end_flush(*k, now);
                }
                return;
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
            let r = g.get_mut().write_file_blocks_from(&mut copy, blocks).await;
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
                let dead = matches!(e, LayoutError::Io(IoError::PowerCut | IoError::DeviceGone));
                let retries = if dead { 0 } else { FLUSH_RETRIES };
                started.iter().for_each(|k| cache.fail_flush(*k, now, retries));
                st.flush_errors += 1;
            }
        }
    }

    /// The layout's staging buffer as the device writes that would seal
    /// it ([`cnp_layout::StorageLayout::staged_image`]), if a power cut
    /// keeps it: what a crash capture applies to the platter image. The
    /// staging buffer (the LFS in-memory segment and the seals queued
    /// behind it) lives in the same memory as the cache, so it survives
    /// only under NVRAM; without it this is empty and takes no lock.
    /// This and [`FileSystem::try_staging_image`] are the one place
    /// that decides "staging is battery-backed".
    pub async fn staging_image(&self) -> Vec<(BlockAddr, Payload)> {
        if self.s.cfg.cache.nvram_bytes.is_none() {
            return Vec::new();
        }
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
        if self.s.cfg.cache.nvram_bytes.is_none() {
            return Some(Vec::new());
        }
        self.s.layout.try_lock().map(|g| g.get().staged_image())
    }
}
