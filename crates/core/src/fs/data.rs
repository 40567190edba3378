//! The data path: read, write and truncate, and the one way a block
//! moves between a file and the cache. Every read, at any length and
//! queue depth, is a run of windows ([`FileSystem::load_window`]); every
//! write a bounded fan-out of whole-block cache commits
//! ([`BlockCommit`]), held inline in a window list the engine reuses.
//! The layout is reached under the core lock only, one call at a time.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::task::{ready, Context, Poll};

use cnp_cache::{BlockKey, BlockState, DirtyOutcome, FileId, Reserve};
use cnp_disk::{Block, Payload};
use cnp_layout::{BlockAddr, Ino, StorageLayout, BLOCK_SIZE, MAX_FILE_BLOCKS};
use cnp_sim::{Event, SimDuration, Sleep};

use super::durability::FlushWait;
use super::names::{self, Mutant};
use super::FileSystem;
use crate::config::DataMode;
use crate::error::{FsError, FsResult};

/// A block this task is loading on a miss.
struct Miss {
    blk: u64,
    /// The cache frame reserved for it.
    frame: u32,
    /// Where other tasks missing the same block wait for this load.
    ev: Event,
    /// Its device address once mapped; `None` for a hole.
    addr: Option<BlockAddr>,
    /// Committed: nothing left to release.
    done: bool,
}

/// The lists one read call works through, window by window.
#[derive(Default)]
pub(super) struct ReadScratch {
    /// This window's blocks that this task loads.
    misses: Vec<Miss>,
    /// This window's blocks that another task is loading.
    theirs: Vec<u64>,
    /// The device runs covering `misses`, and what came back for each.
    runs: Vec<(BlockAddr, u32)>,
    payloads: Vec<Payload>,
    /// In-flight events no clone or wait holds any more, for the next
    /// misses. Measured win: `trace-1a` 0.729 -> 0.351 a trace op, the
    /// other workloads unmoved (removed alone, `cnp-benchmark --seed 42
    /// --seconds 1`).
    spare_events: Vec<Event>,
}

/// Simulated cost of copying one cache block ("the simulator delays
/// the current thread for the amount of time it would take to copy
/// the data", §2).
const COPY_COST: SimDuration = SimDuration::from_micros(80);

/// Resident-block cap for multimedia files (their derived cache
/// policy keeps them from flooding the cache, §2).
const MM_RESIDENT_CAP: usize = 64;

impl FileSystem {
    /// Reads `len` bytes at `offset`; returns the bytes read (real mode)
    /// or the byte count only (simulated mode).
    pub async fn read(&self, ino: Ino, offset: u64, len: u64) -> FsResult<(u64, Option<Vec<u8>>)> {
        self.op_begin().await;
        {
            let mut st = self.s.stats.borrow_mut();
            st.reads += 1;
        }
        let rc = self.inode_record(ino).await?;
        let size = rc.inode.borrow().size;
        if offset >= size {
            return Ok((0, self.empty_data()));
        }
        let end = offset.saturating_add(len).min(size);
        if end == offset {
            return Ok((0, self.empty_data()));
        }
        let bs = BLOCK_SIZE as u64;
        let mut out: Option<Vec<u8>> = match self.s.cfg.data_mode {
            DataMode::Real => Some(vec![0u8; (end - offset) as usize]),
            DataMode::Simulated => None,
        };
        let first = offset / bs;
        let last = (end - 1) / bs;
        let place = |blk: u64, data: Option<&Block>, _stamp: u64| {
            if let (Some(out), Some(data)) = (out.as_mut(), data) {
                // The part of the block inside `[offset, end)`.
                let (lo, hi) = (offset.max(blk * bs), end.min((blk + 1) * bs));
                out[(lo - offset) as usize..(hi - offset) as usize]
                    .copy_from_slice(&data[(lo - blk * bs) as usize..(hi - blk * bs) as usize]);
            }
        };
        self.read_blocks(ino, first, last + 1 - first, place).await?;
        self.s.stats.borrow_mut().bytes_read += end - offset;
        Ok((end - offset, out))
    }

    /// Writes `len` bytes at `offset` (data may be `None` off-line).
    pub async fn write(
        &self,
        ino: Ino,
        offset: u64,
        len: u64,
        data: Option<&[u8]>,
    ) -> FsResult<u64> {
        self.write_for(cnp_cache::UNATTRIBUTED, ino, offset, len, data).await
    }

    /// [`FileSystem::write`] attributed to a client: the dirty blocks
    /// this write leaves behind are charged to `client` in the cache's
    /// flush accounting ([`FileSystem::flushes_by_client`]). The
    /// multi-client handle ([`FileSystem::client`]) routes here.
    pub async fn write_for(
        &self,
        client: u32,
        ino: Ino,
        offset: u64,
        len: u64,
        data: Option<&[u8]>,
    ) -> FsResult<u64> {
        self.op_begin().await;
        {
            let mut st = self.s.stats.borrow_mut();
            st.writes += 1;
        }
        let bs = BLOCK_SIZE as u64;
        let end = offset.checked_add(len).ok_or(FsError::TooBig)?;
        if end.div_ceil(bs) > MAX_FILE_BLOCKS {
            return Err(FsError::TooBig);
        }
        let rc = self.inode_record(ino).await?;
        let old_size = rc.inode.borrow().size;
        // Extend the size *before* dirtying any block: a cache under
        // NVRAM pressure (its own, or another client's on the shared
        // engine) may flush this file's blocks mid-write, and the
        // flushed inode must already cover them — otherwise the write
        // acks with its data durable but unreachable behind a stale
        // size, and a later crash loses it (caught by the multi-client
        // crash test). `plant_stale_size_bug` reintroduces the broken
        // ordering so the crash-point enumerator can prove it catches
        // this bug class.
        if len > 0 && end > old_size && !self.s.cfg.plant_stale_size_bug {
            rc.inode.borrow_mut().size = end;
        }
        let gen0 = rc.generation.get();
        // Per-block cache commits (and any read-modify loads for partial
        // blocks) proceed with up to queue_depth in flight, in a window
        // list taken from the pool; the first failure stops new blocks
        // from starting. The file's index list makes room for the blocks
        // the write adds first, so it regrows at most once.
        let first = offset / bs;
        let blocks = first..if len == 0 { first } else { end.div_ceil(bs) };
        self.s.cache.borrow_mut().reserve_file(FileId(ino.0), blocks.clone());
        let failed: RefCell<Option<FsError>> = RefCell::new(None);
        let work = blocks
            .take_while(|_| failed.borrow().is_none())
            .map(|blk| self.write_one_block(client, ino, blk, offset, end, old_size, data));
        let note = |r: FsResult<()>| {
            if let Err(e) = r {
                failed.borrow_mut().get_or_insert(e);
            }
        };
        let mut window = self.s.windows.borrow_mut().pop().unwrap_or_default();
        cnp_sim::for_each_limit(self.queue_depth() as usize, work, &mut window, note).await;
        self.s.windows.borrow_mut().push(window);
        if let Some(e) = failed.into_inner() {
            // Roll the speculative extension back so a *failed* write
            // does not leave a phantom size — but only if no other
            // size-relevant op completed meanwhile: a concurrent client
            // acking a write to the same `end` must keep its coverage.
            let untouched = rc.generation.get() == gen0;
            let mut inode = rc.inode.borrow_mut();
            if end > old_size && inode.size == end && untouched {
                inode.size = old_size;
            }
            return Err(e);
        }
        {
            let mut inode = rc.inode.borrow_mut();
            if end > inode.size {
                inode.size = end;
            }
            inode.mtime = self.s.handle.now().as_nanos();
        }
        rc.generation.set(rc.generation.get() + 1);
        self.s.stats.borrow_mut().bytes_written += len;
        Ok(len)
    }

    /// Truncates a file to `new_size` bytes.
    pub async fn truncate(&self, ino: Ino, new_size: u64) -> FsResult<()> {
        self.op_begin().await;
        let new_blocks = new_size.div_ceil(BLOCK_SIZE as u64);
        if new_blocks > MAX_FILE_BLOCKS {
            return Err(FsError::TooBig);
        }
        let rc = self.inode_record(ino).await?;
        let old_blocks = rc.inode.borrow().blocks();
        // Dirty blocks beyond the new size die in cache: write absorption.
        for blk in new_blocks..old_blocks {
            self.s.cache.borrow_mut().remove_block(BlockKey::new(FileId(ino.0), blk));
        }
        {
            let _rg = self.lock_range(ino).await;
            let g = self.lock_core().await;
            let mut copy = rc.inode.borrow().clone();
            g.get_mut().truncate(&mut copy, new_blocks).await?;
            let mut inode = rc.inode.borrow_mut();
            inode.direct = copy.direct;
            inode.indirect = copy.indirect;
            inode.size = new_size;
        }
        rc.generation.set(rc.generation.get() + 1);
        Ok(())
    }

    fn empty_data(&self) -> Option<Vec<u8>> {
        match self.s.cfg.data_mode {
            DataMode::Real => Some(Vec::new()),
            DataMode::Simulated => None,
        }
    }

    /// One block of a client write: its new content, computed here for
    /// a whole block or one past the old end of file, and pushed through
    /// the cache. A real-mode partial overwrite of existing data keeps
    /// its part of `data` and reads the old block first (read-modify).
    #[allow(clippy::too_many_arguments)]
    fn write_one_block(
        &self,
        owner: u32,
        ino: Ino,
        blk: u64,
        offset: u64,
        end: u64,
        old_size: u64,
        data: Option<&[u8]>,
    ) -> BlockCommit {
        let bs = BLOCK_SIZE as u64;
        let lo = if blk * bs >= offset { 0 } else { (offset % bs) as usize };
        let hi = ((end - blk * bs).min(bs)) as usize;
        let DataMode::Real = self.s.cfg.data_mode else {
            return self.write_block_cached(owner, ino, blk, None);
        };
        // The part of `data` that lands in this block, at `lo`.
        let src = data.and_then(|src| src.get((blk * bs + lo as u64 - offset) as usize..));
        let src = src.map_or(&[][..], |src| &src[..src.len().min(hi - lo)]);
        if (lo == 0 && hi == bs as usize) || blk * bs >= old_size {
            let block = Block::placed(lo, src, bs as usize);
            return self.write_block_cached(owner, ino, blk, Some(block));
        }
        let fs = self.clone();
        let read = Box::pin(async move { fs.read_block_cached(ino, blk).await });
        let mut commit = self.write_block_cached(owner, ino, blk, None).landed();
        commit.stage = Stage::ReadModify { read, at: lo, part: src.to_vec() };
        commit
    }

    /// Reads blocks `[first, first + n)` through the cache, a window of
    /// `queue_depth` blocks at a time, and hands each block's bytes to
    /// `sink` (see [`FileSystem::load_window`]; not in block order). The
    /// window size also bounds the cache frames one read holds reserved.
    async fn read_blocks(
        &self,
        ino: Ino,
        first: u64,
        n: u64,
        mut sink: impl FnMut(u64, Option<&Block>, u64),
    ) -> FsResult<()> {
        let window = self.queue_depth() as u64;
        let mut sc = self.take_scratch();
        let mut start = first;
        while start < first + n {
            let len = window.min(first + n - start);
            self.load_window(ino, start, len, &mut sc, &mut sink).await?;
            // Blocks another task was loading: read through the
            // single-block path (the wait-and-retry loop — and its copy
            // charge — live there).
            let waited = sc.theirs.len() as u64;
            for blk in sc.theirs.drain(..) {
                self.read_block_with(ino, blk, |data, stamp| sink(blk, data, stamp)).await?;
            }
            // Copy cost is CPU work: charge it per delivered block,
            // serially.
            for _ in 0..len - waited {
                self.copy_delay().await;
            }
            start += len;
        }
        self.put_scratch(sc);
        Ok(())
    }

    /// Reads one block through the cache; returns the frame's block,
    /// shared, when it has bytes (always for metadata, never for
    /// off-line user data).
    pub(super) async fn read_block_cached(&self, ino: Ino, blk: u64) -> FsResult<Option<Block>> {
        self.read_block_with(ino, blk, |data, _| data.cloned()).await
    }

    /// Reads one block through the cache — a window of one — and hands
    /// its bytes to `f` where they sit in the cache frame, with the
    /// frame's content stamp ([`cnp_cache::BlockCache::content_stamp`]:
    /// a stamp seen before means bytes seen before). `f` runs with the
    /// cache borrowed and must not reach for it.
    pub(super) async fn read_block_with<T>(
        &self,
        ino: Ino,
        blk: u64,
        f: impl FnOnce(Option<&Block>, u64) -> T,
    ) -> FsResult<T> {
        let key = BlockKey::new(FileId(ino.0), blk);
        let mut f = Some(f);
        let mut out = None;
        let mut sc = self.take_scratch();
        loop {
            let mut sink = |_, data: Option<&Block>, stamp| out = f.take().map(|f| f(data, stamp));
            self.load_window(ino, blk, 1, &mut sc, &mut sink).await?;
            if sc.theirs.pop().is_none() {
                break;
            }
            // Dedup concurrent loads of the same block: wait for the
            // other task's, then look again.
            let waiter = self.s.inflight.borrow().get(&key).cloned();
            if let Some(ev) = waiter {
                ev.wait().await;
            }
        }
        self.put_scratch(sc);
        self.copy_delay().await;
        Ok(out.expect("a window of one block delivers it or lists it as another task's"))
    }

    fn take_scratch(&self) -> ReadScratch {
        self.s.scratch.borrow_mut().pop().unwrap_or_default()
    }

    fn put_scratch(&self, sc: ReadScratch) {
        self.s.scratch.borrow_mut().push(sc);
    }

    /// One window of the read path, and the engine's only way from a
    /// missing block to a resident one. Classifies each block of
    /// `[start, start + len)`: a cache hit goes to `sink` at once, where
    /// it sits in its frame, with the frame's content stamp (`sink` runs
    /// with the cache borrowed and must not reach for it); a block
    /// another task is loading is listed in `sc.theirs` for the caller
    /// to wait on; the rest are this task's misses, each marked in
    /// flight and given a reserved frame, then loaded together
    /// ([`FileSystem::load_misses`]) and handed to `sink` as they
    /// commit. The caller charges the copy cost.
    async fn load_window(
        &self,
        ino: Ino,
        start: u64,
        len: u64,
        sc: &mut ReadScratch,
        sink: &mut impl FnMut(u64, Option<&Block>, u64),
    ) -> FsResult<()> {
        let mut load = cnp_obs::trace::SpanToken::NONE;
        for blk in start..start + len {
            let key = BlockKey::new(FileId(ino.0), blk);
            {
                let mut cache = self.s.cache.borrow_mut();
                if let Some(frame) = cache.lookup(key, self.s.handle.now()) {
                    sink(blk, cache.data(frame), cache.content_stamp(frame));
                    drop(cache);
                    self.s.handle.trace_instant("cache:hit");
                    continue;
                }
            }
            if self.s.inflight.borrow().contains_key(&key) {
                sc.theirs.push(blk);
                continue;
            }
            self.s.handle.trace_instant("cache:miss");
            let ev = sc.spare_events.pop().unwrap_or_else(|| Event::new(&self.s.handle));
            self.s.inflight.borrow_mut().insert(key, ev.clone());
            if sc.misses.is_empty() {
                load = self.s.handle.trace_span("cache:load");
            }
            let held = !sc.misses.is_empty();
            let frame = match self.reserve_frame(held).await {
                Some(frame) => frame,
                None => {
                    // Every frame is reserved or flushing, some by this
                    // window: load its misses so far, or it waits on
                    // itself; then wait for a frame like anyone else.
                    if let Err(e) = self.load_held(ino, sc, sink).await {
                        self.s.inflight.borrow_mut().remove(&key);
                        ev.signal();
                        self.s.handle.trace_exit(load);
                        return Err(e);
                    }
                    self.reserve_frame(false).await.expect("a reservation holding nothing waits")
                }
            };
            sc.misses.push(Miss { blk, frame, ev, addr: None, done: false });
        }
        if sc.misses.is_empty() {
            return Ok(());
        }
        let loaded = self.load_held(ino, sc, sink).await;
        self.s.handle.trace_exit(load);
        loaded
    }

    /// Loads this window's misses so far ([`FileSystem::load_misses`]),
    /// then empties the window's lists for the rest of it.
    async fn load_held(
        &self,
        ino: Ino,
        sc: &mut ReadScratch,
        sink: &mut impl FnMut(u64, Option<&Block>, u64),
    ) -> FsResult<()> {
        let loaded = self.load_misses(ino, sc, sink).await;
        for m in sc.misses.drain(..) {
            if !m.done {
                // An error left it unloaded: hand its frame back, un-mark
                // it and let its waiters retry.
                self.s.cache.borrow_mut().release_reserved(m.frame);
                self.frame_back();
                self.s.inflight.borrow_mut().remove(&BlockKey::new(FileId(ino.0), m.blk));
                m.ev.signal();
            }
            // Its waiters, woken, may not have run yet: then the event
            // is theirs to drop.
            if m.ev.is_unique() {
                sc.spare_events.push(m.ev);
            }
        }
        sc.runs.clear();
        sc.payloads.clear();
        loaded
    }

    /// Loads `sc.misses`: map them with one acquisition of the layout
    /// lock, serve what the layout still has staged from its buffer,
    /// commit holes as they are, and scatter-gather the rest from the
    /// device as physical runs, outside the lock, so independent reads
    /// queue up at the disk concurrently.
    async fn load_misses(
        &self,
        ino: Ino,
        sc: &mut ReadScratch,
        sink: &mut impl FnMut(u64, Option<&Block>, u64),
    ) -> FsResult<()> {
        let ReadScratch { misses, runs, payloads, .. } = sc;
        let inode = self.inode_record(ino).await?.inode.borrow().clone();
        {
            let g = self.lock_core().await;
            for m in misses.iter_mut() {
                m.addr = g.get_mut().map_block(&inode, m.blk).await?;
            }
            // Staged blocks (LFS unflushed segment) are served from the
            // layout's buffer, never the device: the frame shares the
            // staged block.
            for m in misses.iter_mut() {
                if let Some(payload) = m.addr.and_then(|a| g.get().staged_block(a)) {
                    self.commit_loaded(ino, m, payload.block(0).cloned(), sink);
                }
            }
        }
        // Blocks consecutive in the file and on the device share a run.
        let mut prev: Option<(u64, BlockAddr)> = None;
        for m in misses.iter_mut().filter(|m| !m.done) {
            let Some(addr) = m.addr else {
                // A hole reads as zeroes on-line, nothing off-line.
                let data = match self.s.cfg.data_mode {
                    DataMode::Real => Some(Block::zeroed()),
                    DataMode::Simulated => None,
                };
                self.commit_loaded(ino, m, data, sink);
                continue;
            };
            match (prev, runs.last_mut()) {
                (Some((blk, at)), Some(run)) if blk + 1 == m.blk && at.0 + 1 == addr.0 => {
                    run.1 += 1;
                }
                _ => runs.push((addr, 1)),
            }
            prev = Some((m.blk, addr));
        }
        if runs.is_empty() {
            return Ok(());
        }
        self.s.io.read_runs(runs, payloads).await?;
        let mut pending = misses.iter_mut().filter(|m| !m.done);
        for (&(_, n), payload) in runs.iter().zip(payloads.iter()) {
            for off in 0..n as usize {
                let m = pending.next().expect("a run block is a pending miss");
                let data = match payload.blocks() {
                    Some(_) => Some(cnp_layout::BlockIo::block_of(payload, off)?),
                    None => None,
                };
                self.commit_loaded(ino, m, data, sink);
            }
        }
        Ok(())
    }

    /// Commits a loaded block into the frame reserved for it, hands its
    /// bytes to `sink`, un-marks it and wakes its waiters. Loads dedup
    /// against each other through `inflight`, but a whole-block writer
    /// never consults it: if one made the block resident while this load
    /// was awaiting its frame, the layout lock or the disk, the spare
    /// frame goes back and the resident (newer) bytes are the block's.
    fn commit_loaded(
        &self,
        ino: Ino,
        m: &mut Miss,
        data: Option<Block>,
        sink: &mut impl FnMut(u64, Option<&Block>, u64),
    ) {
        let key = BlockKey::new(FileId(ino.0), m.blk);
        {
            let mut cache = self.s.cache.borrow_mut();
            let frame = match cache.peek(key) {
                None => {
                    cache.commit(m.frame, key, data, self.s.handle.now());
                    m.frame
                }
                Some(resident) => {
                    cache.release_reserved(m.frame);
                    resident
                }
            };
            sink(m.blk, cache.data(frame), cache.content_stamp(frame));
        }
        self.frame_back();
        m.done = true;
        self.s.inflight.borrow_mut().remove(&key);
        m.ev.signal();
    }

    /// Writes one whole block through the cache (dirtying it); the dirty
    /// block is attributed to `owner` for flush accounting. The block
    /// moves into the frame; a write that finds NVRAM full keeps a share
    /// of it before it parks, to apply the same bytes again.
    pub(super) fn write_block_cached(
        &self,
        owner: u32,
        ino: Ino,
        blk: u64,
        data: Option<Block>,
    ) -> BlockCommit {
        BlockCommit {
            fs: self.clone(),
            key: BlockKey::new(FileId(ino.0), blk),
            owner,
            real: data.is_some(),
            data,
            stage: Stage::Place,
        }
    }

    fn copy_delay(&self) -> Sleep {
        self.s.handle.sleep(COPY_COST)
    }

    /// Obtains a free cache frame, flushing per policy when none exists;
    /// see [`FrameReservation`] for `held`.
    fn reserve_frame(&self, held: bool) -> FrameReservation {
        FrameReservation { fs: self.clone(), stall: None, held }
    }

    pub(super) async fn multimedia_prefetch(&self, ino: Ino) {
        // The "active file": a thread of control that pre-loads data and
        // keeps its own residency bound so continuous-media data cannot
        // flood the cache (§2).
        let mut resident: Vec<u64> = Vec::new();
        let mut blk = 0u64;
        loop {
            if self.s.shutdown.get() {
                break;
            }
            // Closed for good, or unlinked (its record went with it).
            let blocks = match self.s.inodes.borrow().get(&ino) {
                Some(rec) if rec.opens.get() > 0 => rec.inode.borrow().blocks(),
                _ => break,
            };
            if blk >= blocks {
                break;
            }
            if self.read_block_cached(ino, blk).await.is_err() {
                break;
            }
            resident.push(blk);
            if resident.len() > MM_RESIDENT_CAP {
                // Oldest first, but never a block with unflushed data:
                // dropping it would lose an acknowledged write. It stays
                // listed and is evictable once a flush has cleaned it.
                let mut cache = self.s.cache.borrow_mut();
                let key = |b: u64| BlockKey::new(FileId(ino.0), b);
                let evictable =
                    |&b: &u64| matches!(cache.state_of(key(b)), None | Some(BlockState::Clean));
                if let Some(i) = resident.iter().position(evictable) {
                    cache.remove_block(key(resident.remove(i)));
                }
            }
            blk += 1;
            // Pace the prefetch: one block per ~ms keeps QoS-ish delivery.
            self.s.handle.sleep(SimDuration::from_millis(1)).await;
        }
    }
}

/// One block's commit into the cache, as a record the write window holds
/// inline: place the block in the block's frame (reserving a frame first
/// if the block is not resident), dirty it against the NVRAM budget,
/// then charge the copy. Every wait is a kernel leaf future (a
/// [`FrameReservation`]'s or a full NVRAM's [`FlushWait`], the copy's
/// [`Sleep`]), and each stage makes its kernel calls in the order the
/// straight-line code would, so a record allocates nothing but, on a
/// real-mode partial overwrite, its boxed read-modify.
pub(super) struct BlockCommit {
    fs: FileSystem,
    key: BlockKey,
    owner: u32,
    /// Real mode: the block carries bytes.
    real: bool,
    /// The block's bytes until they land in its frame; `None` in real
    /// mode once they are there (written in place, or after a
    /// read-modify's read).
    data: Option<Block>,
    stage: Stage,
}

/// A boxed read of one block's old bytes, for a read-modify.
type BlockRead = Pin<Box<dyn Future<Output = FsResult<Option<Block>>>>>;

enum Stage {
    /// Reading the old block of a partial overwrite; the write's `part`
    /// goes in at byte `at`, into a copy if the frame still holds it.
    ReadModify { read: BlockRead, at: usize, part: Vec<u8> },
    /// About to look the block up (again, after a stall).
    Place,
    /// Not resident: waiting for a frame.
    Reserve(FrameReservation),
    /// NVRAM full: waiting for the flush daemon's next batch.
    Stall(FlushWait),
    /// Dirtied: charging the copy.
    Copy(Sleep),
}

impl Future for BlockCommit {
    type Output = FsResult<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<FsResult<()>> {
        let this = self.get_mut();
        loop {
            let resident = match &mut this.stage {
                Stage::ReadModify { read, at, part } => {
                    let mut block = ready!(read.as_mut().poll(cx))?.unwrap_or_else(Block::zeroed);
                    block.make_mut()[*at..*at + part.len()].copy_from_slice(part);
                    this.data = Some(block);
                    this.stage = Stage::Place;
                    continue;
                }
                Stage::Place => {
                    let resident = this.fs.s.cache.borrow().peek(this.key);
                    if resident.is_none() {
                        this.stage = Stage::Reserve(this.fs.reserve_frame(false));
                        continue;
                    }
                    resident
                }
                Stage::Reserve(reservation) => {
                    let frame = ready!(Pin::new(reservation).poll(cx))
                        .expect("a reservation holding nothing waits");
                    // A reservation parks on a demand flush when no
                    // frame is clean; another writer of this block may
                    // have made it resident meanwhile. Look again: the
                    // spare frame goes back and this write lands on the
                    // resident block.
                    let now = this.fs.s.handle.now();
                    let mut cache = this.fs.s.cache.borrow_mut();
                    let resident = cache.peek(this.key);
                    match resident {
                        None => cache.commit(frame, this.key, this.data.take(), now),
                        Some(_) => cache.release_reserved(frame),
                    }
                    drop(cache);
                    this.fs.frame_back();
                    resident
                }
                Stage::Stall(wait) => {
                    ready!(Pin::new(wait).poll(cx));
                    this.stage = Stage::Place;
                    continue;
                }
                Stage::Copy(sleep) => return Pin::new(sleep).poll(cx).map(Ok),
            };
            this.stage = this.dirty(resident);
        }
    }
}

impl BlockCommit {
    /// A real-mode commit that carries no block: its bytes are already
    /// in the block's resident frame (it only dirties the block), or its
    /// read-modify stage makes them.
    pub(super) fn landed(mut self) -> BlockCommit {
        self.real = true;
        self
    }

    /// Lands the bytes on `resident` (a frame this commit did not fill
    /// itself) and dirties the block, honouring the NVRAM budget: next
    /// comes the copy charge, or a stall until the daemon flushes.
    fn dirty(&mut self, resident: Option<u32>) -> Stage {
        let s = &self.fs.s;
        if let (Some(frame), Some(data)) = (resident, self.data.take()) {
            let mut cache = s.cache.borrow_mut();
            let old = cache.content_stamp(frame);
            cache.set_data(frame, Some(data));
            if names::planted(Mutant::SetDataKeepsStamp) {
                s.names.borrow_mut().restamp(old, cache.content_stamp(frame));
            }
        }
        let outcome = s.cache.borrow_mut().mark_dirty_for(self.key, s.handle.now(), self.owner);
        match outcome {
            DirtyOutcome::Ok => Stage::Copy(self.fs.copy_delay()),
            DirtyOutcome::NeedFlush(keys) => {
                if self.real {
                    let cache = s.cache.borrow();
                    let frame = cache.peek(self.key).expect("the block was just made resident");
                    self.data = cache.data(frame).cloned();
                }
                Stage::Stall(self.fs.request_flush(keys))
            }
        }
    }
}

/// A free cache frame, reserved at once when one is clean, else after
/// each demand flush the policy asks for, as often as it takes. When the
/// policy finds nothing dirty to flush, every frame is reserved or
/// flushing: the reservation then waits until a frame may be back, or,
/// if the caller `held` reserved frames of its own, ends with `None` so
/// that the caller loads those first.
pub(super) struct FrameReservation {
    fs: FileSystem,
    stall: Option<FlushWait>,
    held: bool,
}

impl Future for FrameReservation {
    type Output = Option<u32>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<u32>> {
        let this = self.get_mut();
        loop {
            if let Some(wait) = &mut this.stall {
                ready!(Pin::new(wait).poll(cx));
                this.stall = None;
            }
            let outcome = this.fs.s.cache.borrow_mut().reserve();
            this.stall = Some(match outcome {
                Reserve::Frame(frame) => return Poll::Ready(Some(frame)),
                Reserve::NeedFlush(keys) if keys.is_empty() => {
                    this.fs.s.cache.borrow_mut().recycle(keys);
                    if this.held {
                        return Poll::Ready(None);
                    }
                    this.fs.await_frame()
                }
                Reserve::NeedFlush(keys) => this.fs.request_flush(keys),
            });
        }
    }
}
