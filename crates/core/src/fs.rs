//! The file-system engine: abstract client interface over cache + layout.
//!
//! This is the cut-and-paste glue (§2): the *abstract client interface*
//! ("functions to open, close, read, write or delete a file and …
//! functions to manipulate an hierarchical name-space"), the global file
//! table, and the orchestration between the block cache's flush policies
//! and the storage layout. The same engine instantiates as Patsy
//! ([`DataMode::Simulated`], virtual clock) and as PFS
//! ([`DataMode::Real`], file-backed driver) — only configuration differs.

// RefMut-across-await in this module is deliberate: the engine runs on
// the cnp-sim executor, which is strictly single-threaded and
// cooperative, and every such borrow sits under the layout's core
// mutex, so no other task can reach the RefCell while the borrow is
// live. Scoped to this module so new cnp-core code elsewhere keeps the
// lint.
#![allow(clippy::await_holding_refcell_ref)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use cnp_cache::{
    flush_by_name_batched, replacement_by_name, BlockCache, BlockKey, BlockState, DirtyOutcome,
    FileId, FixedState, Reserve,
};
use cnp_disk::{DiskDriver, IoError, Payload};
use cnp_layout::dir::{self, Dirent};
use cnp_layout::{
    BlockAddr, FileKind, Ino, Inode, Layout, LayoutError, LayoutStats, StorageLayout, BLOCK_SIZE,
    MAX_FILE_BLOCKS,
};
use cnp_sim::{
    channel, Event, Handle, LockStats, Receiver, Sender, ShardedMutex, SimDuration, TrackedMutex,
    TrackedMutexGuard,
};

use crate::config::{DataMode, FlushMode, FsConfig};
use crate::error::{FsError, FsResult};
use crate::history::{HistOp, HistOutcome, HistoryEvent, HistoryLog};

/// Engine-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStats {
    /// Client operations served.
    pub ops: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Create operations (files + directories + symlinks).
    pub creates: u64,
    /// Unlink/rmdir operations.
    pub deletes: u64,
    /// Bytes read by clients.
    pub bytes_read: u64,
    /// Bytes written by clients.
    pub bytes_written: u64,
    /// Dirty blocks absorbed (deleted/truncated before reaching disk).
    pub absorbed_blocks: u64,
    /// Flush batches executed.
    pub flush_batches: u64,
    /// Blocks flushed to the layout.
    pub blocks_flushed: u64,
    /// Flush batches that failed at the layout/disk (e.g. power cut).
    pub flush_errors: u64,
}

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

struct Shared {
    handle: Handle,
    cfg: FsConfig,
    cache: RefCell<BlockCache>,
    /// The layout core lock: held across *individual* layout calls on
    /// the hot paths (mapping, allocation, one flush's write batch) and
    /// across whole operations only on the cold control paths (format,
    /// mount, recover, sync, unmount). The LFS cleaner runs inside a
    /// `write_file_blocks` call and therefore holds this lock for its
    /// duration — the deliberate "global lock only for
    /// format/recover/cleaner" residue.
    layout: TrackedMutex<Layout>,
    /// Per-extent-range locks (striped by owning inode): serialize
    /// mutating extent sequences — allocation + inode persist, flush
    /// write-back, truncate, free — on the same file against each
    /// other, so the core lock above no longer has to be held across
    /// multi-call sequences. Cold paths take every stripe (ascending,
    /// the family's deadlock-free order) before the core lock.
    layout_ranges: ShardedMutex<()>,
    io: cnp_layout::BlockIo,
    driver: DiskDriver,
    inodes: RefCell<HashMap<Ino, Rc<RefCell<Inode>>, FixedState>>,
    /// Per-inode count of completed size-relevant ops (writes,
    /// truncates). A failed write's speculative size extension may only
    /// roll back if nothing else completed in between — otherwise the
    /// rollback could clobber a concurrent client's acked extension to
    /// the same end.
    write_gen: RefCell<HashMap<Ino, u64, FixedState>>,
    open_counts: RefCell<HashMap<Ino, u32, FixedState>>,
    inflight: RefCell<HashMap<BlockKey, Event, FixedState>>,
    /// Idle [`ReadScratch`]es: a read takes one and puts it back, so
    /// the miss path allocates for its I/O and not for its bookkeeping.
    scratch: RefCell<Vec<ReadScratch>>,
    /// Per-block failed-flush counts (bounded retry bookkeeping).
    flush_retry: RefCell<HashMap<BlockKey, u8, FixedState>>,
    /// Serializes directory read-modify-write sequences, striped by the
    /// *parent directory* inode: clients mutating distinct directories
    /// (each sweep client owns its `/w<c>` shard) proceed past each
    /// other; two mutations of one directory still exclude. `rename`
    /// and `rmdir` need two directories and take `lock_pair`
    /// (ascending stripe order — deadlock-free).
    ns_lock: ShardedMutex<()>,
    flush_tx: RefCell<Option<Sender<Vec<BlockKey>>>>,
    flush_done: Event,
    shutdown: Cell<bool>,
    stats: RefCell<FsStats>,
}

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
struct ReadScratch {
    /// This window's blocks that this task loads.
    misses: Vec<Miss>,
    /// This window's blocks that another task is loading.
    theirs: Vec<u64>,
    /// The device runs covering `misses`, and what came back for each.
    runs: Vec<(BlockAddr, u32)>,
    payloads: Vec<Payload>,
}

/// Flush attempts per block before an erroring block is dropped.
const FLUSH_RETRIES: u8 = 3;

/// Simulated cost of copying one cache block ("the simulator delays
/// the current thread for the amount of time it would take to copy
/// the data", §2).
const COPY_COST: SimDuration = SimDuration::from_micros(80);

/// Fixed per-operation request-handling overhead.
const OP_OVERHEAD: SimDuration = SimDuration::from_micros(100);

/// Resident-block cap for multimedia files (their derived cache
/// policy keeps them from flooding the cache, §2).
const MM_RESIDENT_CAP: usize = 64;

/// The instantiated file system (cloneable handle).
#[derive(Clone)]
pub struct FileSystem {
    s: Rc<Shared>,
}

impl FileSystem {
    /// Builds an engine over a layout; spawns the flush daemon and the
    /// flush policy's periodic scan task.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` names an unknown replacement or flush policy.
    pub fn new(handle: &Handle, layout: Layout, cfg: FsConfig) -> FileSystem {
        let frames = cfg.cache.frames();
        let replacement = replacement_by_name(&cfg.replacement, frames, handle.fork_rng())
            .unwrap_or_else(|| panic!("unknown replacement policy {}", cfg.replacement));
        // Demand-flush batches are sized to the I/O pipeline: one stall
        // selects queue_depth oldest-first groups and the layout issues
        // them as a concurrent scatter-gather batch.
        let flush = flush_by_name_batched(&cfg.flush, cfg.queue_depth as usize)
            .unwrap_or_else(|| panic!("unknown flush policy {}", cfg.flush));
        // `shards` sizes the lock stripes; the tables they guard and the
        // cache are one structure each (see `BlockCache`).
        let shards = cfg.shards.max(1);
        let cache = BlockCache::new(cfg.cache.clone(), replacement, flush);
        let driver = layout.driver().clone();
        // One knob drives the whole pipeline: the engine fans multi-block
        // operations out in windows of `queue_depth`, which builds the
        // scheduled driver queue. The *device* is capped at its native
        // queue depth — the 1996 SCSI disks hold two (enough to overlap
        // one command's bus phases with another's mechanics), a
        // multi-channel flash device absorbs 64+, a stripe the sum of
        // its children's — while the rest wait in the driver queue
        // where SSTF/SCAN/C-LOOK can actually reorder them (commands
        // already shipped to the disk are served in arrival order and
        // are beyond the scheduler's reach).
        driver.set_max_inflight(cfg.queue_depth.min(driver.native_depth()));
        let io = cnp_layout::BlockIo::new(driver.clone());
        let s = Rc::new(Shared {
            handle: handle.clone(),
            cfg,
            cache: RefCell::new(cache),
            layout: TrackedMutex::new(handle, layout),
            layout_ranges: ShardedMutex::new(handle, shards as usize, |_| ()),
            io,
            driver,
            inodes: RefCell::default(),
            write_gen: RefCell::default(),
            open_counts: RefCell::default(),
            inflight: RefCell::default(),
            scratch: RefCell::default(),
            flush_retry: RefCell::default(),
            ns_lock: ShardedMutex::new(handle, shards as usize, |_| ()),
            flush_tx: RefCell::new(None),
            flush_done: Event::new(handle),
            shutdown: Cell::new(false),
            stats: RefCell::new(FsStats::default()),
        });
        let fs = FileSystem { s };
        fs.spawn_daemons();
        fs
    }

    fn spawn_daemons(&self) {
        let handle = self.s.handle.clone();
        if self.s.cfg.flush_mode == FlushMode::Async {
            let (tx, rx) = channel::<Vec<BlockKey>>(&handle);
            *self.s.flush_tx.borrow_mut() = Some(tx);
            let fs = self.clone();
            handle.spawn("fs:flush-daemon", async move {
                fs.flush_daemon(rx).await;
            });
        }
        // Periodic flush-policy scan (e.g. the 30-second-update timer).
        let interval = self.s.cache.borrow().tick_interval();
        if let Some(interval) = interval {
            let fs = self.clone();
            let h = handle.clone();
            handle.spawn("fs:update-daemon", async move {
                if cnp_obs::trace::enabled() {
                    let lane = cnp_obs::trace::engine_lane("update-daemon");
                    cnp_obs::trace::set_task_lane(h.task_key(), lane);
                }
                loop {
                    h.sleep(interval).await;
                    if fs.s.shutdown.get() {
                        break;
                    }
                    let keys = fs.s.cache.borrow_mut().tick(h.now());
                    if !keys.is_empty() {
                        fs.execute_or_enqueue(keys).await;
                    }
                }
            });
        }
    }

    async fn flush_daemon(&self, rx: Receiver<Vec<BlockKey>>) {
        if cnp_obs::trace::enabled() {
            let lane = cnp_obs::trace::engine_lane("flush-daemon");
            cnp_obs::trace::set_task_lane(self.s.handle.task_key(), lane);
        }
        while let Some(keys) = rx.recv().await {
            self.do_flush(keys).await;
            self.s.flush_done.signal();
        }
    }

    /// Stops background daemons (drains nothing; call after `unmount`).
    pub fn shutdown(&self) {
        self.s.shutdown.set(true);
        *self.s.flush_tx.borrow_mut() = None;
        self.s.flush_done.signal();
        self.s.driver.shutdown();
    }

    /// Simulation handle this engine runs on.
    pub fn handle(&self) -> &Handle {
        &self.s.handle
    }

    /// Engine counters.
    pub fn stats(&self) -> FsStats {
        *self.s.stats.borrow()
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> cnp_cache::CacheStats {
        self.s.cache.borrow().stats()
    }

    /// Driver statistics (queue/service/rotation histograms).
    pub fn driver_stats(&self) -> cnp_disk::DriverStats {
        self.s.driver.stats()
    }

    /// Per-lock contention counters, by lock family: `ns` (namespace
    /// stripes, merged), `layout` (the core layout lock), and
    /// `layout-range` (extent-range stripes, merged). Wait time is
    /// simulated time tasks spent blocked acquiring; hold time is
    /// simulated time the lock was held.
    pub fn lock_stats(&self) -> Vec<(&'static str, LockStats)> {
        vec![
            ("ns", self.s.ns_lock.stats()),
            ("layout", self.s.layout.stats()),
            ("layout-range", self.s.layout_ranges.stats()),
        ]
    }

    /// Configured stripe count of the interior lock families.
    pub fn shards(&self) -> u32 {
        self.s.cfg.shards.max(1)
    }

    /// Configured I/O pipeline depth — the bound a serving tier above
    /// the engine should admit concurrent requests against.
    pub fn queue_depth(&self) -> u32 {
        self.s.cfg.queue_depth.max(1)
    }

    /// Blocks handed to the flusher per dirtying client, ordered by
    /// client id. Engine-internal traffic (directories, symlink targets)
    /// and unattributed writes appear as [`cnp_cache::UNATTRIBUTED`].
    pub fn flushes_by_client(&self) -> Vec<(u32, u64)> {
        self.s.cache.borrow().flushes_by_client()
    }

    /// One [`cnp_obs::MetricsSnapshot`] absorbing every layer's native
    /// stats — engine counters, cache, lock families, driver
    /// histograms, layout, flush attribution — under namespaced keys
    /// (`fs.*`, `cache.*`, `lock.<family>.*`, `disk.*`, `layout.*`,
    /// `flush.*`). Sorted keys make the serialized bytes deterministic.
    pub fn metrics(&self) -> cnp_obs::MetricsSnapshot {
        let mut m = cnp_obs::MetricsSnapshot::new();
        let st = self.stats();
        m.counter("fs.ops", st.ops);
        m.counter("fs.reads", st.reads);
        m.counter("fs.writes", st.writes);
        m.counter("fs.creates", st.creates);
        m.counter("fs.deletes", st.deletes);
        m.counter("fs.bytes_read", st.bytes_read);
        m.counter("fs.bytes_written", st.bytes_written);
        m.counter("fs.absorbed_blocks", st.absorbed_blocks);
        m.counter("fs.flush_batches", st.flush_batches);
        m.counter("fs.blocks_flushed", st.blocks_flushed);
        m.counter("fs.flush_errors", st.flush_errors);
        let cs = self.cache_stats();
        m.counter("cache.hits", cs.hits);
        m.counter("cache.misses", cs.misses);
        m.gauge("cache.hit_rate", cs.hit_rate());
        m.counter("cache.insertions", cs.insertions);
        m.counter("cache.evictions", cs.evictions);
        m.counter("cache.dirtied", cs.dirtied);
        m.counter("cache.overwrites", cs.overwrites);
        m.counter("cache.absorbed", cs.absorbed);
        m.counter("cache.flushes", cs.flushes);
        m.counter("cache.nvram_stalls", cs.nvram_stalls);
        m.counter("cache.alloc_stalls", cs.alloc_stalls);
        for (family, ls) in self.lock_stats() {
            m.counter(&format!("lock.{family}.acquisitions"), ls.acquisitions);
            m.counter(&format!("lock.{family}.contentions"), ls.contentions);
            m.gauge(&format!("lock.{family}.wait_ms"), ls.wait.as_millis_f64());
            m.gauge(&format!("lock.{family}.hold_ms"), ls.hold.as_millis_f64());
            m.gauge(&format!("lock.{family}.max_wait_ms"), ls.max_wait.as_millis_f64());
        }
        let ds = self.driver_stats();
        m.counter("disk.completed", ds.completed);
        m.counter("disk.reads", ds.reads);
        m.counter("disk.writes", ds.writes);
        m.counter("disk.errors", ds.errors);
        m.counter("disk.retries", ds.retries);
        m.gauge("disk.mean_queue_len", ds.mean_queue_len);
        m.gauge("disk.max_queue_len", ds.max_queue_len);
        m.gauge("disk.mean_inflight", ds.mean_inflight);
        m.gauge("disk.overlap_fraction", ds.overlap_fraction);
        m.histogram("disk.queue_ms", &ds.queue_time);
        m.histogram("disk.service_ms", &ds.service_time);
        m.histogram("disk.rotation_ms", &ds.rotation_time);
        if let Some(ls) = self.layout_stats() {
            m.counter("layout.meta_reads", ls.meta_reads);
            m.counter("layout.meta_writes", ls.meta_writes);
            m.counter("layout.data_reads", ls.data_reads);
            m.counter("layout.data_writes", ls.data_writes);
            m.counter("layout.segments_written", ls.segments_written);
            m.counter("layout.segments_cleaned", ls.segments_cleaned);
            m.counter("layout.cleaner_moved", ls.cleaner_moved);
            m.counter("layout.checkpoints", ls.checkpoints);
        }
        let mut attributed = 0u64;
        let mut unattributed = 0u64;
        let mut clients = 0u64;
        for (id, n) in self.flushes_by_client() {
            if id == cnp_cache::UNATTRIBUTED {
                unattributed += n;
            } else {
                attributed += n;
                clients += 1;
            }
        }
        m.counter("flush.attributed_blocks", attributed);
        m.counter("flush.unattributed_blocks", unattributed);
        m.counter("flush.dirtying_clients", clients);
        m
    }

    /// A per-client handle onto this (shared) engine: the same file
    /// system, with write traffic attributed to `id`. Clients interleave
    /// at the engine's block-I/O await points under its interior locks —
    /// the namespace lock for directory read-modify-write, the layout
    /// mutex for mapping/allocation, and the in-flight table for
    /// duplicate block loads.
    ///
    /// `id` must not be [`cnp_cache::UNATTRIBUTED`] (`u32::MAX`) — that
    /// value is the engine-internal sentinel, and a client using it
    /// would silently merge into the unattributed flush bucket.
    pub fn client(&self, id: u32) -> ClientFs {
        debug_assert!(
            id != cnp_cache::UNATTRIBUTED,
            "client id {id} collides with the UNATTRIBUTED sentinel"
        );
        ClientFs { fs: self.clone(), id, history: None }
    }

    /// Layout statistics; `None` while the layout lock is held.
    pub fn layout_stats(&self) -> Option<LayoutStats> {
        self.s.layout.try_lock().map(|g| g.get().stats())
    }

    /// Formats the underlying layout (mkfs) and writes an empty root.
    pub async fn format(&self) -> FsResult<()> {
        let _all = self.s.layout_ranges.lock_all().await;
        let g = self.s.layout.lock().await;
        g.get_mut().format().await?;
        Ok(())
    }

    /// Mounts an existing file system.
    pub async fn mount(&self) -> FsResult<()> {
        let _all = self.s.layout_ranges.lock_all().await;
        let g = self.s.layout.lock().await;
        g.get_mut().mount().await?;
        Ok(())
    }

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
                self.s.inodes.borrow().get(&Ino(ino)).map(|rc| (ino, rc.borrow().size))
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
    /// [`DataMode::Simulated`] the write path deliberately drops
    /// payload bytes, which would replace a battery-backed *directory*
    /// block with a simulated payload and destroy the namespace the
    /// snapshot was meant to restore.
    pub async fn restore_block(&self, ino: Ino, blk: u64, data: Option<Vec<u8>>) -> FsResult<()> {
        // Surface a dead identity as BadInode (the caller skips those).
        let _ = self.get_inode_rc(ino).await?;
        self.write_block_cached(cnp_cache::UNATTRIBUTED, ino, blk, data).await
    }

    /// Restores a file's logical size (crash-recovery helper: NVRAM
    /// snapshots carry exact sizes that may exceed what block-granular
    /// replay re-establishes). Never shrinks the file.
    pub async fn restore_size(&self, ino: Ino, size: u64) -> FsResult<()> {
        let rc = self.get_inode_rc(ino).await?;
        {
            let mut inode = rc.borrow_mut();
            if size <= inode.size {
                return Ok(());
            }
            inode.size = size;
        }
        let copy = rc.borrow().clone();
        let _rg = self.s.layout_ranges.lock(ino.0).await;
        let g = self.s.layout.lock().await;
        g.get_mut().put_inode(&copy).await?;
        Ok(())
    }

    /// Flushes everything and checkpoints the layout.
    pub async fn sync(&self) -> FsResult<()> {
        let dirty = self.s.cache.borrow().all_dirty();
        if !dirty.is_empty() {
            self.do_flush(dirty).await;
            self.s.flush_done.signal();
        }
        // Persist in-memory inodes (sizes may be newer than last flush).
        // Sorted: HashMap iteration order varies between instances, and
        // the put order shapes the LFS log — replays must not depend on
        // hasher state.
        let mut inos: Vec<Ino> = self.s.inodes.borrow().keys().copied().collect();
        inos.sort_unstable();
        let _all = self.s.layout_ranges.lock_all().await;
        let g = self.s.layout.lock().await;
        for ino in inos {
            let inode = self.s.inodes.borrow().get(&ino).map(|rc| rc.borrow().clone());
            if let Some(inode) = inode {
                match g.get_mut().put_inode(&inode).await {
                    Ok(()) | Err(LayoutError::BadInode(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        g.get_mut().sync().await?;
        Ok(())
    }

    /// Syncs and unmounts.
    pub async fn unmount(&self) -> FsResult<()> {
        self.sync().await?;
        let _all = self.s.layout_ranges.lock_all().await;
        let g = self.s.layout.lock().await;
        g.get_mut().unmount().await?;
        Ok(())
    }

    // ----- Locks -----
    //
    // Order: ns < range < core. A task takes them in that order and
    // never reaches back: the namespace stripes of the directories an
    // operation rewrites, then the extent-range stripe of the file whose
    // blocks move, then the layout's core lock around one layout call.
    // The control paths (format, mount, sync, unmount) take every range
    // stripe, ascending, in place of one. Each helper opens the
    // `lock:*` span the wait shows under, takes the lock and closes it.

    /// Locks the namespace stripes of directories `a` and `b` (one
    /// stripe if they share it, as a directory does with itself).
    async fn lock_ns(
        &self,
        a: Ino,
        b: Ino,
    ) -> (TrackedMutexGuard<()>, Option<TrackedMutexGuard<()>>) {
        let sp = self.s.handle.trace_span("lock:ns");
        let guards = self.s.ns_lock.lock_pair(a.0, b.0).await;
        self.s.handle.trace_exit(sp);
        guards
    }

    /// Locks the extent-range stripe of file `ino`.
    async fn lock_range(&self, ino: Ino) -> TrackedMutexGuard<()> {
        let sp = self.s.handle.trace_span("lock:range");
        let guard = self.s.layout_ranges.lock(ino.0).await;
        self.s.handle.trace_exit(sp);
        guard
    }

    /// Locks the layout.
    async fn lock_core(&self) -> TrackedMutexGuard<Layout> {
        let sp = self.s.handle.trace_span("lock:core");
        let guard = self.s.layout.lock().await;
        self.s.handle.trace_exit(sp);
        guard
    }

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
        let mut bytes = self.read_dir_bytes(dir_ino).await?;
        if dir::lookup(&bytes, name).map_err(corrupt)?.is_some() {
            return Err(FsError::Exists(path.to_string()));
        }
        let inode = {
            let g = self.lock_core().await;
            let now = self.s.handle.now().as_nanos();
            let inode = g.get_mut().alloc_ino(kind, now)?;
            inode
        };
        let ino = inode.ino;
        self.s.inodes.borrow_mut().insert(ino, Rc::new(RefCell::new(inode.clone())));
        {
            let _rg = self.lock_range(ino).await;
            let g = self.lock_core().await;
            g.get_mut().put_inode(&inode).await?;
        }
        dir::append(&mut bytes, ino, kind, name).map_err(FsError::BadPath)?;
        self.write_dir_bytes(dir_ino, &bytes).await?;
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
        let mut bytes = self.read_dir_bytes(dir_ino).await?;
        if dir::lookup(&bytes, name).map_err(corrupt)?.is_some() {
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
        self.s.inodes.borrow_mut().insert(ino, Rc::new(RefCell::new(inode)));
        dir::append(&mut bytes, ino, FileKind::Directory, name).map_err(FsError::BadPath)?;
        self.write_dir_bytes(dir_ino, &bytes).await?;
        Ok(ino)
    }

    /// Lists a directory.
    pub async fn readdir(&self, path: &str) -> FsResult<Vec<Dirent>> {
        self.op_begin().await;
        let ino = self.resolve(path).await?;
        self.scan_dir(ino, dir::decode).await
    }

    /// Opens a file, bumping its open count; spawns the prefetch thread
    /// of multimedia ("active") files on first open.
    pub async fn open(&self, path: &str) -> FsResult<Ino> {
        self.op_begin().await;
        let ino = self.resolve(path).await?;
        let inode = self.get_inode_rc(ino).await?;
        let kind = inode.borrow().kind;
        let first_open = {
            let mut oc = self.s.open_counts.borrow_mut();
            let c = oc.entry(ino).or_insert(0);
            *c += 1;
            *c == 1
        };
        if first_open && kind == FileKind::Multimedia {
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
        let mut oc = self.s.open_counts.borrow_mut();
        if let Some(c) = oc.get_mut(&ino) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                oc.remove(&ino);
            }
        }
        Ok(())
    }

    /// Stats a file by path.
    pub async fn stat(&self, path: &str) -> FsResult<Inode> {
        self.op_begin().await;
        let ino = self.resolve(path).await?;
        let rc = self.get_inode_rc(ino).await?;
        let inode = rc.borrow().clone();
        Ok(inode)
    }

    /// Stats a file by inode number — no path walk. This is the
    /// attribute path for handle-based front-ends (NFS fhandles): the
    /// caller already resolved the name once and holds the ino.
    pub async fn stat_ino(&self, ino: Ino) -> FsResult<Inode> {
        self.op_begin().await;
        let rc = self.get_inode_rc(ino).await?;
        let inode = rc.borrow().clone();
        Ok(inode)
    }

    /// Reads `len` bytes at `offset`; returns the bytes read (real mode)
    /// or the byte count only (simulated mode).
    pub async fn read(&self, ino: Ino, offset: u64, len: u64) -> FsResult<(u64, Option<Vec<u8>>)> {
        self.op_begin().await;
        {
            let mut st = self.s.stats.borrow_mut();
            st.reads += 1;
        }
        let rc = self.get_inode_rc(ino).await?;
        let size = rc.borrow().size;
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
        let place = |blk: u64, data: Option<&[u8]>| {
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
        let rc = self.get_inode_rc(ino).await?;
        let old_size = rc.borrow().size;
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
            rc.borrow_mut().size = end;
        }
        let gen0 = self.s.write_gen.borrow().get(&ino).copied().unwrap_or(0);
        // Per-block cache commits (and any read-modify loads for partial
        // blocks) proceed with up to queue_depth in flight; the first
        // failure stops new blocks from starting.
        let first = offset / bs;
        let blocks = first..if len == 0 { first } else { end.div_ceil(bs) };
        let failed: RefCell<Option<FsError>> = RefCell::new(None);
        let work = blocks
            .take_while(|_| failed.borrow().is_none())
            .map(|blk| self.write_one_block(client, ino, blk, offset, end, old_size, data));
        let note = |r: FsResult<()>| {
            if let Err(e) = r {
                failed.borrow_mut().get_or_insert(e);
            }
        };
        cnp_sim::for_each_limit(self.queue_depth() as usize, work, note).await;
        if let Some(e) = failed.into_inner() {
            // Roll the speculative extension back so a *failed* write
            // does not leave a phantom size — but only if no other
            // size-relevant op completed meanwhile: a concurrent client
            // acking a write to the same `end` must keep its coverage.
            let untouched = self.s.write_gen.borrow().get(&ino).copied().unwrap_or(0) == gen0;
            let mut inode = rc.borrow_mut();
            if end > old_size && inode.size == end && untouched {
                inode.size = old_size;
            }
            return Err(e);
        }
        {
            let mut inode = rc.borrow_mut();
            if end > inode.size {
                inode.size = end;
            }
            inode.mtime = self.s.handle.now().as_nanos();
        }
        *self.s.write_gen.borrow_mut().entry(ino).or_insert(0) += 1;
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
        let rc = self.get_inode_rc(ino).await?;
        let old_blocks = rc.borrow().blocks();
        // Dirty blocks beyond the new size die in cache: write absorption.
        for blk in new_blocks..old_blocks {
            self.s.cache.borrow_mut().remove_block(BlockKey::new(FileId(ino.0), blk));
        }
        {
            let _rg = self.lock_range(ino).await;
            let g = self.lock_core().await;
            let mut copy = rc.borrow().clone();
            g.get_mut().truncate(&mut copy, new_blocks).await?;
            let mut inode = rc.borrow_mut();
            inode.direct = copy.direct;
            inode.indirect = copy.indirect;
            inode.size = new_size;
        }
        *self.s.write_gen.borrow_mut().entry(ino).or_insert(0) += 1;
        Ok(())
    }

    /// Removes a file; dirty cached blocks are absorbed, never written.
    pub async fn unlink(&self, path: &str) -> FsResult<()> {
        self.op_begin().await;
        self.s.stats.borrow_mut().deletes += 1;
        let (dir_ino, name) = self.resolve_parent(path).await?;
        let _ns = self.lock_ns(dir_ino, dir_ino).await;
        let mut bytes = self.read_dir_bytes(dir_ino).await?;
        let (ino, kind) = dir::remove(&mut bytes, name)
            .map_err(corrupt)?
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        if kind == FileKind::Directory {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        self.write_dir_bytes(dir_ino, &bytes).await?;
        let absorbed = self.s.cache.borrow_mut().remove_file(FileId(ino.0));
        self.s.stats.borrow_mut().absorbed_blocks += absorbed;
        self.s.inodes.borrow_mut().remove(&ino);
        self.s.write_gen.borrow_mut().remove(&ino);
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
            let mut bytes = self.read_dir_bytes(dir_ino).await?;
            let (ino, kind) = dir::lookup(&bytes, name)
                .map_err(corrupt)?
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            if ino != victim {
                // Raced: the name now points at a different inode, so
                // the held victim stripe is the wrong one. Re-probe.
                continue;
            }
            if kind != FileKind::Directory {
                return Err(FsError::NotADirectory(path.to_string()));
            }
            let count = |b: &[u8]| dir::entries(b).try_fold(0usize, |n, e| e.map(|_| n + 1));
            if self.scan_dir(ino, count).await? != 0 {
                return Err(FsError::NotEmpty(path.to_string()));
            }
            dir::remove(&mut bytes, name).map_err(corrupt)?;
            self.write_dir_bytes(dir_ino, &bytes).await?;
            let absorbed = self.s.cache.borrow_mut().remove_file(FileId(ino.0));
            self.s.stats.borrow_mut().absorbed_blocks += absorbed;
            self.s.inodes.borrow_mut().remove(&ino);
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
        let mut from_bytes = self.read_dir_bytes(from_dir).await?;
        let (ino, kind) = dir::remove(&mut from_bytes, from_name)
            .map_err(corrupt)?
            .ok_or_else(|| FsError::NotFound(from.to_string()))?;
        if from_dir == to_dir {
            if dir::lookup(&from_bytes, to_name).map_err(corrupt)?.is_some() {
                return Err(FsError::Exists(to.to_string()));
            }
            dir::append(&mut from_bytes, ino, kind, to_name).map_err(FsError::BadPath)?;
            self.write_dir_bytes(from_dir, &from_bytes).await?;
        } else {
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
            let mut to_bytes = self.read_dir_bytes(to_dir).await?;
            if dir::lookup(&to_bytes, to_name).map_err(corrupt)?.is_some() {
                return Err(FsError::Exists(to.to_string()));
            }
            dir::append(&mut to_bytes, ino, kind, to_name).map_err(FsError::BadPath)?;
            self.write_dir_bytes(from_dir, &from_bytes).await?;
            self.write_dir_bytes(to_dir, &to_bytes).await?;
        }
        Ok(())
    }

    /// Creates a symbolic link holding `target`.
    pub async fn symlink(&self, path: &str, target: &str) -> FsResult<Ino> {
        let ino = self.create(path, FileKind::Symlink).await?;
        // Symlink targets are metadata: always real. `write` drops the
        // bytes off-line, so the target takes the directory content path.
        self.write_dir_bytes(ino, target.as_bytes()).await?;
        Ok(ino)
    }

    /// Reads a symlink's target.
    pub async fn readlink(&self, path: &str) -> FsResult<String> {
        self.op_begin().await;
        let ino = self.resolve(path).await?;
        let rc = self.get_inode_rc(ino).await?;
        let (kind, size) = {
            let i = rc.borrow();
            (i.kind, i.size)
        };
        if kind != FileKind::Symlink {
            return Err(FsError::BadPath(path.to_string()));
        }
        let data = self.read_block_cached(ino, 0).await?;
        match data {
            Some(bytes) => {
                let target = &bytes[..(size as usize).min(bytes.len())];
                String::from_utf8(target.to_vec()).map_err(|e| FsError::BadPath(e.to_string()))
            }
            None => Err(FsError::BadPath("symlink content unavailable".into())),
        }
    }

    // ----- Internals -----

    fn empty_data(&self) -> Option<Vec<u8>> {
        match self.s.cfg.data_mode {
            DataMode::Real => Some(Vec::new()),
            DataMode::Simulated => None,
        }
    }

    async fn op_begin(&self) {
        self.s.stats.borrow_mut().ops += 1;
        self.s.handle.sleep(OP_OVERHEAD).await;
    }

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
    /// `NotFound` error.
    async fn lookup_in(&self, dir: Ino, name: &str, path: &str) -> FsResult<(Ino, FileKind)> {
        self.scan_dir(dir, |b| dir::lookup(b, name))
            .await?
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    async fn get_inode_rc(&self, ino: Ino) -> FsResult<Rc<RefCell<Inode>>> {
        if let Some(rc) = self.s.inodes.borrow().get(&ino) {
            return Ok(rc.clone());
        }
        let inode = {
            let g = self.s.layout.lock().await;
            let inode = g.get_mut().get_inode(ino).await?;
            inode
        };
        let rc = Rc::new(RefCell::new(inode));
        let mut inodes = self.s.inodes.borrow_mut();
        Ok(inodes.entry(ino).or_insert_with(|| rc.clone()).clone())
    }

    /// Size in bytes of directory `ino`'s packed content.
    async fn dir_size(&self, ino: Ino) -> FsResult<usize> {
        let rc = self.get_inode_rc(ino).await?;
        let inode = rc.borrow();
        if inode.kind != FileKind::Directory {
            return Err(FsError::NotADirectory(format!("{ino}")));
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
            self.read_block_with(ino, blk, |data| data.map(|d| bytes.extend_from_slice(d)))
                .await?
                .ok_or_else(dir_data_unavailable)?;
        }
        bytes.truncate(size);
        Ok(bytes)
    }

    /// Reads a directory's packed content for a read-modify-write; the
    /// `dir::` call the caller makes on it validates every entry.
    async fn read_dir_bytes(&self, ino: Ino) -> FsResult<Vec<u8>> {
        let size = self.dir_size(ino).await?;
        self.gather_dir(ino, size).await
    }

    /// Runs `scan` over a directory's packed content without keeping
    /// it: a single-block directory is scanned where it sits in its
    /// cache frame, a longer one in a gathered copy.
    async fn scan_dir<T>(
        &self,
        ino: Ino,
        scan: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> FsResult<T> {
        let size = self.dir_size(ino).await?;
        let scanned = if size > 0 && size <= BLOCK_SIZE as usize {
            self.read_block_with(ino, 0, |data| data.map(|d| scan(&d[..size.min(d.len())])))
                .await?
                .ok_or_else(dir_data_unavailable)?
        } else {
            scan(&self.gather_dir(ino, size).await?)
        };
        scanned.map_err(corrupt)
    }

    async fn write_dir_bytes(&self, ino: Ino, bytes: &[u8]) -> FsResult<()> {
        let rc = self.get_inode_rc(ino).await?;
        let old_blocks = rc.borrow().blocks();
        let bs = BLOCK_SIZE as usize;
        let new_blocks = bytes.len().div_ceil(bs) as u64;
        // Extend the size *before* dirtying any block — the directory
        // twin of the stale-size write race: a mid-update NVRAM
        // pressure flush (e.g. another client's) snapshots the inode
        // while its dirty content block is already selected, and a
        // stale size makes the acked dirent durable but unreachable
        // after a crash (found by cnp-check's crash-point enumeration
        // on the zipf multi-client workload).
        if bytes.len() as u64 > rc.borrow().size {
            rc.borrow_mut().size = bytes.len() as u64;
        }
        for blk in 0..new_blocks {
            let lo = blk as usize * bs;
            let hi = (lo + bs).min(bytes.len());
            let mut block = vec![0u8; bs];
            block[..hi - lo].copy_from_slice(&bytes[lo..hi]);
            // Directory content is metadata: always real bytes.
            self.write_block_cached(cnp_cache::UNATTRIBUTED, ino, blk, Some(block)).await?;
        }
        {
            let mut inode = rc.borrow_mut();
            inode.size = bytes.len() as u64;
            inode.mtime = self.s.handle.now().as_nanos();
        }
        for blk in new_blocks..old_blocks {
            self.s.cache.borrow_mut().remove_block(BlockKey::new(FileId(ino.0), blk));
        }
        if new_blocks < old_blocks {
            let g = self.s.layout.lock().await;
            let mut copy = rc.borrow().clone();
            g.get_mut().truncate(&mut copy, new_blocks).await?;
            let mut inode = rc.borrow_mut();
            inode.direct = copy.direct;
            inode.indirect = copy.indirect;
        }
        Ok(())
    }

    /// One block of a client write: compute the block's new content
    /// (read-modify for partial overwrites in real mode) and push it
    /// through the cache.
    #[allow(clippy::too_many_arguments)]
    async fn write_one_block(
        &self,
        owner: u32,
        ino: Ino,
        blk: u64,
        offset: u64,
        end: u64,
        old_size: u64,
        data: Option<&[u8]>,
    ) -> FsResult<()> {
        let bs = BLOCK_SIZE as u64;
        let lo = if blk * bs >= offset { 0 } else { (offset % bs) as usize };
        let hi = ((end - blk * bs).min(bs)) as usize;
        let whole = lo == 0 && hi == bs as usize;
        let block_data: Option<Vec<u8>> = match self.s.cfg.data_mode {
            DataMode::Simulated => None,
            DataMode::Real => {
                let mut base = if whole || blk * bs >= old_size {
                    vec![0u8; bs as usize]
                } else {
                    // Partial overwrite of existing data: read-modify.
                    self.read_block_cached(ino, blk)
                        .await?
                        .unwrap_or_else(|| vec![0u8; bs as usize])
                };
                if let Some(src) = data {
                    let src_lo = (blk * bs + lo as u64 - offset) as usize;
                    let n = hi - lo;
                    let avail = src.len().saturating_sub(src_lo).min(n);
                    base[lo..lo + avail].copy_from_slice(&src[src_lo..src_lo + avail]);
                }
                Some(base)
            }
        };
        self.write_block_cached(owner, ino, blk, block_data).await
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
        mut sink: impl FnMut(u64, Option<&[u8]>),
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
                self.read_block_with(ino, blk, |data| sink(blk, data)).await?;
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

    /// Reads one block through the cache; returns bytes when available
    /// (always for metadata, never for off-line user data).
    async fn read_block_cached(&self, ino: Ino, blk: u64) -> FsResult<Option<Vec<u8>>> {
        self.read_block_with(ino, blk, |data| data.map(<[u8]>::to_vec)).await
    }

    /// Reads one block through the cache — a window of one — and hands
    /// its bytes to `f` where they sit in the cache frame (`f` runs with
    /// the cache borrowed and must not reach for it).
    async fn read_block_with<T>(
        &self,
        ino: Ino,
        blk: u64,
        f: impl FnOnce(Option<&[u8]>) -> T,
    ) -> FsResult<T> {
        let key = BlockKey::new(FileId(ino.0), blk);
        let mut f = Some(f);
        let mut out = None;
        let mut sc = self.take_scratch();
        loop {
            let mut sink = |_, data: Option<&[u8]>| out = f.take().map(|f| f(data));
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
    /// it sits in its frame (`sink` runs with the cache borrowed and must
    /// not reach for it); a block another task is loading is listed in
    /// `sc.theirs` for the caller to wait on; the rest are this task's
    /// misses, each marked in flight and given a reserved frame, then
    /// loaded together ([`FileSystem::load_misses`]) and handed to
    /// `sink` as they commit. The caller charges the copy cost.
    async fn load_window(
        &self,
        ino: Ino,
        start: u64,
        len: u64,
        sc: &mut ReadScratch,
        sink: &mut impl FnMut(u64, Option<&[u8]>),
    ) -> FsResult<()> {
        let mut load = cnp_obs::trace::SpanToken::NONE;
        for blk in start..start + len {
            let key = BlockKey::new(FileId(ino.0), blk);
            {
                let mut cache = self.s.cache.borrow_mut();
                if let Some(frame) = cache.lookup(key, self.s.handle.now()) {
                    sink(blk, cache.data(frame));
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
            let ev = Event::new(&self.s.handle);
            self.s.inflight.borrow_mut().insert(key, ev.clone());
            if sc.misses.is_empty() {
                load = self.s.handle.trace_span("cache:load");
            }
            let frame = self.reserve_frame().await;
            sc.misses.push(Miss { blk, frame, ev, addr: None, done: false });
        }
        if sc.misses.is_empty() {
            return Ok(());
        }
        let loaded = self.load_misses(ino, sc, sink).await;
        // Whatever an error left unloaded: hand its frame back, un-mark
        // it and let its waiters retry.
        for m in sc.misses.drain(..).filter(|m| !m.done) {
            self.s.cache.borrow_mut().release_reserved(m.frame);
            self.s.inflight.borrow_mut().remove(&BlockKey::new(FileId(ino.0), m.blk));
            m.ev.signal();
        }
        sc.runs.clear();
        sc.payloads.clear();
        self.s.handle.trace_exit(load);
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
        sink: &mut impl FnMut(u64, Option<&[u8]>),
    ) -> FsResult<()> {
        let ReadScratch { misses, runs, payloads, .. } = sc;
        let inode = self.get_inode_rc(ino).await?.borrow().clone();
        {
            let g = self.lock_core().await;
            for m in misses.iter_mut() {
                m.addr = g.get_mut().map_block(&inode, m.blk).await?;
            }
            // Staged blocks (LFS unflushed segment) are served from the
            // layout's buffer, never the device.
            for m in misses.iter_mut() {
                if let Some(p) = m.addr.and_then(|a| g.get().staged_block(a)) {
                    self.commit_loaded(ino, m, p.bytes().map(<[u8]>::to_vec), sink);
                }
            }
        }
        // Blocks consecutive in the file and on the device share a run.
        let mut prev: Option<(u64, BlockAddr)> = None;
        for m in misses.iter_mut().filter(|m| !m.done) {
            let Some(addr) = m.addr else {
                // A hole reads as zeroes on-line, nothing off-line.
                let data = match self.s.cfg.data_mode {
                    DataMode::Real => Some(vec![0u8; BLOCK_SIZE as usize]),
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
                let data = match payload.bytes() {
                    Some(_) => Some(cnp_layout::BlockIo::block_bytes(payload, off)?),
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
        data: Option<Vec<u8>>,
        sink: &mut impl FnMut(u64, Option<&[u8]>),
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
            sink(m.blk, cache.data(frame));
        }
        m.done = true;
        self.s.inflight.borrow_mut().remove(&key);
        m.ev.signal();
    }

    /// Writes one whole block through the cache (dirtying it); the dirty
    /// block is attributed to `owner` for flush accounting.
    async fn write_block_cached(
        &self,
        owner: u32,
        ino: Ino,
        blk: u64,
        data: Option<Vec<u8>>,
    ) -> FsResult<()> {
        let key = BlockKey::new(FileId(ino.0), blk);
        loop {
            let mut resident = self.s.cache.borrow().peek(key);
            if resident.is_none() {
                let frame = self.reserve_frame().await;
                // `reserve_frame` parks on a demand flush when no frame
                // is clean; another writer of this block may have made
                // it resident meanwhile. Look again: the spare frame
                // goes back and this write lands on the resident block.
                let mut cache = self.s.cache.borrow_mut();
                resident = cache.peek(key);
                match resident {
                    None => cache.commit(frame, key, data.clone(), self.s.handle.now()),
                    Some(_) => cache.release_reserved(frame),
                }
            }
            if let (Some(frame), true) = (resident, data.is_some()) {
                self.s.cache.borrow_mut().set_data(frame, data.clone());
            }
            // Dirty it, honouring the NVRAM budget.
            let outcome = {
                let mut cache = self.s.cache.borrow_mut();
                cache.mark_dirty_for(key, self.s.handle.now(), owner)
            };
            match outcome {
                DirtyOutcome::Ok => {
                    self.copy_delay().await;
                    return Ok(());
                }
                DirtyOutcome::NeedFlush(keys) => {
                    self.request_flush_and_wait(keys).await;
                }
            }
        }
    }

    async fn copy_delay(&self) {
        self.s.handle.sleep(COPY_COST).await;
    }

    /// Obtains a free cache frame, flushing per policy when none exists.
    async fn reserve_frame(&self) -> u32 {
        loop {
            let outcome = self.s.cache.borrow_mut().reserve();
            match outcome {
                Reserve::Frame(f) => return f,
                Reserve::NeedFlush(keys) => {
                    self.request_flush_and_wait(keys).await;
                }
            }
        }
    }

    async fn request_flush_and_wait(&self, keys: Vec<BlockKey>) {
        let sp = self.s.handle.trace_span("flush:wait");
        self.request_flush_and_wait_inner(keys).await;
        self.s.handle.trace_exit(sp);
    }

    async fn request_flush_and_wait_inner(&self, keys: Vec<BlockKey>) {
        match self.s.cfg.flush_mode {
            FlushMode::Sync => {
                // The requesting thread performs the flush itself — the
                // §5.2 bottleneck, kept for ablation A2.
                if !keys.is_empty() {
                    self.do_flush(keys).await;
                    self.s.flush_done.signal();
                } else {
                    self.s.flush_done.wait().await;
                }
            }
            FlushMode::Async => {
                let tx = self.s.flush_tx.borrow().clone();
                let wait = self.s.flush_done.wait();
                if let (Some(tx), false) = (tx, keys.is_empty()) {
                    let _ = tx.try_send(keys);
                }
                wait.await;
            }
        }
    }

    /// Executes a flush batch directly (sync mode) or via the daemon.
    async fn execute_or_enqueue(&self, keys: Vec<BlockKey>) {
        match self.s.cfg.flush_mode {
            FlushMode::Sync => {
                self.do_flush(keys).await;
                self.s.flush_done.signal();
            }
            FlushMode::Async => {
                let tx = self.s.flush_tx.borrow().clone();
                if let Some(tx) = tx {
                    let _ = tx.try_send(keys);
                }
            }
        }
    }

    /// Writes the given dirty blocks out through the layout.
    async fn do_flush(&self, keys: Vec<BlockKey>) {
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

    async fn do_flush_inner(&self, keys: Vec<BlockKey>) {
        // Group by file (ordered: deterministic flush sequence).
        let mut by_file: std::collections::BTreeMap<u64, Vec<BlockKey>> =
            std::collections::BTreeMap::new();
        for k in keys {
            by_file.entry(k.file.0).or_default().push(k);
        }
        self.s.stats.borrow_mut().flush_batches += 1;
        for (file, keys) in by_file {
            let ino = Ino(file);
            let started = self.s.cache.borrow_mut().begin_flush(&keys);
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
            let rc = match self.get_inode_rc(ino).await {
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
                let mut copy = rc.borrow().clone();
                let r = g.get_mut().write_file_blocks(&mut copy, blocks).await;
                if r.is_ok() {
                    let mut inode = rc.borrow_mut();
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
                            let mut inode = rc2.borrow_mut();
                            inode.direct = fresh.direct;
                            inode.indirect = fresh.indirect;
                        }
                    }
                }
                r
            };
            let now = self.s.handle.now();
            {
                let mut cache = self.s.cache.borrow_mut();
                let mut retry = self.s.flush_retry.borrow_mut();
                match &result {
                    Ok(()) if retry.is_empty() => {}
                    Ok(()) => {
                        for k in &started {
                            retry.remove(k);
                        }
                    }
                    Err(e) => {
                        // An acknowledged dirty block must not vanish on
                        // a recoverable error: re-dirty it (bounded, so
                        // a permanently failing block cannot livelock
                        // the demand-flush loop). A dead disk is final.
                        let fatal = matches!(
                            e,
                            LayoutError::Io(IoError::PowerCut)
                                | LayoutError::Io(IoError::DeviceGone)
                        );
                        // Retry accounting is per-batch: a healthy block
                        // co-batched with a permanently bad one shares
                        // its fate after FLUSH_RETRIES (LFS converges
                        // anyway — each retry appends to a new location).
                        for k in &started {
                            let attempts = {
                                let a = retry.entry(*k).or_insert(0);
                                *a += 1;
                                *a
                            };
                            // The file may have been deleted while the
                            // flush was in flight; a gone block needs no
                            // re-dirtying (and mark_dirty would panic).
                            let resident = cache.peek(*k).is_some();
                            if !fatal && attempts < FLUSH_RETRIES && resident {
                                // Still Flushing: this marks it redirtied,
                                // so end_flush below re-queues it dirty.
                                let _ = cache.mark_dirty(*k, now);
                            } else {
                                retry.remove(k);
                            }
                        }
                    }
                }
                for k in &started {
                    cache.end_flush(*k, now);
                }
            }
            match result {
                Ok(()) => {
                    let mut st = self.s.stats.borrow_mut();
                    st.blocks_flushed += started.len() as u64;
                }
                Err(_) => {
                    self.s.stats.borrow_mut().flush_errors += 1;
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

    async fn multimedia_prefetch(&self, ino: Ino) {
        // The "active file": a thread of control that pre-loads data and
        // keeps its own residency bound so continuous-media data cannot
        // flood the cache (§2).
        let mut resident: Vec<u64> = Vec::new();
        let mut blk = 0u64;
        loop {
            if self.s.shutdown.get() {
                break;
            }
            if !self.s.open_counts.borrow().contains_key(&ino) {
                break;
            }
            let blocks = match self.get_inode_rc(ino).await {
                Ok(rc) => {
                    let b = rc.borrow().blocks();
                    b
                }
                Err(_) => break,
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

/// A client's view of a shared [`FileSystem`]: every engine handle is
/// the same cache + layout + driver, but operations issued through a
/// `ClientFs` are attributed to its client id (today: dirty-block flush
/// accounting; the attribution point for any future per-client QoS).
///
/// Cloneable and cheap — a multi-client workload clones the engine once
/// per client task and drives the abstract client interface through it.
///
/// With a [`HistoryLog`] attached ([`ClientFs::with_history`]), every
/// operation is additionally recorded as an *(invoke, ack)* interval
/// plus its observable outcome — the multi-client history a
/// linearizability checker consumes. A failed operation is recorded
/// with its error and never reads as acknowledged.
#[derive(Clone)]
pub struct ClientFs {
    fs: FileSystem,
    id: u32,
    history: Option<HistoryLog>,
}

impl ClientFs {
    /// The underlying shared engine.
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Attaches a history log: every subsequent operation through this
    /// handle is recorded into `log` (shared across clones, so N
    /// clients recording into one log form a single history).
    pub fn with_history(mut self, log: HistoryLog) -> ClientFs {
        self.history = Some(log);
        self
    }

    /// The envelope every client operation runs in: open the
    /// per-operation root span on this client's trace lane (routing the
    /// current task there, so the engine-internal spans the op runs
    /// through — lock waits, cache loads, flush stalls — nest under
    /// it) with `fields` attached, take the invoke timestamp, run the
    /// engine call `call` makes, record the completed operation, close
    /// the span. The span is free when tracing is disabled; the
    /// timestamp is taken, and `event` evaluated, only when a history
    /// is attached. `call` builds its future here, inside the
    /// envelope's own state, rather than handing one in: moving an
    /// engine future costs a copy of its whole state per operation.
    async fn op<T, Fut: std::future::Future<Output = FsResult<T>>>(
        &self,
        name: &'static str,
        fields: &[(&'static str, u64)],
        call: impl FnOnce() -> Fut,
        event: impl FnOnce(&FsResult<T>) -> Option<(HistOp, HistOutcome)>,
    ) -> FsResult<T> {
        use cnp_obs::trace;
        let h = &self.fs.s.handle;
        let sp = if trace::enabled() {
            let lane = trace::client_lane(self.id);
            trace::set_task_lane(h.task_key(), lane);
            let sp = trace::span_enter_on(lane, name, h.now().as_nanos());
            for &(key, v) in fields {
                trace::span_field(sp, key, trace::Field::U64(v));
            }
            sp
        } else {
            trace::SpanToken::NONE
        };
        let invoke_ns = self.history.as_ref().map(|_| h.now().as_nanos());
        let r = call().await;
        if let (Some(log), Some(invoke_ns)) = (self.history.as_ref(), invoke_ns) {
            let ack_ns = h.now().as_nanos();
            if let Some((op, outcome)) = event(&r) {
                log.record(HistoryEvent { client: self.id, invoke_ns, ack_ns, op, outcome });
            }
        }
        h.trace_exit(sp);
        r
    }

    /// Resolves a path to an inode number.
    pub async fn lookup(&self, path: &str) -> FsResult<Ino> {
        let hist = |r: &_| Some((HistOp::Lookup { path: path.to_string() }, ino_outcome(r)));
        self.op("op:lookup", &[], || self.fs.lookup(path), hist).await
    }

    /// Creates a regular (or typed) file.
    pub async fn create(&self, path: &str, kind: FileKind) -> FsResult<Ino> {
        let hist = |r: &_| {
            let path = path.to_string();
            let op = if kind == FileKind::Directory {
                HistOp::Mkdir { path }
            } else {
                HistOp::Create { path }
            };
            Some((op, ino_outcome(r)))
        };
        self.op("op:create", &[], || self.fs.create(path, kind), hist).await
    }

    /// Creates a directory.
    pub async fn mkdir(&self, path: &str) -> FsResult<Ino> {
        let hist = |r: &_| Some((HistOp::Mkdir { path: path.to_string() }, ino_outcome(r)));
        self.op("op:mkdir", &[], || self.fs.mkdir(path), hist).await
    }

    /// Lists a directory (not recorded in the history — it is not part
    /// of the linearizability vocabulary).
    pub async fn readdir(&self, path: &str) -> FsResult<Vec<Dirent>> {
        self.op("op:readdir", &[], || self.fs.readdir(path), |_| None).await
    }

    /// Opens a file.
    pub async fn open(&self, path: &str) -> FsResult<Ino> {
        let hist = |r: &_| Some((HistOp::Open { path: path.to_string() }, ino_outcome(r)));
        self.op("op:open", &[], || self.fs.open(path), hist).await
    }

    /// Closes an open file.
    pub async fn close(&self, ino: Ino) -> FsResult<()> {
        let hist = |r: &_| Some((HistOp::Close { ino: ino.0 }, unit_outcome(r)));
        self.op("op:close", &[], || self.fs.close(ino), hist).await
    }

    /// Stats a file by path.
    pub async fn stat(&self, path: &str) -> FsResult<Inode> {
        let hist = |r: &_| {
            let size = outcome_of(r, |inode: &Inode| HistOutcome::Size(inode.size));
            Some((HistOp::Stat { path: path.to_string() }, size))
        };
        self.op("op:stat", &[], || self.fs.stat(path), hist).await
    }

    /// Stats a file by inode number (no path walk; not recorded in the
    /// history — like `readdir`, it is not part of the linearizability
    /// vocabulary).
    pub async fn stat_ino(&self, ino: Ino) -> FsResult<Inode> {
        self.op("op:stat_ino", &[], || self.fs.stat_ino(ino), |_| None).await
    }

    /// Reads `len` bytes at `offset`.
    pub async fn read(&self, ino: Ino, offset: u64, len: u64) -> FsResult<(u64, Option<Vec<u8>>)> {
        let hist = |r: &_| {
            let bytes = outcome_of(r, |(n, _): &(u64, _)| HistOutcome::Bytes(*n));
            Some((HistOp::Read { ino: ino.0, offset, len }, bytes))
        };
        let fields = [("ino", ino.0), ("len", len)];
        self.op("op:read", &fields, || self.fs.read(ino, offset, len), hist).await
    }

    /// Writes `len` bytes at `offset`, attributed to this client.
    pub async fn write(
        &self,
        ino: Ino,
        offset: u64,
        len: u64,
        data: Option<&[u8]>,
    ) -> FsResult<u64> {
        let hist = |r: &_| {
            Some((HistOp::Write { ino: ino.0, offset, len }, outcome_of(r, |_| HistOutcome::Ok)))
        };
        let fields = [("ino", ino.0), ("len", len)];
        self.op("op:write", &fields, || self.fs.write_for(self.id, ino, offset, len, data), hist)
            .await
    }

    /// Truncates a file to `new_size` bytes.
    pub async fn truncate(&self, ino: Ino, new_size: u64) -> FsResult<()> {
        let hist = |r: &_| Some((HistOp::Truncate { ino: ino.0, size: new_size }, unit_outcome(r)));
        self.op("op:truncate", &[], || self.fs.truncate(ino, new_size), hist).await
    }

    /// Removes a file.
    pub async fn unlink(&self, path: &str) -> FsResult<()> {
        let hist = |r: &_| Some((HistOp::Unlink { path: path.to_string() }, unit_outcome(r)));
        self.op("op:unlink", &[], || self.fs.unlink(path), hist).await
    }

    /// Removes an empty directory.
    pub async fn rmdir(&self, path: &str) -> FsResult<()> {
        let hist = |r: &_| Some((HistOp::Rmdir { path: path.to_string() }, unit_outcome(r)));
        self.op("op:rmdir", &[], || self.fs.rmdir(path), hist).await
    }

    /// Renames a file or directory.
    pub async fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let hist = |r: &_| {
            Some((HistOp::Rename { from: from.to_string(), to: to.to_string() }, unit_outcome(r)))
        };
        self.op("op:rename", &[], || self.fs.rename(from, to), hist).await
    }
}

/// A result's history outcome: `ok` of the value, or the failure.
fn outcome_of<T>(r: &FsResult<T>, ok: impl FnOnce(&T) -> HistOutcome) -> HistOutcome {
    match r {
        Ok(v) => ok(v),
        Err(e) => HistOutcome::Failed(e.clone()),
    }
}

/// Outcome of an ino-returning operation.
fn ino_outcome(r: &FsResult<Ino>) -> HistOutcome {
    outcome_of(r, |ino| HistOutcome::Ino(ino.0))
}

/// Outcome of a unit operation.
fn unit_outcome(r: &FsResult<()>) -> HistOutcome {
    outcome_of(r, |()| HistOutcome::Ok)
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

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_disk::{sim_disk_driver, CLook, Hp97560};
    use cnp_layout::{LfsLayout, LfsParams};
    use cnp_sim::Sim;

    fn run_fs<F, Fut>(data_mode: DataMode, f: F)
    where
        F: FnOnce(FileSystem) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        run_fs_cfg(FsConfig { data_mode, ..FsConfig::default() }, f)
    }

    fn run_fs_cfg<F, Fut>(cfg: FsConfig, f: F)
    where
        F: FnOnce(FileSystem) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let sim = Sim::new(31);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let layout = Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default()));
        let fs = FileSystem::new(&h, layout, cfg);
        let fs2 = fs.clone();
        sim.block_on("test", async move {
            fs2.format().await.unwrap();
            f(fs2.clone()).await;
            fs2.shutdown();
        });
    }

    #[test]
    fn create_write_read_round_trip_real() {
        run_fs(DataMode::Real, |fs| async move {
            let ino = fs.create("/hello.txt", FileKind::Regular).await.unwrap();
            let data = b"the quick brown fox".repeat(100);
            fs.write(ino, 0, data.len() as u64, Some(&data)).await.unwrap();
            let (n, got) = fs.read(ino, 0, data.len() as u64).await.unwrap();
            assert_eq!(n, data.len() as u64);
            assert_eq!(got.unwrap(), data);
        });
    }

    #[test]
    fn pipelined_read_write_round_trip_real() {
        let cfg = FsConfig { data_mode: DataMode::Real, queue_depth: 8, ..FsConfig::default() };
        run_fs_cfg(cfg, |fs| async move {
            let ino = fs.create("/pipelined.bin", FileKind::Regular).await.unwrap();
            let data: Vec<u8> = (0..96 * 1024u32).map(|i| (i % 251) as u8).collect();
            fs.write(ino, 0, data.len() as u64, Some(&data)).await.unwrap();
            // Unaligned partial overwrite exercises the read-modify path.
            let patch = vec![0xEEu8; 6000];
            fs.write(ino, 1000, patch.len() as u64, Some(&patch)).await.unwrap();
            // Cold read after sync + cache drop is impossible here, but a
            // multi-block read still fans out over misses after unmount
            // evictions; simplest: read the whole range back.
            let (n, got) = fs.read(ino, 0, data.len() as u64).await.unwrap();
            assert_eq!(n, data.len() as u64);
            let mut want = data.clone();
            want[1000..7000].copy_from_slice(&patch);
            assert_eq!(got.unwrap(), want);
            // Unaligned windowed read.
            let (n, got) = fs.read(ino, 4097, 12_345).await.unwrap();
            assert_eq!(n, 12_345);
            assert_eq!(got.unwrap(), want[4097..4097 + 12_345].to_vec());
        });
    }

    #[test]
    fn pipelined_cold_read_builds_device_queue() {
        let cfg = FsConfig { data_mode: DataMode::Real, queue_depth: 8, ..FsConfig::default() };
        run_fs_cfg(cfg, |fs| async move {
            let ino = fs.create("/cold.bin", FileKind::Regular).await.unwrap();
            let noise = fs.create("/noise.bin", FileKind::Regular).await.unwrap();
            let bs = BLOCK_SIZE as u64;
            let data: Vec<u8> = (0..16 * BLOCK_SIZE).map(|i| (i % 127) as u8).collect();
            // Interleave the two files with syncs between them so the
            // log scatters /cold.bin across non-adjacent addresses —
            // a contiguous file would coalesce into one big read.
            for blk in 0..16u64 {
                let lo = (blk * bs) as usize;
                fs.write(ino, blk * bs, bs, Some(&data[lo..lo + bs as usize])).await.unwrap();
                fs.sync().await.unwrap();
                fs.write(noise, blk * bs, bs, Some(&vec![0xAA; bs as usize])).await.unwrap();
                fs.sync().await.unwrap();
            }
            // Remount a second engine over the same driver: its cache is
            // cold, so the multi-block read must go to the device.
            let driver = fs.s.driver.clone();
            let layout = Layout::Lfs(LfsLayout::new(fs.handle(), driver, LfsParams::default()));
            let cfg2 =
                FsConfig { data_mode: DataMode::Real, queue_depth: 8, ..FsConfig::default() };
            let fs2 = FileSystem::new(fs.handle(), layout, cfg2);
            fs2.mount().await.unwrap();
            let ino2 = fs2.lookup("/cold.bin").await.unwrap();
            let (n, got) = fs2.read(ino2, 0, data.len() as u64).await.unwrap();
            assert_eq!(n, data.len() as u64);
            assert_eq!(got.unwrap(), data);
            let stats = fs2.driver_stats();
            assert!(
                stats.max_inflight_seen >= 2.0,
                "cold pipelined read never overlapped: {}",
                stats.max_inflight_seen
            );
            fs2.shutdown();
        });
    }

    #[test]
    fn a_cold_window_reads_runs_not_blocks_and_holes_as_zeroes() {
        let cfg = FsConfig { data_mode: DataMode::Real, queue_depth: 8, ..FsConfig::default() };
        run_fs_cfg(cfg.clone(), |fs| async move {
            let bs = BLOCK_SIZE as u64;
            let ino = fs.create("/runs.bin", FileKind::Regular).await.unwrap();
            // Blocks 0-3 land consecutively in the log; 4-6 are a hole;
            // block 7 follows block 3 on the device but not in the file.
            let head: Vec<u8> = (0..4 * BLOCK_SIZE).map(|i| (i % 113) as u8 + 1).collect();
            fs.write(ino, 0, 4 * bs, Some(&head)).await.unwrap();
            fs.write(ino, 7 * bs, bs, Some(&[9u8; BLOCK_SIZE as usize])).await.unwrap();
            fs.sync().await.unwrap();
            let driver = fs.s.driver.clone();
            let layout = Layout::Lfs(LfsLayout::new(fs.handle(), driver, LfsParams::default()));
            let cold = FileSystem::new(fs.handle(), layout, cfg);
            cold.mount().await.unwrap();
            let ino = cold.lookup("/runs.bin").await.unwrap();
            cold.stat_ino(ino).await.unwrap();
            let reads = cold.driver_stats().reads;
            let (n, got) = cold.read(ino, 0, 8 * bs).await.unwrap();
            assert_eq!(n, 8 * bs);
            let want = [head, vec![0; 3 * BLOCK_SIZE as usize], vec![9; BLOCK_SIZE as usize]];
            assert!(got.unwrap() == want.concat());
            assert_eq!(cold.driver_stats().reads - reads, 2, "one command a run, none a hole");
            cold.shutdown();
        });
    }

    #[test]
    fn pipelined_contents_match_serial_contents() {
        fn contents(queue_depth: u32) -> Vec<u8> {
            let out: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
            let out2 = out.clone();
            let cfg = FsConfig { data_mode: DataMode::Real, queue_depth, ..FsConfig::default() };
            run_fs_cfg(cfg, move |fs| async move {
                let ino = fs.create("/oracle.bin", FileKind::Regular).await.unwrap();
                // Overlapping writes at odd offsets.
                for (i, off) in [(1u8, 0u64), (2, 9000), (3, 40_000), (4, 12_288)] {
                    let chunk = vec![i; 20_000];
                    fs.write(ino, off, chunk.len() as u64, Some(&chunk)).await.unwrap();
                }
                fs.truncate(ino, 50_000).await.unwrap();
                fs.sync().await.unwrap();
                let (n, got) = fs.read(ino, 0, 50_000).await.unwrap();
                assert_eq!(n, 50_000);
                *out2.borrow_mut() = got.unwrap();
            });
            let v = out.borrow().clone();
            v
        }
        assert_eq!(contents(1), contents(8), "queue depth must not change file contents");
    }

    #[test]
    fn an_offset_and_length_past_u64_max_are_too_big_not_wrapped() {
        run_fs(DataMode::Real, |fs| async move {
            let ino = fs.create("/f", FileKind::Regular).await.unwrap();
            fs.write(ino, 0, 2, Some(b"ab")).await.unwrap();
            let r = fs.write(ino, u64::MAX - 1, 4, Some(&[1, 2, 3, 4])).await;
            assert_eq!(r, Err(FsError::TooBig));
            assert_eq!(fs.stat_ino(ino).await.unwrap().size, 2, "the wrapped end became the size");
            // A read that far is a read to the end of the file.
            assert_eq!(fs.read(ino, 1, u64::MAX).await.unwrap(), (1, Some(b"b".to_vec())));
        });
    }

    #[test]
    fn truncate_past_the_largest_file_is_too_big() {
        run_fs(DataMode::Real, |fs| async move {
            let ino = fs.create("/f", FileKind::Regular).await.unwrap();
            fs.write(ino, 0, 2, Some(b"ab")).await.unwrap();
            let largest = MAX_FILE_BLOCKS * BLOCK_SIZE as u64;
            for size in [u64::MAX, largest + 1] {
                assert_eq!(fs.truncate(ino, size).await, Err(FsError::TooBig));
                assert_eq!(fs.stat_ino(ino).await.unwrap().size, 2);
            }
            // Nothing to walk: the next truncate visits two blocks' worth
            // of cache, not 2^52.
            fs.truncate(ino, 0).await.unwrap();
            assert_eq!(fs.stat_ino(ino).await.unwrap().size, 0);
        });
    }

    #[test]
    fn simulated_mode_moves_no_bytes() {
        run_fs(DataMode::Simulated, |fs| async move {
            let ino = fs.create("/sim.dat", FileKind::Regular).await.unwrap();
            fs.write(ino, 0, 8192, None).await.unwrap();
            let (n, data) = fs.read(ino, 0, 8192).await.unwrap();
            assert_eq!(n, 8192);
            assert!(data.is_none());
            assert_eq!(fs.stats().bytes_written, 8192);
        });
    }

    #[test]
    fn client_handles_attribute_flush_traffic() {
        run_fs(DataMode::Simulated, |fs| async move {
            let a = fs.client(0);
            let b = fs.client(1);
            let ia = a.create("/a.dat", FileKind::Regular).await.unwrap();
            let ib = b.create("/b.dat", FileKind::Regular).await.unwrap();
            a.write(ia, 0, 8 * 4096, None).await.unwrap();
            b.write(ib, 0, 4 * 4096, None).await.unwrap();
            fs.sync().await.unwrap();
            let attr = fs.flushes_by_client();
            let of = |id: u32| attr.iter().find(|(c, _)| *c == id).map(|&(_, n)| n).unwrap_or(0);
            assert!(of(0) >= 8, "client 0 flushes missing: {attr:?}");
            assert!(of(1) >= 4, "client 1 flushes missing: {attr:?}");
        });
    }

    fn tiny_cache(flush: &str, data_mode: DataMode, queue_depth: u32) -> FsConfig {
        FsConfig {
            cache: cnp_cache::CacheConfig {
                block_size: BLOCK_SIZE,
                mem_bytes: 8 * BLOCK_SIZE as u64,
                nvram_bytes: None,
            },
            flush: flush.into(),
            data_mode,
            queue_depth,
            ..FsConfig::default()
        }
    }

    #[test]
    fn two_writers_of_one_absent_block_both_land() {
        // Every frame dirty: each writer finds the block absent and
        // parks in `reserve_frame` on a demand flush. The first to wake
        // commits the block; the second must notice, not commit again.
        run_fs_cfg(tiny_cache("ups", DataMode::Simulated, 1), |fs| async move {
            let filler = fs.create("/filler", FileKind::Regular).await.unwrap();
            let shared = fs.create("/shared", FileKind::Regular).await.unwrap();
            fs.write(filler, 0, 16 * 4096, None).await.unwrap();
            let writers = (0..2).map(|c| {
                let client = fs.client(c);
                async move { client.write(shared, 0, 4096, None).await }
            });
            for r in cnp_sim::join_all(writers).await {
                assert_eq!(r, Ok(4096));
            }
            let key = BlockKey::new(FileId(shared.0), 0);
            let state = fs.s.cache.borrow().state_of(key);
            assert!(matches!(state, Some(cnp_cache::BlockState::Dirty { .. })));
            // The second writer's spare frame went back to the pool:
            // the next new block takes it, evicting nothing.
            let evictions = fs.cache_stats().evictions;
            fs.write(shared, 4096, 4096, None).await.unwrap();
            assert_eq!(fs.cache_stats().evictions, evictions);
            assert_eq!(fs.s.cache.borrow().resident(), 8);
        });
    }

    #[test]
    fn a_whole_block_write_may_overtake_a_load_of_the_same_block() {
        // A reader misses and goes to the disk; a whole-block writer —
        // which never waits on `inflight` — makes the blocks resident
        // before the read returns. The load must yield to it, in a
        // window of one block and in a wider one.
        for queue_depth in [1, 8] {
            run_fs_cfg(tiny_cache("ups", DataMode::Real, queue_depth), move |fs| async move {
                let shared = fs.create("/shared", FileKind::Regular).await.unwrap();
                let filler = fs.create("/filler", FileKind::Regular).await.unwrap();
                fs.write(shared, 0, 2 * 4096, Some(&[b'a'; 2 * 4096])).await.unwrap();
                // Push the shared blocks out and leave every frame
                // clean, so neither side waits for a frame.
                fs.write(filler, 0, 8 * 4096, Some(&[b'f'; 8 * 4096])).await.unwrap();
                fs.sync().await.unwrap();
                let key = |blk| BlockKey::new(FileId(shared.0), blk);
                assert!((0..2).all(|b| fs.s.cache.borrow().peek(key(b)).is_none()));
                let writer = fs.client(1);
                let wrote = fs.s.handle.spawn("writer", async move {
                    let n = writer.write(shared, 0, 2 * 4096, Some(&[b'b'; 2 * 4096])).await;
                    assert_eq!(n, Ok(2 * 4096));
                });
                let read = fs.client(0).read(shared, 0, 2 * 4096).await;
                assert!(wrote.is_finished(), "the write must land while the read is at the disk");
                // The two ops overlap: each block read is the old or
                // the new one.
                let (n, got) = read.unwrap();
                assert_eq!(n, 2 * 4096);
                for block in got.unwrap().chunks(4096) {
                    assert!(block == [b'a'; 4096] || block == [b'b'; 4096]);
                }
                // The write is what stays.
                let (_, after) = fs.read(shared, 0, 2 * 4096).await.unwrap();
                assert_eq!(after.unwrap(), vec![b'b'; 2 * 4096]);
                for blk in 0..2 {
                    let state = fs.s.cache.borrow().state_of(key(blk));
                    assert!(matches!(state, Some(cnp_cache::BlockState::Dirty { .. })));
                }
            });
        }
    }

    #[test]
    fn namespace_operations() {
        run_fs(DataMode::Real, |fs| async move {
            fs.mkdir("/a").await.unwrap();
            fs.mkdir("/a/b").await.unwrap();
            fs.create("/a/b/f1", FileKind::Regular).await.unwrap();
            fs.create("/a/b/f2", FileKind::Regular).await.unwrap();
            let names: Vec<String> =
                fs.readdir("/a/b").await.unwrap().into_iter().map(|e| e.name).collect();
            assert_eq!(names, vec!["f1", "f2"]);
            assert!(matches!(fs.mkdir("/a/b").await, Err(FsError::Exists(_))));
            assert!(matches!(
                fs.create("/missing/f", FileKind::Regular).await,
                Err(FsError::NotFound(_))
            ));
            fs.rename("/a/b/f1", "/a/renamed").await.unwrap();
            assert!(fs.lookup("/a/renamed").await.is_ok());
            assert!(matches!(fs.lookup("/a/b/f1").await, Err(FsError::NotFound(_))));
            fs.unlink("/a/b/f2").await.unwrap();
            fs.rmdir("/a/b").await.unwrap();
            assert!(matches!(fs.rmdir("/a").await, Err(FsError::NotEmpty(_))));
        });
    }

    #[test]
    fn rename_into_own_subtree_is_refused() {
        run_fs(DataMode::Real, |fs| async move {
            fs.mkdir("/a").await.unwrap();
            fs.mkdir("/a/b").await.unwrap();
            fs.mkdir("/other").await.unwrap();
            let listing = |fs: FileSystem, path: &'static str| async move {
                dir::encode(&fs.readdir(path).await.unwrap())
            };
            let (root, a, b) = (
                listing(fs.clone(), "/").await,
                listing(fs.clone(), "/a").await,
                listing(fs.clone(), "/a/b").await,
            );
            // Below itself, at any depth, through the engine and through
            // a client handle: refused, nothing written.
            for to in ["/a/b/c", "/a/c"] {
                assert_eq!(fs.rename("/a", to).await, Err(FsError::BadPath(to.to_string())));
                let r = fs.client(3).rename("/a", to).await;
                assert_eq!(r, Err(FsError::BadPath(to.to_string())));
            }
            assert_eq!(listing(fs.clone(), "/").await, root);
            assert_eq!(listing(fs.clone(), "/a").await, a);
            assert_eq!(listing(fs.clone(), "/a/b").await, b);
            assert!(fs.lookup("/a/b").await.is_ok(), "the tree must still hang off the root");
            // Moves that create no cycle still work: sideways, and up.
            fs.rename("/a", "/other/a").await.unwrap();
            fs.rename("/other/a/b", "/b").await.unwrap();
            assert!(fs.lookup("/other/a").await.is_ok());
            assert!(fs.lookup("/b").await.is_ok());
        });
    }

    #[test]
    fn delete_absorbs_dirty_blocks() {
        run_fs(DataMode::Simulated, |fs| async move {
            let ino = fs.create("/doomed", FileKind::Regular).await.unwrap();
            fs.write(ino, 0, 16 * 4096, None).await.unwrap();
            fs.unlink("/doomed").await.unwrap();
            let st = fs.stats();
            assert!(st.absorbed_blocks >= 16, "expected >=16 absorbed, got {}", st.absorbed_blocks);
            // The absorbed blocks never reached the disk as data writes.
            assert_eq!(fs.layout_stats().unwrap().data_writes, 0);
        });
    }

    #[test]
    fn cache_hits_after_first_read() {
        run_fs(DataMode::Real, |fs| async move {
            let ino = fs.create("/f", FileKind::Regular).await.unwrap();
            let data = vec![7u8; 4096];
            fs.write(ino, 0, 4096, Some(&data)).await.unwrap();
            fs.read(ino, 0, 4096).await.unwrap();
            let h1 = fs.cache_stats().hits;
            fs.read(ino, 0, 4096).await.unwrap();
            fs.read(ino, 0, 4096).await.unwrap();
            let h2 = fs.cache_stats().hits;
            assert!(h2 >= h1 + 2, "repeated reads must hit the cache");
        });
    }

    #[test]
    fn symlink_round_trip() {
        for data_mode in [DataMode::Real, DataMode::Simulated] {
            run_fs(data_mode, |fs| async move {
                fs.create("/real-file", FileKind::Regular).await.unwrap();
                fs.symlink("/link", "/real-file").await.unwrap();
                assert_eq!(fs.readlink("/link").await.unwrap(), "/real-file");
            });
        }
    }

    #[test]
    fn sync_then_remount_sees_files() {
        let sim = Sim::new(37);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        sim.block_on("test", async move {
            let layout = Layout::Lfs(LfsLayout::new(&h, driver.clone(), LfsParams::default()));
            let cfg = FsConfig { data_mode: DataMode::Real, ..FsConfig::default() };
            let fs = FileSystem::new(&h, layout, cfg.clone());
            fs.format().await.unwrap();
            fs.mkdir("/docs").await.unwrap();
            let ino = fs.create("/docs/report", FileKind::Regular).await.unwrap();
            let data = vec![0x5a; 10_000];
            fs.write(ino, 0, data.len() as u64, Some(&data)).await.unwrap();
            fs.unmount().await.unwrap();
            // Remount with a fresh engine over the same (shared) disk;
            // the first engine's driver must stay alive until the end.
            let layout2 = Layout::Lfs(LfsLayout::new(&h, driver.clone(), LfsParams::default()));
            let fs2 = FileSystem::new(&h, layout2, cfg);
            fs2.mount().await.unwrap();
            let ino2 = fs2.lookup("/docs/report").await.unwrap();
            let (n, got) = fs2.read(ino2, 0, 10_000).await.unwrap();
            assert_eq!(n, 10_000);
            assert_eq!(got.unwrap(), data);
            fs2.shutdown();
            fs.shutdown();
        });
    }

    #[test]
    fn nvram_pressure_stalls_writes_until_flush() {
        let sim = Sim::new(41);
        let h = sim.handle();
        let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
        let layout = Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default()));
        let cfg = FsConfig {
            cache: cnp_cache::CacheConfig {
                block_size: 4096,
                mem_bytes: 64 * 4096,
                nvram_bytes: Some(4 * 4096),
            },
            flush: "nvram-whole".to_string(),
            data_mode: DataMode::Simulated,
            ..FsConfig::default()
        };
        let fs = FileSystem::new(&h, layout, cfg);
        let fs2 = fs.clone();
        sim.block_on("test", async move {
            fs2.format().await.unwrap();
            let ino = fs2.create("/big", FileKind::Regular).await.unwrap();
            // 16 blocks through a 4-block NVRAM: must stall + drain.
            fs2.write(ino, 0, 16 * 4096, None).await.unwrap();
            let st = fs2.cache_stats();
            assert!(st.nvram_stalls > 0, "writes should have hit the NVRAM bound");
            assert!(fs2.stats().blocks_flushed > 0, "stalls must trigger flushes");
            fs2.shutdown();
        });
    }

    #[test]
    fn multimedia_open_spawns_prefetch() {
        run_fs(DataMode::Real, |fs| async move {
            let ino = fs.create("/video", FileKind::Multimedia).await.unwrap();
            let data = vec![3u8; 64 * 1024];
            fs.write(ino, 0, data.len() as u64, Some(&data)).await.unwrap();
            fs.sync().await.unwrap();
            fs.open("/video").await.unwrap();
            // Give the active file's thread time to prefetch.
            fs.handle().sleep(cnp_sim::SimDuration::from_millis(50)).await;
            let misses_before = fs.cache_stats().misses;
            fs.read(ino, 0, 16 * 4096).await.unwrap();
            let misses_after = fs.cache_stats().misses;
            assert_eq!(misses_before, misses_after, "prefetched reads must hit");
            fs.close(ino).await.unwrap();
        });
    }

    #[test]
    fn multimedia_residency_cap_never_drops_unflushed_blocks() {
        // More dirty blocks than the cap: the active file's thread walks
        // them all while none has been flushed.
        run_fs(DataMode::Real, |fs| async move {
            let ino = fs.create("/video", FileKind::Multimedia).await.unwrap();
            let data: Vec<u8> = (0..100 * BLOCK_SIZE).map(|i| (i / BLOCK_SIZE + 1) as u8).collect();
            fs.write(ino, 0, data.len() as u64, Some(&data)).await.unwrap();
            fs.open("/video").await.unwrap();
            fs.handle().sleep(SimDuration::from_millis(200)).await;
            assert_eq!(fs.cache_stats().absorbed, 0, "acked writes dropped as absorbed");
            fs.sync().await.unwrap();
            let (_, got) = fs.read(ino, 0, data.len() as u64).await.unwrap();
            assert!(got.unwrap() == data, "acked blocks lost to the residency cap");
            fs.close(ino).await.unwrap();
        });
    }
}
