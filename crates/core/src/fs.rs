//! The file-system engine: abstract client interface over cache + layout.
//!
//! This is the cut-and-paste glue (§2): the *abstract client interface*
//! ("functions to open, close, read, write or delete a file and …
//! functions to manipulate an hierarchical name-space"), the global file
//! table, and the orchestration between the block cache's flush policies
//! and the storage layout. The same engine instantiates as Patsy
//! ([`crate::DataMode::Simulated`], virtual clock) and as PFS
//! ([`crate::DataMode::Real`], file-backed driver) — only configuration differs.
//!
//! This file is the engine itself: its shared state, constructor and
//! daemons, the control operations (format, mount, sync, unmount), and
//! the lock helpers that state the lock order. The client interface is
//! in the child modules, split where the locks split it: the name path
//! (`ns`), the data path (`data`), durability (`durability`), the
//! counters (`metrics`) and the per-client handle (`client`).

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

use cnp_cache::{flush_by_name_batched, replacement_by_name, BlockCache, BlockKey, FixedState};
use cnp_disk::DiskDriver;
use cnp_layout::{Ino, Inode, Layout, LayoutError, StorageLayout};
use cnp_sim::{
    channel, Event, Handle, Receiver, Sender, ShardedMutex, SimDuration, TrackedMutex,
    TrackedMutexGuard,
};

use crate::config::FsConfig;
use crate::error::FsResult;
use data::ReadScratch;
use names::NameMemos;

mod client;
mod data;
mod durability;
mod metrics;
mod names;
mod ns;

pub use client::ClientFs;
pub use durability::NvramSnapshot;
pub use metrics::FsStats;

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
    /// One record per inode in memory; `unlink` and `rmdir` drop it.
    inodes: RefCell<HashMap<Ino, Rc<InodeRecord>, FixedState>>,
    inflight: RefCell<HashMap<BlockKey, Event, FixedState>>,
    /// Idle [`ReadScratch`]es: a read takes one and puts it back, so
    /// the miss path allocates for its I/O and not for its bookkeeping.
    scratch: RefCell<Vec<ReadScratch>>,
    /// What the name path has validated of single-block directories,
    /// by the content stamp of the cache frame it read them in.
    names: RefCell<NameMemos>,
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

/// What the engine holds of one inode in memory: the inode and the two
/// facts about it that must die with it.
struct InodeRecord {
    inode: RefCell<Inode>,
    /// Completed size-relevant ops (writes, truncates). A failed write's
    /// speculative size extension may only roll back if nothing else
    /// completed in between — otherwise the rollback could clobber a
    /// concurrent client's acked extension to the same end.
    generation: Cell<u64>,
    /// Opens not yet closed.
    opens: Cell<u32>,
}

impl InodeRecord {
    fn new(inode: Inode) -> Rc<InodeRecord> {
        let (generation, opens) = (Cell::new(0), Cell::new(0));
        Rc::new(InodeRecord { inode: RefCell::new(inode), generation, opens })
    }
}

/// Fixed per-operation request-handling overhead.
const OP_OVERHEAD: SimDuration = SimDuration::from_micros(100);

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
            inflight: RefCell::default(),
            scratch: RefCell::default(),
            names: RefCell::default(),
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
        let (tx, rx) = channel::<Vec<BlockKey>>(&handle);
        *self.s.flush_tx.borrow_mut() = Some(tx);
        let fs = self.clone();
        handle.spawn("fs:flush-daemon", async move {
            fs.flush_daemon(rx).await;
        });
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
                        fs.enqueue_flush(keys);
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

    /// Configured stripe count of the interior lock families.
    pub fn shards(&self) -> u32 {
        self.s.cfg.shards.max(1)
    }

    /// Configured I/O pipeline depth — the bound a serving tier above
    /// the engine should admit concurrent requests against.
    pub fn queue_depth(&self) -> u32 {
        self.s.cfg.queue_depth.max(1)
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

    /// Flushes everything and checkpoints the layout.
    pub async fn sync(&self) -> FsResult<()> {
        // A durability point: its caller waits for the write anyway, so
        // it flushes inline instead of handing the batch to the daemon.
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
            let inode = self.s.inodes.borrow().get(&ino).map(|rec| rec.inode.borrow().clone());
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

    async fn op_begin(&self) {
        self.s.stats.borrow_mut().ops += 1;
        self.s.handle.sleep(OP_OVERHEAD).await;
    }

    /// The in-memory record of inode `ino`, read from the layout the
    /// first time it is asked for.
    async fn inode_record(&self, ino: Ino) -> FsResult<Rc<InodeRecord>> {
        if let Some(rec) = self.s.inodes.borrow().get(&ino) {
            return Ok(rec.clone());
        }
        let inode = {
            let g = self.s.layout.lock().await;
            let inode = g.get_mut().get_inode(ino).await?;
            inode
        };
        let mut inodes = self.s.inodes.borrow_mut();
        Ok(inodes.entry(ino).or_insert_with(|| InodeRecord::new(inode)).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DataMode;
    use crate::error::FsError;
    use cnp_cache::{BlockState, FileId};
    use cnp_disk::{compose_device, sim_disk_driver, CLook, DiskModel, FaultPlan, Hp97560};
    use cnp_layout::{
        dir, FfsLayout, FfsParams, FileKind, LfsLayout, LfsParams, BLOCK_SIZE, MAX_FILE_BLOCKS,
    };
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
                Box::pin(async move { client.write(shared, 0, 4096, None).await })
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
    fn a_walk_through_a_file_names_the_path_not_the_inode() {
        run_fs(DataMode::Real, |fs| async move {
            fs.mkdir("/d").await.unwrap();
            fs.create("/d/file", FileKind::Regular).await.unwrap();
            let not_a_dir = |path: &str| FsError::NotADirectory(path.to_string());
            // `resolve` (every component is looked in) and
            // `resolve_parent` (every component but the last must be a
            // directory) say the same thing about the same path.
            assert_eq!(fs.stat("/d/file/x").await.unwrap_err(), not_a_dir("/d/file/x"));
            assert_eq!(fs.lookup("/d/file/x/y").await.unwrap_err(), not_a_dir("/d/file/x/y"));
            assert_eq!(fs.readdir("/d/file").await.unwrap_err(), not_a_dir("/d/file"));
            let r = fs.create("/d/file/x", FileKind::Regular).await;
            assert_eq!(r.unwrap_err(), not_a_dir("/d/file/x"));
            assert_eq!(fs.unlink("/d/file/x/y").await.unwrap_err(), not_a_dir("/d/file/x/y"));
            assert_eq!(fs.client(1).stat("/d/file/x").await.unwrap_err(), not_a_dir("/d/file/x"));
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

    const RETRIES: u8 = durability::FLUSH_RETRIES;

    /// Builds a fault script's layout over the driver.
    type Build = fn(&cnp_sim::Handle, cnp_disk::DiskDriver) -> Layout;

    /// The fault scripts' FFS. It allocates a file's blocks from its
    /// group up and hands out the lowest free ino: what a script does
    /// before its first flush decides where that flush lands, whatever
    /// the plan.
    fn ffs(h: &cnp_sim::Handle, driver: cnp_disk::DiskDriver) -> Layout {
        Layout::Ffs(FfsLayout::new(h, driver, FfsParams { ninodes: 1024, ngroups: 4 }))
    }

    /// The fault scripts' LFS: the log head after `format` is the first
    /// data segment, so a script's first flush lands there.
    fn lfs(h: &cnp_sim::Handle, driver: cnp_disk::DiskDriver) -> Layout {
        Layout::Lfs(LfsLayout::new(h, driver, LfsParams::default()))
    }

    /// Runs `body` on a formatted real-mode engine over `layout`, with
    /// `frames` cache blocks under `ups` (nothing flushes but `sync` and
    /// a full cache), whose one disk executes `plan`.
    fn run_engine<T, Fut>(
        layout: Build,
        plan: FaultPlan,
        frames: u64,
        body: impl FnOnce(FileSystem) -> Fut + 'static,
    ) -> T
    where
        T: 'static,
        Fut: std::future::Future<Output = T> + 'static,
    {
        let sim = Sim::new(31);
        let h = sim.handle();
        let models: Vec<Box<dyn DiskModel>> = vec![Box::new(Hp97560::new())];
        let (driver, _disks) =
            compose_device(&h, "d0", models, None, Box::new(CLook), plan, None, None);
        let layout = layout(&h, driver);
        let cache = cnp_cache::CacheConfig {
            block_size: BLOCK_SIZE,
            mem_bytes: frames * BLOCK_SIZE as u64,
            nvram_bytes: None,
        };
        let cfg = FsConfig {
            cache,
            flush: "ups".into(),
            data_mode: DataMode::Real,
            ..FsConfig::default()
        };
        let fs = FileSystem::new(&h, layout, cfg);
        sim.block_on("test", async move {
            fs.format().await.unwrap();
            let out = body(fs.clone()).await;
            fs.shutdown();
            out
        })
    }

    /// Creates `/f` and writes its block 0 — the opening of every retry
    /// script, so each one's first flush lands where [`first_block`]
    /// found it.
    async fn create_f(fs: &FileSystem) -> Ino {
        let ino = fs.create("/f", FileKind::Regular).await.unwrap();
        fs.write(ino, 0, BLOCK_SIZE as u64, Some(&[1; BLOCK_SIZE as usize])).await.unwrap();
        ino
    }

    /// Where `/f`'s block 0 lands on a healthy disk under `layout`.
    fn first_block(layout: Build) -> u64 {
        run_engine(layout, FaultPlan::default(), 64, |fs| async move {
            let ino = create_f(&fs).await;
            fs.sync().await.unwrap();
            let addr = fs.s.inodes.borrow()[&ino].inode.borrow().direct[0];
            addr.0
        })
    }

    /// A disk whose `n` blocks from `/f`'s first home under `layout` on
    /// fail every write. On FFS each failed flush leaks the block it was
    /// allocated, so the next attempt lands one further on.
    fn bad_blocks(layout: Build, n: u64) -> FaultPlan {
        let lba = first_block(layout) * (BLOCK_SIZE / 512) as u64;
        FaultPlan {
            bad_ranges: vec![(lba, lba + n * (BLOCK_SIZE / 512) as u64)],
            ..FaultPlan::default()
        }
    }

    fn state_of(fs: &FileSystem, ino: Ino) -> Option<BlockState> {
        fs.s.cache.borrow().state_of(BlockKey::new(FileId(ino.0), 0))
    }

    /// Syncs until block 0 of `ino` is clean; returns the syncs that
    /// took and how many of them failed to write it (`fs.flush_errors`).
    async fn sync_until_clean(fs: &FileSystem, ino: Ino) -> (u8, u64) {
        let errors = fs.stats().flush_errors;
        for syncs in 1..=2 * RETRIES {
            fs.sync().await.unwrap();
            if state_of(fs, ino) == Some(BlockState::Clean) {
                return (syncs, fs.stats().flush_errors - errors);
            }
        }
        panic!("block 0 still dirty after {} syncs", 2 * RETRIES);
    }

    #[test]
    fn a_flush_that_fails_once_is_redirtied_and_lands() {
        run_engine(ffs, bad_blocks(ffs, 1), 64, |fs| async move {
            let ino = create_f(&fs).await;
            assert_eq!(sync_until_clean(&fs, ino).await, (2, 1), "one failure, then written");
            // Read back from the disk, not the cache.
            fs.s.cache.borrow_mut().remove_block(BlockKey::new(FileId(ino.0), 0));
            let (_, got) = fs.read(ino, 0, BLOCK_SIZE as u64).await.unwrap();
            assert_eq!(got.unwrap(), vec![1; BLOCK_SIZE as usize]);
        });
    }

    #[test]
    fn a_block_that_never_flushes_is_given_up_after_flush_retries_attempts() {
        run_engine(ffs, bad_blocks(ffs, 16), 64, |fs| async move {
            let ino = create_f(&fs).await;
            assert_eq!(sync_until_clean(&fs, ino).await, (RETRIES, RETRIES as u64));
            // Given up: nothing left to flush, and a sync is quick again.
            assert_eq!(fs.s.cache.borrow().dirty_count(), 0);
            let errors = fs.stats().flush_errors;
            fs.sync().await.unwrap();
            assert_eq!(fs.stats().flush_errors, errors);
        });
    }

    #[test]
    fn after_a_give_up_the_next_failing_run_gets_every_attempt() {
        run_engine(ffs, bad_blocks(ffs, 16), 64, |fs| async move {
            let ino = create_f(&fs).await;
            assert_eq!(sync_until_clean(&fs, ino).await, (RETRIES, RETRIES as u64));
            fs.write(ino, 0, 4, Some(b"more")).await.unwrap();
            assert_eq!(sync_until_clean(&fs, ino).await, (RETRIES, RETRIES as u64));
        });
    }

    #[test]
    fn a_block_truncated_away_and_rewritten_gets_every_attempt() {
        run_engine(ffs, bad_blocks(ffs, 16), 64, |fs| async move {
            let ino = create_f(&fs).await;
            fs.sync().await.unwrap();
            assert_eq!(fs.stats().flush_errors, 1);
            assert!(matches!(state_of(&fs, ino), Some(BlockState::Dirty { .. })), "re-dirtied");
            // The failed block dies in the cache; a new one takes its key.
            fs.truncate(ino, 0).await.unwrap();
            assert_eq!(state_of(&fs, ino), None);
            fs.write(ino, 0, BLOCK_SIZE as u64, Some(&[2; BLOCK_SIZE as usize])).await.unwrap();
            assert_eq!(
                sync_until_clean(&fs, ino).await,
                (RETRIES, RETRIES as u64),
                "a rewritten block inherited the failure count of the block it replaced"
            );
        });
    }

    /// On LFS a flush only queues its segment's seal; the seal writer
    /// meets the bad block. That failure poisons the log, and the engine
    /// reports it where a caller can act: the next `sync` returns it,
    /// and a flush that seals a segment afterwards counts a flush error.
    #[test]
    fn a_failed_segment_seal_reaches_sync_and_counts_as_a_flush_error() {
        run_engine(lfs, bad_blocks(lfs, 1), 1024, |fs| async move {
            let ino = create_f(&fs).await;
            // A segment and a half: the first seal is the one that fails.
            let data = vec![2u8; 200 * BLOCK_SIZE as usize];
            fs.write(ino, 0, data.len() as u64, Some(&data)).await.unwrap();
            assert!(fs.sync().await.is_err(), "the failed seal must reach the next sync");
            assert_eq!(fs.stats().flush_errors, 0, "the flush itself only queued the seal");
            fs.write(ino, 0, data.len() as u64, Some(&data)).await.unwrap();
            assert!(fs.sync().await.is_err(), "the log stays poisoned");
            assert!(fs.stats().flush_errors > 0, "a flush that seals onto it failed");
        });
    }

    #[test]
    fn the_first_open_of_a_reused_ino_prefetches() {
        // A multimedia file opened and unlinked without a close: the
        // next file FFS creates gets its ino, and its first open must
        // start the prefetch thread as any first open does.
        run_engine(ffs, FaultPlan::default(), 16, |fs| async move {
            let old = fs.create("/old", FileKind::Multimedia).await.unwrap();
            fs.open("/old").await.unwrap();
            fs.unlink("/old").await.unwrap();
            let new = fs.create("/new", FileKind::Multimedia).await.unwrap();
            assert_eq!(new, old, "FFS hands out the lowest free ino again");
            let data = vec![3u8; 8 * BLOCK_SIZE as usize];
            fs.write(new, 0, data.len() as u64, Some(&data)).await.unwrap();
            // Push /new's blocks out of the cache.
            let filler = fs.create("/filler", FileKind::Regular).await.unwrap();
            let bytes = vec![0u8; 32 * BLOCK_SIZE as usize];
            fs.write(filler, 0, bytes.len() as u64, Some(&bytes)).await.unwrap();
            fs.sync().await.unwrap();
            let resident = |fs: &FileSystem| {
                let cache = fs.s.cache.borrow();
                (0..8).filter(|&b| cache.peek(BlockKey::new(FileId(new.0), b)).is_some()).count()
            };
            assert_eq!(resident(&fs), 0, "the filler must have evicted /new");
            fs.open("/new").await.unwrap();
            fs.handle().sleep(SimDuration::from_millis(500)).await;
            assert_eq!(resident(&fs), 8, "the first open of /new never prefetched it");
            fs.close(new).await.unwrap();
        });
    }
}
