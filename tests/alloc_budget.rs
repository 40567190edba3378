//! Allocation budgets: cost follows the work asked for, not the size of
//! the structure it is asked of.
//!
//! The name path: what an operation allocates depends on how many
//! *blocks* its directory spans, never on how many *entries* it holds.
//! A lookup scans the packed bytes where they sit (one gathered copy if
//! the directory spans several blocks); a create or unlink moves one
//! record in one gathered copy, and that copy is the buffer that moves
//! into the cache frame. Nothing builds a listing, and a single-block
//! directory nobody rewrites is validated twice and then looked up in
//! place for nothing.
//!
//! The block cache: what a flush pick allocates depends on what it
//! *picks*, never on how much is *dirty*; committing a simulated block
//! allocates nothing but, for a file's first block, the file's list in
//! the index; dropping a file allocates nothing.
//!
//! The data path: a read or write of N blocks in one call allocates what
//! its blocks do — nothing for a resident block off-line, its load for a
//! missing one — and nothing for the call.
//!
//! The platter store: a block-sized write costs its frame, a captured
//! image its table of frame pointers, a simulated write nothing — never
//! a box per 512-byte sector.
//!
//! The simulation kernel: a wait on a primitive allocates nothing, and a
//! spawn allocates its boxed future and nothing else. A batch of disk
//! commands allocates the same whatever its length.
//!
//! Workloads: a generated trace allocates one path per distinct file,
//! not one per record, and a client plan's clone copies its op list and
//! no path.
//!
//! Counts come from this file's own counting allocator, per thread, so
//! the test harness's other threads do not pollute them.

use std::alloc::{GlobalAlloc, Layout as MemLayout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::rc::Rc;

use cut_and_paste::cache::{
    flush_by_name, BlockCache, BlockKey, CacheConfig, DirtyOutcome, FileId, Lru, Reserve,
};
use cut_and_paste::core::{FileSystem, FsConfig};
use cut_and_paste::disk::{
    compose_device, sim_disk_driver, store_sectors, CLook, DiskClient, DiskDriver, DiskImage,
    DiskModel, DiskOpts, FaultPlan, Hp97560, IoOp, Payload, ScsiBus,
};
use cut_and_paste::layout::{FileKind, Ino, Inode, Layout, LfsLayout, LfsParams, BLOCK_SIZE};
use cut_and_paste::sim::{Event, Handle, Resource, Semaphore, Sim, SimDuration, SimTime};
use cut_and_paste::trace::{trace_1a, SyntheticSprite};
use cut_and_paste::workload::{ClientPlan, Scenario, WorkloadKind};

thread_local! {
    // Const-initialised and without a destructor: reading it from
    // inside the allocator never allocates and never finds it torn down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Those of them that asked for exactly one file-system block.
    static BLOCK_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of allocations (a regrow counts).
struct Counting;

fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    if size == BLOCK_SIZE as usize {
        BLOCK_ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: MemLayout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: MemLayout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: MemLayout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from
        // `System`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: MemLayout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn block_allocs() -> u64 {
    BLOCK_ALLOCS.with(Cell::get)
}

/// Fewest allocations `op` makes over a few runs: the floor leaves out
/// one-off table growth and whatever a background daemon did meanwhile.
async fn floor_of<Fut: std::future::Future<Output = ()>>(mut op: impl FnMut() -> Fut) -> u64 {
    let mut floor = u64::MAX;
    for _ in 0..5 {
        let before = allocs();
        op().await;
        floor = floor.min(allocs() - before);
    }
    floor
}

/// Creates `dir` holding `names`; returns how many blocks it spans.
async fn populate(fs: &FileSystem, dir: &str, names: &[String]) -> u64 {
    fs.mkdir(dir).await.unwrap();
    for name in names {
        fs.create(&format!("{dir}/{name}"), FileKind::Regular).await.unwrap();
    }
    fs.stat(dir).await.unwrap().size.div_ceil(BLOCK_SIZE as u64)
}

#[test]
fn name_path_cost_follows_blocks_not_entries() {
    let sim = Sim::new(7);
    let h = sim.handle();
    let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
    let layout = Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default()));
    let fs = FileSystem::new(&h, layout, FsConfig::default());
    sim.block_on("alloc-budget", async move {
        fs.format().await.unwrap();
        let short = |n: usize| (0..n).map(|i| format!("file{i:04}")).collect::<Vec<_>>();
        let long = |n: usize| (0..n).map(|i| format!("file{i:04}{}", "x".repeat(247))).collect();
        // Two directories of two blocks each, 16 entries against 256;
        // and 16 entries in one block.
        let wide: Vec<String> = long(16);
        assert_eq!(populate(&fs, "/wide", &wide).await, 2);
        assert_eq!(populate(&fs, "/many", &short(256)).await, 2);
        assert_eq!(populate(&fs, "/small", &short(16)).await, 1);

        // stat, every block already cached.
        let stat_of = |path: String| {
            let fs = &fs;
            floor_of(move || {
                let path = path.clone();
                async move {
                    fs.stat(&path).await.unwrap();
                }
            })
        };
        let stat_wide = stat_of(format!("/wide/{}", wide[7])).await;
        let stat_many = stat_of("/many/file0007".into()).await;
        let stat_small = stat_of("/small/file0007".into()).await;
        assert_eq!(
            stat_many, stat_wide,
            "stat among 256 entries must allocate what stat among 16 does (both two blocks)"
        );
        // What reading one cached directory block costs: "/small"
        // resolves through the root's one block, "/" through none.
        let block_read = stat_of("/small".into()).await - stat_of("/".into()).await;
        assert_eq!(
            stat_many - stat_small,
            block_read + 1,
            "a second directory block costs its read and one gather buffer, nothing else"
        );

        // create + unlink of one more name.
        let churn_of = |dir: &'static str| {
            let fs = &fs;
            floor_of(move || async move {
                let path = format!("{dir}/one-more");
                fs.create(&path, FileKind::Regular).await.unwrap();
                fs.unlink(&path).await.unwrap();
            })
        };
        let (churn_wide, churn_many) = (churn_of("/wide").await, churn_of("/many").await);
        assert!(
            churn_many.abs_diff(churn_wide) <= 1,
            "create + unlink among 256 entries allocated {churn_many}, among 16 {churn_wide}: \
             more apart than one regrown gather buffer"
        );
        fs.shutdown();
    });
}

#[test]
fn an_unchanged_directory_is_looked_up_in_place_and_a_rewrite_keeps_one_buffer() {
    let sim = Sim::new(7);
    let h = sim.handle();
    let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
    let layout = Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default()));
    let fs = FileSystem::new(&h, layout, FsConfig::default());
    sim.block_on("alloc-budget", async move {
        fs.format().await.unwrap();
        let names: Vec<String> = (0..16).map(|i| format!("file{i:04}")).collect();
        assert_eq!(populate(&fs, "/small", &names).await, 1);
        assert_eq!(fs.stat("/").await.unwrap().size.div_ceil(BLOCK_SIZE as u64), 1);

        // A lookup through two single-block directories nobody is
        // rewriting: the first call walks them, the second walks them
        // again and keeps an index, and from the third on nothing is
        // allocated, whether the name is there or not.
        let mut per_call = Vec::new();
        for _ in 0..6 {
            let before = allocs();
            fs.lookup("/small/file0007").await.unwrap();
            fs.lookup("/small/no-such-file").await.unwrap_err();
            per_call.push(allocs() - before);
        }
        // One `String` in the `NotFound` of the missing name.
        assert_eq!(per_call[2..], [1; 4], "lookups of unchanged directories: {per_call:?}");

        // A create in a single-block directory: the block-sized buffers
        // it asks for are the gathered copy of the directory, which
        // then moves into the cache frame, and nothing else; an unlink
        // likewise.
        let mut create = u64::MAX;
        let mut unlink = u64::MAX;
        for _ in 0..5 {
            let before = block_allocs();
            fs.create("/small/one-more", FileKind::Regular).await.unwrap();
            create = create.min(block_allocs() - before);
            let before = block_allocs();
            fs.unlink("/small/one-more").await.unwrap();
            unlink = unlink.min(block_allocs() - before);
        }
        assert_eq!((create, unlink), (1, 1), "block-sized buffers of a create and of an unlink");
        fs.shutdown();
    });
}

#[test]
fn serializing_an_inode_allocates_nothing() {
    let mut inode = Inode::new(Ino(9), FileKind::Directory);
    (inode.size, inode.nlink, inode.mtime) = (12_345, 2, 678);
    let before = allocs();
    let bytes = inode.to_bytes();
    assert_eq!(allocs() - before, 0);
    assert_eq!(Inode::from_bytes(&bytes), Some(inode));
}

/// A cache of `dirty + 1` frames whose NVRAM holds `dirty` blocks, all
/// of them dirty: `files` files of `dirty / files` blocks each, dirtied
/// file by file. One more clean block, `probe`, is resident.
fn full_nvram(policy: &str, dirty: u64, files: u64) -> (BlockCache, BlockKey) {
    let cfg = CacheConfig {
        block_size: BLOCK_SIZE,
        mem_bytes: (dirty + 1) * BLOCK_SIZE as u64,
        nvram_bytes: Some(dirty * BLOCK_SIZE as u64),
    };
    let lru = Box::new(Lru::new(cfg.frames()));
    let mut cache = BlockCache::new(cfg, lru, flush_by_name(policy).expect("known policy"));
    let now = SimTime::ZERO;
    let insert = |cache: &mut BlockCache, key| match cache.reserve() {
        Reserve::Frame(frame) => cache.commit(frame, key, None, now),
        Reserve::NeedFlush(_) => panic!("the cache has a frame for every block"),
    };
    for i in 0..dirty {
        let key = BlockKey::new(FileId(i / (dirty / files)), i % (dirty / files));
        insert(&mut cache, key);
        assert_eq!(cache.mark_dirty(key, now), DirtyOutcome::Ok);
    }
    let probe = BlockKey::new(FileId(u64::MAX), 0);
    insert(&mut cache, probe);
    (cache, probe)
}

/// Allocations of one NVRAM stall on `cache`, and how many blocks the
/// policy picked.
fn stall(cache: &mut BlockCache, probe: BlockKey) -> (u64, usize) {
    let before = allocs();
    let outcome = cache.mark_dirty(probe, SimTime::ZERO);
    let spent = allocs() - before;
    match outcome {
        DirtyOutcome::NeedFlush(picks) => (spent, picks.len()),
        DirtyOutcome::Ok => panic!("NVRAM is full"),
    }
}

#[test]
fn flush_pick_cost_follows_the_pick_not_the_dirty_set() {
    // Partial-file: the oldest block, whatever else is dirty.
    let (mut few, probe_few) = full_nvram("nvram-partial", 16, 16);
    let (mut many, probe_many) = full_nvram("nvram-partial", 1024, 1024);
    let (few, many) = (stall(&mut few, probe_few), stall(&mut many, probe_many));
    assert_eq!((few.1, many.1), (1, 1));
    assert_eq!(
        many.0, few.0,
        "a stall with 1,024 blocks dirty must allocate what one with 16 does"
    );
    assert_eq!(few.0, 1, "the pick is its own only allocation");

    // Whole-file: the oldest block's file. Eight dirty blocks of it
    // cost the same among 16 dirty blocks as among 1,024 …
    let (mut few, probe_few) = full_nvram("nvram-whole", 16, 2);
    let (mut many, probe_many) = full_nvram("nvram-whole", 1024, 128);
    let (few, many) = (stall(&mut few, probe_few), stall(&mut many, probe_many));
    assert_eq!((few.1, many.1), (8, 8));
    assert_eq!(many.0, few.0, "an 8-block file among 1,024 dirty blocks against among 16");
    assert_eq!(few.0, 1, "the file's blocks go straight into the pick");
    // … and so does a file of 512.
    let (mut big, probe_big) = full_nvram("nvram-whole", 1024, 2);
    let big = stall(&mut big, probe_big);
    assert_eq!(big.1, 512);
    assert_eq!(big.0, 1, "a 512-block file");
}

#[test]
fn committing_a_simulated_block_allocates_nothing() {
    let cfg = CacheConfig { block_size: BLOCK_SIZE, mem_bytes: 64 << 20, nvram_bytes: None };
    let lru = Box::new(Lru::new(cfg.frames()));
    let mut cache = BlockCache::new(cfg, lru, flush_by_name("ups").expect("known policy"));
    // The floor over a run of commits: index growth (a hash table
    // doubling, a B-tree node splitting) is amortised, not per block.
    let mut floor = u64::MAX;
    for block in 0..64 {
        let Reserve::Frame(frame) = cache.reserve() else { panic!("the cache is empty") };
        let before = allocs();
        cache.commit(frame, BlockKey::new(FileId(1), block), None, SimTime::ZERO);
        floor = floor.min(allocs() - before);
    }
    assert_eq!(floor, 0);
}

/// An empty cache of 1,024 frames under LRU and `ups`.
fn empty_cache() -> BlockCache {
    let cfg = CacheConfig { block_size: BLOCK_SIZE, mem_bytes: 1024 << 12, nvram_bytes: None };
    let lru = Box::new(Lru::new(cfg.frames()));
    BlockCache::new(cfg, lru, flush_by_name("ups").expect("known policy"))
}

#[test]
fn a_new_files_first_block_costs_the_index_one_list() {
    let mut cache = empty_cache();
    let (mut floor, mut total) = (u64::MAX, 0);
    for file in 0..256 {
        let Reserve::Frame(frame) = cache.reserve() else { panic!("the cache has room") };
        let before = allocs();
        cache.commit(frame, BlockKey::new(FileId(file), 0), None, SimTime::ZERO);
        let spent = allocs() - before;
        (floor, total) = (floor.min(spent), total + spent);
    }
    assert!(floor <= 1, "the first block of a new file allocated {floor} in the index");
    // One list a file, plus the table's eight doublings up to 256 files.
    assert!(total <= 256 + 8, "256 new files allocated {total}");
}

#[test]
fn removing_a_resident_file_allocates_nothing() {
    let mut cache = empty_cache();
    for block in 0..64 {
        let key = BlockKey::new(FileId(1), block);
        let Reserve::Frame(frame) = cache.reserve() else { panic!("the cache has room") };
        cache.commit(frame, key, None, SimTime::ZERO);
        if block % 2 == 0 {
            assert_eq!(cache.mark_dirty(key, SimTime::ZERO), DirtyOutcome::Ok);
        }
    }
    let before = allocs();
    assert_eq!(cache.remove_file(FileId(1)), 32);
    assert_eq!(allocs() - before, 0, "remove_file of a resident 64-block file");
    assert_eq!(cache.resident(), 0);
}

/// Runs `body` on a formatted simulated-mode engine at `queue_depth`
/// whose cache holds `frames` blocks, with one synced file of `blocks`
/// blocks.
fn with_file<Fut: std::future::Future<Output = ()>>(
    queue_depth: u32,
    frames: u64,
    blocks: u64,
    body: impl FnOnce(FileSystem, Ino) -> Fut + 'static,
) {
    let sim = Sim::new(7);
    let h = sim.handle();
    let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
    let layout = Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default()));
    let cache = CacheConfig {
        block_size: BLOCK_SIZE,
        mem_bytes: frames * BLOCK_SIZE as u64,
        nvram_bytes: None,
    };
    let fs = FileSystem::new(&h, layout, FsConfig { queue_depth, cache, ..FsConfig::default() });
    sim.block_on("alloc-budget", async move {
        fs.format().await.unwrap();
        let ino = fs.create("/file", FileKind::Regular).await.unwrap();
        fs.write(ino, 0, blocks * BLOCK_SIZE as u64, None).await.unwrap();
        fs.sync().await.unwrap();
        body(fs.clone(), ino).await;
        fs.shutdown();
    });
}

#[test]
fn resident_reads_and_whole_block_writes_allocate_nothing_per_block() {
    const BS: u64 = BLOCK_SIZE as u64;
    for qd in [1, 8] {
        with_file(qd, 1024, 64, move |fs, ino| async move {
            let fs = &fs;
            for n in [1, 2, 16, 64] {
                // Off-line a read returns a count and a whole-block
                // write carries none: neither has bytes to put anywhere.
                let read = floor_of(move || async move {
                    assert_eq!(fs.read(ino, 0, n * BS).await.unwrap(), (n * BS, None));
                });
                assert_eq!(read.await, 0, "reading {n} resident blocks in one call at qd {qd}");
                let write = floor_of(move || async move {
                    assert_eq!(fs.write(ino, 0, n * BS, None).await, Ok(n * BS));
                });
                // The blocks in flight beyond the first each hold a
                // slot, boxed once a call and listed in one `Vec`.
                let slots = match n.min(qd as u64) {
                    1 => 0,
                    wide => wide,
                };
                assert_eq!(write.await, slots, "overwriting {n} resident blocks at qd {qd}");
            }
        });
    }
}

#[test]
fn a_cold_read_costs_its_misses_whatever_the_call_size() {
    const BS: u64 = BLOCK_SIZE as u64;
    // What one missing block costs: its in-flight event at qd 1, since
    // the driver's request, the disk's command and both replies wait in
    // slots the simulator reuses; at qd 8 also the task the driver
    // spawns a command, which costs its boxed future alone.
    for (qd, per_miss) in [(1, 1), (8, 2)] {
        // Eight frames under a forward scan: every block read is a miss.
        with_file(qd, 8, 512, move |fs, ino| async move {
            let mut at = 0;
            for n in [1, 4, 8] {
                let mut floor = u64::MAX;
                for _ in 0..8 {
                    let (misses, before) = (fs.cache_stats().misses, allocs());
                    fs.read(ino, at * BS, n * BS).await.unwrap();
                    floor = floor.min(allocs() - before);
                    assert_eq!(fs.cache_stats().misses - misses, n, "the scan must stay cold");
                    at += n;
                }
                assert!(
                    floor <= n * per_miss,
                    "a cold {n}-block read at qd {qd} allocated {floor}, over {per_miss} a block"
                );
            }
        });
    }
}

/// One fault-free HP 97560 behind C-LOOK: its platter starts from
/// `image`, its bus and controller options are `attach`'s if given.
fn hp97560(
    h: &Handle,
    image: Option<DiskImage>,
    attach: Option<(ScsiBus, DiskOpts)>,
) -> (DiskDriver, Vec<DiskClient>) {
    let models: Vec<Box<dyn DiskModel>> = vec![Box::new(Hp97560::new())];
    compose_device(h, "d0", models, None, Box::new(CLook), FaultPlan::default(), image, attach)
}

/// What one 4 KiB write at a fresh frame-aligned address costs from
/// submission until the idle write-back has retired it, on an
/// immediate-report HP 97560. A simulated payload stores no bytes, so
/// the difference between a real and a simulated write is what the
/// store costs. The payload is built before the count starts.
fn buffered_write_cost(payload: fn() -> Payload) -> u64 {
    let sim = Sim::new(7);
    let h = sim.handle();
    let (driver, disks) = hp97560(&h, None, Some((ScsiBus::new(&h), DiskOpts::default())));
    sim.block_on("alloc-budget", async move {
        let (h, driver, mut block) = (&h, &driver, 0u64);
        let cost = floor_of(move || {
            block += 1;
            let payload = payload();
            async move {
                driver.write(block * 8, 8, payload).await.unwrap();
                h.sleep(SimDuration::from_millis(100)).await;
            }
        })
        .await;
        assert_eq!(disks[0].stats().writebacks, 5, "every write must have retired");
        cost
    })
}

#[test]
fn a_block_write_costs_the_store_its_frame_and_a_simulated_one_nothing() {
    let real = || Payload::Data(vec![0xA5; BLOCK_SIZE as usize]);
    let simulated = || Payload::Simulated(BLOCK_SIZE);
    // The command itself, through driver, bus and disk: every wait on
    // the way (the dispatcher's wake-up, the bus grant, both replies)
    // is an entry in its primitive's own list.
    let command = buffered_write_cost(simulated);
    assert_eq!(command, 0, "one simulated command");
    let in_store = buffered_write_cost(real) - command;
    // Stash and retire: the frame's buffer, which moves from the write
    // buffer to the platter. The per-sector maps boxed eight sectors
    // and paid both tables' growth as they went.
    assert!(in_store <= 2, "a 4 KiB real write allocated {in_store} in the store");

    let mut image = DiskImage::default();
    store_sectors(&mut image, 512, 64, 8, &real());
    let before = allocs();
    store_sectors(&mut image, 512, 64, 8, &Payload::Simulated(BLOCK_SIZE));
    store_sectors(&mut image, 512, 128, 8, &Payload::Simulated(BLOCK_SIZE));
    assert_eq!(allocs() - before, 0, "erasing a frame, or nothing, allocates nothing");
    assert!(image.is_empty());
}

#[test]
fn tasks_taking_turns_on_the_wait_primitives_allocate_nothing() {
    let sim = Sim::new(7);
    let h = sim.handle();
    let tick = Event::new(&h);
    let bus = Resource::new(&h);
    let slots = Semaphore::new(&h, 2);
    let queued = Rc::new(Cell::new(0u64));
    for prio in 0..3 {
        let (h, tick, bus, slots, queued) =
            (h.clone(), tick.clone(), bus.clone(), slots.clone(), queued.clone());
        h.clone().spawn("turns", async move {
            loop {
                tick.wait().await;
                if slots.available() == 0 {
                    queued.set(queued.get() + 1);
                }
                let _slot = slots.acquire().await;
                let _bus = bus.acquire_prio(prio).await;
                h.sleep(SimDuration::from_millis(1)).await;
            }
        });
    }
    let (h2, tick2) = (h.clone(), tick.clone());
    h.spawn("ticker", async move {
        loop {
            h2.sleep(SimDuration::from_millis(5)).await;
            tick2.signal();
        }
    });
    // Warm-up: the lists and the timer heap reach their working size.
    sim.run_until(SimTime::from_nanos(50_000_000));
    let (before, contended, waited) = (allocs(), bus.contentions(), queued.get());
    sim.run_until(SimTime::from_nanos(500_000_000));
    assert_eq!(allocs() - before, 0, "90 turns on one event, one bus and one semaphore");
    assert_eq!(tick.signal_count(), 100);
    assert_eq!(bus.contentions() - contended, 180, "two of three wait for the bus each turn");
    assert_eq!(queued.get() - waited, 90, "one of three waits for a slot each turn");
}

#[test]
fn a_spawn_costs_its_future_and_nothing_else() {
    let sim = Sim::new(7);
    let h = sim.handle();
    let ran = Rc::new(Cell::new(0u64));
    let spawn_and_finish = || {
        let ran = ran.clone();
        h.spawn("leaf", async move { ran.set(ran.get() + 1) });
        sim.run();
    };
    // Warm-up: the task table, its free list and the runnable set reach
    // their working size, so every later spawn reuses one slot.
    for _ in 0..3 {
        spawn_and_finish();
    }
    let before = allocs();
    for _ in 0..100 {
        spawn_and_finish();
    }
    assert_eq!(allocs() - before, 100, "a spawn allocates its boxed future and nothing else");
    assert_eq!(ran.get(), 103);
}

#[test]
fn capturing_a_platter_copies_its_table_not_its_sectors() {
    const FRAMES: u64 = 1024;
    let mut image = DiskImage::default();
    for frame in 0..FRAMES {
        let payload = Payload::Data(vec![frame as u8; BLOCK_SIZE as usize]);
        store_sectors(&mut image, 512, frame * 8, 8, &payload);
    }
    let sim = Sim::new(7);
    let h = sim.handle();
    let (driver, disks) = hp97560(&h, Some(image.clone()), None);
    sim.block_on("alloc-budget", async move {
        let before = allocs();
        let platter = disks[0].platter_image();
        assert_eq!(allocs() - before, 1, "platter_image() of {FRAMES} frames");
        assert_eq!(platter.len() as u64, FRAMES * 8);
        assert_eq!(platter, image);

        // A write retires over a frame the captured images share: the
        // platter copies the frame, the captures keep theirs.
        let fresh = || Payload::Data(vec![0xEE; BLOCK_SIZE as usize]);
        driver.write(7 * 8, 8, fresh()).await.unwrap();
        h.sleep(SimDuration::from_millis(100)).await;
        assert_eq!(disks[0].platter_image().sector(7 * 8), Some(&[0xEE; 512][..]));
        assert_eq!(platter.sector(7 * 8), Some(&[7; 512][..]));
        assert_eq!(platter, image);

        // An acked write still in the controller's buffer, past the
        // platter's last frame.
        driver.write(FRAMES * 8, 8, fresh()).await.unwrap();
        assert_eq!(disks[0].platter_image().len() as u64, FRAMES * 8, "not retired yet");
        let before = allocs();
        let buffered = disks[0].image_with_write_buffer();
        let cost = allocs() - before;
        // The table, and its one regrow for the new frame; the buffered
        // frame itself is shared, not copied.
        assert!(cost <= 2, "image_with_write_buffer() of {FRAMES} frames allocated {cost}");
        assert_eq!(buffered.len() as u64, (FRAMES + 1) * 8);
        assert_eq!(buffered.sector(FRAMES * 8), Some(&[0xEE; 512][..]));
        assert_eq!(buffered.sector(6 * 8), Some(&[6; 512][..]));
    });
}

#[test]
fn a_batch_of_disk_commands_costs_the_same_whatever_its_length() {
    let sim = Sim::new(7);
    let h = sim.handle();
    let (driver, _disks) = hp97560(&h, None, None);
    sim.block_on("alloc-budget", async move {
        let (h, driver, next) = (&h, &driver, &Cell::new(0u64));
        let batch_cost = |n: u64| {
            floor_of(move || {
                let at = next.replace(next.get() + n);
                let reqs: Vec<_> = (at..at + n)
                    .map(|block| (IoOp::Write, block * 8, 8, Payload::Simulated(BLOCK_SIZE)))
                    .collect();
                async move {
                    for done in driver.submit_batch(reqs).await {
                        assert!(done.is_ok());
                    }
                    h.sleep(SimDuration::from_millis(100)).await;
                }
            })
        };
        // Warm-up: the driver's queue reaches 16 commands.
        batch_cost(16).await;
        let (two, sixteen) = (batch_cost(2).await, batch_cost(16).await);
        // The receivers' list, the join's list and the results: no box
        // per command.
        assert_eq!(sixteen, two, "16 simulated commands against 2");
    });
}

#[test]
fn generating_a_trace_allocates_a_path_per_file_not_per_record() {
    let mut gen = SyntheticSprite::new(trace_1a(), 42);
    let before = allocs();
    let records = gen.generate(0.002);
    let spent = allocs() - before;
    let files = records.iter().map(|r| r.op.path()).collect::<HashSet<_>>().len() as u64;
    let n = records.len() as u64;
    assert!(n > 1000, "a real trace: {n} records");
    // Besides one path per file: the growth of the record list, of the
    // interner's set and of each client's recent list and size map.
    let growth = n / 16;
    assert!(
        spent <= files + growth,
        "{n} records naming {files} files allocated {spent} (1.5 a record when each owned its path)"
    );
}

#[test]
fn a_client_plan_clone_copies_its_op_list_and_no_path() {
    for scale in [0.01, 0.1] {
        let scenario = Scenario::generate(WorkloadKind::Mail, 1, 42, scale);
        let plan: &ClientPlan = &scenario.plans[0];
        let before = allocs();
        let copy = plan.clone();
        assert_eq!(allocs() - before, 1, "a plan of {} ops", plan.ops.len());
        assert_eq!(&copy, plan);
    }
}
