//! The name path's allocation budget: what an operation allocates
//! depends on how many *blocks* its directory spans, never on how many
//! *entries* it holds. A lookup scans the packed bytes where they sit
//! (one gathered copy if the directory spans several blocks); a create
//! or unlink moves one record in one gathered copy. Nothing builds a
//! listing.
//!
//! Counts come from this file's own counting allocator, per thread, so
//! the test harness's other threads do not pollute them.

use std::alloc::{GlobalAlloc, Layout as MemLayout, System};
use std::cell::Cell;

use cut_and_paste::core::{FileSystem, FsConfig};
use cut_and_paste::disk::{sim_disk_driver, CLook, Hp97560};
use cut_and_paste::layout::{FileKind, Layout, LfsLayout, LfsParams, BLOCK_SIZE};
use cut_and_paste::sim::Sim;

thread_local! {
    // Const-initialised and without a destructor: reading it from
    // inside the allocator never allocates and never finds it torn down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of allocations (a regrow counts).
struct Counting;

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: MemLayout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: MemLayout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: MemLayout, new_size: usize) -> *mut u8 {
        count();
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
