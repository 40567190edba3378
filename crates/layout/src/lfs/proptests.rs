//! Property tests that pin a fast path to the slow scan it replaced,
//! on a disk of two dozen 8-block segments (the ring wraps, the
//! cleaner runs):
//!
//! * the maintained segment state: after every step of a random
//!   create/write/truncate/delete/sync/clean sequence, the free count
//!   and the per-segment seal flags must equal a from-scratch recount
//!   (`LfsLayout::assert_segment_state`, the pre-incremental scan);
//! * the bounded roll-forward walk: on the crash image of every life of
//!   a file system that is cut, recovered and cut again, `scan_log_tail`
//!   must find exactly the segments the exhaustive
//!   `scan_all_summaries` finds — plus directed cases for the states
//!   the stop rule has to survive;
//! * the usage table's kept blocks: on a disk of three usage chunks,
//!   every usage block a checkpoint or a recovery appends must equal
//!   the specification's encoding (`usage::usage_block`) of the table
//!   it projected.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;

use cnp_disk::{
    compose_device, CLook, DiskClient, DiskGeometry, DiskImage, FaultPlan, SimpleDisk,
    SimpleDiskParams,
};
use cnp_sim::{Sim, SimDuration};

use super::usage::{usage_block, USAGE_PER_BLOCK};
use super::*;

const SEG_BLOCKS: u32 = 8;
const NSEGS: u32 = 24;
/// Files in play, and the block range each may cover (12 direct + 2
/// behind the indirect pointer): at most ~70 live blocks of the 168
/// payload slots, so the cleaner can always make room.
const FILES: usize = 4;
const FILE_BLOCKS: u64 = 14;

/// A disk of exactly `nsegs` segments behind the fixed-cost model.
fn disk_of(nsegs: u32, seg_blocks: u32) -> SimpleDisk {
    let sectors_per_seg = seg_blocks * (BLOCK_SIZE / 512);
    let geometry = DiskGeometry {
        cylinders: nsegs + 1, // One spare cylinder holds DATA_START.
        heads: 1,
        sectors_per_track: sectors_per_seg,
        ..SimpleDiskParams::default().geometry
    };
    SimpleDisk::with_params(SimpleDiskParams { geometry, ..SimpleDiskParams::default() })
}

fn small_disk() -> SimpleDisk {
    disk_of(NSEGS, SEG_BLOCKS)
}

/// High water marks: a handful of scattered files already counts as
/// "short of space", so `ensure_space` cleans all the time.
fn params() -> LfsParams {
    LfsParams {
        seg_blocks: SEG_BLOCKS,
        clean_low_water: NSEGS / 2 - 2,
        clean_high_water: NSEGS / 2 + 2,
        ..LfsParams::default()
    }
}

/// One generated step: `(kind, file, a, b)`.
type Step = (u8, usize, u64, u64);

/// Applies one generated step to `lfs`; `files` holds the in-memory
/// inode of each file slot in play.
async fn apply(
    lfs: &mut LfsLayout,
    h: &cnp_sim::Handle,
    files: &mut [Option<Inode>],
    (kind, file, a, b): Step,
) -> LResult<()> {
    let slot = file % FILES;
    match (kind % 8, files[slot].take()) {
        (0..=3, None) => {
            let inode = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
            let r = lfs.put_inode(&inode).await;
            files[slot] = Some(inode);
            r
        }
        (0..=3, Some(mut inode)) => {
            let start = a % FILE_BLOCKS;
            let end = (start + 1 + b % 4).min(FILE_BLOCKS);
            let blocks = (start..end).map(|blk| (blk, Payload::Simulated(BLOCK_SIZE)));
            inode.size = inode.size.max(end * BLOCK_SIZE as u64);
            let r = lfs.write_file_blocks(&mut inode, blocks.collect()).await;
            files[slot] = Some(inode);
            r
        }
        (4, Some(mut inode)) => {
            let keep = a % (inode.blocks() + 1);
            let r = lfs.truncate(&mut inode, keep).await;
            files[slot] = Some(inode);
            r
        }
        (5, Some(inode)) => lfs.free_inode(inode.ino).await,
        (kind, file) => {
            files[slot] = file;
            match kind {
                6 => lfs.sync().await,
                // An explicit cleaner run, reachable or not.
                7 if a % 2 == 0 => {
                    let target = lfs.free_segments() + 1 + b as u32 % 3;
                    lfs.clean_until(target).await
                }
                7 => {
                    h.sleep(SimDuration::from_millis(a % 40)).await;
                    Ok(())
                }
                _ => Ok(()),
            }
        }
    }
}

/// Replays `steps` on a fresh layout, checking the invariant after
/// each; returns how many segments the cleaner emptied.
fn drive(steps: Vec<Step>) -> u64 {
    let cleaned = Rc::new(Cell::new(0));
    let out = cleaned.clone();
    run_sim(move |h| async move {
        let (driver, _disk) = power_on(&h, DiskImage::default(), FaultPlan::default());
        let mut lfs = LfsLayout::new(&h, driver.clone(), params());
        assert_eq!(lfs.sb.nsegs, NSEGS);
        lfs.format().await.unwrap();
        lfs.assert_segment_state();
        let mut files: Vec<Option<Inode>> = vec![None; FILES];
        // After the generated steps, keep overwriting until the cleaner
        // has fired, so no case passes without exercising it.
        let generated = steps.len();
        let churn = (0..400u64).map(|i| (1u8, i as usize, i * 5, 2));
        for (n, step) in steps.into_iter().chain(churn).enumerate() {
            if n >= generated && lfs.stats.segments_cleaned > 0 {
                break;
            }
            let_seals_land(&lfs, &h).await;
            lfs.assert_segment_state();
            let r = apply(&mut lfs, &h, &mut files, step).await;
            lfs.assert_segment_state();
            r.unwrap_or_else(|e| panic!("step {n} {step:?} failed: {e}"));
        }
        lfs.sync().await.unwrap();
        lfs.assert_segment_state();
        out.set(lfs.stats.segments_cleaned);
        driver.shutdown();
    });
    cleaned.get()
}

/// `n` steps drawn from a 64-bit LCG seeded with `seed`.
fn seeded_steps(seed: u64, n: usize) -> Vec<Step> {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 33
    };
    (0..n)
        .map(|_| {
            ((next() % 8) as u8, (next() % FILES as u64) as usize, next() % 1000, next() % 1000)
        })
        .collect()
}

#[test]
fn cleaning_for_every_segment_free_returns() {
    // After these steps, cleaning towards a target no state can reach
    // (the log head's segment is never free) swings the free count
    // 18, 19, 18, 19, ... (seed 3) and 20, 19, 20, 20, 19, ... (seed 24).
    // Stalls counted against the last count, not the best, never end.
    for seed in [3, 24] {
        run_sim(move |h| async move {
            let (driver, _disk) = power_on(&h, DiskImage::default(), FaultPlan::default());
            let mut lfs = LfsLayout::new(&h, driver.clone(), params());
            lfs.format().await.unwrap();
            let mut files: Vec<Option<Inode>> = vec![None; FILES];
            for step in seeded_steps(seed, 60) {
                let_seals_land(&lfs, &h).await;
                apply(&mut lfs, &h, &mut files, step).await.unwrap();
            }
            lfs.clean_until(NSEGS).await.unwrap();
            assert!(lfs.free_segments() < NSEGS, "seed {seed}");
            lfs.assert_segment_state();
            driver.shutdown();
        });
    }
}

proptest! {
    #[test]
    fn maintained_segment_state_equals_a_recount(
        steps in prop::collection::vec((0u8..8, 0usize..FILES, 0u64..1000, 0u64..1000), 40..200),
    ) {
        prop_assert!(drive(steps) > 0, "the cleaner never fired");
    }
}

// ---- The usage table's kept blocks against the specification ----

/// Segments of a disk whose usage table is three blocks.
const WIDE: u32 = 2 * USAGE_PER_BLOCK as u32 + 20;

/// The cleaner fires once a dozen segments hold live bytes.
fn wide_params() -> LfsParams {
    LfsParams {
        seg_blocks: SEG_BLOCKS,
        clean_low_water: WIDE - 12,
        clean_high_water: WIDE - 8,
        ..LfsParams::default()
    }
}

/// Every usage block the last checkpoint appended is what the
/// specification makes of the table it projected, charges added.
async fn assert_persisted_usage(lfs: &LfsLayout) {
    let (table, charges) = &lfs.projection;
    let mut projected = table.clone();
    for &(seg, bytes) in charges {
        projected[seg].live += bytes;
    }
    let addrs = &lfs.ckpt_addrs.1;
    assert_eq!(addrs.len(), WIDE.div_ceil(USAGE_PER_BLOCK as u32) as usize);
    for (i, &a) in addrs.iter().enumerate() {
        // On the media: the checkpoint drained its seals.
        let p = lfs.io.read_block(BlockAddr(a)).await.unwrap();
        assert_eq!(p.block(0), Some(&usage_block(&projected, i)), "usage block {i}");
    }
    lfs.assert_segment_state();
}

/// Formats the wide disk, moves the log head to segment `start`,
/// applies `steps` and then overwrites until the cleaner has fired,
/// crashing and recovering before each step in `cuts`; checks every
/// checkpoint's usage blocks.
fn persisted_usage_lives(start: u32, mut steps: Vec<Step>, cuts: Vec<usize>) {
    // Deletions are not logged, as in `crash_lives`.
    for step in &mut steps {
        if step.0 == 5 {
            *step = (4, step.1, 0, step.3);
        }
    }
    run_sim(move |h| async move {
        let disk_on =
            |image| power_on_disk(&h, disk_of(WIDE, SEG_BLOCKS), image, FaultPlan::default());
        let (mut driver, mut disk) = disk_on(DiskImage::default());
        let mut lfs = LfsLayout::new(&h, driver.clone(), wide_params());
        lfs.format().await.unwrap();
        assert_persisted_usage(&lfs).await;
        // The state of a log that wrote and freed every segment before
        // `start`: the head on a free segment, checkpointed there, so
        // the log's writes land in every chunk of the table.
        lfs.cur.seg += start % (WIDE - lfs.cur.seg);
        lfs.sync().await.unwrap();
        assert_persisted_usage(&lfs).await;
        let mut files: Vec<Option<Inode>> = vec![None; FILES];
        let mut cleaned = 0;
        let generated = steps.len();
        let churn = (0..400u64).map(|i| (1u8, i as usize, i * 5, 2));
        for (n, step) in steps.into_iter().chain(churn).enumerate() {
            if n >= generated && cleaned + lfs.stats.segments_cleaned > 0 {
                break;
            }
            if cuts.contains(&n) {
                cleaned += lfs.stats.segments_cleaned;
                (driver, disk) = disk_on(crash(driver, disk));
                lfs = LfsLayout::new(&h, driver.clone(), wide_params());
                lfs.recover().await.unwrap();
                assert_persisted_usage(&lfs).await;
                files = vec![None; FILES];
                let inos = lfs.allocated_inos().into_iter().filter(|&ino| ino != Ino::ROOT);
                for (slot, ino) in inos.take(FILES).enumerate() {
                    files[slot] = Some(lfs.get_inode(ino).await.unwrap());
                }
            }
            let checkpoints = lfs.stats.checkpoints;
            let_seals_land(&lfs, &h).await;
            apply(&mut lfs, &h, &mut files, step).await.unwrap();
            lfs.assert_segment_state();
            if lfs.stats.checkpoints > checkpoints {
                assert_persisted_usage(&lfs).await;
            }
        }
        assert!(cleaned + lfs.stats.segments_cleaned > 0, "the cleaner never fired");
        driver.shutdown();
    });
}

proptest! {
    #[test]
    fn every_persisted_usage_block_equals_the_specification(
        start in 0..WIDE,
        steps in prop::collection::vec((0u8..8, 0usize..FILES, 0u64..1000, 0u64..1000), 60..160),
        cuts in prop::collection::vec(0usize..160, 1..4),
    ) {
        persisted_usage_lives(start, steps, cuts);
    }
}

// ---- Harness, and the bounded roll-forward walk against the exhaustive scan ----

/// Runs `body` to completion on a fresh simulation.
fn run_sim<F, Fut>(body: F)
where
    F: FnOnce(cnp_sim::Handle) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let sim = Sim::new(5);
    let h = sim.handle();
    sim.block_on("prop", async move { body(h).await });
}

/// Powers `model` on from `image` under `faults`.
fn power_on_disk(
    h: &cnp_sim::Handle,
    model: SimpleDisk,
    image: DiskImage,
    faults: FaultPlan,
) -> (DiskDriver, DiskClient) {
    let (sched, image) = (Box::new(CLook), Some(image));
    let (driver, mut disks) =
        compose_device(h, "d0", vec![Box::new(model)], None, sched, faults, image, None);
    (driver, disks.remove(0))
}

/// Powers the small disk on from `image` under `faults`.
fn power_on(h: &cnp_sim::Handle, image: DiskImage, faults: FaultPlan) -> (DiskDriver, DiskClient) {
    power_on_disk(h, small_disk(), image, faults)
}

/// A disk that dies `cut` requests in, if set. The controller's
/// immediate-report buffer is battery-backed — the durability contract
/// the crash campaigns state, without which acknowledged writes would
/// not reach the media in the order the log issued them.
fn power_cut(cut: Option<u64>) -> FaultPlan {
    FaultPlan { power_cut_at_op: cut, cut_preserves_buffer: true, ..FaultPlan::default() }
}

/// The crash: whatever is durable right now (controller buffer
/// included; the staging segment and the seal queue are lost).
fn crash(driver: DiskDriver, disk: DiskClient) -> DiskImage {
    let image = disk.image_with_write_buffer();
    driver.shutdown();
    image
}

/// What the bounded walk found on a crash image.
struct Tail {
    /// The layout that loaded the image's checkpoint (device shut down).
    probe: LfsLayout,
    /// Post-checkpoint segments as `(seq, seg)`, in log order.
    young: Vec<(u64, u32)>,
    /// Summary blocks the walk read.
    scanned: u64,
}

/// The oracle check: load the checkpoint the powered-on `driver` holds
/// and hold the bounded walk against the exhaustive scan.
async fn walk_vs_scan_on(h: &cnp_sim::Handle, driver: DiskDriver, params: LfsParams) -> Tail {
    let mut probe = LfsLayout::new(h, driver.clone(), params);
    let ckpt = probe.load_state().await.expect("the checkpoint loads");
    let full = probe.scan_all_summaries(&ckpt).await;
    let (walk, scanned) = probe.scan_log_tail(&ckpt).await.expect("the walk runs");
    driver.shutdown();
    let missed: Vec<(u64, u32)> =
        full.iter().filter(|f| !walk.contains(f)).map(|&(seq, seg, _)| (seq, seg)).collect();
    assert!(missed.is_empty(), "the bounded walk missed (seq, seg) {missed:?}");
    assert!(walk == full, "the bounded walk must find what the exhaustive scan finds");
    assert!(walk.len() as u64 <= scanned && scanned <= probe.sb.nsegs as u64, "scanned {scanned}");
    Tail { probe, young: walk.iter().map(|&(seq, seg, _)| (seq, seg)).collect(), scanned }
}

/// [`walk_vs_scan_on`] the small disk, powered on from `image` under
/// `faults` (none of which may hit the checkpoint itself).
async fn walk_vs_scan(h: &cnp_sim::Handle, image: &DiskImage, faults: FaultPlan) -> Tail {
    let (driver, _disk) = power_on(h, image.clone(), faults);
    walk_vs_scan_on(h, driver, params()).await
}

/// The test task rarely blocks, so give the seal writer the device
/// before its queue swallows the whole disk (a dead disk drains
/// nothing).
async fn let_seals_land(lfs: &LfsLayout, h: &cnp_sim::Handle) {
    while lfs.seal.failed.borrow().is_none() && lfs.seal.pending.borrow().len() >= 6 {
        h.sleep(SimDuration::from_millis(20)).await;
    }
}

/// Life zero: format a blank disk, apply `steps`, then keep overwriting
/// until the cleaner has fired and the log head has wrapped past the
/// last segment. Crashes without a sync.
async fn first_life(h: &cnp_sim::Handle, steps: &[Step]) -> DiskImage {
    let (driver, disk) = power_on(h, DiskImage::default(), FaultPlan::default());
    let mut lfs = LfsLayout::new(h, driver.clone(), params());
    lfs.format().await.unwrap();
    let mut files: Vec<Option<Inode>> = vec![None; FILES];
    let mut wrapped = false;
    // Overwrites, with a checkpoint now and then so the tail stays
    // shorter than the ring.
    let churn = (0..400u64).map(|i| (if i % 16 == 15 { 6 } else { 1u8 }, i as usize, i * 5, 2));
    for (n, step) in steps.iter().copied().chain(churn).enumerate() {
        if n >= steps.len() && wrapped && lfs.stats.segments_cleaned > 0 {
            break;
        }
        let_seals_land(&lfs, h).await;
        let head = lfs.cur.seg;
        apply(&mut lfs, h, &mut files, step).await.unwrap();
        wrapped |= lfs.cur.seg < head;
    }
    assert!(wrapped && lfs.stats.segments_cleaned > 0, "life zero must wrap the ring and clean");
    crash(driver, disk)
}

/// A later life on `image`: power on (the disk dies `cut` requests in,
/// if set — possibly inside recovery), recover, pick the files up
/// again, then apply `steps` until they run out or the disk dies. Returns the durable image at that instant, or `None` if
/// recovery found no room to run in.
async fn next_life(
    h: &cnp_sim::Handle,
    image: DiskImage,
    cut: Option<u64>,
    steps: &[Step],
) -> Option<DiskImage> {
    let (driver, disk) = power_on(h, image, power_cut(cut));
    let mut lfs = LfsLayout::new(h, driver.clone(), params());
    let mut recovered = false;
    let lived: LResult<()> = async {
        lfs.recover().await?;
        recovered = true;
        let mut files: Vec<Option<Inode>> = vec![None; FILES];
        let inos = lfs.allocated_inos().into_iter().filter(|&ino| ino != Ino::ROOT);
        for (slot, ino) in inos.enumerate() {
            files[slot] = Some(lfs.get_inode(ino).await?);
        }
        for &step in steps {
            let_seals_land(&lfs, h).await;
            apply(&mut lfs, h, &mut files, step).await?;
        }
        Ok(())
    }
    .await;
    match lived {
        Ok(()) => {}
        // Recovery keeps its own appends out of the young segments, so
        // a tail that covers the ring leaves it no room: a limit of a
        // two-dozen-segment disk (whichever way the tail is found), and
        // the end of this lineage.
        Err(LayoutError::NoSpace) if !recovered => {
            driver.shutdown();
            return None;
        }
        Err(e) => assert!(disk.is_dead(), "a life may only end early by power cut: {e}"),
    }
    Some(crash(driver, disk))
}

/// Cuts a file system down over several lives and checks the walk
/// against the scan on every crash image in between.
fn crash_lives(mut steps: Vec<Step>, cuts: Vec<u64>) {
    // Deletions are not logged (module docs): a crash resurrects the
    // deleted file over segments the log has reused since, which is the
    // fsck walker's to repair. These lives empty a file instead —
    // truncation frees the same blocks through a logged inode.
    for step in &mut steps {
        if step.0 == 5 {
            *step = (4, step.1, 0, step.3);
        }
    }
    run_sim(move |h| async move {
        let mut image = first_life(&h, &steps).await;
        for (life, &cut) in cuts.iter().enumerate() {
            walk_vs_scan(&h, &image, FaultPlan::default()).await;
            // Every fourth life ends at a step boundary instead of a
            // disk-level cut; each replays the steps from another start.
            let cut = (cut % 4 != 0).then_some(cut);
            let start = (life + 1) * steps.len() / (cuts.len() + 1);
            let steps = [&steps[start..], &steps[..start]].concat();
            match next_life(&h, image, cut, &steps).await {
                Some(next) => image = next,
                None => return,
            }
        }
        walk_vs_scan(&h, &image, FaultPlan::default()).await;
    });
}

proptest! {
    #[test]
    fn bounded_walk_finds_what_the_full_scan_finds(
        steps in prop::collection::vec((0u8..8, 0usize..FILES, 0u64..1000, 0u64..1000), 40..120),
        cuts in prop::collection::vec(1u64..400, 3..5),
    ) {
        crash_lives(steps, cuts);
    }
}

/// Writes `blocks` of `inode` (simulated payloads).
async fn write(lfs: &mut LfsLayout, inode: &mut Inode, blocks: std::ops::Range<u64>) {
    inode.size = inode.size.max(blocks.end * BLOCK_SIZE as u64);
    let blocks = blocks.map(|blk| (blk, Payload::Simulated(BLOCK_SIZE))).collect();
    lfs.write_file_blocks(inode, blocks).await.unwrap();
}

/// The segment holding block 0 of file `ino`.
async fn seg_of_file(lfs: &mut LfsLayout, ino: Ino) -> u32 {
    let inode = lfs.get_inode(ino).await.unwrap();
    let addr = lfs.map_block(&inode, 0).await.unwrap().expect("block 0 is mapped");
    lfs.seg_of(addr)
}

/// Six data blocks and the inode block: exactly one segment's payload.
const FULL: std::ops::Range<u64> = 0..6;

/// Rewrites block 0 of `w` and seals it, one two-block segment at a
/// time, until the log head stands on `seg` with nothing staged. Each
/// rewrite kills the previous copy, so the segments left behind are
/// free again.
async fn spin_head_to(lfs: &mut LfsLayout, w: &mut Inode, seg: u32) {
    for _ in 0..2 * lfs.sb.nsegs {
        lfs.flush_staged().await.unwrap();
        if lfs.cur.seg == seg {
            return;
        }
        write(lfs, w, 0..1).await;
    }
    panic!("the log head never reached segment {seg}");
}

/// A crash image whose log tail sits behind a segment that was live at
/// the checkpoint: ring order `C = 1`, `L = 2` (file X at the
/// checkpoint), then two young segments — `3`, X rewritten and dead
/// again, and `4`, X's live copy — and a third rewrite lost in staging.
/// Returns the image and X's and W's inode numbers.
async fn tail_behind_a_live_segment(h: &cnp_sim::Handle) -> (DiskImage, Ino, Ino) {
    let (driver, disk) = power_on(h, DiskImage::default(), FaultPlan::default());
    let mut lfs = LfsLayout::new(h, driver.clone(), params());
    lfs.format().await.unwrap();
    // Format leaves the root in segment 0, its checkpoint in 1, the
    // head on 2: X fills segment 2 exactly.
    let mut x = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
    let mut w = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
    write(&mut lfs, &mut x, FULL).await;
    assert_eq!(seg_of_file(&mut lfs, x.ino).await, 2);
    // Half way round, a checkpoint releases segment 1; then on until
    // the head wraps onto it, and checkpoint there.
    spin_head_to(&mut lfs, &mut w, NSEGS / 2).await;
    lfs.sync().await.unwrap();
    spin_head_to(&mut lfs, &mut w, 1).await;
    lfs.sync().await.unwrap();
    assert!(lfs.holds_ckpt_meta(1) && lfs.usage[2].live > 0 && lfs.cur.seg == 3);
    // X moves to 3 (2 dies), then to 4 (3 dies); W's rewrite seals 4
    // and dies in staging with the crash.
    write(&mut lfs, &mut x, FULL).await;
    write(&mut lfs, &mut x, FULL).await;
    write(&mut lfs, &mut w, 0..1).await;
    assert_eq!((lfs.usage[2].live, lfs.usage[3].live, lfs.cur.seg), (0, 0, 5));
    lfs.drain_seals().await.unwrap();
    (crash(driver, disk), x.ino, w.ino)
}

#[test]
fn walk_passes_a_segment_live_at_the_checkpoint_and_stops_at_the_first_free_one() {
    run_sim(|h| async move {
        let (image, _, _) = tail_behind_a_live_segment(&h).await;
        let tail = walk_vs_scan(&h, &image, FaultPlan::default()).await;
        let segs: Vec<u32> = tail.young.iter().map(|&(_, seg)| seg).collect();
        assert_eq!(segs, [3, 4]);
        // Read: 2 (live at the checkpoint, walked past), 3, 4, and the
        // stop at 5 — not the other twenty.
        assert_eq!(tail.scanned, 4);
    });
}

#[test]
fn dead_young_segment_behind_the_new_head_does_not_hide_the_next_tail() {
    run_sim(|h| async move {
        let (image, x, w) = tail_behind_a_live_segment(&h).await;
        // Recovery finds X in 4; 2 and 3 are dead. It reopens the log on
        // 2 (first free segment past 0), checkpoints there, and must
        // then move the head to 3 — the dead young segment its own
        // appends were kept out of — not past it: the table it persisted
        // shows 3 free, which is where the next walk stops.
        let (driver, disk) = power_on(&h, image, FaultPlan::default());
        let mut lfs = LfsLayout::new(&h, driver.clone(), params());
        let stats = lfs.recover().await.unwrap();
        assert_eq!((stats.scanned_segments, stats.rolled_segments), (4, 2));
        assert!(lfs.holds_ckpt_meta(2) && lfs.usage[3].live == 0);
        assert_eq!(lfs.cur.seg, 3, "the log reopens on the first free segment past the checkpoint");
        assert_eq!(lfs.get_inode(x).await.unwrap().blocks(), FULL.end);
        let mut w = lfs.get_inode(w).await.unwrap();
        write(&mut lfs, &mut w, 0..1).await;
        lfs.flush_staged().await.unwrap();
        let tail = walk_vs_scan(&h, &crash(driver, disk), FaultPlan::default()).await;
        assert_eq!(tail.young.len(), 1, "the post-recovery segment is the new tail");
    });
}

#[test]
fn reused_segment_that_was_live_at_the_checkpoint_is_found_young() {
    run_sim(|h| async move {
        let (driver, disk) = power_on(&h, DiskImage::default(), FaultPlan::default());
        let mut lfs = LfsLayout::new(&h, driver.clone(), params());
        lfs.format().await.unwrap();
        let mut x = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
        let mut w = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
        write(&mut lfs, &mut x, FULL).await;
        lfs.sync().await.unwrap();
        assert!(lfs.usage[2].live > 0, "X is live in segment 2 at the checkpoint");
        // Deleted after the checkpoint, its segment is free for the log
        // — which gets there only once round the ring.
        lfs.free_inode(x.ino).await.unwrap();
        spin_head_to(&mut lfs, &mut w, 2).await;
        write(&mut lfs, &mut w, 0..1).await;
        lfs.flush_staged().await.unwrap();
        let tail = walk_vs_scan(&h, &crash(driver, disk), FaultPlan::default()).await;
        assert!(tail.probe.usage[2].live > 0, "segment 2 is not free in the loaded table");
        assert!(tail.young.iter().any(|&(_, seg)| seg == 2), "{:?}", tail.young);
        // No free-at-checkpoint segment is left unwritten before it, so
        // this walk is the full ring.
        assert_eq!(tail.scanned, NSEGS as u64);
    });
}

#[test]
fn segment_holding_the_checkpoints_own_usage_blocks_is_no_stop_point() {
    // 3,100 three-payload segments: ten usage blocks, so a checkpoint
    // rolls three times while appending them, and the table it
    // serializes charges all of those to the first roll's segment — the
    // later ones hold checkpoint metadata yet read `live == 0`.
    const RING: u32 = 3100;
    run_sim(|h| async move {
        let params = LfsParams { seg_blocks: 4, ..LfsParams::default() };
        let (driver, disk) =
            power_on_disk(&h, disk_of(RING, 4), DiskImage::default(), FaultPlan::default());
        let mut lfs = LfsLayout::new(&h, driver.clone(), params.clone());
        assert_eq!(lfs.sb.nsegs, RING);
        lfs.format().await.unwrap();
        // Format's checkpoint fills segments 1-4; X takes 5 whole.
        let mut x = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
        let mut w = lfs.alloc_ino(FileKind::Regular, 1).unwrap();
        write(&mut lfs, &mut x, 0..2).await;
        assert_eq!(seg_of_file(&mut lfs, x.ino).await, 5);
        // A checkpoint half way round releases 1-4; the next one starts
        // on 2 and rolls through 3 and 4, over X, into 6.
        spin_head_to(&mut lfs, &mut w, RING / 2).await;
        lfs.sync().await.unwrap();
        spin_head_to(&mut lfs, &mut w, 2).await;
        lfs.sync().await.unwrap();
        assert!([2, 3, 4, 6].iter().all(|&seg| lfs.holds_ckpt_meta(seg)) && lfs.cur.seg == 7);
        // X moves on, and the log goes once round the ring to reuse 5:
        // the walk gets there only by passing 4.
        write(&mut lfs, &mut x, 0..2).await;
        spin_head_to(&mut lfs, &mut w, 5).await;
        write(&mut lfs, &mut w, 0..1).await;
        lfs.flush_staged().await.unwrap();
        let (driver, _disk) =
            power_on_disk(&h, disk_of(RING, 4), crash(driver, disk), FaultPlan::default());
        let tail = walk_vs_scan_on(&h, driver, params).await;
        assert_eq!(tail.probe.usage[4].live, 0, "the loaded table shows 4 free");
        assert!(tail.young.iter().any(|&(_, seg)| seg == 5), "the tail ends in 5");
    });
}

#[test]
fn crash_at_every_request_of_a_recovery_leaves_a_walkable_ring() {
    run_sim(|h| async move {
        let (image, x, _) = tail_behind_a_live_segment(&h).await;
        // The epoch any recovery from this checkpoint runs in.
        let recovering = walk_vs_scan(&h, &image, FaultPlan::default()).await.probe.epoch;
        let mut sealed_then_cut = 0;
        for cut in 0.. {
            let (driver, disk) = power_on(&h, image.clone(), power_cut(Some(cut)));
            let mut lfs = LfsLayout::new(&h, driver.clone(), params());
            let finished = lfs.recover().await.is_ok();
            let cut_image = crash(driver, disk);
            let tail = walk_vs_scan(&h, &cut_image, FaultPlan::default()).await;
            if tail.probe.epoch == recovering {
                // Still the old checkpoint: what the interrupted recovery
                // sealed carries its epoch and is not young; the old
                // tail is.
                assert_eq!(tail.young.len(), 2, "cut {cut}: the old tail must still be found");
                let (driver, _disk) = power_on(&h, cut_image.clone(), FaultPlan::default());
                let io = BlockIo::new(driver.clone());
                for seg in 0..NSEGS {
                    let p = io.read_block(BlockAddr(tail.probe.seg_start(seg))).await.unwrap();
                    let sum = p.block(0).and_then(|b| summary_from_block(b).ok());
                    sealed_then_cut += sum.is_some_and(|s| s.epoch == recovering) as u32;
                }
                driver.shutdown();
            }
            // Recovering the cut image ends where the uncut recovery does.
            let (driver, disk) = power_on(&h, cut_image, FaultPlan::default());
            let mut lfs = LfsLayout::new(&h, driver.clone(), params());
            lfs.recover().await.unwrap();
            assert_eq!(lfs.get_inode(x).await.unwrap().blocks(), FULL.end, "cut {cut}");
            assert_eq!(seg_of_file(&mut lfs, x).await, 4, "cut {cut}");
            drop(crash(driver, disk));
            if finished {
                break;
            }
        }
        assert!(sealed_then_cut > 0, "some cut must land after recovery sealed a segment");
    });
}

#[test]
fn unreadable_summary_is_walked_past_never_stopped_on() {
    run_sim(|h| async move {
        let (image, x, _) = tail_behind_a_live_segment(&h).await;
        let clean = walk_vs_scan(&h, &image, FaultPlan::default()).await;
        // A latent sector error on the summary block the walk stops on.
        let stop = (1 + clean.scanned as u32) % NSEGS;
        let sectors_per_block = (BLOCK_SIZE / 512) as u64;
        let lba = clean.probe.seg_start(stop) * sectors_per_block;
        let faults = FaultPlan {
            latent_ranges: vec![(lba, lba + sectors_per_block)],
            ..FaultPlan::default()
        };
        let hurt = walk_vs_scan(&h, &image, faults.clone()).await;
        assert_eq!(hurt.young, clean.young);
        assert_eq!(hurt.scanned, clean.scanned + 1, "one segment further, to the next free one");
        let (driver, disk) = power_on(&h, image, faults);
        let mut lfs = LfsLayout::new(&h, driver.clone(), params());
        let stats = lfs.recover().await.unwrap();
        assert_eq!((stats.scanned_segments, stats.rolled_segments), (hurt.scanned, 2));
        assert_eq!(lfs.get_inode(x).await.unwrap().blocks(), FULL.end);
        drop(crash(driver, disk));
    });
}

#[test]
fn checkpoint_pointing_off_the_log_is_corrupt_not_an_underflow() {
    run_sim(|h| async move {
        let (image, _, _) = tail_behind_a_live_segment(&h).await;
        let (driver, _disk) = power_on(&h, image, FaultPlan::default());
        let mut lfs = LfsLayout::new(&h, driver.clone(), params());
        let ckpt = lfs.load_state().await.unwrap();
        // Below the segment area, one past its end, and no address at all.
        for bad in [vec![CKPT_ADDRS[0].0], vec![lfs.seg_start(NSEGS)], vec![]] {
            let ckpt = Checkpoint { usage_addrs: bad.clone(), ..ckpt.clone() };
            let r = lfs.scan_log_tail(&ckpt).await;
            assert!(matches!(r, Err(LayoutError::Corrupt(_))), "{bad:?}: {r:?}");
        }
        driver.shutdown();
    });
}
