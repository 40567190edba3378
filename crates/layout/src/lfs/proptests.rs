//! Property test for the maintained segment state: after every step of
//! a random create/write/truncate/delete/sync/clean sequence, the free
//! count and the per-segment seal flags must equal a from-scratch
//! recount (`LfsLayout::assert_segment_state`, the pre-incremental
//! scan). The disk is two dozen 8-block segments, so the cleaner runs.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;

use cnp_disk::{sim_disk_driver, CLook, DiskGeometry, SimpleDisk, SimpleDiskParams};
use cnp_sim::{Sim, SimDuration, SimTime};

use super::*;

const SEG_BLOCKS: u32 = 8;
const NSEGS: u32 = 24;
/// Files in play, and the block range each may cover (12 direct + 2
/// behind the indirect pointer): at most ~70 live blocks of the 168
/// payload slots, so the cleaner can always make room.
const FILES: usize = 4;
const FILE_BLOCKS: u64 = 14;

/// A disk of exactly `NSEGS` segments behind the fixed-cost model.
fn small_disk() -> SimpleDisk {
    let sectors_per_seg = SEG_BLOCKS * (BLOCK_SIZE / 512);
    let geometry = DiskGeometry {
        cylinders: NSEGS + 1, // One spare cylinder holds DATA_START.
        heads: 1,
        sectors_per_track: sectors_per_seg,
        ..SimpleDiskParams::default().geometry
    };
    SimpleDisk::with_params(SimpleDiskParams { geometry, ..SimpleDiskParams::default() })
}

/// One generated step: `(kind, file, a, b)`.
type Step = (u8, usize, u64, u64);

/// Replays `steps` on a fresh layout, checking the invariant after
/// each; returns how many segments the cleaner emptied.
fn drive(background_seal: bool, steps: Vec<Step>) -> u64 {
    let sim = Sim::new(5);
    let h = sim.handle();
    let driver = sim_disk_driver(&h, "d0", Box::new(small_disk()), Box::new(CLook));
    let shutdown = driver.clone();
    let cleaned = Rc::new(Cell::new(None));
    let out = cleaned.clone();
    let h2 = h.clone();
    h.spawn("prop", async move {
        // High water marks: a handful of scattered files already counts
        // as "short of space", so `ensure_space` cleans all the time.
        let params = LfsParams {
            seg_blocks: SEG_BLOCKS,
            clean_low_water: NSEGS / 2 - 2,
            clean_high_water: NSEGS / 2 + 2,
            background_seal,
            ..LfsParams::default()
        };
        let mut lfs = LfsLayout::new(&h2, driver, params);
        assert_eq!(lfs.sb.nsegs, NSEGS);
        lfs.format().await.unwrap();
        lfs.assert_segment_state();
        let mut files: Vec<Option<Inode>> = vec![None; FILES];
        // After the generated steps, keep overwriting until the cleaner
        // has fired, so no case passes without exercising it.
        let generated = steps.len();
        let churn = (0..400u64).map(|i| (1u8, i as usize, i * 5, 2));
        for (n, (kind, file, a, b)) in steps.into_iter().chain(churn).enumerate() {
            if n >= generated && lfs.stats.segments_cleaned > 0 {
                break;
            }
            // The test task rarely blocks, so give the seal writer the
            // device before its queue swallows the whole disk.
            while lfs.seal.as_ref().is_some_and(|s| s.pending.borrow().len() >= 6) {
                h2.sleep(SimDuration::from_millis(20)).await;
                lfs.assert_segment_state();
            }
            let slot = file % FILES;
            let r = match (kind % 8, files[slot].take()) {
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
                        // An explicit cleaner run; the target stays
                        // reachable (`clean_until` may chase one that
                        // is not forever).
                        7 if a % 2 == 0 => {
                            let target = lfs.free_segments() + 1 + b as u32 % 3;
                            lfs.clean_until(target.min(NSEGS / 2 + 2)).await
                        }
                        7 => {
                            h2.sleep(SimDuration::from_millis(a % 40)).await;
                            Ok(())
                        }
                        _ => Ok(()),
                    }
                }
            };
            lfs.assert_segment_state();
            r.unwrap_or_else(|e| panic!("step {n} ({kind}, {file}, {a}, {b}) failed: {e}"));
        }
        lfs.sync().await.unwrap();
        lfs.assert_segment_state();
        out.set(Some(lfs.stats.segments_cleaned));
        shutdown.shutdown();
    });
    sim.run_until(SimTime::from_nanos(u64::MAX / 2));
    cleaned.get().expect("test body did not complete")
}

proptest! {
    #[test]
    fn maintained_segment_state_equals_a_recount(
        steps in prop::collection::vec((0u8..8, 0usize..FILES, 0u64..1000, 0u64..1000), 40..200),
    ) {
        for background_seal in [false, true] {
            let cleaned = drive(background_seal, steps.clone());
            prop_assert!(cleaned > 0, "the cleaner never fired (background_seal {background_seal})");
        }
    }
}
