//! Crash a file system mid-workload with an injected power cut, then
//! capture the on-disk image, remount, roll the log forward, and verify
//! the result with the fsck walker.
//!
//! Run with: `cargo run --release --example crash_recovery`

use cut_and_paste::core::{DataMode, FsConfig};
use cut_and_paste::disk::Hardware;
use cut_and_paste::fault::{CrashState, FaultPlanBuilder, LayoutKind, Stack};
use cut_and_paste::layout::FileKind;
use cut_and_paste::sim::Sim;

fn main() {
    let sim = Sim::new(42);
    let h = sim.handle();

    // An HP 97560 that will lose power while serving its 400th request,
    // tearing the write it lands on after 4 sectors. The engine runs
    // pipelined (queue depth 8), so the cut lands on an in-flight batch
    // — and the dying electronics still retire a seeded prefix of the
    // outstanding writes, unacknowledged.
    let plan = FaultPlanBuilder::new(42)
        .power_cut_at_op(400)
        .torn_write_sectors(4)
        .random_cut_retire(8)
        .build();
    println!("fault plan: cut at op 400, retire up to {} in-flight writes", plan.cut_retire_ops);
    let hw = Hardware::default();
    let cfg = FsConfig { data_mode: DataMode::Real, queue_depth: 8, ..FsConfig::default() };
    let Stack { fs: fs2, disks, .. } =
        Stack::build(&h, "doomed", LayoutKind::Lfs, hw.device(), cfg.clone(), plan);
    let disk = disks[0].clone();

    let h2 = h.clone();
    h.spawn("main", async move {
        fs2.format().await.expect("mkfs");
        fs2.mkdir("/data").await.expect("mkdir");

        // Write files until the disk dies under us.
        let payload = vec![0x42u8; 32 * 1024];
        let mut written = 0u32;
        for i in 0.. {
            let path = format!("/data/file{i}");
            let result = async {
                let ino = fs2.create(&path, FileKind::Regular).await?;
                fs2.write(ino, 0, payload.len() as u64, Some(&payload)).await?;
                fs2.sync().await
            }
            .await;
            match result {
                Ok(()) => written += 1,
                Err(e) => {
                    println!("power cut after {written} files: {e}");
                    break;
                }
            }
        }
        assert!(disk.is_dead(), "the fault plan must have fired");

        // Crash-state capture: the durable image at the cut instant.
        let state = CrashState::capture(&fs2, &disk).await;
        fs2.shutdown();
        println!("captured {} durable sectors", state.image.len());

        // Power-on: fresh disk from the image, recover, verify.
        let (Stack { fs: fs3, .. }, outcome) =
            Stack::recover(&h2, "reborn", LayoutKind::Lfs, &hw, &state, cfg).await.expect("recovery");
        println!(
            "recovery: {} summaries scanned, {} segments rolled forward, {} inodes, {} pointers patched",
            outcome.stats.scanned_segments,
            outcome.stats.rolled_segments,
            outcome.stats.recovered_inodes,
            outcome.stats.patched_blocks,
        );
        println!(
            "fsck: {} dirs, {} files, {} blocks checked; {} violations pre-repair, {} post",
            outcome.post.dirs,
            outcome.post.files,
            outcome.post.blocks,
            outcome.pre.violations.len(),
            outcome.post.violations.len(),
        );
        assert!(outcome.post.clean(), "walker must verify clean after recovery");
        // Recovery reads the log tail, not the disk: a handful of
        // summaries out of the 2,637 segments of this geometry.
        assert!(outcome.stats.scanned_segments >= outcome.stats.rolled_segments);
        assert!(outcome.stats.scanned_segments < 64, "roll-forward must be bounded");

        // The recovered system serves reads again.
        let entries = fs3.readdir("/data").await.expect("readdir");
        println!("recovered /data holds {} of the {written} synced files", entries.len());
        assert!(!entries.is_empty(), "synced files must survive the crash");
        fs3.shutdown();
    });
    sim.run();
}
