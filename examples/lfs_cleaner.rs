//! Ablation A6: LFS cleaner policies (greedy vs cost-benefit) under a
//! controlled overwrite workload on small segments.
//!
//! Run with: `cargo run --release --example lfs_cleaner`

use cut_and_paste::disk::{sim_disk_driver, CLook, Hp97560, Payload};
use cut_and_paste::layout::lfs::CleanerPolicy;
use cut_and_paste::layout::{FileKind, LfsLayout, LfsParams, StorageLayout, BLOCK_SIZE};
use cut_and_paste::sim::Sim;

fn run(policy: CleanerPolicy) -> (u64, u64, f64) {
    let sim = Sim::new(21);
    let h = sim.handle();
    let driver = sim_disk_driver(&h, "d0", Box::new(Hp97560::new()), Box::new(CLook));
    let shutdown = driver.clone();
    let out = std::rc::Rc::new(std::cell::Cell::new((0u64, 0u64, 0f64)));
    let out2 = out.clone();
    let h2 = h.clone();
    h.spawn("cleaner-bench", async move {
        let params =
            LfsParams { seg_blocks: 16, cleaner: policy, clean_low_water: 4, clean_high_water: 10 };
        let mut lfs = LfsLayout::new(&h2, driver, params);
        lfs.format().await.expect("format");
        // Two interleaved files; one is repeatedly overwritten so dead
        // blocks pile up in half-live segments.
        let mut hot = lfs.alloc_ino(FileKind::Regular, 0).expect("ino");
        let mut cold = lfs.alloc_ino(FileKind::Regular, 0).expect("ino");
        hot.size = 32 * BLOCK_SIZE as u64;
        cold.size = 32 * BLOCK_SIZE as u64;
        for round in 0..24u64 {
            for b in 0..32u64 {
                lfs.write_file_blocks(
                    &mut hot,
                    vec![(b, Payload::Data(vec![round as u8; BLOCK_SIZE as usize]))],
                )
                .await
                .expect("write hot");
                if round == 0 {
                    lfs.write_file_blocks(
                        &mut cold,
                        vec![(b, Payload::Data(vec![0xcc; BLOCK_SIZE as usize]))],
                    )
                    .await
                    .expect("write cold");
                }
            }
            // The disk is huge relative to this workload, so free
            // segments always exceed any absolute target; ask for more
            // than we currently have to force victim selection.
            let target = lfs.free_segments() + 2;
            lfs.clean_until(target).await.expect("clean");
        }
        let s = lfs.stats();
        let util = lfs.utilization();
        let mean_util: f64 = util.iter().filter(|u| **u > 0.0).sum::<f64>()
            / util.iter().filter(|u| **u > 0.0).count().max(1) as f64;
        out2.set((s.segments_cleaned, s.cleaner_moved, mean_util));
        shutdown.shutdown();
    });
    sim.run();
    out.get()
}

fn main() {
    println!("LFS cleaner comparison (16-block segments, hot/cold overwrite mix):");
    println!(
        "{:<14} {:>16} {:>14} {:>18}",
        "policy", "segments cleaned", "blocks moved", "mean live util"
    );
    for (name, policy) in
        [("greedy", CleanerPolicy::Greedy), ("cost-benefit", CleanerPolicy::CostBenefit)]
    {
        let (cleaned, moved, util) = run(policy);
        println!("{name:<14} {cleaned:>16} {moved:>14} {util:>18.3}");
    }
    println!();
    println!("Cost-benefit prefers old, stable segments (Rosenblum's bimodal");
    println!("cleaning) and should move fewer live blocks per reclaimed segment");
    println!("on hot/cold mixes than greedy.");
}
