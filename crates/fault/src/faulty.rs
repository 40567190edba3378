//! [`Stack`]: the one builder of a full simulated stack — disk(s) →
//! driver → layout → engine — healthy, under a fault plan, or powered
//! on from a crash image.
//!
//! Every rig (crash cells, the checker's and the crash sweep's alike,
//! the history leg, the client and serve fleets) and every crash test
//! assembles its stack here, so a hardware generation or a fault plan
//! reaches all of them through one call and none of them touches a
//! bus, a disk task or a driver.

use cnp_core::{FileSystem, FsConfig, FsResult};
use cnp_disk::{compose_device, CLook, Device, DiskClient, DiskDriver, FaultPlan, Hardware};
use cnp_sim::Handle;

use crate::crash::{recover_and_check, CrashState, LayoutKind, RecoveryOutcome};

/// A running simulated stack: the engine plus the two lower ends rigs
/// need (the driver for queue statistics, the disks for crash capture).
pub struct Stack {
    /// The file-system engine on top.
    pub fs: FileSystem,
    /// The C-LOOK scheduled driver under the layout.
    pub driver: DiskDriver,
    /// The disk client(s), in child order.
    pub disks: Vec<DiskClient>,
}

impl Stack {
    /// Builds the disk(s) of `device` (its models and stripe chunk:
    /// [`Hardware::device`], or the fleets' HP 97560 sized to the
    /// fleet), each executing `plan`, a `kind` layout and an engine
    /// under `cfg`; tasks are named after `name`.
    pub fn build(
        handle: &Handle,
        name: &str,
        kind: LayoutKind,
        (models, chunk): Device,
        cfg: FsConfig,
        plan: FaultPlan,
    ) -> Stack {
        let (driver, disks) =
            compose_device(handle, name, models, chunk, Box::new(CLook), plan, None, None);
        let fs = FileSystem::new(handle, kind.build(handle, driver.clone()), cfg);
        Stack { fs, driver, disks }
    }

    /// The power-on after a crash: a pristine `hw` disk (one — a crash
    /// state holds one platter) holding the captured image, the layout's
    /// recovery and the fsck walker + repair ([`recover_and_check`]),
    /// then a fresh engine under `cfg` (which must match the crashed
    /// engine's).
    pub async fn recover(
        handle: &Handle,
        name: &str,
        kind: LayoutKind,
        hw: &Hardware,
        state: &CrashState,
        cfg: FsConfig,
    ) -> FsResult<(Stack, RecoveryOutcome)> {
        // The clone copies frame pointers: the restored platter shares
        // the state's bytes until recovery first writes over them.
        let (plan, image) = (FaultPlan::default(), Some(state.image.clone()));
        let (models, chunk) = hw.device();
        let (driver, disks) =
            compose_device(handle, name, models, chunk, Box::new(CLook), plan, image, None);
        let mut layout = kind.build(handle, driver.clone());
        let outcome = recover_and_check(handle, &mut layout).await?;
        Ok((Stack { fs: FileSystem::new(handle, layout, cfg), driver, disks }, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlanBuilder;
    use cnp_core::DataMode;
    use cnp_disk::IoError;
    use cnp_layout::FileKind;
    use cnp_sim::{Sim, SimDuration};

    #[test]
    fn pipelined_cut_with_retired_prefix_recovers_clean() {
        let sim = Sim::new(77);
        let h = sim.handle();
        // The cut lands while the depth-8 engine has a batch in flight;
        // the dying disk durably retires a seeded prefix of the
        // outstanding writes without acknowledging them.
        let plan = FaultPlanBuilder::new(77)
            .power_cut_at_op(300)
            .torn_write_sectors(2)
            .random_cut_retire(8)
            .build();
        assert!(plan.cut_retire_ops <= 8);
        let cfg = FsConfig { data_mode: DataMode::Real, queue_depth: 8, ..FsConfig::default() };
        let device = Hardware::default().device();
        let Stack { fs, disks, .. } =
            Stack::build(&h, "p0", LayoutKind::Lfs, device, cfg.clone(), plan);
        sim.block_on("t", async move {
            fs.format().await.unwrap();
            let payload = vec![0x5Au8; 48 * 1024];
            for i in 0.. {
                let r = async {
                    let ino = fs.create(&format!("/f{i}"), FileKind::Regular).await?;
                    fs.write(ino, 0, payload.len() as u64, Some(&payload)).await?;
                    fs.sync().await
                }
                .await;
                if r.is_err() {
                    break;
                }
            }
            assert!(disks[0].is_dead(), "the cut must have fired");
            // Power-on from the captured image: recovery + fsck must
            // digest whatever prefix the dying disk retired.
            let state = CrashState::capture(&fs, &disks[0]).await;
            fs.shutdown();
            let hw = Hardware::default();
            let (stack, outcome) = Stack::recover(&h, "p1", LayoutKind::Lfs, &hw, &state, cfg)
                .await
                .expect("recovery");
            assert!(
                outcome.post.clean(),
                "retired-prefix crash must verify clean: {:?}",
                outcome.post.violations
            );
            stack.fs.shutdown();
        });
    }

    #[test]
    fn spawned_stack_executes_the_plan() {
        let sim = Sim::new(5);
        let h = sim.handle();
        let plan = FaultPlanBuilder::new(1).power_cut_at_op(3).build();
        let (hw, cfg) = (Hardware::default(), FsConfig::default());
        let Stack { fs, driver, disks } =
            Stack::build(&h, "f0", LayoutKind::Lfs, hw.device(), cfg, plan);
        h.spawn("t", async move {
            for i in 0..3u64 {
                driver.read(i * 64, 8).await.expect("pre-cut reads succeed");
            }
            let err = driver.read(999, 8).await.unwrap_err();
            assert!(matches!(err, IoError::PowerCut));
            fs.shutdown();
        });
        sim.run();
        assert!(disks[0].is_dead());
    }

    /// A stack under a (non-default) fault plan, and the one restored
    /// from its crash image, get the model's own bus and controller
    /// options: flash sits on the flash link with no read-ahead or
    /// immediate-report, the HP on the 10 MB/s SCSI-2 bus with both.
    #[test]
    fn faulted_and_restored_stacks_get_the_models_bus_and_cache() {
        /// Bus time of a 64 KB read, read-aheads and write-backs.
        type Probe = (SimDuration, u64, u64);

        async fn measure(h: &Handle, stack: &Stack) -> Probe {
            let far = stack.driver.capacity_sectors() - 4096;
            stack.driver.write(far, 8, cnp_disk::Payload::Simulated(4096)).await.unwrap();
            stack.driver.read(far + 1024, 128).await.unwrap();
            h.sleep(SimDuration::from_millis(200)).await;
            let (_, timing) = stack.driver.read(far + 2048, 128).await.unwrap();
            let st = stack.disks[0].stats();
            (timing.bus, st.readaheads, st.writebacks)
        }

        /// Probes of the faulted stack and of the one restored from it.
        fn probes(hw: Hardware) -> [Probe; 2] {
            let sim = Sim::new(9);
            let h = sim.handle();
            sim.block_on("t", async move {
                let plan = FaultPlan { fail_every: Some(u64::MAX), ..FaultPlan::default() };
                let cfg = FsConfig::default();
                let stack = Stack::build(&h, "f0", LayoutKind::Lfs, hw.device(), cfg.clone(), plan);
                stack.fs.format().await.unwrap();
                stack.fs.sync().await.unwrap();
                let state = CrashState::capture(&stack.fs, &stack.disks[0]).await;
                let faulted = measure(&h, &stack).await;
                stack.fs.shutdown();
                let (stack, _) = Stack::recover(&h, "r0", LayoutKind::Lfs, &hw, &state, cfg)
                    .await
                    .expect("recovery");
                let probes = [faulted, measure(&h, &stack).await];
                stack.fs.shutdown();
                probes
            })
        }

        for (bus, readaheads, writebacks) in probes(Hardware { disk: "ssd", ..Hardware::default() })
        {
            // 64 KB over 320 MB/s is ~0.2 ms; SCSI-2 needs ~6.5 ms.
            assert!(bus < SimDuration::from_millis(1), "flash behind the 1996 wire: {bus:?}");
            assert_eq!((readaheads, writebacks), (0, 0), "flash must bypass the controller cache");
        }
        for (bus, readaheads, writebacks) in probes(Hardware::default()) {
            assert!(bus > SimDuration::from_millis(6), "the HP keeps the SCSI-2 bus: {bus:?}");
            assert!(readaheads > 0 && writebacks > 0, "the HP keeps its controller cache");
        }
    }
}
