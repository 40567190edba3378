//! Crash-state capture and loss accounting.
//!
//! A "crash" in this framework is: stop the workload at a cut point,
//! clone the durable on-disk image at that instant
//! ([`cnp_disk::DiskClient::platter_image`] — the clone shares the
//! platter's frames, so it costs pointers, not bytes), keep whatever
//! the flush policy stores in battery-backed NVRAM — the dirty cache
//! ([`cnp_core::FileSystem::nvram_snapshot`]) and the layout's staging
//! buffer ([`cnp_core::FileSystem::staging_image`]), which
//! [`CrashState::new`] applies to the image — and throw everything
//! else away. A live disk and one a power cut killed are captured the
//! same way. The power-on ([`crate::Stack::recover`]) then spawns a
//! fresh disk from the image, runs the layout's
//! [`cnp_layout::StorageLayout::recover`] path, writes the NVRAM back
//! into the layout and only then runs and repairs with the fsck walker;
//! loss is accounted against the acknowledged state afterwards.

use cnp_core::{FileSystem, NvramSnapshot};
use cnp_disk::{store_sectors, DiskClient, DiskDriver, DiskImage, Payload};
use cnp_layout::{
    BlockAddr, FfsLayout, FfsParams, Layout, LfsLayout, LfsParams, RecoveryStats, BLOCK_SIZE,
};
use cnp_sim::{Handle, SimDuration, SimTime};
use cnp_trace::AckedFile;

use crate::check::{FsckReport, RepairReport};

/// Which storage layout a crash cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Segmented log-structured layout (checkpoint + roll-forward).
    Lfs,
    /// FFS-like update-in-place layout (bitmap rebuild).
    Ffs,
}

impl LayoutKind {
    /// Display/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            LayoutKind::Lfs => "lfs",
            LayoutKind::Ffs => "ffs",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<LayoutKind> {
        match s {
            "lfs" => Some(LayoutKind::Lfs),
            "ffs" => Some(LayoutKind::Ffs),
            _ => None,
        }
    }

    /// Builds the layout over a driver: the default LFS geometry (128-
    /// block segments, 2,637 of them on the HP 97560 — recovery walks
    /// the log tail, not the ring, so the count does not matter) and a
    /// small FFS inode table, whose rebuild scan is per inode.
    pub fn build(&self, handle: &Handle, driver: DiskDriver) -> Layout {
        match self {
            LayoutKind::Lfs => Layout::Lfs(LfsLayout::new(handle, driver, LfsParams::default())),
            LayoutKind::Ffs => {
                Layout::Ffs(FfsLayout::new(handle, driver, FfsParams { ninodes: 4096, ngroups: 8 }))
            }
        }
    }
}

/// The four §5.1 write-saving policies: the one table every rig and the
/// crash checker sweep, so a label names one flush wherever it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Unix 30-second-update write-delay (baseline).
    WriteDelay,
    /// UPS write-saving: flush whole files, only under memory pressure.
    Ups,
    /// 4 MB NVRAM, whole-file flush.
    NvramWhole,
    /// 4 MB NVRAM, partial-file (single-block) flush.
    NvramPartial,
}

/// All four policies, in the paper's reporting order.
pub const POLICIES: [Policy; 4] =
    [Policy::WriteDelay, Policy::Ups, Policy::NvramWhole, Policy::NvramPartial];

impl Policy {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::WriteDelay => "write-delay-30s",
            Policy::Ups => "ups",
            Policy::NvramWhole => "nvram-whole-file",
            Policy::NvramPartial => "nvram-partial",
        }
    }

    /// Flush policy name + NVRAM bound for the cache config.
    pub fn cache_settings(&self, nvram_bytes: u64) -> (&'static str, Option<u64>) {
        match self {
            Policy::WriteDelay => ("write-delay", None),
            Policy::Ups => ("ups-whole", None),
            Policy::NvramWhole => ("nvram-whole", Some(nvram_bytes)),
            Policy::NvramPartial => ("nvram-partial", Some(nvram_bytes)),
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "write-delay" | "30s" => Some(Policy::WriteDelay),
            "ups" => Some(Policy::Ups),
            "nvram-whole" => Some(Policy::NvramWhole),
            "nvram-partial" => Some(Policy::NvramPartial),
            _ => None,
        }
    }
}

/// Everything that survives a power cut: the platter, with the
/// battery's staging buffer applied over it, and the battery-backed
/// cache. Every capture, of a live disk or of one a power cut killed,
/// builds it with [`CrashState::new`].
#[derive(Debug, Clone)]
pub struct CrashState {
    /// The durable on-disk image at the cut point.
    pub image: DiskImage,
    /// Battery-backed cache contents (empty without NVRAM).
    pub nvram: NvramSnapshot,
    /// Virtual time of the cut.
    pub cut_at: SimTime,
}

impl CrashState {
    /// The crash state a cut at `cut_at` leaves: the platter `image`
    /// with the battery's staging export `staged`
    /// ([`cnp_core::FileSystem::staging_image`], empty without NVRAM)
    /// applied over it, and the battery-backed cache `nvram`. The
    /// staged writes land as the seal would have put them: simulated
    /// payloads erase their sectors, matching the platter store's
    /// real-bytes-only contract.
    pub fn new(
        mut image: DiskImage,
        nvram: NvramSnapshot,
        staged: &[(BlockAddr, Payload)],
        sector_size: u32,
        cut_at: SimTime,
    ) -> CrashState {
        let spb = BLOCK_SIZE / sector_size;
        for (addr, payload) in staged {
            store_sectors(&mut image, sector_size as usize, addr.0 * spb as u64, spb, payload);
        }
        CrashState { image, nvram, cut_at }
    }

    /// Captures the crash state of a running stack at this instant.
    ///
    /// The staging export is taken first: it waits for the layout lock,
    /// and the platter and the battery are read once that wait is over.
    /// The image includes the disk controller's write buffer
    /// ([`DiskClient::image_with_write_buffer`]): immediate-reported
    /// writes are only crash-safe if that cache is battery-backed, and
    /// that is the assumption the sweep states. A disk killed by an
    /// injected power cut has already lost its buffer, so for the
    /// `FaultPlan` path this is identical to the bare platter; the
    /// staging is applied the same way whether the disk lives or not.
    pub async fn capture(fs: &FileSystem, disk: &DiskClient) -> CrashState {
        let staged = fs.staging_image().await;
        let image = disk.image_with_write_buffer();
        let sector_size = disk.geometry().sector_size;
        CrashState::new(image, fs.nvram_snapshot(), &staged, sector_size, fs.handle().now())
    }
}

/// Outcome of recovery + verification on one crash state.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// What the layout's recovery pass did.
    pub stats: RecoveryStats,
    /// Walker report straight after recovery and replay (pre-repair).
    pub pre: FsckReport,
    /// What the fsck repair changed.
    pub repairs: RepairReport,
    /// Walker report after repair — must be clean.
    pub post: FsckReport,
    /// NVRAM blocks written back into the layout before the walker ran.
    pub nvram_replayed: u64,
    /// Virtual time spent in recovery, NVRAM replay and fsck + repair.
    pub recovery_time: SimDuration,
}

/// Acknowledged-write loss accounting for one crash cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LossReport {
    /// Files with acknowledged writes at the cut.
    pub acked_files: u64,
    /// Files missing entirely after recovery.
    pub lost_files: u64,
    /// Acknowledged bytes not covered by recovered sizes.
    pub lost_bytes: u64,
    /// Age (ms at the cut) of the oldest lost acknowledged update; the
    /// paper-style "data-loss window". 0.0 when nothing was lost.
    pub loss_window_ms: f64,
}

impl LossReport {
    /// Compares recovered sizes (`sizes[i]` for `acked[i]`, `None` for a
    /// missing file; [`recovered_sizes`]) against the acknowledged
    /// files of the replayed workload (`acked` from `cnp-trace`'s
    /// `replay`), for a crash at `cut_at`.
    ///
    /// Deletions are not judged (a crash may resurrect a post-checkpoint
    /// delete; that is a documented non-goal), and neither is block-level
    /// content in simulated-payload mode — sizes are the observable.
    pub fn account(acked: &[AckedFile], sizes: &[Option<u64>], cut_at: SimTime) -> LossReport {
        let mut report = LossReport { acked_files: acked.len() as u64, ..LossReport::default() };
        debug_assert_eq!(acked.len(), sizes.len(), "one recovered size per acked file");
        let mut oldest_lost_ns: Option<u64> = None;
        for (a, &recovered) in acked.iter().zip(sizes) {
            match recovered {
                Some(got) if got >= a.size => continue,
                Some(got) => report.lost_bytes += a.size - got,
                None => {
                    report.lost_files += 1;
                    report.lost_bytes += a.size;
                }
            }
            oldest_lost_ns = Some(oldest_lost_ns.map_or(a.last_ack_ns, |o| o.min(a.last_ack_ns)));
        }
        if let Some(ns) = oldest_lost_ns {
            report.loss_window_ms = cut_at.as_nanos().saturating_sub(ns) as f64 / 1e6;
        }
        report
    }
}

/// Stats every acknowledged path of a recovered file system: the size
/// it recovered with, or `None` where the path is gone.
pub async fn recovered_sizes(fs: &FileSystem, acked: &[AckedFile]) -> Vec<Option<u64>> {
    let mut sizes = Vec::with_capacity(acked.len());
    for a in acked {
        sizes.push(fs.stat(&a.path).await.ok().map(|inode| inode.size));
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stack;
    use cnp_core::{DataMode, FsConfig};
    use cnp_disk::{FaultPlan, Hardware, IoError};
    use cnp_layout::FileKind;
    use cnp_sim::Sim;

    fn acked(path: &str, size: u64, last_ack_ns: u64) -> AckedFile {
        AckedFile { path: path.to_string(), size, last_ack_ns }
    }

    #[test]
    fn loss_counts_missing_and_short_files_from_the_oldest_lost_ack() {
        let files = [
            acked("/missing", 8192, 3_000_000),
            acked("/short", 4096, 2_000_000),
            acked("/whole", 4096, 1_000_000),
            acked("/grown", 100, 500_000),
        ];
        let sizes = [None, Some(1000), Some(4096), Some(200)];
        let loss = LossReport::account(&files, &sizes, SimTime::from_nanos(10_000_000));
        assert_eq!(
            loss,
            LossReport {
                acked_files: 4,
                lost_files: 1,
                lost_bytes: 8192 + 3096,
                // The short file's ack (2 ms) is the oldest lost one; the
                // whole and grown files are older but lost nothing.
                loss_window_ms: 8.0,
            }
        );
        let intact = LossReport::account(&files[2..], &sizes[2..], SimTime::from_nanos(10_000_000));
        assert_eq!(intact, LossReport { acked_files: 2, ..LossReport::default() });
    }

    /// A power cut that kills the disk while the LFS segment holds
    /// acknowledged blocks: the battery keeps the segment, so a capture
    /// of the dead disk must bring it back, and nothing acked is lost.
    #[test]
    fn a_dead_disk_capture_keeps_the_battery_backed_segment() {
        let sim = Sim::new(3);
        let h = sim.handle();
        let (flush, nvram_bytes) = Policy::NvramPartial.cache_settings(4 * BLOCK_SIZE as u64);
        let mut cfg =
            FsConfig { flush: flush.to_string(), data_mode: DataMode::Real, ..FsConfig::default() };
        cfg.cache.nvram_bytes = nvram_bytes;
        let hw = Hardware::default();
        let cut_at = SimTime::from_nanos(60_000_000_000);
        let plan = FaultPlan { power_cut_at: Some(cut_at), ..FaultPlan::default() };
        let Stack { fs, driver, disks } =
            Stack::build(&h, "doomed", LayoutKind::Lfs, hw.device(), cfg.clone(), plan);
        sim.block_on("t", async move {
            fs.format().await.unwrap();
            let payload = vec![0xA5u8; 4 * BLOCK_SIZE as usize];
            let mut acked = Vec::new();
            for i in 0..3 {
                let path = format!("/f{i}");
                let ino = fs.create(&path, FileKind::Regular).await.unwrap();
                let len = payload.len() as u64;
                fs.write(ino, 0, len, Some(&payload)).await.unwrap();
                let last_ack_ns = h.now().as_nanos();
                acked.push(AckedFile { path, size: len, last_ack_ns });
            }
            assert!(h.now() < cut_at, "the writes are acknowledged before the cut");
            h.sleep_until(cut_at).await;
            // The disk finds the cut on its next command.
            assert!(matches!(driver.read(0, 8).await, Err(IoError::PowerCut)));
            assert!(disks[0].is_dead());
            let staged = fs.try_staging_image().unwrap();
            assert!(staged.len() > 4, "the segment holds flushed blocks: {}", staged.len());

            let state = CrashState::capture(&fs, &disks[0]).await;
            fs.shutdown();
            let (stack, _) = Stack::recover(&h, "power-on", LayoutKind::Lfs, &hw, &state, cfg)
                .await
                .expect("recovery");
            let sizes = recovered_sizes(&stack.fs, &acked).await;
            stack.fs.shutdown();
            let loss = LossReport::account(&acked, &sizes, state.cut_at);
            assert_eq!(loss, LossReport { acked_files: 3, ..LossReport::default() }, "{sizes:?}");
        });
    }
}
