//! Crash-state capture and loss accounting.
//!
//! A "crash" in this framework is: stop the workload at a cut point,
//! clone the durable on-disk image at that instant
//! ([`cnp_disk::DiskClient::platter_image`] — the clone shares the
//! platter's frames, so it costs pointers, not bytes), keep whatever
//! the flush policy stores in battery-backed NVRAM
//! ([`cnp_core::FileSystem::nvram_snapshot`]), and throw everything
//! else away. The power-on ([`crate::Stack::recover`]) then spawns a
//! fresh disk from the image, runs the layout's
//! [`cnp_layout::StorageLayout::recover`] path, writes the NVRAM back
//! into the layout and only then runs and repairs with the fsck walker;
//! loss is accounted against the acknowledged state afterwards.

use cnp_core::{FileSystem, NvramSnapshot};
use cnp_disk::{store_sectors, DiskClient, DiskDriver, DiskImage};
use cnp_layout::{FfsLayout, FfsParams, Layout, LfsLayout, LfsParams, RecoveryStats, BLOCK_SIZE};
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

/// Everything that survives a power cut.
#[derive(Debug, Clone)]
pub struct CrashState {
    /// The durable on-disk image at the cut point.
    pub image: DiskImage,
    /// Battery-backed cache contents (empty without NVRAM).
    pub nvram: NvramSnapshot,
    /// Whether the NVRAM-resident LFS staging segment reached the image
    /// (always true without NVRAM, where there is nothing to seal).
    /// False means the disk was already dead at capture — an injected
    /// power cut — so the battery-backed-staging model could not be
    /// applied and acknowledged writes in the staging buffer are lost.
    pub staging_sealed: bool,
    /// Virtual time of the cut.
    pub cut_at: SimTime,
}

impl CrashState {
    /// Captures the crash state of a running stack at this instant.
    ///
    /// For NVRAM configurations the layout's staging buffer is treated
    /// as battery-backed too (`FileSystem::seal_nvram_staging`), so it
    /// is sealed into the image before the snapshot — the moral
    /// equivalent of replaying the NVRAM segment buffer at power-on.
    /// The image includes the disk controller's write buffer
    /// ([`DiskClient::image_with_write_buffer`]): immediate-reported
    /// writes are only crash-safe if that cache is battery-backed, and
    /// that is the assumption the sweep states. A disk killed by an
    /// injected power cut has already lost its buffer, so for the
    /// `FaultPlan` path this is identical to the bare platter.
    pub async fn capture(fs: &FileSystem, disk: &DiskClient) -> CrashState {
        let staging_sealed = fs.seal_nvram_staging().await.is_ok();
        CrashState {
            image: disk.image_with_write_buffer(),
            nvram: fs.nvram_snapshot(),
            staging_sealed,
            cut_at: fs.handle().now(),
        }
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

/// Applies a staging-buffer export ([`cnp_core::FileSystem::staging_image`])
/// to a captured disk image — the dead-disk equivalent of
/// [`cnp_core::FileSystem::seal_nvram_staging`]. A battery-backed
/// staging segment survives a cut that killed the disk first; since the
/// dead disk can take no writes, its would-be seal writes are applied
/// to the image directly (simulated payloads erase their sectors,
/// matching the platter store's real-bytes-only contract).
pub fn apply_staged_to_image(
    image: &mut DiskImage,
    staged: &[(cnp_layout::BlockAddr, cnp_disk::Payload)],
    sector_size: u32,
) {
    let spb = BLOCK_SIZE / sector_size;
    for (addr, payload) in staged {
        store_sectors(image, sector_size as usize, addr.0 * spb as u64, spb, payload);
    }
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
}
