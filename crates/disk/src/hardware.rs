//! The hardware description: which disk generation backs a driver, how
//! many of them, and the RAID-0 chunk — the one place the
//! `{disk, disks, chunk_kib}` triple is declared.

use crate::hp97560::Hp97560;
use crate::model::DiskModel;
use crate::simple::SimpleDisk;
use crate::ssd::Ssd;

/// What a driver is composed over: one model per disk, and the RAID-0
/// chunk in sectors (`None` for a single disk).
pub type Device = (Vec<Box<dyn DiskModel>>, Option<u64>);

/// The simulated storage hardware behind one driver. The default (one
/// HP 97560) reproduces every historical output byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hardware {
    /// Disk model: `hp97560` (the 1996 mechanical baseline), `ssd`
    /// (seek-free multi-channel flash) or `simple` (the naive
    /// fixed-cost model of ablation A1).
    pub disk: &'static str,
    /// RAID-0 stripe width (1 = one disk directly behind the driver).
    pub disks: u32,
    /// RAID-0 chunk size in KiB.
    pub chunk_kib: u32,
}

impl Default for Hardware {
    fn default() -> Self {
        Hardware { disk: "hp97560", disks: 1, chunk_kib: 64 }
    }
}

impl Hardware {
    /// True for the single-HP configuration whose banners and JSON keys
    /// must stay byte-identical across versions.
    pub fn is_default(&self) -> bool {
        self.disk == "hp97560" && self.disks == 1
    }

    /// Human label for banners: `ssd`, `hp97560 x4 (64 KiB chunks)`, …
    pub fn label(&self) -> String {
        if self.disks > 1 {
            format!("{} x{} ({} KiB chunks)", self.disk, self.disks, self.chunk_kib)
        } else {
            self.disk.to_string()
        }
    }

    /// The stripe chunk in (512-byte) sectors; `None` for a single disk.
    pub fn chunk_sectors(&self) -> Option<u64> {
        (self.disks > 1).then(|| self.chunk_kib as u64 * 1024 / 512)
    }

    /// The queue depths a sweep of this generation visits: the flash
    /// device absorbs qd 64 in its channels, so its list extends there;
    /// the mechanical generation keeps the historical one.
    pub fn depths(&self) -> &'static [u32] {
        if self.disk == "ssd" {
            &[1, 2, 4, 8, 16, 64]
        } else {
            &[1, 2, 4, 8, 16]
        }
    }

    /// The device this hardware composes to: one fresh model per disk
    /// and the stripe chunk, as [`crate::compose_device`] takes them.
    pub fn device(&self) -> Device {
        (self.models(), self.chunk_sectors())
    }

    /// One fresh model per disk.
    ///
    /// # Panics
    ///
    /// Panics on an unknown `disk` name.
    pub fn models(&self) -> Vec<Box<dyn DiskModel>> {
        (0..self.disks)
            .map(|_| -> Box<dyn DiskModel> {
                match self.disk {
                    "hp97560" => Box::new(Hp97560::new()),
                    "ssd" => Box::new(Ssd::new()),
                    "simple" => Box::new(SimpleDisk::new()),
                    other => panic!("unknown disk {other} (hp97560|ssd|simple)"),
                }
            })
            .collect()
    }
}
