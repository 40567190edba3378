//! Disk geometry: cylinders, heads, sectors, skews, and the LBA ↔ CHS
//! mapping the detailed disk models are built on.

use cnp_sim::SimDuration;

/// Physical layout of a disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskGeometry {
    /// Number of cylinders.
    pub cylinders: u32,
    /// Number of heads (= tracks per cylinder = data surfaces).
    pub heads: u32,
    /// Sectors per track.
    pub sectors_per_track: u32,
    /// Bytes per sector.
    pub sector_size: u32,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Track skew in sectors: angular offset of logical sector 0 between
    /// adjacent tracks of one cylinder, hiding the head-switch time.
    pub track_skew: u32,
    /// Cylinder skew in sectors: extra offset between adjacent cylinders,
    /// hiding the one-cylinder seek time.
    pub cylinder_skew: u32,
}

/// A physical position: cylinder, head, and sector slot within the track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chs {
    /// Cylinder index.
    pub cylinder: u32,
    /// Head index.
    pub head: u32,
    /// Logical sector index within the track (before skew).
    pub sector: u32,
}

impl DiskGeometry {
    /// Total capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.cylinders as u64 * self.heads as u64 * self.sectors_per_track as u64
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_sectors() * self.sector_size as u64
    }

    /// Duration of one full revolution.
    pub fn rotation_time(&self) -> SimDuration {
        SimDuration::from_nanos(60_000_000_000 / self.rpm as u64)
    }

    /// Time for one sector to pass under the head.
    pub fn sector_time(&self) -> SimDuration {
        self.rotation_time() / self.sectors_per_track as u64
    }

    /// Maps a logical block address to its physical position.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the disk capacity.
    pub fn lba_to_chs(&self, lba: u64) -> Chs {
        assert!(lba < self.capacity_sectors(), "lba {lba} out of range");
        let spt = self.sectors_per_track as u64;
        let track = lba / spt;
        // Checked narrowing: with a well-formed geometry every coordinate
        // fits in u32, but a geometry whose cylinder count was scaled past
        // u32::MAX (fleet-scaled disks multiply cylinders) must fail loudly
        // here instead of silently wrapping the CHS coordinates.
        Chs {
            cylinder: u32::try_from(track / self.heads as u64)
                .unwrap_or_else(|_| panic!("cylinder index for lba {lba} overflows u32")),
            head: u32::try_from(track % self.heads as u64)
                .unwrap_or_else(|_| panic!("head index for lba {lba} overflows u32")),
            sector: u32::try_from(lba % spt)
                .unwrap_or_else(|_| panic!("sector index for lba {lba} overflows u32")),
        }
    }

    /// Maps a physical position back to the logical block address.
    pub fn chs_to_lba(&self, chs: Chs) -> u64 {
        (chs.cylinder as u64 * self.heads as u64 + chs.head as u64) * self.sectors_per_track as u64
            + chs.sector as u64
    }

    /// Angular slot (0..sectors_per_track) occupied by a logical sector,
    /// accounting for track and cylinder skew.
    pub fn angular_slot(&self, chs: Chs) -> u32 {
        let skew = chs.head * self.track_skew + chs.cylinder * self.cylinder_skew;
        (chs.sector + skew) % self.sectors_per_track
    }

    /// Splits `[lba, lba + sectors)` into track-contiguous chunks.
    ///
    /// Each chunk stays within a single track, so a detailed model can
    /// charge head switches and seeks at chunk boundaries.
    pub fn track_chunks(&self, lba: u64, sectors: u32) -> impl Iterator<Item = (u64, u32)> {
        let spt = self.sectors_per_track as u64;
        let end = lba + sectors as u64;
        let mut cur = lba;
        std::iter::from_fn(move || {
            if cur >= end {
                return None;
            }
            let track_end = (cur / spt + 1) * spt;
            let take = u32::try_from(end.min(track_end) - cur)
                .unwrap_or_else(|_| panic!("track chunk at lba {cur} overflows u32 sectors"));
            let chunk = (cur, take);
            cur += take as u64;
            Some(chunk)
        })
    }

    /// Returns a copy of this geometry with `factor`× the cylinders.
    ///
    /// This is the fleet-scaling path: big client fleets multiply the
    /// cylinder count to get a proportionally bigger disk. The multiply
    /// is checked — a factor that would push `cylinders` past `u32::MAX`
    /// (and thus silently wrap every CHS coordinate derived from it)
    /// panics loudly instead.
    ///
    /// # Panics
    ///
    /// Panics if `cylinders * factor` overflows `u32`.
    pub fn scale_cylinders(&self, factor: u32) -> DiskGeometry {
        let cylinders = self.cylinders.checked_mul(factor).unwrap_or_else(|| {
            panic!(
                "scaling {} cylinders by {factor} overflows u32; fleet too large for this geometry",
                self.cylinders
            )
        });
        DiskGeometry { cylinders, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> DiskGeometry {
        DiskGeometry {
            cylinders: 10,
            heads: 4,
            sectors_per_track: 16,
            sector_size: 512,
            rpm: 6000,
            track_skew: 2,
            cylinder_skew: 5,
        }
    }

    #[test]
    fn capacity() {
        let g = geo();
        assert_eq!(g.capacity_sectors(), 10 * 4 * 16);
        assert_eq!(g.capacity_bytes(), 10 * 4 * 16 * 512);
    }

    #[test]
    fn rotation_timing() {
        let g = geo();
        // 6000 rpm => 10 ms per revolution, 16 sectors => 625 us each.
        assert_eq!(g.rotation_time(), SimDuration::from_millis(10));
        assert_eq!(g.sector_time(), SimDuration::from_micros(625));
    }

    #[test]
    fn lba_chs_round_trip() {
        let g = geo();
        for lba in [0u64, 1, 15, 16, 63, 64, 639] {
            let chs = g.lba_to_chs(lba);
            assert_eq!(g.chs_to_lba(chs), lba, "round trip failed for {lba}");
        }
    }

    #[test]
    fn chs_layout_order() {
        let g = geo();
        // Sector advances fastest, then head, then cylinder.
        assert_eq!(g.lba_to_chs(0), Chs { cylinder: 0, head: 0, sector: 0 });
        assert_eq!(g.lba_to_chs(16), Chs { cylinder: 0, head: 1, sector: 0 });
        assert_eq!(g.lba_to_chs(64), Chs { cylinder: 1, head: 0, sector: 0 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lba_out_of_range_panics() {
        geo().lba_to_chs(10 * 4 * 16);
    }

    #[test]
    fn angular_slot_applies_skews() {
        let g = geo();
        // Same logical sector 0: head 1 shifted by track_skew, cylinder 1
        // shifted by track_skew * heads? No — by cylinder_skew only.
        assert_eq!(g.angular_slot(Chs { cylinder: 0, head: 0, sector: 0 }), 0);
        assert_eq!(g.angular_slot(Chs { cylinder: 0, head: 1, sector: 0 }), 2);
        assert_eq!(g.angular_slot(Chs { cylinder: 1, head: 0, sector: 0 }), 5);
        assert_eq!(g.angular_slot(Chs { cylinder: 1, head: 3, sector: 15 }), (15 + 6 + 5) % 16);
    }

    #[test]
    fn scale_cylinders_checked_at_boundary() {
        let g = geo();
        // In range: exact multiply.
        assert_eq!(g.scale_cylinders(7).cylinders, 70);
        // The largest factor that still fits.
        let max_factor = u32::MAX / g.cylinders;
        let scaled = g.scale_cylinders(max_factor);
        assert_eq!(scaled.cylinders, g.cylinders * max_factor);
        // The round trip still holds on the giant disk.
        let last = scaled.capacity_sectors() - 1;
        assert_eq!(scaled.chs_to_lba(scaled.lba_to_chs(last)), last);
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn scale_cylinders_overflow_panics() {
        let g = geo();
        let max_factor = u32::MAX / g.cylinders;
        g.scale_cylinders(max_factor + 1);
    }

    #[test]
    fn lba_chs_round_trip_at_u32_cylinder_boundary() {
        // A maximally tall disk: cylinder indices go right up to
        // u32::MAX. Every coordinate must narrow without wrapping.
        let g = DiskGeometry {
            cylinders: u32::MAX,
            heads: 2,
            sectors_per_track: 4,
            sector_size: 512,
            rpm: 6000,
            track_skew: 0,
            cylinder_skew: 0,
        };
        let last = g.capacity_sectors() - 1;
        let chs = g.lba_to_chs(last);
        assert_eq!(chs.cylinder, u32::MAX - 1);
        assert_eq!(g.chs_to_lba(chs), last);
    }

    #[test]
    fn track_chunks_split_on_boundaries() {
        let g = geo();
        let chunks = |lba, sectors| g.track_chunks(lba, sectors).collect::<Vec<_>>();
        assert_eq!(chunks(0, 16), vec![(0, 16)]);
        assert_eq!(chunks(8, 16), vec![(8, 8), (16, 8)]);
        assert_eq!(chunks(15, 1), vec![(15, 1)]);
        assert_eq!(chunks(14, 20), vec![(14, 2), (16, 16), (32, 2)]);
        let total: u32 = g.track_chunks(3, 45).map(|c| c.1).sum();
        assert_eq!(total, 45);
    }
}
