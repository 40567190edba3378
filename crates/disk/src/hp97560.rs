//! The HP 97560 disk model the paper's experiments use.
//!
//! Parameters follow the published characterizations the paper cites:
//! Ruemmler & Wilkes, *An Introduction to Disk Drive Modeling* (IEEE
//! Computer, 1994) and Kotz, Toh & Radhakrishnan, *A Detailed Simulation
//! Model of the HP 97560 Disk Drive* (Dartmouth PCS-TR94-220):
//!
//! * 1962 cylinders × 19 heads × 72 sectors × 512 B ≈ 1.3 GB
//! * 4002 rpm → 14.99 ms per revolution
//! * seek: `3.24 + 0.400 √d` ms below 383 cylinders, `8.00 + 0.008 d` ms
//!   beyond
//! * head switch ≈ 1.6 ms; track skew 8, cylinder skew 18 sectors
//! * ≈2.2 ms controller overhead (the paper's "2-millisecond boundary …
//!   SCSI-request decoding")
//! * 128 KB controller cache: immediate-reported writes plus a 4 KB
//!   read-ahead "when there are no more outstanding requests" (the disk
//!   task models it for every mechanical disk; `DiskOpts::controller_cache`
//!   switches it off)

use cnp_sim::{SimDuration, SimTime};

use crate::geometry::DiskGeometry;
use crate::model::{detailed_media_access, DiskModel, DiskPos, MediaAccess};

/// Tunable HP 97560 parameters (defaults = published values).
#[derive(Debug, Clone)]
pub struct Hp97560Params {
    /// Physical geometry.
    pub geometry: DiskGeometry,
    /// Short-seek constant term (ms).
    pub seek_short_base_ms: f64,
    /// Short-seek √distance coefficient (ms).
    pub seek_short_sqrt_ms: f64,
    /// Long-seek constant term (ms).
    pub seek_long_base_ms: f64,
    /// Long-seek linear coefficient (ms per cylinder).
    pub seek_long_per_cyl_ms: f64,
    /// Distance (cylinders) where the long-seek branch takes over.
    pub seek_crossover: u32,
    /// Head-switch time.
    pub head_switch: SimDuration,
    /// Per-request controller overhead.
    pub controller_overhead: SimDuration,
}

impl Default for Hp97560Params {
    fn default() -> Self {
        Hp97560Params {
            geometry: DiskGeometry {
                cylinders: 1962,
                heads: 19,
                sectors_per_track: 72,
                sector_size: 512,
                rpm: 4002,
                track_skew: 8,
                cylinder_skew: 18,
            },
            seek_short_base_ms: 3.24,
            seek_short_sqrt_ms: 0.400,
            seek_long_base_ms: 8.00,
            seek_long_per_cyl_ms: 0.008,
            seek_crossover: 383,
            head_switch: SimDuration::from_micros(1_600),
            controller_overhead: SimDuration::from_micros(2_200),
        }
    }
}

/// The HP 97560 mechanism model.
#[derive(Debug, Clone)]
pub struct Hp97560 {
    params: Hp97560Params,
}

impl Hp97560 {
    /// Creates the model with published default parameters.
    pub fn new() -> Self {
        Hp97560 { params: Hp97560Params::default() }
    }

    /// Creates the model with custom parameters.
    pub fn with_params(params: Hp97560Params) -> Self {
        Hp97560 { params }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &Hp97560Params {
        &self.params
    }
}

impl Default for Hp97560 {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskModel for Hp97560 {
    fn geometry(&self) -> &DiskGeometry {
        &self.params.geometry
    }

    fn controller_overhead(&self) -> SimDuration {
        self.params.controller_overhead
    }

    fn seek_time(&self, from_cyl: u32, to_cyl: u32) -> SimDuration {
        let d = from_cyl.abs_diff(to_cyl);
        if d == 0 {
            return SimDuration::ZERO;
        }
        let p = &self.params;
        let ms = if d < p.seek_crossover {
            p.seek_short_base_ms + p.seek_short_sqrt_ms * (d as f64).sqrt()
        } else {
            p.seek_long_base_ms + p.seek_long_per_cyl_ms * d as f64
        };
        SimDuration::from_millis_f64(ms)
    }

    fn head_switch_time(&self) -> SimDuration {
        self.params.head_switch
    }

    fn media_access(&self, now: SimTime, pos: DiskPos, lba: u64, sectors: u32) -> MediaAccess {
        detailed_media_access(self, now, pos, lba, sectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_1_3_gb() {
        let d = Hp97560::new();
        let bytes = d.geometry().capacity_bytes();
        assert_eq!(bytes, 1962 * 19 * 72 * 512);
        assert!(bytes > 1_300_000_000 && bytes < 1_400_000_000);
    }

    #[test]
    fn rotation_is_about_15ms() {
        let d = Hp97560::new();
        let rot = d.geometry().rotation_time();
        // 60/4002 s = 14.992 ms.
        assert!(rot.as_micros() > 14_900 && rot.as_micros() < 15_100, "{rot}");
    }

    #[test]
    fn seek_curve_values() {
        let d = Hp97560::new();
        assert_eq!(d.seek_time(100, 100), SimDuration::ZERO);
        // d = 1: 3.24 + 0.4 = 3.64 ms.
        let s1 = d.seek_time(0, 1);
        assert!((s1.as_millis_f64() - 3.64).abs() < 0.01, "{s1}");
        // d = 100: 3.24 + 4.0 = 7.24 ms.
        let s100 = d.seek_time(0, 100);
        assert!((s100.as_millis_f64() - 7.24).abs() < 0.01, "{s100}");
        // d = 1000 (long branch): 8.00 + 8.0 = 16.0 ms.
        let s1000 = d.seek_time(0, 1000);
        assert!((s1000.as_millis_f64() - 16.0).abs() < 0.01, "{s1000}");
    }

    #[test]
    fn seek_is_symmetric_and_monotone() {
        let d = Hp97560::new();
        assert_eq!(d.seek_time(10, 500), d.seek_time(500, 10));
        let mut last = SimDuration::ZERO;
        for dist in [1u32, 2, 5, 10, 50, 100, 382, 383, 500, 1000, 1961] {
            let s = d.seek_time(0, dist);
            assert!(s >= last, "seek not monotone at distance {dist}");
            last = s;
        }
    }

    #[test]
    fn seek_branches_join_reasonably() {
        // At the crossover the two branches should be within ~15 %.
        let d = Hp97560::new();
        let p = d.params();
        let short = p.seek_short_base_ms + p.seek_short_sqrt_ms * (p.seek_crossover as f64).sqrt();
        let long = p.seek_long_base_ms + p.seek_long_per_cyl_ms * p.seek_crossover as f64;
        assert!((short - long).abs() / long < 0.15, "short {short} long {long}");
    }

    #[test]
    fn full_stroke_seek_under_30ms() {
        let d = Hp97560::new();
        let s = d.seek_time(0, 1961);
        assert!(s.as_millis_f64() < 30.0 && s.as_millis_f64() > 20.0, "{s}");
    }
}
