//! The disk's controller cache: read-ahead segments and an
//! immediate-report write buffer (the HP 97560's 128 KB cache).
//!
//! This is a *timing* model: it tracks which LBA ranges are cached so the
//! disk task can skip mechanical work, not the cached bytes themselves
//! (data correctness is the platter store's job).

use std::collections::VecDeque;

/// Tracks cached LBA ranges with FIFO eviction under a byte budget.
#[derive(Debug, Clone)]
pub struct ControllerCache {
    /// Cached read ranges, oldest first.
    ranges: VecDeque<(u64, u32)>,
    /// Current read-cache occupancy in sectors.
    read_sectors: u32,
    /// Capacity shared by read segments, in sectors.
    cap_sectors: u32,
    /// Pending immediate-report writes awaiting the media, oldest first.
    writeback: VecDeque<(u64, u32)>,
    /// Occupancy of the write buffer in sectors.
    write_sectors: u32,
    /// Write-buffer capacity in sectors.
    write_cap_sectors: u32,
    /// Statistics: read hits.
    pub hits: u64,
    /// Statistics: read misses.
    pub misses: u64,
}

impl ControllerCache {
    /// Creates a cache with `cache_bytes` total capacity, split evenly
    /// between the read segments and the write buffer.
    pub fn new(cache_bytes: u32, sector_size: u32) -> Self {
        let total_sectors = cache_bytes / sector_size;
        ControllerCache {
            ranges: VecDeque::new(),
            read_sectors: 0,
            cap_sectors: total_sectors / 2,
            writeback: VecDeque::new(),
            write_sectors: 0,
            write_cap_sectors: total_sectors / 2,
            hits: 0,
            misses: 0,
        }
    }

    /// True if the whole range `[lba, lba+sectors)` is in the read cache.
    pub fn read_hit(&mut self, lba: u64, sectors: u32) -> bool {
        let hit = self.covers(lba, sectors);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn covers(&self, lba: u64, sectors: u32) -> bool {
        let mut need_from = lba;
        let end = lba + sectors as u64;
        // Ranges may cover the request in pieces; scan until satisfied.
        // (Quadratic in range count, but the cache holds only a handful.)
        let mut progressed = true;
        while need_from < end && progressed {
            progressed = false;
            for &(rl, rs) in &self.ranges {
                let rend = rl + rs as u64;
                if rl <= need_from && need_from < rend {
                    need_from = rend;
                    progressed = true;
                    break;
                }
            }
        }
        need_from >= end
    }

    /// Inserts a range into the read cache, evicting oldest entries.
    pub fn insert(&mut self, lba: u64, sectors: u32) {
        if sectors == 0 || sectors > self.cap_sectors {
            return;
        }
        self.ranges.push_back((lba, sectors));
        self.read_sectors += sectors;
        while self.read_sectors > self.cap_sectors {
            let (_, s) = self.ranges.pop_front().expect("occupancy implies entries");
            self.read_sectors -= s;
        }
    }

    /// Invalidates any cached range overlapping `[lba, lba+sectors)`
    /// (a write makes stale read data untrustworthy).
    pub fn invalidate(&mut self, lba: u64, sectors: u32) {
        let end = lba + sectors as u64;
        let mut occupancy = 0;
        self.ranges.retain(|&(rl, rs)| {
            let kept = rl + rs as u64 <= lba || rl >= end;
            if kept {
                occupancy += rs;
            }
            kept
        });
        self.read_sectors = occupancy;
    }

    /// Tries to absorb an immediate-report write; returns false when the
    /// write buffer has no room (caller must drain first).
    pub fn buffer_write(&mut self, lba: u64, sectors: u32) -> bool {
        if self.write_sectors + sectors > self.write_cap_sectors {
            return false;
        }
        self.writeback.push_back((lba, sectors));
        self.write_sectors += sectors;
        true
    }

    /// Pops the oldest buffered write for media write-back.
    pub fn pop_writeback(&mut self) -> Option<(u64, u32)> {
        let (lba, sectors) = self.writeback.pop_front()?;
        self.write_sectors -= sectors;
        Some((lba, sectors))
    }

    /// Number of buffered writes awaiting the media.
    pub fn writeback_depth(&self) -> usize {
        self.writeback.len()
    }

    /// Write-buffer occupancy in sectors.
    pub fn write_occupancy(&self) -> u32 {
        self.write_sectors
    }

    /// True if a write of `sectors` would fit the write buffer right now.
    pub fn write_fits(&self, sectors: u32) -> bool {
        self.write_sectors + sectors <= self.write_cap_sectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ControllerCache {
        // 64 sectors total: 32 read, 32 write.
        ControllerCache::new(64 * 512, 512)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        assert!(!c.read_hit(100, 8));
        c.insert(100, 8);
        assert!(c.read_hit(100, 8));
        assert!(c.read_hit(102, 2));
        assert!(!c.read_hit(100, 16));
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn hit_across_adjacent_ranges() {
        let mut c = cache();
        c.insert(0, 8);
        c.insert(8, 8);
        assert!(c.read_hit(4, 8), "request spanning two cached ranges should hit");
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let mut c = cache();
        c.insert(0, 16);
        c.insert(100, 16);
        assert!(c.read_hit(0, 16));
        // Third insert exceeds the 32-sector read budget: oldest evicted.
        c.insert(200, 16);
        assert!(!c.read_hit(0, 16));
        assert!(c.read_hit(100, 16));
        assert!(c.read_hit(200, 16));
    }

    #[test]
    fn oversized_insert_ignored() {
        let mut c = cache();
        c.insert(0, 33);
        assert!(!c.read_hit(0, 1));
    }

    #[test]
    fn invalidate_drops_overlaps() {
        let mut c = cache();
        c.insert(0, 8);
        c.insert(16, 8);
        c.invalidate(4, 4);
        assert!(!c.read_hit(0, 8));
        assert!(c.read_hit(16, 8));
    }

    #[test]
    fn write_buffer_capacity() {
        let mut c = cache();
        assert!(c.buffer_write(0, 16));
        assert!(c.buffer_write(16, 16));
        assert!(!c.buffer_write(32, 1), "buffer full");
        assert_eq!(c.writeback_depth(), 2);
        assert_eq!(c.pop_writeback(), Some((0, 16)));
        assert!(c.buffer_write(32, 16));
        assert_eq!(c.write_occupancy(), 32);
    }

    #[test]
    fn write_fits_probe() {
        let mut c = cache();
        assert!(c.write_fits(32));
        assert!(!c.write_fits(33));
        c.buffer_write(0, 30);
        assert!(c.write_fits(2));
        assert!(!c.write_fits(3));
    }
}
