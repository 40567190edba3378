//! The engine's counters, and the one snapshot that absorbs every
//! layer's native stats under namespaced keys.

use cnp_layout::{LayoutStats, StorageLayout};
use cnp_sim::LockStats;

use super::FileSystem;

/// Engine-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStats {
    /// Client operations served.
    pub ops: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Create operations (files + directories + symlinks).
    pub creates: u64,
    /// Unlink/rmdir operations.
    pub deletes: u64,
    /// Bytes read by clients.
    pub bytes_read: u64,
    /// Bytes written by clients.
    pub bytes_written: u64,
    /// Dirty blocks absorbed (deleted/truncated before reaching disk).
    pub absorbed_blocks: u64,
    /// Flush batches executed.
    pub flush_batches: u64,
    /// Blocks flushed to the layout.
    pub blocks_flushed: u64,
    /// Flush batches that failed at the layout/disk (e.g. power cut).
    pub flush_errors: u64,
}

impl FileSystem {
    /// Engine counters.
    pub fn stats(&self) -> FsStats {
        *self.s.stats.borrow()
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> cnp_cache::CacheStats {
        self.s.cache.borrow().stats()
    }

    /// Driver statistics (queue/service/rotation histograms).
    pub fn driver_stats(&self) -> cnp_disk::DriverStats {
        self.s.driver.stats()
    }

    /// Per-lock contention counters, by lock family: `ns` (namespace
    /// stripes, merged), `layout` (the core layout lock), and
    /// `layout-range` (extent-range stripes, merged). Wait time is
    /// simulated time tasks spent blocked acquiring; hold time is
    /// simulated time the lock was held.
    pub fn lock_stats(&self) -> Vec<(&'static str, LockStats)> {
        vec![
            ("ns", self.s.ns_lock.stats()),
            ("layout", self.s.layout.stats()),
            ("layout-range", self.s.layout_ranges.stats()),
        ]
    }

    /// Blocks handed to the flusher per dirtying client, ordered by
    /// client id. Engine-internal traffic (directories, symlink targets)
    /// and unattributed writes appear as [`cnp_cache::UNATTRIBUTED`].
    pub fn flushes_by_client(&self) -> Vec<(u32, u64)> {
        self.s.cache.borrow().flushes_by_client()
    }

    /// One [`cnp_obs::MetricsSnapshot`] absorbing every layer's native
    /// stats — engine counters, cache, lock families, driver
    /// histograms, layout, flush attribution — under namespaced keys
    /// (`fs.*`, `cache.*`, `lock.<family>.*`, `disk.*`, `layout.*`,
    /// `flush.*`). Sorted keys make the serialized bytes deterministic.
    pub fn metrics(&self) -> cnp_obs::MetricsSnapshot {
        let mut m = cnp_obs::MetricsSnapshot::new();
        let st = self.stats();
        m.counter("fs.ops", st.ops);
        m.counter("fs.reads", st.reads);
        m.counter("fs.writes", st.writes);
        m.counter("fs.creates", st.creates);
        m.counter("fs.deletes", st.deletes);
        m.counter("fs.bytes_read", st.bytes_read);
        m.counter("fs.bytes_written", st.bytes_written);
        m.counter("fs.absorbed_blocks", st.absorbed_blocks);
        m.counter("fs.flush_batches", st.flush_batches);
        m.counter("fs.blocks_flushed", st.blocks_flushed);
        m.counter("fs.flush_errors", st.flush_errors);
        let cs = self.cache_stats();
        m.counter("cache.hits", cs.hits);
        m.counter("cache.misses", cs.misses);
        m.gauge("cache.hit_rate", cs.hit_rate());
        m.counter("cache.insertions", cs.insertions);
        m.counter("cache.evictions", cs.evictions);
        m.counter("cache.dirtied", cs.dirtied);
        m.counter("cache.overwrites", cs.overwrites);
        m.counter("cache.absorbed", cs.absorbed);
        m.counter("cache.flushes", cs.flushes);
        m.counter("cache.nvram_stalls", cs.nvram_stalls);
        m.counter("cache.alloc_stalls", cs.alloc_stalls);
        for (family, ls) in self.lock_stats() {
            m.counter(&format!("lock.{family}.acquisitions"), ls.acquisitions);
            m.counter(&format!("lock.{family}.contentions"), ls.contentions);
            m.gauge(&format!("lock.{family}.wait_ms"), ls.wait.as_millis_f64());
            m.gauge(&format!("lock.{family}.hold_ms"), ls.hold.as_millis_f64());
            m.gauge(&format!("lock.{family}.max_wait_ms"), ls.max_wait.as_millis_f64());
        }
        let ds = self.driver_stats();
        m.counter("disk.completed", ds.completed);
        m.counter("disk.reads", ds.reads);
        m.counter("disk.writes", ds.writes);
        m.counter("disk.errors", ds.errors);
        m.counter("disk.retries", ds.retries);
        m.gauge("disk.mean_queue_len", ds.mean_queue_len);
        m.gauge("disk.max_queue_len", ds.max_queue_len);
        m.gauge("disk.mean_inflight", ds.mean_inflight);
        m.gauge("disk.overlap_fraction", ds.overlap_fraction);
        m.histogram("disk.queue_ms", &ds.queue_time);
        m.histogram("disk.service_ms", &ds.service_time);
        m.histogram("disk.rotation_ms", &ds.rotation_time);
        if let Some(ls) = self.layout_stats() {
            m.counter("layout.meta_reads", ls.meta_reads);
            m.counter("layout.meta_writes", ls.meta_writes);
            m.counter("layout.data_reads", ls.data_reads);
            m.counter("layout.data_writes", ls.data_writes);
            m.counter("layout.segments_written", ls.segments_written);
            m.counter("layout.segments_cleaned", ls.segments_cleaned);
            m.counter("layout.cleaner_moved", ls.cleaner_moved);
            m.counter("layout.checkpoints", ls.checkpoints);
        }
        let mut attributed = 0u64;
        let mut unattributed = 0u64;
        let mut clients = 0u64;
        for (id, n) in self.flushes_by_client() {
            if id == cnp_cache::UNATTRIBUTED {
                unattributed += n;
            } else {
                attributed += n;
                clients += 1;
            }
        }
        m.counter("flush.attributed_blocks", attributed);
        m.counter("flush.unattributed_blocks", unattributed);
        m.counter("flush.dirtying_clients", clients);
        m
    }

    /// Layout statistics; `None` while the layout lock is held.
    pub fn layout_stats(&self) -> Option<LayoutStats> {
        self.s.layout.try_lock().map(|g| g.get().stats())
    }
}
