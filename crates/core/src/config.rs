//! File-system engine configuration: the cut-and-paste wiring point.
//!
//! Every policy the paper's components expose is selected here by name,
//! so a Patsy experiment and a PFS instance differ only in configuration.

use cnp_cache::CacheConfig;

/// Whether user file data carries real bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// On-line (PFS): every block carries real bytes.
    Real,
    /// Off-line (Patsy): user data is length-only; metadata stays real.
    Simulated,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Cache geometry (memory size, block size, optional NVRAM bound).
    pub cache: CacheConfig,
    /// Replacement policy name (`lru`, `fifo`, `random`, `lfu`, `slru`,
    /// `lru-k`).
    pub replacement: String,
    /// Flush policy name (`write-delay`, `ups`, `ups-whole`,
    /// `nvram-whole`, `nvram-partial`).
    pub flush: String,
    /// I/O pipeline depth: how many block requests the engine keeps in
    /// flight per multi-block operation, and how many commands the disk
    /// driver keeps outstanding at the device. `1` (the default) keeps
    /// one command at the device at a time; raising it lets multi-block
    /// reads/writes and flush batches fan out, building the disk queue
    /// the I/O schedulers exist to exploit.
    pub queue_depth: u32,
    /// Real or simulated user data.
    pub data_mode: DataMode,
    /// Stripe count of the engine's interior lock families: the
    /// namespace lock (striped by parent directory inode) and the
    /// layout extent-range locks (striped by owning inode). (The inode
    /// and in-flight tables and the block cache are one structure each
    /// at every shard count — see `cnp_cache::BlockCache`.)
    /// `1` (the default) is one stripe per family and replays
    /// pre-sharding runs exactly; raising it lets independent
    /// clients' operations proceed past each other. Single-client
    /// seeded runs are byte-identical at every shard count (enforced
    /// by proptest): striping decides who waits for whom, it never
    /// reorders a lone client's decisions.
    pub shards: u32,
    /// Test-only: reintroduce the pre-fix stale-size write ordering
    /// (size extended only *after* all blocks are dirtied, so a
    /// mid-write flush persists a stale size and the acked tail is
    /// unreachable after a crash). Exists so `cnp-check` can prove its
    /// crash-point enumeration catches this class of bug; never set it
    /// outside a checker self-test.
    pub plant_stale_size_bug: bool,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            cache: CacheConfig { block_size: 4096, mem_bytes: 16 * 1024 * 1024, nvram_bytes: None },
            replacement: "lru".to_string(),
            flush: "write-delay".to_string(),
            queue_depth: 1,
            data_mode: DataMode::Simulated,
            shards: 1,
            plant_stale_size_bug: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_writedelay_lru() {
        let c = FsConfig::default();
        assert_eq!(c.replacement, "lru");
        assert_eq!(c.flush, "write-delay");
        assert_eq!(c.cache.frames(), 4096);
        // Depth 1 by default: a deeper pipeline is opt-in so seeded runs
        // stay comparable across versions.
        assert_eq!(c.queue_depth, 1);
    }
}
