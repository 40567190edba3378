//! The block-cache engine: frames, dirty/clean lists, NVRAM accounting.
//!
//! "The cache modules are used to administer and maintain a file-system
//! block cache. It provides interfaces to administer all dirty, non-dirty
//! and free blocks in lists, and it provides interfaces to allocate
//! blocks from the cache. Also, when blocks are allocated from a full
//! cache, it decides which blocks are replaced and flushed." (§2)
//!
//! The engine is deliberately *passive* (synchronous): it decides what
//! must be flushed and the file-system engine above performs the actual
//! (async) I/O, then reports back. That keeps flushing synchronous or
//! asynchronous at the caller's choice — the very design lesson of §5.2.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cnp_sim::{SimDuration, SimTime};

use crate::flush::{CacheQuery, FlushPolicy};
use crate::key::{BlockKey, FileId};
use crate::policy::{AccessMeta, ReplacementPolicy};

/// Maximum per-frame access history kept (for LRU-K).
const HISTORY: usize = 4;

/// Owner tag for dirty data nobody claimed: engine-internal writes
/// (directories, symlink targets, NVRAM replay) and single-client
/// callers that never attribute. Multi-client attribution uses the
/// dirtying client's id instead.
pub const UNATTRIBUTED: u32 = u32::MAX;

/// Block lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Identical to the on-disk copy.
    Clean,
    /// Modified in memory since `since`.
    Dirty {
        /// When the block first became dirty (age-list key).
        since: SimTime,
    },
    /// A flush is in flight; the block became dirty at `since`.
    Flushing {
        /// Dirty-since time carried through the flush.
        since: SimTime,
    },
}

/// One cache frame.
#[derive(Debug)]
struct Frame {
    key: BlockKey,
    state: BlockState,
    access_count: u64,
    history: Vec<SimTime>,
    /// Real block bytes on-line; `None` for simulated user data.
    data: Option<Vec<u8>>,
    /// Re-dirtied while a flush was in flight.
    redirtied: bool,
    /// Client that last dirtied this block ([`UNATTRIBUTED`] when no
    /// client claimed it); flush work is attributed to this owner.
    owner: u32,
}

/// Cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Clean frames evicted for reuse.
    pub evictions: u64,
    /// Clean → dirty transitions.
    pub dirtied: u64,
    /// Writes that hit an already-dirty block (coalesced disk writes).
    pub overwrites: u64,
    /// Dirty blocks that died in cache (delete/truncate): saved writes.
    pub absorbed: u64,
    /// Blocks handed to the flusher.
    pub flushes: u64,
    /// Times a writer had to wait for NVRAM space.
    pub nvram_stalls: u64,
    /// Times an allocation had to wait for a flush.
    pub alloc_stalls: u64,
}

impl CacheStats {
    /// Fraction of lookups that hit.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of dirtied blocks that never reached the disk.
    pub fn absorption_rate(&self) -> f64 {
        if self.dirtied == 0 {
            0.0
        } else {
            self.absorbed as f64 / self.dirtied as f64
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Block size in bytes (Sprite-era: 4 KB).
    pub block_size: u32,
    /// Total cache memory in bytes.
    pub mem_bytes: u64,
    /// If set, dirty blocks may only occupy this many bytes (NVRAM).
    pub nvram_bytes: Option<u64>,
}

impl CacheConfig {
    /// Number of frames.
    pub fn frames(&self) -> usize {
        (self.mem_bytes / self.block_size as u64) as usize
    }

    /// NVRAM budget in blocks (`u64::MAX` when unbounded).
    pub fn nvram_blocks(&self) -> u64 {
        match self.nvram_bytes {
            Some(b) => b / self.block_size as u64,
            None => u64::MAX,
        }
    }
}

/// Outcome of asking for a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum Reserve {
    /// A frame is reserved for the caller; commit it with data.
    Frame(u32),
    /// Nothing clean or free: flush these blocks, then retry.
    NeedFlush(Vec<BlockKey>),
}

/// Outcome of dirtying a block under NVRAM accounting.
#[derive(Debug, PartialEq, Eq)]
pub enum DirtyOutcome {
    /// The block is dirty; proceed.
    Ok,
    /// NVRAM is full: flush these blocks, then retry.
    NeedFlush(Vec<BlockKey>),
}

/// The block cache.
///
/// Key-indexed structures — the resident map and the dirty-age
/// bookkeeping — are partitioned into `shards` by a deterministic hash
/// of the block key ([`BlockKey::shard_image`]): in a multi-core port
/// each shard is an independent lock domain, and even single-threaded
/// the partition bounds any one structure's size. The *frame pool*,
/// the replacement policy, and the NVRAM budget stay global: capacity
/// is one battery and one memory, and a striped free list would make
/// eviction timing depend on the shard count.
///
/// Determinism: every dirtying is stamped with a globally monotone
/// sequence number, and flush-policy selection merges the per-shard
/// dirty sets in ascending sequence order. That stable shard-merge
/// order reconstructs exactly the unsharded oldest-first age list, so
/// seeded runs are byte-identical at every shard count.
pub struct BlockCache {
    cfg: CacheConfig,
    frames: Vec<Frame>,
    /// Resident map, sharded by key hash (shard walk order is stable;
    /// in-shard iteration order is not — persistence paths sort).
    maps: Vec<HashMap<BlockKey, u32>>,
    /// Every resident key in `(file, block)` order — the per-file block
    /// index. Invariant: the same key set as `maps`; `map_insert` and
    /// `map_remove` are the only writers of either.
    by_file: BTreeSet<BlockKey>,
    free: Vec<u32>,
    clean: Box<dyn ReplacementPolicy>,
    /// Per-shard dirty frames keyed by global dirty sequence (ascending
    /// = age order). Flushing frames are *not* in these sets.
    dirty_shards: Vec<BTreeMap<u64, u32>>,
    /// The dirty-sequence stamp of each frame (valid while Dirty).
    frame_seq: Vec<u64>,
    /// Globally monotone dirtying counter — the stable merge key.
    next_seq: u64,
    flush_policy: Box<dyn FlushPolicy>,
    dirty_blocks: u64,
    /// Dirty + flushing blocks charged against NVRAM.
    nvram_used: u64,
    stats: CacheStats,
    /// Blocks handed to the flusher, per dirtying client (ordered so
    /// reports are deterministic).
    flushed_by_owner: BTreeMap<u32, u64>,
}

struct QueryView<'a> {
    frames: &'a [Frame],
    /// Dirty frames merged across shards in ascending sequence order —
    /// identical to the unsharded age list.
    merged: Vec<u32>,
}

impl CacheQuery for QueryView<'_> {
    fn oldest_dirty(&self) -> Option<(BlockKey, SimTime)> {
        let f = *self.merged.first()?;
        let frame = &self.frames[f as usize];
        match frame.state {
            BlockState::Dirty { since } => Some((frame.key, since)),
            _ => None,
        }
    }

    fn dirty_of_file(&self, file: FileId) -> Vec<BlockKey> {
        self.merged
            .iter()
            .map(|&f| &self.frames[f as usize])
            .filter(|fr| fr.key.file == file)
            .map(|fr| fr.key)
            .collect()
    }

    fn dirty_count(&self) -> usize {
        self.merged.len()
    }

    fn oldest_dirty_excluding(&self, excluded: &[BlockKey]) -> Option<(BlockKey, SimTime)> {
        for &f in self.merged.iter() {
            let frame = &self.frames[f as usize];
            if excluded.contains(&frame.key) {
                continue;
            }
            if let BlockState::Dirty { since } = frame.state {
                return Some((frame.key, since));
            }
        }
        None
    }

    fn dirty_oldest_first(&self) -> Vec<(BlockKey, SimTime)> {
        self.merged
            .iter()
            .filter_map(|&f| {
                let frame = &self.frames[f as usize];
                match frame.state {
                    BlockState::Dirty { since } => Some((frame.key, since)),
                    _ => None,
                }
            })
            .collect()
    }
}

impl BlockCache {
    /// Creates an empty, unsharded cache (one shard — the legacy
    /// configuration every pre-sharding test exercises).
    pub fn new(
        cfg: CacheConfig,
        clean: Box<dyn ReplacementPolicy>,
        flush_policy: Box<dyn FlushPolicy>,
    ) -> Self {
        Self::with_shards(cfg, clean, flush_policy, 1)
    }

    /// Creates an empty cache whose key-indexed tables are partitioned
    /// into `shards` (≥ 1 enforced). Behaviour is byte-identical at
    /// every shard count — see the type-level docs.
    pub fn with_shards(
        cfg: CacheConfig,
        clean: Box<dyn ReplacementPolicy>,
        flush_policy: Box<dyn FlushPolicy>,
        shards: usize,
    ) -> Self {
        assert!(shards >= 1, "the cache needs at least one shard");
        let n = cfg.frames();
        assert!(n > 0, "cache must hold at least one block");
        let mut free: Vec<u32> = (0..n as u32).collect();
        free.reverse();
        let frames = (0..n)
            .map(|_| Frame {
                key: BlockKey::new(FileId(u64::MAX), 0),
                state: BlockState::Clean,
                access_count: 0,
                history: Vec::new(),
                data: None,
                redirtied: false,
                owner: UNATTRIBUTED,
            })
            .collect();
        BlockCache {
            cfg,
            frames,
            maps: (0..shards).map(|_| HashMap::new()).collect(),
            by_file: BTreeSet::new(),
            free,
            clean,
            dirty_shards: (0..shards).map(|_| BTreeMap::new()).collect(),
            frame_seq: vec![0; n],
            next_seq: 0,
            flush_policy,
            dirty_blocks: 0,
            nvram_used: 0,
            stats: CacheStats::default(),
            flushed_by_owner: BTreeMap::new(),
        }
    }

    /// Fixed key → shard routing: the same Fibonacci spread over
    /// [`BlockKey::shard_image`] that the engine's lock stripes use —
    /// never the std `HashMap` hasher, so routing is stable across runs.
    fn shard_of(&self, key: BlockKey) -> usize {
        let spread = key.shard_image().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (spread % self.maps.len() as u64) as usize
    }

    fn map_get(&self, key: BlockKey) -> Option<u32> {
        self.maps[self.shard_of(key)].get(&key).copied()
    }

    fn map_insert(&mut self, key: BlockKey, frame: u32) {
        let s = self.shard_of(key);
        self.maps[s].insert(key, frame);
        self.by_file.insert(key);
    }

    fn map_remove(&mut self, key: BlockKey) -> Option<u32> {
        let s = self.shard_of(key);
        self.by_file.remove(&key);
        self.maps[s].remove(&key)
    }

    /// Stamps `frame` with the next global dirty sequence and files it
    /// in its shard's dirty set (the unsharded `push_back`).
    fn dirty_insert(&mut self, frame: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frame_seq[frame as usize] = seq;
        let s = self.shard_of(self.frames[frame as usize].key);
        self.dirty_shards[s].insert(seq, frame);
    }

    fn dirty_remove(&mut self, frame: u32) {
        let s = self.shard_of(self.frames[frame as usize].key);
        self.dirty_shards[s].remove(&self.frame_seq[frame as usize]);
    }

    /// Dirty frames merged across shards in ascending sequence order —
    /// the exact oldest-first age list an unsharded cache keeps.
    fn merged_dirty(&self) -> Vec<u32> {
        let mut pairs: Vec<(u64, u32)> =
            self.dirty_shards.iter().flat_map(|s| s.iter().map(|(&seq, &f)| (seq, f))).collect();
        pairs.sort_unstable_by_key(|&(seq, _)| seq);
        pairs.into_iter().map(|(_, f)| f).collect()
    }

    /// Number of shards the key-indexed tables are partitioned into.
    pub fn shards(&self) -> usize {
        self.maps.len()
    }

    /// Engine configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Names of the installed policies (replacement, flush).
    pub fn policy_names(&self) -> (&'static str, &'static str) {
        (self.clean.name(), self.flush_policy.name())
    }

    /// Interval at which [`BlockCache::tick`] should be driven, if any.
    pub fn tick_interval(&self) -> Option<SimDuration> {
        self.flush_policy.tick_interval()
    }

    /// Dirty block count (excludes in-flight flushes).
    pub fn dirty_count(&self) -> usize {
        self.dirty_blocks as usize
    }

    /// Total blocks resident.
    pub fn resident(&self) -> usize {
        self.maps.iter().map(|m| m.len()).sum()
    }

    /// NVRAM occupancy in blocks (dirty + flushing).
    pub fn nvram_used(&self) -> u64 {
        self.nvram_used
    }

    fn record_access(&mut self, frame: u32, now: SimTime) {
        let f = &mut self.frames[frame as usize];
        f.access_count += 1;
        if f.history.len() == HISTORY {
            f.history.remove(0);
        }
        f.history.push(now);
    }

    /// Looks a block up; a hit refreshes recency and returns the frame.
    pub fn lookup(&mut self, key: BlockKey, now: SimTime) -> Option<u32> {
        match self.map_get(key) {
            Some(frame) => {
                self.stats.hits += 1;
                self.record_access(frame, now);
                let f = &self.frames[frame as usize];
                if matches!(f.state, BlockState::Clean) {
                    // Disjoint field borrows: `clean` vs `frames`.
                    self.clean.touch(
                        frame,
                        AccessMeta { now, count: f.access_count, history: &f.history },
                    );
                }
                Some(frame)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peeks without stats or recency updates.
    pub fn peek(&self, key: BlockKey) -> Option<u32> {
        self.map_get(key)
    }

    /// Returns the block bytes of a resident frame (None if simulated).
    pub fn data(&self, frame: u32) -> Option<&[u8]> {
        self.frames[frame as usize].data.as_deref()
    }

    /// Mutable block bytes of a resident frame.
    pub fn data_mut(&mut self, frame: u32) -> Option<&mut Vec<u8>> {
        self.frames[frame as usize].data.as_mut()
    }

    /// Replaces the bytes of a resident frame.
    pub fn set_data(&mut self, frame: u32, data: Option<Vec<u8>>) {
        self.frames[frame as usize].data = data;
    }

    /// The key held by a frame.
    pub fn key_of(&self, frame: u32) -> BlockKey {
        self.frames[frame as usize].key
    }

    /// The state of a resident block.
    pub fn state_of(&self, key: BlockKey) -> Option<BlockState> {
        self.map_get(key).map(|f| self.frames[f as usize].state)
    }

    /// Reserves a frame for a new block.
    ///
    /// Prefers free frames, then evicts a clean victim; if every frame is
    /// dirty or flushing, returns the flush policy's demand selection.
    pub fn reserve(&mut self) -> Reserve {
        if let Some(f) = self.free.pop() {
            return Reserve::Frame(f);
        }
        if let Some(victim) = self.clean.take_victim() {
            let key = self.frames[victim as usize].key;
            self.map_remove(key);
            self.stats.evictions += 1;
            return Reserve::Frame(victim);
        }
        self.stats.alloc_stalls += 1;
        let merged = self.merged_dirty();
        let q = QueryView { frames: &self.frames, merged };
        let picks = self.flush_policy.on_demand(&q);
        Reserve::NeedFlush(picks)
    }

    /// Commits a reserved frame as block `key`.
    ///
    /// `dirty` blocks are subject to NVRAM limits via
    /// [`BlockCache::mark_dirty`] — commit clean, then dirty explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already resident.
    pub fn commit(&mut self, frame: u32, key: BlockKey, data: Option<Vec<u8>>, now: SimTime) {
        assert!(self.map_get(key).is_none(), "block {key} already resident");
        self.frames[frame as usize] = Frame {
            key,
            state: BlockState::Clean,
            access_count: 0,
            history: Vec::with_capacity(HISTORY),
            data,
            redirtied: false,
            owner: UNATTRIBUTED,
        };
        self.map_insert(key, frame);
        self.stats.insertions += 1;
        self.record_access(frame, now);
        self.clean.insert(frame, AccessMeta { now, count: 1, history: &[now] });
    }

    /// Returns a reserved frame unused (e.g. the disk read failed).
    pub fn release_reserved(&mut self, frame: u32) {
        self.free.push(frame);
    }

    /// Marks a resident block dirty, enforcing the NVRAM budget. The
    /// block's flush-attribution owner is left as it was (engine
    /// retries and internal metadata writes must not steal attribution
    /// from the client whose data the block carries).
    pub fn mark_dirty(&mut self, key: BlockKey, now: SimTime) -> DirtyOutcome {
        let frame = self.map_get(key).expect("mark_dirty on non-resident block");
        match self.frames[frame as usize].state {
            BlockState::Dirty { .. } => {
                self.stats.overwrites += 1;
                DirtyOutcome::Ok
            }
            BlockState::Flushing { since } => {
                // Re-dirtied under flush: still counted against NVRAM.
                self.stats.overwrites += 1;
                self.frames[frame as usize].redirtied = true;
                let _ = since;
                DirtyOutcome::Ok
            }
            BlockState::Clean => {
                if self.nvram_used >= self.cfg.nvram_blocks() {
                    self.stats.nvram_stalls += 1;
                    let merged = self.merged_dirty();
                    let q = QueryView { frames: &self.frames, merged };
                    let picks = self.flush_policy.on_nvram_full(&q);
                    return DirtyOutcome::NeedFlush(picks);
                }
                self.clean.remove(frame);
                self.frames[frame as usize].state = BlockState::Dirty { since: now };
                self.dirty_insert(frame);
                self.dirty_blocks += 1;
                self.nvram_used += 1;
                self.stats.dirtied += 1;
                DirtyOutcome::Ok
            }
        }
    }

    /// [`BlockCache::mark_dirty`] with flush attribution: on success the
    /// block's owner becomes `owner` (last writer wins), so the flush
    /// work it later causes is charged to that client.
    pub fn mark_dirty_for(&mut self, key: BlockKey, now: SimTime, owner: u32) -> DirtyOutcome {
        let outcome = self.mark_dirty(key, now);
        if outcome == DirtyOutcome::Ok {
            if let Some(frame) = self.map_get(key) {
                self.frames[frame as usize].owner = owner;
            }
        }
        outcome
    }

    /// Blocks handed to the flusher per dirtying client, ordered by
    /// client id; engine-internal traffic appears as [`UNATTRIBUTED`].
    pub fn flushes_by_client(&self) -> Vec<(u32, u64)> {
        self.flushed_by_owner.iter().map(|(&c, &n)| (c, n)).collect()
    }

    /// Takes blocks out of the dirty set for flushing.
    ///
    /// Returns the keys actually transitioned (already-clean or missing
    /// keys are skipped — the workload may have raced the policy pick).
    pub fn begin_flush(&mut self, keys: &[BlockKey]) -> Vec<BlockKey> {
        let mut out = Vec::with_capacity(keys.len());
        for &key in keys {
            let Some(frame) = self.map_get(key) else { continue };
            let BlockState::Dirty { since } = self.frames[frame as usize].state else {
                continue;
            };
            self.frames[frame as usize].state = BlockState::Flushing { since };
            self.frames[frame as usize].redirtied = false;
            self.dirty_remove(frame);
            self.dirty_blocks -= 1;
            self.stats.flushes += 1;
            *self.flushed_by_owner.entry(self.frames[frame as usize].owner).or_insert(0) += 1;
            out.push(key);
        }
        out
    }

    /// Completes a flush: the block becomes clean (or returns to the
    /// dirty list if it was re-dirtied mid-flight).
    pub fn end_flush(&mut self, key: BlockKey, now: SimTime) {
        let Some(frame) = self.map_get(key) else { return };
        let f = &mut self.frames[frame as usize];
        let BlockState::Flushing { .. } = f.state else { return };
        if f.redirtied {
            f.redirtied = false;
            f.state = BlockState::Dirty { since: now };
            // A fresh sequence stamp: the re-dirtied block rejoins the
            // age order at the tail, exactly like the old `push_back`.
            self.dirty_insert(frame);
            self.dirty_blocks += 1;
            // NVRAM stays charged: the block is still dirty.
            return;
        }
        f.state = BlockState::Clean;
        self.nvram_used -= 1;
        let f = &self.frames[frame as usize];
        self.clean.insert(frame, AccessMeta { now, count: f.access_count, history: &f.history });
    }

    /// Drops one block (truncate); dirty blocks count as absorbed writes.
    pub fn remove_block(&mut self, key: BlockKey) {
        let Some(frame) = self.map_remove(key) else { return };
        self.drop_frame(frame);
    }

    /// Drops every block of `file` (delete); dirty blocks are absorbed.
    ///
    /// "Keeping dirty data longer in memory … increases the probability
    /// that a block is overwritten through truncate and delete calls in
    /// memory rather than on disk." (§1)
    pub fn remove_file(&mut self, file: FileId) -> u64 {
        // Ascending key order, read off the per-file index: the removal
        // order decides the order frames return to the free list — which
        // decides where later blocks land and what index-sweeping
        // replacement policies evict. Persistence paths must not inherit
        // hasher state (two seeded runs must produce byte-identical
        // platters), so the shard HashMaps are never walked here.
        let keys: Vec<BlockKey> = self
            .by_file
            .range(BlockKey::new(file, 0)..=BlockKey::new(file, u64::MAX))
            .copied()
            .collect();
        let mut absorbed = 0;
        for key in keys {
            let was_dirty = matches!(self.state_of(key), Some(BlockState::Dirty { .. }));
            if was_dirty {
                absorbed += 1;
            }
            self.remove_block(key);
        }
        absorbed
    }

    fn drop_frame(&mut self, frame: u32) {
        match self.frames[frame as usize].state {
            BlockState::Clean => {
                self.clean.remove(frame);
            }
            BlockState::Dirty { .. } => {
                self.dirty_remove(frame);
                self.dirty_blocks -= 1;
                self.nvram_used -= 1;
                self.stats.absorbed += 1;
            }
            BlockState::Flushing { .. } => {
                // The in-flight flush still owns the NVRAM charge; its
                // end_flush will find the block gone and release nothing,
                // so release here.
                self.nvram_used -= 1;
            }
        }
        self.frames[frame as usize].state = BlockState::Clean;
        self.frames[frame as usize].data = None;
        self.free.push(frame);
    }

    /// Runs the flush policy's periodic scan; returns blocks to flush.
    pub fn tick(&mut self, now: SimTime) -> Vec<BlockKey> {
        let merged = self.merged_dirty();
        let q = QueryView { frames: &self.frames, merged };
        let picks = self.flush_policy.on_tick(&q, now);
        if cnp_obs::trace::enabled() && !picks.is_empty() {
            cnp_obs::trace::instant_on(
                cnp_obs::trace::engine_lane("cache"),
                "cache:flush-select",
                now.as_nanos(),
                vec![("blocks", cnp_obs::trace::Field::U64(picks.len() as u64))],
            );
        }
        picks
    }

    /// All dirty block keys, oldest first (for sync/unmount).
    pub fn all_dirty(&self) -> Vec<BlockKey> {
        self.merged_dirty().into_iter().map(|f| self.frames[f as usize].key).collect()
    }

    /// Snapshot of every dirty or in-flush block with its bytes, in
    /// deterministic key order — the contents a battery-backed (NVRAM)
    /// cache would preserve across a crash. `Flushing` blocks are
    /// included because their writes may not have retired yet.
    pub fn dirty_snapshot(&self) -> Vec<(BlockKey, Option<Vec<u8>>)> {
        let mut out: Vec<(BlockKey, Option<Vec<u8>>)> = self
            .maps
            .iter()
            .flat_map(|m| m.iter())
            .filter_map(|(&key, &frame)| {
                let f = &self.frames[frame as usize];
                match f.state {
                    BlockState::Dirty { .. } | BlockState::Flushing { .. } => {
                        Some((key, f.data.clone()))
                    }
                    BlockState::Clean => None,
                }
            })
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Dirty blocks of one file, oldest first.
    pub fn dirty_of_file(&self, file: FileId) -> Vec<BlockKey> {
        let merged = self.merged_dirty();
        let q = QueryView { frames: &self.frames, merged };
        q.dirty_of_file(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flush::{NvramFlush, PeriodicUpdate, WriteSaving};
    use crate::policy::Lru;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn key(f: u64, b: u64) -> BlockKey {
        BlockKey::new(FileId(f), b)
    }

    fn small_cache(frames: u64, nvram_blocks: Option<u64>) -> BlockCache {
        let cfg = CacheConfig {
            block_size: 4096,
            mem_bytes: frames * 4096,
            nvram_bytes: nvram_blocks.map(|n| n * 4096),
        };
        let n = cfg.frames();
        BlockCache::new(cfg, Box::new(Lru::new(n)), Box::new(WriteSaving::default()))
    }

    fn insert(c: &mut BlockCache, k: BlockKey, now: SimTime) -> u32 {
        match c.reserve() {
            Reserve::Frame(f) => {
                c.commit(f, k, None, now);
                f
            }
            Reserve::NeedFlush(_) => panic!("unexpected flush need"),
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = small_cache(4, None);
        assert!(c.lookup(key(1, 0), t(0)).is_none());
        insert(&mut c, key(1, 0), t(1));
        assert!(c.lookup(key(1, 0), t(2)).is_some());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn eviction_follows_lru() {
        let mut c = small_cache(2, None);
        insert(&mut c, key(1, 0), t(0));
        insert(&mut c, key(1, 1), t(1));
        // Touch block 0 so block 1 is LRU.
        c.lookup(key(1, 0), t(2));
        insert(&mut c, key(1, 2), t(3));
        assert!(c.peek(key(1, 0)).is_some());
        assert!(c.peek(key(1, 1)).is_none(), "LRU victim should be evicted");
        assert!(c.peek(key(1, 2)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn all_dirty_blocks_demand_flush() {
        let mut c = small_cache(2, None);
        insert(&mut c, key(1, 0), t(0));
        insert(&mut c, key(2, 0), t(1));
        assert_eq!(c.mark_dirty(key(1, 0), t(2)), DirtyOutcome::Ok);
        assert_eq!(c.mark_dirty(key(2, 0), t(3)), DirtyOutcome::Ok);
        match c.reserve() {
            Reserve::NeedFlush(picks) => {
                // WriteSaving partial: oldest dirty block.
                assert_eq!(picks, vec![key(1, 0)]);
            }
            Reserve::Frame(_) => panic!("no clean frame should exist"),
        }
        // Flush it and retry.
        let started = c.begin_flush(&[key(1, 0)]);
        assert_eq!(started, vec![key(1, 0)]);
        c.end_flush(key(1, 0), t(4));
        match c.reserve() {
            Reserve::Frame(f) => {
                // The freed frame previously held file1:0 (evicted clean).
                c.commit(f, key(3, 0), None, t(5));
            }
            Reserve::NeedFlush(_) => panic!("clean frame available after flush"),
        }
        assert!(c.peek(key(1, 0)).is_none());
    }

    #[test]
    fn nvram_budget_enforced() {
        let mut c = small_cache(8, Some(2));
        for b in 0..3 {
            insert(&mut c, key(1, b), t(b));
        }
        assert_eq!(c.mark_dirty(key(1, 0), t(10)), DirtyOutcome::Ok);
        assert_eq!(c.mark_dirty(key(1, 1), t(11)), DirtyOutcome::Ok);
        // Third dirty exceeds the 2-block NVRAM.
        match c.mark_dirty(key(1, 2), t(12)) {
            DirtyOutcome::NeedFlush(picks) => assert_eq!(picks, vec![key(1, 0)]),
            DirtyOutcome::Ok => panic!("NVRAM limit not enforced"),
        }
        assert_eq!(c.stats().nvram_stalls, 1);
        // Flush oldest; now the third write fits.
        c.begin_flush(&[key(1, 0)]);
        c.end_flush(key(1, 0), t(13));
        assert_eq!(c.mark_dirty(key(1, 2), t(14)), DirtyOutcome::Ok);
        assert_eq!(c.nvram_used(), 2);
    }

    #[test]
    fn delete_absorbs_dirty_blocks() {
        let mut c = small_cache(8, None);
        for b in 0..4 {
            insert(&mut c, key(9, b), t(b));
            c.mark_dirty(key(9, b), t(b + 10));
        }
        insert(&mut c, key(2, 0), t(50));
        let absorbed = c.remove_file(FileId(9));
        assert_eq!(absorbed, 4);
        assert_eq!(c.stats().absorbed, 4);
        assert_eq!(c.dirty_count(), 0);
        assert!(c.peek(key(9, 0)).is_none());
        assert!(c.peek(key(2, 0)).is_some());
        assert!(c.stats().absorption_rate() > 0.99);
    }

    #[test]
    fn overwrite_of_dirty_coalesces() {
        let mut c = small_cache(4, None);
        insert(&mut c, key(1, 0), t(0));
        c.mark_dirty(key(1, 0), t(1));
        c.mark_dirty(key(1, 0), t(2));
        c.mark_dirty(key(1, 0), t(3));
        let s = c.stats();
        assert_eq!(s.dirtied, 1);
        assert_eq!(s.overwrites, 2);
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn redirty_during_flush_stays_dirty() {
        let mut c = small_cache(4, None);
        insert(&mut c, key(1, 0), t(0));
        c.mark_dirty(key(1, 0), t(1));
        c.begin_flush(&[key(1, 0)]);
        // Write lands while the flush is in flight.
        assert_eq!(c.mark_dirty(key(1, 0), t(2)), DirtyOutcome::Ok);
        c.end_flush(key(1, 0), t(3));
        assert!(matches!(c.state_of(key(1, 0)), Some(BlockState::Dirty { .. })));
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn periodic_policy_ticks_old_files() {
        let cfg = CacheConfig { block_size: 4096, mem_bytes: 8 * 4096, nvram_bytes: None };
        let n = cfg.frames();
        let mut c =
            BlockCache::new(cfg, Box::new(Lru::new(n)), Box::new(PeriodicUpdate::default()));
        assert_eq!(c.tick_interval(), Some(SimDuration::from_secs(5)));
        insert(&mut c, key(1, 0), t(0));
        c.mark_dirty(key(1, 0), t(0));
        insert(&mut c, key(2, 0), t(0));
        c.mark_dirty(key(2, 0), SimTime::from_nanos(20_000_000_000));
        // At t=31 s only file 1 exceeds 30 s.
        let picks = c.tick(SimTime::from_nanos(31_000_000_000));
        assert_eq!(picks, vec![key(1, 0)]);
        // At t=51 s both are over 30 s: both files picked.
        let picks = c.tick(SimTime::from_nanos(51_000_000_000));
        assert_eq!(picks, vec![key(1, 0), key(2, 0)]);
    }

    #[test]
    fn nvram_whole_file_policy_selects_file_group() {
        let cfg =
            CacheConfig { block_size: 4096, mem_bytes: 8 * 4096, nvram_bytes: Some(3 * 4096) };
        let n = cfg.frames();
        let mut c = BlockCache::new(
            cfg,
            Box::new(Lru::new(n)),
            Box::new(NvramFlush { whole_file: true, batch: 1 }),
        );
        insert(&mut c, key(1, 0), t(0));
        insert(&mut c, key(1, 1), t(1));
        insert(&mut c, key(2, 0), t(2));
        insert(&mut c, key(2, 1), t(3));
        c.mark_dirty(key(1, 0), t(10));
        c.mark_dirty(key(2, 0), t(11));
        c.mark_dirty(key(1, 1), t(12));
        match c.mark_dirty(key(2, 1), t(13)) {
            DirtyOutcome::NeedFlush(picks) => {
                // Whole file of the oldest (file 1), in age order.
                assert_eq!(picks, vec![key(1, 0), key(1, 1)]);
            }
            DirtyOutcome::Ok => panic!("NVRAM should be full"),
        }
    }

    #[test]
    fn begin_flush_skips_clean_and_missing() {
        let mut c = small_cache(4, None);
        insert(&mut c, key(1, 0), t(0));
        let started = c.begin_flush(&[key(1, 0), key(5, 5)]);
        assert!(started.is_empty());
    }

    #[test]
    fn flush_attribution_follows_last_dirtier() {
        let mut c = small_cache(8, None);
        insert(&mut c, key(1, 0), t(0));
        insert(&mut c, key(1, 1), t(1));
        insert(&mut c, key(2, 0), t(2));
        // Client 3 dirties two blocks, client 5 one; an unattributed
        // engine write dirties nothing new on 1:0 (retry path).
        assert_eq!(c.mark_dirty_for(key(1, 0), t(3), 3), DirtyOutcome::Ok);
        assert_eq!(c.mark_dirty_for(key(1, 1), t(4), 3), DirtyOutcome::Ok);
        assert_eq!(c.mark_dirty_for(key(2, 0), t(5), 5), DirtyOutcome::Ok);
        assert_eq!(c.mark_dirty(key(1, 0), t(6)), DirtyOutcome::Ok);
        let started = c.begin_flush(&[key(1, 0), key(1, 1), key(2, 0)]);
        assert_eq!(started.len(), 3);
        assert_eq!(c.flushes_by_client(), vec![(3, 2), (5, 1)]);
        // A redirty by another client while flushing reattributes.
        for k in started {
            c.end_flush(k, t(7));
        }
        assert_eq!(c.mark_dirty_for(key(1, 0), t(8), 9), DirtyOutcome::Ok);
        c.begin_flush(&[key(1, 0)]);
        assert_eq!(c.flushes_by_client(), vec![(3, 2), (5, 1), (9, 1)]);
    }

    #[test]
    fn sharded_cache_matches_unsharded_selection() {
        // Drive an identical dirty/flush/redirty/absorb script through an
        // unsharded cache and 4- and 16-shard caches: the age list, the
        // demand-flush picks, and every counter must be byte-identical —
        // the global dirty sequence makes shard merge order equal the
        // unsharded oldest-first order by construction.
        let run = |shards: usize| {
            let cfg =
                CacheConfig { block_size: 4096, mem_bytes: 16 * 4096, nvram_bytes: Some(6 * 4096) };
            let n = cfg.frames();
            let mut c = BlockCache::with_shards(
                cfg,
                Box::new(Lru::new(n)),
                Box::new(WriteSaving::default()),
                shards,
            );
            let mut log: Vec<String> = Vec::new();
            for i in 0..12u64 {
                let k = key(i % 5, i / 5);
                if c.peek(k).is_none() {
                    insert(&mut c, k, t(i));
                }
                match c.mark_dirty(k, t(i + 100)) {
                    DirtyOutcome::Ok => {}
                    DirtyOutcome::NeedFlush(picks) => {
                        log.push(format!("stall {picks:?}"));
                        let started = c.begin_flush(&picks);
                        // Redirty one mid-flight to exercise the re-stamp.
                        if let Some(&first) = started.first() {
                            c.mark_dirty(first, t(i + 101));
                        }
                        for fk in started {
                            c.end_flush(fk, t(i + 102));
                        }
                        c.mark_dirty(k, t(i + 103));
                    }
                }
            }
            log.push(format!("age {:?}", c.all_dirty()));
            log.push(format!("absorbed {}", c.remove_file(FileId(2))));
            log.push(format!("age2 {:?}", c.all_dirty()));
            let s = c.stats();
            log.push(format!(
                "dirtied {} overwrites {} flushes {} stalls {}",
                s.dirtied, s.overwrites, s.flushes, s.nvram_stalls
            ));
            log
        };
        let base = run(1);
        assert_eq!(run(4), base, "4-shard cache diverged from unsharded");
        assert_eq!(run(16), base, "16-shard cache diverged from unsharded");
    }

    #[test]
    fn per_file_index_equals_a_map_scan() {
        // Interleaved insert / evict / remove_block / remove_file on a
        // sharded cache small enough to evict: after every step the
        // per-file index must hold exactly the keys a scan of the shard
        // maps finds, and `remove_file` must take exactly that file.
        let cfg = CacheConfig { block_size: 4096, mem_bytes: 8 * 4096, nvram_bytes: None };
        let n = cfg.frames();
        let mut c = BlockCache::with_shards(
            cfg,
            Box::new(Lru::new(n)),
            Box::new(WriteSaving::default()),
            4,
        );
        let check = |c: &BlockCache| {
            let mut scan: Vec<BlockKey> = c.maps.iter().flat_map(|m| m.keys().copied()).collect();
            scan.sort_unstable();
            assert_eq!(c.by_file.iter().copied().collect::<Vec<_>>(), scan);
        };
        let mut x = 12345u64;
        let mut evicted = false;
        for step in 0..400u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = key((x >> 33) % 5, (x >> 40) % 6);
            match (x >> 50) % 8 {
                0 => {
                    let before = c.resident();
                    let mine = c.by_file.iter().filter(|b| b.file == k.file).count();
                    c.remove_file(k.file);
                    assert_eq!(c.resident(), before - mine, "remove_file took another file's");
                    assert!(c.by_file.iter().all(|b| b.file != k.file));
                }
                1 => c.remove_block(k),
                _ if c.peek(k).is_none() => {
                    evicted |= c.resident() == n;
                    insert(&mut c, k, t(step));
                }
                _ => {}
            }
            check(&c);
        }
        assert!(evicted, "the script must exercise the eviction path");
    }

    #[test]
    fn data_round_trip() {
        let mut c = small_cache(4, None);
        let f = match c.reserve() {
            Reserve::Frame(f) => f,
            _ => unreachable!(),
        };
        c.commit(f, key(1, 0), Some(vec![7u8; 4096]), t(0));
        assert_eq!(c.data(f).unwrap()[0], 7);
        c.data_mut(f).unwrap()[0] = 9;
        assert_eq!(c.data(f).unwrap()[0], 9);
    }
}
