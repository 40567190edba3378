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

use std::collections::{BTreeMap, HashMap};

use cnp_sim::{SimDuration, SimTime};

use crate::flush::{CacheQuery, FlushPolicy};
use crate::key::{BlockKey, FileId, FixedState};
use crate::list::FrameList;
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
    /// The last `min(access_count, HISTORY)` access times, newest last.
    history: [SimTime; HISTORY],
    /// Real block bytes on-line; `None` for simulated user data.
    data: Option<Vec<u8>>,
    /// Names what `data` holds: drawn from the cache's one counter
    /// whenever `data` is assigned, so equal stamps mean equal bytes.
    content: u64,
    /// Re-dirtied while a flush was in flight.
    redirtied: bool,
    /// Client that last dirtied this block ([`UNATTRIBUTED`] when no
    /// client claimed it); flush work is attributed to this owner.
    owner: u32,
    /// Dirtying stamp (valid while `Dirty`): the frame's position in the
    /// age order without walking it — what sorts one file's dirty blocks
    /// oldest first.
    seq: u64,
    /// Consecutive failed flushes since the block was committed, last
    /// written or given up ([`BlockCache::fail_flush`]).
    failed_flushes: u8,
}

impl Frame {
    fn new(key: BlockKey, data: Option<Vec<u8>>, content: u64) -> Frame {
        Frame {
            key,
            state: BlockState::Clean,
            access_count: 0,
            history: [SimTime::ZERO; HISTORY],
            data,
            content,
            redirtied: false,
            owner: UNATTRIBUTED,
            seq: 0,
            failed_flushes: 0,
        }
    }

    fn history_len(&self) -> usize {
        self.access_count.min(HISTORY as u64) as usize
    }

    fn meta(&self, now: SimTime) -> AccessMeta<'_> {
        AccessMeta { now, count: self.access_count, history: &self.history[..self.history_len()] }
    }
}

/// Cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
/// A pool of frames, and every resident frame on exactly one of three
/// footings: *clean* (ordered by the replacement policy's own lists),
/// *dirty* (on one [`FrameList`] in dirtying order — the paper's age
/// list, oldest at the front) or *flushing* (on neither, until
/// [`BlockCache::end_flush`]). A flush policy's question — "the oldest
/// dirty block", "the file of the oldest block" — is a walk from the
/// front of that list that stops when it has its pick, so a pick costs
/// what it picks, not what is dirty.
///
/// One index names the resident blocks: a hash map from file to that
/// file's `(block, frame)` list in ascending block order, so a point
/// operation is one hash and a binary search and one file's blocks are a
/// slice. Only the crash snapshot iterates the map, through a sorted
/// list of its keys, so its order (and its hasher) can reach no output.
///
/// The cache is not sharded: it lives in one `RefCell` on one thread,
/// and the frame pool, the replacement order, the age order and the
/// NVRAM budget are each one global thing (one memory, one battery).
/// The engine above stripes its *locks* and lock-guarded tables by
/// `FsConfig.shards`, where contention costs virtual time.
pub struct BlockCache {
    cfg: CacheConfig,
    frames: Vec<Frame>,
    /// The resident blocks: each file's `(block, frame)` pairs in
    /// ascending block order, never empty (a file whose last block
    /// leaves is removed). `commit`, `index_remove` and `remove_file`
    /// (which takes a file whole) are its only writers.
    files: HashMap<FileId, Vec<(u64, u32)>, FixedState>,
    free: Vec<u32>,
    clean: Box<dyn ReplacementPolicy>,
    /// Dirty frames in dirtying order, oldest first. A frame joins at
    /// the back when it turns `Dirty` (first write, or a re-dirty
    /// completing in `end_flush`) and leaves when it turns `Flushing`
    /// or is dropped.
    dirty: FrameList,
    /// The next dirtying stamp (`Frame::seq`).
    next_seq: u64,
    /// The next content stamp ([`BlockCache::content_stamp`]).
    next_content: u64,
    flush_policy: Box<dyn FlushPolicy>,
    /// Dirty + flushing blocks charged against NVRAM.
    nvram_used: u64,
    stats: CacheStats,
    /// Blocks handed to the flusher, per dirtying client (ordered so
    /// reports are deterministic).
    flushed_by_owner: BTreeMap<u32, u64>,
}

/// The dirty side of the cache, as a flush policy sees it.
struct QueryView<'a> {
    frames: &'a [Frame],
    dirty: &'a FrameList,
    files: &'a HashMap<FileId, Vec<(u64, u32)>, FixedState>,
}

impl CacheQuery for QueryView<'_> {
    fn walk_dirty(&self, visit: &mut dyn FnMut(BlockKey, SimTime) -> bool) {
        for f in self.dirty.iter() {
            let frame = &self.frames[f as usize];
            let BlockState::Dirty { since } = frame.state else {
                unreachable!("frame {f} on the dirty list is {:?}", frame.state);
            };
            if !visit(frame.key, since) {
                return;
            }
        }
    }

    fn dirty_of_file(&self, file: FileId, out: &mut Vec<BlockKey>) {
        let blocks = self.files.get(&file).map_or(&[][..], Vec::as_slice);
        let frame = |block: u64| {
            let at = blocks.binary_search_by_key(&block, |&(b, _)| b).expect("resident");
            &self.frames[blocks[at].1 as usize]
        };
        let start = out.len();
        out.reserve(blocks.len());
        out.extend(
            blocks
                .iter()
                .map(|&(_, f)| &self.frames[f as usize])
                .filter(|f| matches!(f.state, BlockState::Dirty { .. }))
                .map(|f| f.key),
        );
        // Stamps are unique, so the unstable sort is the age order.
        out[start..].sort_unstable_by_key(|k| frame(k.block).seq);
    }
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new(
        cfg: CacheConfig,
        clean: Box<dyn ReplacementPolicy>,
        flush_policy: Box<dyn FlushPolicy>,
    ) -> Self {
        let n = cfg.frames();
        assert!(n > 0, "cache must hold at least one block");
        let mut free: Vec<u32> = (0..n as u32).collect();
        free.reverse();
        let frames =
            (0..n).map(|_| Frame::new(BlockKey::new(FileId(u64::MAX), 0), None, 0)).collect();
        BlockCache {
            cfg,
            frames,
            files: HashMap::default(),
            free,
            clean,
            dirty: FrameList::new(n),
            next_seq: 0,
            next_content: 1,
            flush_policy,
            nvram_used: 0,
            stats: CacheStats::default(),
            flushed_by_owner: BTreeMap::new(),
        }
    }

    /// The frame holding `key`, if it is resident.
    fn frame_of(&self, key: BlockKey) -> Option<u32> {
        let blocks = self.files.get(&key.file)?;
        let at = blocks.binary_search_by_key(&key.block, |&(b, _)| b).ok()?;
        Some(blocks[at].1)
    }

    /// Takes `key` out of the index; returns the frame that held it.
    fn index_remove(&mut self, key: BlockKey) -> Option<u32> {
        let blocks = self.files.get_mut(&key.file)?;
        let at = blocks.binary_search_by_key(&key.block, |&(b, _)| b).ok()?;
        let (_, frame) = blocks.remove(at);
        if blocks.is_empty() {
            self.files.remove(&key.file);
        }
        Some(frame)
    }

    /// Stamps `frame` and appends it to the age list.
    fn dirty_push(&mut self, frame: u32) {
        self.frames[frame as usize].seq = self.next_seq;
        self.next_seq += 1;
        self.dirty.push_back(frame);
    }

    /// Puts a flush-policy question to the dirty side of the cache.
    fn ask_policy(
        &mut self,
        ask: impl FnOnce(&mut dyn FlushPolicy, &dyn CacheQuery) -> Vec<BlockKey>,
    ) -> Vec<BlockKey> {
        let q = QueryView { frames: &self.frames, dirty: &self.dirty, files: &self.files };
        ask(self.flush_policy.as_mut(), &q)
    }

    /// Engine configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Interval at which [`BlockCache::tick`] should be driven, if any.
    pub fn tick_interval(&self) -> Option<SimDuration> {
        self.flush_policy.tick_interval()
    }

    /// Dirty block count (excludes in-flight flushes).
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Total blocks resident.
    pub fn resident(&self) -> usize {
        self.files.values().map(Vec::len).sum()
    }

    /// NVRAM occupancy in blocks (dirty + flushing).
    pub fn nvram_used(&self) -> u64 {
        self.nvram_used
    }

    fn record_access(&mut self, frame: u32, now: SimTime) {
        let f = &mut self.frames[frame as usize];
        let len = f.history_len();
        if len == HISTORY {
            f.history.copy_within(1.., 0);
        }
        f.history[len.min(HISTORY - 1)] = now;
        f.access_count += 1;
    }

    /// Looks a block up; a hit refreshes recency and returns the frame.
    pub fn lookup(&mut self, key: BlockKey, now: SimTime) -> Option<u32> {
        match self.frame_of(key) {
            Some(frame) => {
                self.stats.hits += 1;
                self.record_access(frame, now);
                let f = &self.frames[frame as usize];
                if matches!(f.state, BlockState::Clean) {
                    // Disjoint field borrows: `clean` vs `frames`.
                    self.clean.touch(frame, f.meta(now));
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
        self.frame_of(key)
    }

    /// Returns the block bytes of a resident frame (None if simulated).
    pub fn data(&self, frame: u32) -> Option<&[u8]> {
        self.frames[frame as usize].data.as_deref()
    }

    /// Replaces the bytes of a resident frame.
    pub fn set_data(&mut self, frame: u32, data: Option<Vec<u8>>) {
        let content = self.fresh_content();
        let f = &mut self.frames[frame as usize];
        f.data = data;
        f.content = content;
    }

    /// The content stamp of a resident frame: a number no other content
    /// of any frame of this cache has had or will have. [`commit`] and
    /// [`set_data`] — the two places a resident frame's bytes change —
    /// draw a fresh one, and nothing else touches the bytes, so whoever
    /// saw this stamp before saw exactly the bytes [`data`] returns now.
    /// The cache knows nothing of what a reader derives from them.
    ///
    /// [`commit`]: BlockCache::commit
    /// [`set_data`]: BlockCache::set_data
    /// [`data`]: BlockCache::data
    pub fn content_stamp(&self, frame: u32) -> u64 {
        self.frames[frame as usize].content
    }

    fn fresh_content(&mut self) -> u64 {
        self.next_content += 1;
        self.next_content - 1
    }

    /// The state of a resident block.
    pub fn state_of(&self, key: BlockKey) -> Option<BlockState> {
        self.frame_of(key).map(|f| self.frames[f as usize].state)
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
            self.index_remove(self.frames[victim as usize].key);
            self.stats.evictions += 1;
            return Reserve::Frame(victim);
        }
        self.stats.alloc_stalls += 1;
        Reserve::NeedFlush(self.ask_policy(|p, q| p.on_demand(q)))
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
        let blocks = self.files.entry(key.file).or_default();
        match blocks.binary_search_by_key(&key.block, |&(b, _)| b) {
            Ok(_) => panic!("block {key} already resident"),
            Err(at) => blocks.insert(at, (key.block, frame)),
        }
        let content = self.fresh_content();
        self.frames[frame as usize] = Frame::new(key, data, content);
        self.stats.insertions += 1;
        self.record_access(frame, now);
        self.clean.insert(frame, self.frames[frame as usize].meta(now));
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
        self.dirty_as(key, now, None)
    }

    /// [`BlockCache::mark_dirty`] with flush attribution: on success the
    /// block's owner becomes `owner` (last writer wins), so the flush
    /// work it later causes is charged to that client.
    pub fn mark_dirty_for(&mut self, key: BlockKey, now: SimTime, owner: u32) -> DirtyOutcome {
        self.dirty_as(key, now, Some(owner))
    }

    fn dirty_as(&mut self, key: BlockKey, now: SimTime, owner: Option<u32>) -> DirtyOutcome {
        let frame = self.frame_of(key).expect("mark_dirty on non-resident block");
        match self.frames[frame as usize].state {
            BlockState::Dirty { .. } => self.stats.overwrites += 1,
            BlockState::Flushing { .. } => {
                // Re-dirtied under flush: still counted against NVRAM.
                self.stats.overwrites += 1;
                self.frames[frame as usize].redirtied = true;
            }
            BlockState::Clean => {
                if self.nvram_used >= self.cfg.nvram_blocks() {
                    self.stats.nvram_stalls += 1;
                    return DirtyOutcome::NeedFlush(self.ask_policy(|p, q| p.on_demand(q)));
                }
                self.clean.remove(frame);
                self.frames[frame as usize].state = BlockState::Dirty { since: now };
                self.dirty_push(frame);
                self.nvram_used += 1;
                self.stats.dirtied += 1;
            }
        }
        if let Some(owner) = owner {
            self.frames[frame as usize].owner = owner;
        }
        DirtyOutcome::Ok
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
            let Some(frame) = self.frame_of(key) else { continue };
            let BlockState::Dirty { since } = self.frames[frame as usize].state else {
                continue;
            };
            self.frames[frame as usize].state = BlockState::Flushing { since };
            self.frames[frame as usize].redirtied = false;
            self.dirty.remove(frame);
            self.stats.flushes += 1;
            *self.flushed_by_owner.entry(self.frames[frame as usize].owner).or_insert(0) += 1;
            out.push(key);
        }
        out
    }

    /// Completes a flush whose write landed: the block's count of failed
    /// flushes starts over and it becomes clean (or returns to the dirty
    /// list if it was re-dirtied mid-flight).
    pub fn end_flush(&mut self, key: BlockKey, now: SimTime) {
        let Some(frame) = self.frame_of(key) else { return };
        let f = &mut self.frames[frame as usize];
        let BlockState::Flushing { .. } = f.state else { return };
        f.failed_flushes = 0;
        if f.redirtied {
            f.redirtied = false;
            f.state = BlockState::Dirty { since: now };
            // Dirty as of now: the block rejoins the age order at the
            // tail. NVRAM stays charged — it never stopped being dirty.
            self.dirty_push(frame);
            return;
        }
        f.state = BlockState::Clean;
        self.nvram_used -= 1;
        self.clean.insert(frame, self.frames[frame as usize].meta(now));
    }

    /// Completes a flush whose write failed. The block's count of
    /// consecutive failed flushes grows by one: below `retries` the block
    /// is re-dirtied, as a write landing under the flush would re-dirty
    /// it (an overwrite), to be tried again; at `retries` (at once, for
    /// 0) it is given up — completed like a written block, its count
    /// back to 0.
    pub fn fail_flush(&mut self, key: BlockKey, now: SimTime, retries: u8) {
        let Some(frame) = self.frame_of(key) else { return };
        let f = &mut self.frames[frame as usize];
        let BlockState::Flushing { .. } = f.state else { return };
        let failed = f.failed_flushes + 1;
        let retry = failed < retries;
        if retry {
            f.redirtied = true;
            self.stats.overwrites += 1;
        }
        self.end_flush(key, now);
        if retry {
            self.frames[frame as usize].failed_flushes = failed;
        }
    }

    /// Drops one block (truncate); dirty blocks count as absorbed writes.
    pub fn remove_block(&mut self, key: BlockKey) {
        let Some(frame) = self.index_remove(key) else { return };
        self.drop_frame(frame);
    }

    /// Drops every block of `file` (delete); dirty blocks are absorbed.
    ///
    /// "Keeping dirty data longer in memory … increases the probability
    /// that a block is overwritten through truncate and delete calls in
    /// memory rather than on disk." (§1)
    pub fn remove_file(&mut self, file: FileId) -> u64 {
        // Ascending block order, as the file's list holds them: the
        // removal order decides the order frames return to the free
        // list — which decides where later blocks land and what
        // index-sweeping replacement policies evict. Two seeded runs must
        // produce byte-identical platters, so the order must be the
        // keys' own.
        let Some(blocks) = self.files.remove(&file) else { return 0 };
        let mut absorbed = 0;
        for (_, frame) in blocks {
            if matches!(self.frames[frame as usize].state, BlockState::Dirty { .. }) {
                absorbed += 1;
            }
            self.drop_frame(frame);
        }
        absorbed
    }

    fn drop_frame(&mut self, frame: u32) {
        match self.frames[frame as usize].state {
            BlockState::Clean => {
                self.clean.remove(frame);
            }
            BlockState::Dirty { .. } => {
                self.dirty.remove(frame);
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
        let picks = self.ask_policy(|p, q| p.on_tick(q, now));
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
        self.dirty.iter().map(|f| self.frames[f as usize].key).collect()
    }

    /// Snapshot of every dirty or in-flush block with its bytes, in
    /// deterministic key order — the contents a battery-backed (NVRAM)
    /// cache would preserve across a crash. `Flushing` blocks are
    /// included because their writes may not have retired yet.
    pub fn dirty_snapshot(&self) -> Vec<(BlockKey, Option<Vec<u8>>)> {
        let mut files: Vec<FileId> = self.files.keys().copied().collect();
        files.sort_unstable();
        files
            .iter()
            .flat_map(|file| &self.files[file])
            .map(|&(_, frame)| &self.frames[frame as usize])
            .filter(|f| !matches!(f.state, BlockState::Clean))
            .map(|f| (f.key, f.data.clone()))
            .collect()
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
    fn a_failed_flush_is_retried_up_to_its_limit_and_a_new_block_starts_over() {
        let mut c = small_cache(4, None);
        let k = key(1, 0);
        insert(&mut c, k, t(0));
        c.mark_dirty(k, t(0));
        // Fails `n` flushes of `k` in a row; true if it is dirty after.
        let fail = |c: &mut BlockCache, n: u32| {
            for _ in 0..n {
                assert_eq!(c.begin_flush(&[k]), vec![k]);
                c.fail_flush(k, t(1), 3);
            }
            matches!(c.state_of(k), Some(BlockState::Dirty { .. }))
        };
        assert!(fail(&mut c, 2), "below the limit: re-dirtied");
        assert!(!fail(&mut c, 1), "the third failure gives up");
        assert_eq!(c.stats().overwrites, 2);
        c.mark_dirty(k, t(2));
        assert!(fail(&mut c, 2) && !fail(&mut c, 1), "a give-up starts the count over");
        // So does a write that lands, and a block committed anew.
        c.mark_dirty(k, t(3));
        assert!(fail(&mut c, 2));
        c.begin_flush(&[k]);
        c.end_flush(k, t(4));
        c.mark_dirty(k, t(5));
        assert!(fail(&mut c, 2));
        c.remove_block(k);
        insert(&mut c, k, t(6));
        c.mark_dirty(k, t(6));
        assert!(fail(&mut c, 2) && !fail(&mut c, 1));
    }

    #[test]
    fn a_frame_fits_in_120_bytes() {
        // A 256-client cell builds and drops a 262,144-frame pool every
        // rep; at 128 bytes a frame that took three times as long.
        assert!(std::mem::size_of::<Frame>() <= 120, "{}", std::mem::size_of::<Frame>());
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

    /// Every `(key, frame)` the index holds, in key order.
    fn indexed(c: &BlockCache) -> Vec<(BlockKey, u32)> {
        let mut files: Vec<FileId> = c.files.keys().copied().collect();
        files.sort_unstable();
        let entries = files.into_iter().flat_map(|file| {
            c.files[&file].iter().map(move |&(block, f)| (BlockKey::new(file, block), f))
        });
        entries.collect()
    }

    #[test]
    fn per_file_index_equals_a_map_scan() {
        // Interleaved insert / evict / remove_block / remove_file on a
        // cache small enough to evict: after every step the index must
        // hold exactly the resident keys a scan of the frame table finds
        // (every frame not on the free stack), each file's list must be
        // ascending and non-empty, and `remove_file` must take exactly
        // that file.
        let mut c = small_cache(8, None);
        let n = c.config().frames();
        let check = |c: &BlockCache| {
            let mut scan: Vec<(BlockKey, u32)> = (0..n as u32)
                .filter(|f| !c.free.contains(f))
                .map(|f| (c.frames[f as usize].key, f))
                .collect();
            scan.sort_unstable();
            assert_eq!(indexed(c), scan);
            for blocks in c.files.values() {
                assert!(!blocks.is_empty(), "an empty list outlived its file's last block");
                assert!(blocks.windows(2).all(|w| w[0].0 < w[1].0), "not ascending: {blocks:?}");
            }
        };
        let mut x = 12345u64;
        let mut evicted = false;
        for step in 0..400u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = key((x >> 33) % 5, (x >> 40) % 6);
            match (x >> 50) % 8 {
                0 => {
                    let before = indexed(&c);
                    c.remove_file(k.file);
                    let others: Vec<_> =
                        before.into_iter().filter(|e| e.0.file != k.file).collect();
                    assert_eq!(indexed(&c), others, "remove_file took other than its file");
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

    /// Counts the frames a policy's walk visits.
    struct CountingView<'a> {
        view: QueryView<'a>,
        visits: std::cell::Cell<usize>,
    }

    impl CacheQuery for CountingView<'_> {
        fn walk_dirty(&self, visit: &mut dyn FnMut(BlockKey, SimTime) -> bool) {
            self.view.walk_dirty(&mut |k, since| {
                self.visits.set(self.visits.get() + 1);
                visit(k, since)
            });
        }

        fn dirty_of_file(&self, file: FileId, out: &mut Vec<BlockKey>) {
            self.view.dirty_of_file(file, out)
        }
    }

    #[test]
    fn a_pick_visits_what_it_picks_not_what_is_dirty() {
        // 1,024 blocks dirty: file 1's 100 blocks oldest, then file 2's
        // 100, then 824 single-block files.
        const DIRTY: u64 = 1024;
        let mut c = small_cache(DIRTY, None);
        for i in 0..DIRTY {
            let k = if i < 200 { key(1 + i / 100, i % 100) } else { key(i, 0) };
            insert(&mut c, k, t(i));
            assert_eq!(c.mark_dirty(k, t(i)), DirtyOutcome::Ok);
        }
        let visits_of = |ask: &mut dyn FnMut(&dyn CacheQuery) -> Vec<BlockKey>| {
            let q = CountingView {
                view: QueryView { frames: &c.frames, dirty: &c.dirty, files: &c.files },
                visits: std::cell::Cell::new(0),
            };
            let picks = ask(&q);
            (picks.len(), q.visits.get())
        };
        for batch in [1usize, 8] {
            // Partial-file: the blocks it picks (one more at most).
            let mut partial = NvramFlush { whole_file: false, batch };
            let (picked, visits) = visits_of(&mut |q| partial.on_demand(q));
            assert_eq!(picked, batch);
            assert!(visits <= batch + 1, "batch {batch}: visited {visits}");
            // Whole-file: one block per group, plus the rest of files
            // 1 and 2 (99 blocks each) stepped over on the way to the
            // next group.
            let mut whole = NvramFlush { whole_file: true, batch };
            let (picked, visits) = visits_of(&mut |q| whole.on_demand(q));
            let stepped_over = if batch == 1 { 0 } else { 2 * 99 };
            assert_eq!(picked, if batch == 1 { 100 } else { 200 + batch - 2 });
            assert!(visits <= batch + 1 + stepped_over, "batch {batch}: visited {visits}");
        }
        // A tick with nothing over max_age looks at the oldest block
        // and stops.
        let mut periodic = PeriodicUpdate::default();
        let (picked, visits) = visits_of(&mut |q| periodic.on_tick(q, t(DIRTY)));
        assert_eq!((picked, visits), (0, 1));
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
        c.set_data(f, Some(vec![9u8; 4096]));
        assert_eq!(c.data(f).unwrap()[0], 9);
    }

    #[test]
    fn every_change_of_a_frames_bytes_draws_a_stamp_nothing_had_before() {
        let mut c = small_cache(2, None);
        let mut seen = std::collections::BTreeSet::new();
        let a = insert(&mut c, key(1, 0), t(0));
        assert!(seen.insert(c.content_stamp(a)));
        // Reads, dirtying and flushing leave the bytes and the stamp.
        let before = c.content_stamp(a);
        c.lookup(key(1, 0), t(1));
        c.mark_dirty(key(1, 0), t(2));
        c.begin_flush(&[key(1, 0)]);
        c.end_flush(key(1, 0), t(3));
        assert_eq!(c.content_stamp(a), before);
        // The same bytes set again are a new content all the same.
        c.set_data(a, None);
        assert!(seen.insert(c.content_stamp(a)), "set_data must restamp");
        // Another block, and the same block loaded again into the
        // frame it was evicted from.
        let b = insert(&mut c, key(1, 1), t(4));
        assert!(seen.insert(c.content_stamp(b)));
        c.remove_block(key(1, 0));
        let again = insert(&mut c, key(1, 0), t(5));
        assert_eq!(again, a);
        assert!(seen.insert(c.content_stamp(again)), "commit must restamp");
    }
}
