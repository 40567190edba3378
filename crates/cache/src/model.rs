//! The cache against its specification.
//!
//! [`Model`] is the cache written the slow, obvious way: a map of block
//! states and the dirty blocks in a `Vec`, oldest first. Its flush picks
//! come from [`reference`] — the snapshot-then-group selection the age
//! list replaced — fed that whole `Vec`. Random scripts drive the real
//! [`BlockCache`] and the model side by side through every flush policy
//! name × batch {1, 8}, NVRAM-bounded and not; after every step the
//! picks must agree element for element, and so must the age list, the
//! counters and everything else the cache reports.

use std::collections::{BTreeMap, VecDeque};

use cnp_sim::{SimDuration, SimTime};
use proptest::prelude::*;

use crate::flush::reference::{self, Aged};
use crate::policy::Lru;
use crate::{
    flush_by_name_batched, BlockCache, BlockKey, BlockState, CacheConfig, CacheStats, DirtyOutcome,
    FileId, Reserve, UNATTRIBUTED,
};

const POLICIES: [&str; 5] = ["write-delay", "ups", "ups-whole", "nvram-whole", "nvram-partial"];
const FRAMES: usize = 8;
/// Key universe: more blocks than frames, so inserts evict.
const FILES: u64 = 5;
const BLOCKS: u64 = 4;

/// What policy `name` picks from the snapshot `age`: at a stall (no
/// clean frame, or NVRAM full — no policy tells the two apart), or at a
/// tick at `tick`.
fn reference_picks(name: &str, batch: usize, tick: Option<SimTime>, age: &[Aged]) -> Vec<BlockKey> {
    let (whole_file, batch) = match name {
        "write-delay" => (true, 1),
        "ups" | "nvram-partial" => (false, batch),
        "ups-whole" | "nvram-whole" => (true, batch),
        _ => unreachable!("not a flush policy name: {name}"),
    };
    match tick {
        None => reference::batched_selection(age, whole_file, batch),
        Some(now) if name == "write-delay" => {
            reference::aged_selection(age, now, SimDuration::from_secs(30), whole_file)
        }
        Some(_) => Vec::new(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum St {
    Clean,
    Dirty,
    Flushing { redirtied: bool },
}

#[derive(Default)]
struct Model {
    /// NVRAM budget in blocks.
    nvram: u64,
    /// Resident blocks: state and flush-attribution owner.
    blocks: BTreeMap<BlockKey, (St, u32)>,
    /// The dirty blocks, oldest first.
    age: Vec<Aged>,
    nvram_used: u64,
    stats: CacheStats,
    flushed_by: BTreeMap<u32, u64>,
}

impl Model {
    fn forget(&mut self, key: BlockKey) {
        match self.blocks.remove(&key) {
            Some((St::Dirty, _)) => {
                self.age.retain(|a| a.0 != key);
                self.nvram_used -= 1;
                self.stats.absorbed += 1;
            }
            Some((St::Flushing { .. }, _)) => self.nvram_used -= 1,
            Some((St::Clean, _)) | None => {}
        }
    }
}

/// The cache and its model, stepped together.
struct Rig {
    name: &'static str,
    batch: usize,
    cache: BlockCache,
    model: Model,
    /// Blocks handed to `begin_flush` and not yet to `end_flush`.
    flying: VecDeque<BlockKey>,
    now: SimTime,
    /// Flushes that completed redirtied; blocks ticks picked.
    redirtied: u64,
    tick_picks: u64,
}

impl Rig {
    fn new(name: &'static str, batch: usize, nvram_blocks: Option<u64>) -> Rig {
        let cfg = CacheConfig {
            block_size: 4096,
            mem_bytes: FRAMES as u64 * 4096,
            nvram_bytes: nvram_blocks.map(|n| n * 4096),
        };
        let nvram = cfg.nvram_blocks();
        let flush = flush_by_name_batched(name, batch).expect("known policy");
        Rig {
            name,
            batch,
            cache: BlockCache::new(cfg, Box::new(Lru::new(FRAMES)), flush),
            model: Model { nvram, ..Model::default() },
            flying: VecDeque::new(),
            now: SimTime::ZERO,
            redirtied: 0,
            tick_picks: 0,
        }
    }

    fn set_state(&mut self, key: BlockKey, st: St) {
        self.model.blocks.get_mut(&key).expect("resident").0 = st;
    }

    fn stall_picks(&self) -> Vec<BlockKey> {
        reference_picks(self.name, self.batch, None, &self.model.age)
    }

    /// Inserts `key` clean if it is absent. On a demand flush the picks
    /// are started and, if `complete`, finished and the insert retried;
    /// otherwise the insert is given up (the caller would wait).
    fn insert(&mut self, key: BlockKey, complete: bool) {
        while !self.model.blocks.contains_key(&key) {
            match self.cache.reserve() {
                Reserve::Frame(frame) => {
                    if self.model.blocks.len() == FRAMES {
                        let gone: Vec<BlockKey> = (self.model.blocks.keys().copied())
                            .filter(|&k| self.cache.peek(k).is_none())
                            .collect();
                        assert_eq!(gone.len(), 1, "one eviction frees one frame");
                        let (st, _) = self.model.blocks.remove(&gone[0]).expect("listed");
                        assert_eq!(st, St::Clean, "only clean blocks are evicted");
                        self.model.stats.evictions += 1;
                    }
                    self.cache.commit(frame, key, None, self.now);
                    self.model.blocks.insert(key, (St::Clean, UNATTRIBUTED));
                    self.model.stats.insertions += 1;
                }
                Reserve::NeedFlush(picks) => {
                    assert_eq!(self.model.blocks.len(), FRAMES, "a free frame was passed over");
                    assert!(
                        self.model.blocks.values().all(|&(st, _)| st != St::Clean),
                        "a clean frame was passed over"
                    );
                    self.model.stats.alloc_stalls += 1;
                    assert_eq!(picks, self.stall_picks(), "demand picks");
                    self.begin(&picks);
                    let empty = picks.is_empty();
                    self.cache.recycle(picks);
                    if !complete || empty {
                        return;
                    }
                    self.end_all();
                }
            }
        }
    }

    /// `mark_dirty` (owner 0) or `mark_dirty_for` on a resident block.
    fn mark_dirty(&mut self, key: BlockKey, owner: u32, complete: bool) {
        let Some(&(st, _)) = self.model.blocks.get(&key) else { return };
        let got = match owner {
            0 => self.cache.mark_dirty(key, self.now),
            _ => self.cache.mark_dirty_for(key, self.now, owner),
        };
        let want = match st {
            St::Clean if self.model.nvram_used >= self.model.nvram => {
                self.model.stats.nvram_stalls += 1;
                DirtyOutcome::NeedFlush(self.stall_picks())
            }
            St::Clean => {
                self.model.age.push((key, self.now));
                self.model.nvram_used += 1;
                self.model.stats.dirtied += 1;
                self.set_state(key, St::Dirty);
                DirtyOutcome::Ok
            }
            St::Dirty => {
                self.model.stats.overwrites += 1;
                DirtyOutcome::Ok
            }
            St::Flushing { .. } => {
                self.model.stats.overwrites += 1;
                self.set_state(key, St::Flushing { redirtied: true });
                DirtyOutcome::Ok
            }
        };
        assert_eq!(got, want, "mark_dirty {key}");
        match got {
            DirtyOutcome::Ok if owner != 0 => {
                self.model.blocks.get_mut(&key).expect("resident").1 = owner;
            }
            DirtyOutcome::Ok => {}
            DirtyOutcome::NeedFlush(picks) => {
                self.begin(&picks);
                self.cache.recycle(picks);
                if complete {
                    self.end_all();
                }
            }
        }
    }

    fn begin(&mut self, keys: &[BlockKey]) {
        let started = self.cache.begin_flush(keys);
        let mut want = Vec::new();
        for &key in keys {
            let Some((st @ St::Dirty, owner)) = self.model.blocks.get_mut(&key) else { continue };
            *st = St::Flushing { redirtied: false };
            self.model.age.retain(|a| a.0 != key);
            self.model.stats.flushes += 1;
            *self.model.flushed_by.entry(*owner).or_insert(0) += 1;
            want.push(key);
        }
        assert_eq!(started, want, "begin_flush {keys:?}");
        self.flying.extend(started.iter().copied());
        self.cache.recycle(started);
    }

    fn end(&mut self) {
        let Some(key) = self.flying.pop_front() else { return };
        self.cache.end_flush(key, self.now);
        // Removed (and perhaps re-inserted) since: nothing to complete.
        let Some((st @ St::Flushing { .. }, _)) = self.model.blocks.get_mut(&key) else { return };
        if *st == (St::Flushing { redirtied: true }) {
            *st = St::Dirty;
            self.model.age.push((key, self.now));
            self.redirtied += 1;
        } else {
            *st = St::Clean;
            self.model.nvram_used -= 1;
        }
    }

    fn end_all(&mut self) {
        while !self.flying.is_empty() {
            self.end();
        }
    }

    fn remove_file(&mut self, file: FileId) {
        let doomed: Vec<BlockKey> =
            self.model.blocks.keys().copied().filter(|k| k.file == file).collect();
        let dirty = doomed.iter().filter(|k| self.model.blocks[k].0 == St::Dirty).count();
        assert_eq!(self.cache.remove_file(file), dirty as u64, "remove_file {file}");
        doomed.into_iter().for_each(|k| self.model.forget(k));
    }

    fn tick(&mut self, start: bool, complete: bool) {
        let picks = self.cache.tick(self.now);
        let want = reference_picks(self.name, self.batch, Some(self.now), &self.model.age);
        assert_eq!(picks, want, "tick at {:?}", self.now);
        self.tick_picks += picks.len() as u64;
        if start {
            self.begin(&picks);
            if complete {
                self.end_all();
            }
        }
        self.cache.recycle(picks);
    }

    /// One script step: `op` picks the operation, `file`/`block` its
    /// key, `arg` its small choices.
    fn step(&mut self, (op, file, block, arg): (u8, u64, u64, u32)) {
        self.now = self.now.saturating_add(SimDuration::from_secs([0, 1, 7, 20][arg as usize % 4]));
        let key = BlockKey::new(FileId(file), block);
        match op {
            0 | 1 => self.insert(key, arg & 4 != 0),
            // A write: make the block resident, then dirty it.
            2..=5 => {
                self.insert(key, arg & 4 != 0);
                self.mark_dirty(key, arg % 3, arg & 8 != 0);
            }
            // Start a flush of this block, its neighbour (perhaps
            // clean, perhaps absent), the oldest dirty block, and this
            // block again.
            6 => {
                let mut keys = vec![key, BlockKey::new(FileId(file), block + 1)];
                keys.extend(self.model.age.first().map(|a| a.0));
                keys.push(key);
                self.begin(&keys);
            }
            7 if arg & 4 != 0 => self.end_all(),
            7 => self.end(),
            // Redirty under flush.
            8 => {
                if let Some(&k) = self.flying.get(arg as usize % self.flying.len().max(1)) {
                    self.mark_dirty(k, arg % 3, false);
                }
            }
            9 => {
                self.cache.remove_block(key);
                self.model.forget(key);
            }
            10 => self.remove_file(key.file),
            11 => self.tick(arg & 4 != 0, arg & 8 != 0),
            _ => {
                let hit = self.cache.lookup(key, self.now).is_some();
                assert_eq!(hit, self.model.blocks.contains_key(&key), "lookup {key}");
                match hit {
                    true => self.model.stats.hits += 1,
                    false => self.model.stats.misses += 1,
                }
            }
        }
        self.check();
    }

    /// Everything the cache reports equals what the model holds.
    fn check(&mut self) {
        let dirty = self.cache.all_dirty();
        assert_eq!(dirty, self.model.age.iter().map(|a| a.0).collect::<Vec<_>>(), "age list");
        self.cache.recycle(dirty);
        let (c, m) = (&self.cache, &self.model);
        assert_eq!(c.stats(), m.stats);
        assert_eq!(c.dirty_count(), m.age.len());
        assert_eq!(c.nvram_used(), m.nvram_used);
        assert_eq!(c.resident(), m.blocks.len());
        assert_eq!(
            c.flushes_by_client(),
            m.flushed_by.iter().map(|(&o, &n)| (o, n)).collect::<Vec<_>>()
        );
        let unclean = |st: &St| *st != St::Clean;
        assert_eq!(
            c.dirty_snapshot().into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            m.blocks.iter().filter(|(_, (st, _))| unclean(st)).map(|(&k, _)| k).collect::<Vec<_>>(),
            "crash snapshot"
        );
        for (&key, &(st, _)) in &m.blocks {
            let since = m.age.iter().find(|a| a.0 == key).map(|a| a.1);
            match (c.state_of(key), st) {
                (Some(BlockState::Clean), St::Clean) => {}
                (Some(BlockState::Dirty { since: got }), St::Dirty) => {
                    assert_eq!(Some(got), since, "dirty-since of {key}")
                }
                (Some(BlockState::Flushing { .. }), St::Flushing { .. }) => {}
                (got, want) => panic!("{key} is {got:?}, the model says {want:?}"),
            }
        }
    }
}

/// The transitions a script is worth little without.
const REACHED: [&str; 7] = [
    "evictions",
    "absorbed writes",
    "flushes",
    "NVRAM stalls",
    "frame stalls",
    "redirtied flushes",
    "tick picks",
];

/// Runs `script` through every policy name × batch {1, 8} under the
/// NVRAM bound `nvram` picks; returns how often it reached each of
/// [`REACHED`].
fn run_script(script: &[(u8, u64, u64, u32)], nvram: u64) -> [u64; 7] {
    let nvram_blocks = [None, Some(2), Some(4), Some(6)][nvram as usize % 4];
    let mut reached = [0; 7];
    for name in POLICIES {
        for batch in [1, 8] {
            let mut rig = Rig::new(name, batch, nvram_blocks);
            script.iter().for_each(|&op| rig.step(op));
            let s = rig.model.stats;
            let here = [
                s.evictions,
                s.absorbed,
                s.flushes,
                s.nvram_stalls,
                s.alloc_stalls,
                rig.redirtied,
                rig.tick_picks,
            ];
            (0..7).for_each(|i| reached[i] += here[i]);
        }
    }
    reached
}

proptest! {
    #[test]
    fn cache_equals_its_model_on_random_scripts(
        script in prop::collection::vec((0u8..13, 0..FILES, 0..BLOCKS, 0u32..16), 1..160),
        nvram in 0u64..4,
    ) {
        run_script(&script, nvram);
    }
}

#[test]
fn the_scripts_reach_every_transition() {
    // The property above is only as strong as the states its scripts
    // reach: a fixed batch of them must evict, absorb, stall on frames
    // and on NVRAM, complete redirtied flushes and age blocks past a
    // tick.
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |bound: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % bound
    };
    let mut reached = [0; 7];
    for case in 0..24 {
        let script: Vec<(u8, u64, u64, u32)> = (0..160)
            .map(|_| (next(13) as u8, next(FILES), next(BLOCKS), next(16) as u32))
            .collect();
        let here = run_script(&script, case);
        (0..7).for_each(|i| reached[i] += here[i]);
    }
    for (what, n) in REACHED.iter().zip(reached) {
        assert!(n >= 100, "the scripts reached only {n} {what}");
    }
}
