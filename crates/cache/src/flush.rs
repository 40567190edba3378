//! Cache flush (persistency) policies — the subject of the paper's
//! evaluation (§5.1).
//!
//! * [`PeriodicUpdate`] — the Unix SVR4 30-second-update baseline: "a
//!   derived class that examines the contents of the cache every couple
//!   of seconds. When it detects that there exists a dirty block older
//!   than 30 seconds, it flushes the file associated to the oldest
//!   block." (§2)
//! * [`WriteSaving`] — the UPS experiment: dirty data stays in (battery-
//!   backed) RAM and is flushed only when the cache runs out of clean
//!   blocks.
//! * [`NvramFlush`] — the NVRAM experiments: dirty data may only live in
//!   a small NVRAM; when it fills, flush either the single oldest block
//!   (partial-file) or every dirty block of the oldest block's file
//!   (whole-file).

use std::collections::HashSet;

use cnp_sim::{SimDuration, SimTime};

use crate::key::{BlockKey, FileId, FixedState};

/// Read-only view of the cache's dirty side offered to flush policies.
pub trait CacheQuery {
    /// Visits the dirty blocks oldest first, each with its dirty-since
    /// time, until `visit` returns `false` or the age list ends.
    fn walk_dirty(&self, visit: &mut dyn FnMut(BlockKey, SimTime) -> bool);

    /// Appends every dirty block of `file` to `out`, oldest first.
    fn dirty_of_file(&self, file: FileId, out: &mut Vec<BlockKey>);
}

/// A flush (persistency) policy.
pub trait FlushPolicy {
    /// If `Some`, the engine arranges a periodic scan at this interval.
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }

    /// Periodic scan: returns blocks to flush now.
    fn on_tick(&mut self, _q: &dyn CacheQuery, _now: SimTime) -> Vec<BlockKey> {
        Vec::new()
    }

    /// The cache needs a clean frame and has none, or a write needs
    /// NVRAM space and the NVRAM is full: pick blocks to flush.
    fn on_demand(&mut self, q: &dyn CacheQuery) -> Vec<BlockKey>;
}

/// Oldest-first selection of up to `batch` groups (whole files, or
/// single blocks when `whole_file` is false) from the front of the age
/// list, stopping early at the first block that is not `old_enough`.
///
/// `batch == 1` is the paper's one-group-per-stall behaviour; a deeper
/// batch hands the engine enough blocks to fill its I/O pipeline in one
/// go, so a stalled writer pays one flush round-trip instead of
/// `batch` of them.
///
/// The walk visits the blocks that start a group plus the blocks of
/// already-picked files it steps over on the way to the next one, and
/// stops with the last group — it never sees the rest of the dirty set.
/// It allocates its result (each whole-file group appends to it in
/// place) and, only when it goes on past a whole-file group, the set of
/// files picked so far (membership only, never iterated: the output
/// order is the age list's). The test-only `reference` module below is
/// the snapshot-then-group algorithm this replaced, kept as its
/// specification.
fn select_oldest(
    q: &dyn CacheQuery,
    whole_file: bool,
    batch: usize,
    old_enough: impl Fn(SimTime) -> bool,
) -> Vec<BlockKey> {
    let mut out: Vec<BlockKey> = Vec::new();
    let mut picked: HashSet<FileId, FixedState> = HashSet::default();
    let mut groups = 0;
    q.walk_dirty(&mut |key, since| {
        // A whole-file group may have pulled in younger blocks of its
        // file; the walk steps over them when it reaches them.
        if picked.contains(&key.file) {
            return true;
        }
        // Sound because the walk is oldest first.
        if !old_enough(since) {
            return false;
        }
        groups += 1;
        let more = groups < batch.max(1);
        if !whole_file {
            out.push(key);
            return more;
        }
        q.dirty_of_file(key.file, &mut out);
        if more {
            picked.insert(key.file);
        }
        more
    });
    out
}

/// Up to `batch` oldest groups, whatever their age.
fn batched_selection(q: &dyn CacheQuery, whole_file: bool, batch: usize) -> Vec<BlockKey> {
    select_oldest(q, whole_file, batch, |_| true)
}

/// The 30-second-update baseline (the paper's *write-delay* experiment).
#[derive(Debug, Clone)]
pub struct PeriodicUpdate {
    /// Scan cadence ("every couple of seconds").
    pub scan_every: SimDuration,
    /// Age at which dirty data must reach the disk (30 s).
    pub max_age: SimDuration,
    /// Flush the whole file of the oldest block (paper behaviour) or
    /// just the block itself.
    pub whole_file: bool,
}

impl Default for PeriodicUpdate {
    fn default() -> Self {
        PeriodicUpdate {
            scan_every: SimDuration::from_secs(5),
            max_age: SimDuration::from_secs(30),
            whole_file: true,
        }
    }
}

impl FlushPolicy for PeriodicUpdate {
    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.scan_every)
    }

    fn on_tick(&mut self, q: &dyn CacheQuery, now: SimTime) -> Vec<BlockKey> {
        // The file of every dirty block that exceeded max_age, in
        // oldest-block order; the walk ends at the first block still
        // young enough to stay.
        select_oldest(q, self.whole_file, usize::MAX, |since| {
            now.saturating_since(since) >= self.max_age
        })
    }

    fn on_demand(&mut self, q: &dyn CacheQuery) -> Vec<BlockKey> {
        batched_selection(q, self.whole_file, 1)
    }
}

/// Write-saving with a UPS: flush only under memory pressure.
///
/// "we equip the file-system with a UPS and only flush a cache block
/// when we are out of non-dirty cache-blocks" (§5.1)
#[derive(Debug, Clone)]
pub struct WriteSaving {
    /// Expand demand flushes to the whole file of the oldest block.
    pub whole_file: bool,
    /// Oldest-first groups per demand flush (1 = the paper's; set to the
    /// engine's queue depth so each stall fills the I/O pipeline).
    pub batch: usize,
}

impl Default for WriteSaving {
    fn default() -> Self {
        WriteSaving { whole_file: false, batch: 1 }
    }
}

impl FlushPolicy for WriteSaving {
    fn on_demand(&mut self, q: &dyn CacheQuery) -> Vec<BlockKey> {
        batched_selection(q, self.whole_file, self.batch)
    }
}

/// NVRAM-bounded dirty data.
///
/// "we equip the file-system with 4 MBs of NVRAM and we disallow dirty
/// data to reside in volatile-RAM. If the NVRAM is full … we flush the
/// oldest dirty block to disk. For the NVRAM case we consider two flush
/// policies: … the whole file associated with the oldest block … and …
/// only the oldest block." (§5.1)
#[derive(Debug, Clone)]
pub struct NvramFlush {
    /// Whole-file (true) vs partial-file/single-block (false) flush.
    pub whole_file: bool,
    /// Oldest-first groups per flush (1 = the paper's policy verbatim).
    pub batch: usize,
}

impl FlushPolicy for NvramFlush {
    fn on_demand(&mut self, q: &dyn CacheQuery) -> Vec<BlockKey> {
        batched_selection(q, self.whole_file, self.batch)
    }
}

/// Named construction for experiment configuration.
///
/// Names: `write-delay`, `ups`, `ups-whole`, `nvram-whole`, `nvram-partial`.
/// `ups` is the partial-file UPS flush, which no rig selects; §5.1's
/// `ups` policy is `ups-whole` (`cnp_fault::Policy::cache_settings`).
pub fn flush_by_name(name: &str) -> Option<Box<dyn FlushPolicy>> {
    flush_by_name_batched(name, 1)
}

/// Like [`flush_by_name`], with a demand-flush batch size: each stall
/// selects up to `batch` oldest-first groups, sized for an engine that
/// issues the batch concurrently (the queue-depth knob). `batch == 1`
/// reproduces the paper's single-group policies exactly.
pub fn flush_by_name_batched(name: &str, batch: usize) -> Option<Box<dyn FlushPolicy>> {
    match name {
        "write-delay" | "30s" => Some(Box::new(PeriodicUpdate::default())),
        "ups" => Some(Box::new(WriteSaving { whole_file: false, batch })),
        "ups-whole" => Some(Box::new(WriteSaving { whole_file: true, batch })),
        "nvram-whole" => Some(Box::new(NvramFlush { whole_file: true, batch })),
        "nvram-partial" => Some(Box::new(NvramFlush { whole_file: false, batch })),
        _ => None,
    }
}

/// The selection as it was before the cache kept an age list: snapshot
/// every dirty block oldest first, regroup the snapshot by file, walk it
/// with a `taken` set. Slow (every pick costs the whole dirty set) and
/// plainly right — the executable specification [`select_oldest`] is
/// tested against, here on scripted views and in `model.rs` on random
/// cache histories.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::{HashMap, HashSet};

    use super::*;

    /// One dirty block of an age-ordered snapshot: key, dirty-since.
    pub type Aged = (BlockKey, SimTime);

    fn by_file(age: &[Aged]) -> HashMap<FileId, Vec<BlockKey>> {
        let mut by_file: HashMap<FileId, Vec<BlockKey>> = HashMap::new();
        for &(k, _) in age {
            by_file.entry(k.file).or_default().push(k);
        }
        by_file
    }

    /// Up to `batch` oldest groups of the snapshot `age`.
    pub fn batched_selection(age: &[Aged], whole_file: bool, batch: usize) -> Vec<BlockKey> {
        let by_file = by_file(age);
        let mut out: Vec<BlockKey> = Vec::new();
        let mut taken: HashSet<BlockKey> = HashSet::new();
        let mut groups = 0;
        for &(key, _since) in age {
            if groups >= batch.max(1) {
                break;
            }
            if taken.contains(&key) {
                continue;
            }
            groups += 1;
            if whole_file {
                for &k in &by_file[&key.file] {
                    if taken.insert(k) {
                        out.push(k);
                    }
                }
            } else {
                taken.insert(key);
                out.push(key);
            }
        }
        out
    }

    /// Every group of the snapshot `age` whose oldest untaken block has
    /// been dirty for `max_age` at `now`.
    pub fn aged_selection(
        age: &[Aged],
        now: SimTime,
        max_age: SimDuration,
        whole_file: bool,
    ) -> Vec<BlockKey> {
        let by_file = by_file(age);
        let mut out = Vec::new();
        let mut taken: HashSet<BlockKey> = HashSet::new();
        for &(key, since) in age {
            if taken.contains(&key) {
                continue;
            }
            if now.saturating_since(since) < max_age {
                break;
            }
            if whole_file {
                for &k in &by_file[&key.file] {
                    if taken.insert(k) {
                        out.push(k);
                    }
                }
            } else {
                taken.insert(key);
                out.push(key);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted cache view for policy unit tests.
    struct FakeQuery {
        dirty: Vec<(BlockKey, SimTime)>,
    }

    impl CacheQuery for FakeQuery {
        fn walk_dirty(&self, visit: &mut dyn FnMut(BlockKey, SimTime) -> bool) {
            for &(k, since) in &self.dirty {
                if !visit(k, since) {
                    return;
                }
            }
        }

        fn dirty_of_file(&self, file: FileId, out: &mut Vec<BlockKey>) {
            out.extend(self.dirty.iter().filter(|(k, _)| k.file == file).map(|(k, _)| *k));
        }
    }

    fn key(f: u64, b: u64) -> BlockKey {
        BlockKey::new(FileId(f), b)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn periodic_flushes_old_files_only() {
        let mut p = PeriodicUpdate::default();
        let q =
            FakeQuery { dirty: vec![(key(1, 0), at(0)), (key(1, 3), at(5)), (key(2, 0), at(40))] };
        // At t=35 only file 1's blocks exceed 30 s (oldest is at t=0).
        let picked = p.on_tick(&q, at(35));
        assert_eq!(picked, vec![key(1, 0), key(1, 3)]);
        // At t=10 nothing is old enough.
        let mut p2 = PeriodicUpdate::default();
        assert!(p2.on_tick(&q, at(10)).is_empty());
    }

    #[test]
    fn ups_flushes_nothing_on_tick() {
        let mut p = WriteSaving::default();
        assert!(p.tick_interval().is_none());
        let q = FakeQuery { dirty: vec![(key(1, 0), at(0))] };
        assert_eq!(p.on_demand(&q), vec![key(1, 0)]);
    }

    #[test]
    fn nvram_whole_vs_partial() {
        let q =
            FakeQuery { dirty: vec![(key(7, 0), at(0)), (key(7, 1), at(1)), (key(8, 0), at(2))] };
        let mut whole = NvramFlush { whole_file: true, batch: 1 };
        assert_eq!(whole.on_demand(&q), vec![key(7, 0), key(7, 1)]);
        let mut partial = NvramFlush { whole_file: false, batch: 1 };
        assert_eq!(partial.on_demand(&q), vec![key(7, 0)]);
    }

    #[test]
    fn batched_selection_spans_multiple_groups() {
        // Three files, oldest-first: 7, 8, 9.
        let q = FakeQuery {
            dirty: vec![
                (key(7, 0), at(0)),
                (key(7, 1), at(1)),
                (key(8, 0), at(2)),
                (key(9, 0), at(3)),
            ],
        };
        // batch=2 whole-file: both of file 7 plus file 8's block.
        let mut whole = NvramFlush { whole_file: true, batch: 2 };
        assert_eq!(whole.on_demand(&q), vec![key(7, 0), key(7, 1), key(8, 0)]);
        // batch=3 single-block: the three oldest blocks, files mixed.
        let mut partial = WriteSaving { whole_file: false, batch: 3 };
        assert_eq!(partial.on_demand(&q), vec![key(7, 0), key(7, 1), key(8, 0)]);
        // A batch larger than the dirty set drains it and stops.
        let mut greedy = WriteSaving { whole_file: true, batch: 16 };
        assert_eq!(
            greedy.on_demand(&q),
            vec![key(7, 0), key(7, 1), key(8, 0), key(9, 0)],
            "batch must stop at the dirty set"
        );
        // The factory's batched variant matches the plain one at 1.
        let mut a = flush_by_name("ups").unwrap();
        let mut b = flush_by_name_batched("ups", 1).unwrap();
        assert_eq!(a.on_demand(&q), b.on_demand(&q));
    }

    #[test]
    fn empty_cache_yields_no_flushes() {
        let q = FakeQuery { dirty: vec![] };
        let mut p = PeriodicUpdate::default();
        assert!(p.on_tick(&q, at(100)).is_empty());
        assert!(p.on_demand(&q).is_empty());
        let mut n = NvramFlush { whole_file: true, batch: 1 };
        assert!(n.on_demand(&q).is_empty());
    }

    #[test]
    fn walk_selection_equals_the_snapshot_reference() {
        // Interleaved files, a file whose blocks straddle the age
        // cutoff, and a batch that ends mid-list.
        let dirty: Vec<(BlockKey, SimTime)> = [
            (1, 0, 0),
            (2, 0, 1),
            (1, 1, 2),
            (3, 0, 3),
            (2, 1, 10),
            (1, 2, 20),
            (4, 0, 30),
            (3, 1, 40),
        ]
        .map(|(f, b, s)| (key(f, b), at(s)))
        .to_vec();
        let q = FakeQuery { dirty: dirty.clone() };
        for whole_file in [false, true] {
            for batch in [0, 1, 2, 3, 8, 64] {
                assert_eq!(
                    batched_selection(&q, whole_file, batch),
                    reference::batched_selection(&dirty, whole_file, batch),
                    "whole_file {whole_file} batch {batch}"
                );
            }
            for now in [0, 29, 30, 33, 40, 55, 70, 100] {
                let mut p = PeriodicUpdate { whole_file, ..PeriodicUpdate::default() };
                assert_eq!(
                    p.on_tick(&q, at(now)),
                    reference::aged_selection(&dirty, at(now), p.max_age, whole_file),
                    "whole_file {whole_file} now {now}"
                );
            }
        }
    }

    #[test]
    fn factory_names() {
        for n in ["write-delay", "ups", "ups-whole", "nvram-whole", "nvram-partial"] {
            assert!(flush_by_name(n).is_some(), "{n}");
        }
        assert!(flush_by_name("wafl").is_none());
    }
}
