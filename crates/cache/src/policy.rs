//! Cache replacement policies.
//!
//! "Different cache administration policies are easily implemented by
//! re-implementing the replacement methods of the base-class in a new
//! derived class. For example, to experiment with different replacement
//! policies (e.g. RR, LFU, SLRU, LRU-K or adaptive) …" (§2)
//!
//! A policy orders exactly the *clean* frames (dirty frames live on the
//! engine's age list and are never eviction victims until flushed).

use std::collections::BTreeSet;

use cnp_sim::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

use crate::list::FrameList;

/// Per-access metadata handed to policies.
#[derive(Debug, Clone, Copy)]
pub struct AccessMeta<'a> {
    /// Time of the access.
    pub now: SimTime,
    /// Total accesses to this block so far.
    pub count: u64,
    /// Most recent access times, newest last (for LRU-K).
    pub history: &'a [SimTime],
}

/// A clean-frame replacement policy.
pub trait ReplacementPolicy {
    /// A frame joined the clean set (inserted clean, or flushed clean).
    fn insert(&mut self, frame: u32, meta: AccessMeta<'_>);

    /// A clean frame was accessed.
    fn touch(&mut self, frame: u32, meta: AccessMeta<'_>);

    /// A frame left the clean set (dirtied, deleted, or evicted by the
    /// engine outside `take_victim`).
    fn remove(&mut self, frame: u32);

    /// Removes and returns the preferred eviction victim.
    fn take_victim(&mut self) -> Option<u32>;

    /// Number of managed (clean) frames.
    fn len(&self) -> usize;

    /// True if the policy manages no frames.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Least-recently-used (the paper's base cache behaviour).
pub struct Lru {
    list: FrameList,
}

impl Lru {
    /// Creates an LRU policy for `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Lru { list: FrameList::new(capacity) }
    }
}

impl ReplacementPolicy for Lru {
    fn insert(&mut self, frame: u32, _meta: AccessMeta<'_>) {
        self.list.push_back(frame);
    }

    fn touch(&mut self, frame: u32, _meta: AccessMeta<'_>) {
        self.list.move_to_back(frame);
    }

    fn remove(&mut self, frame: u32) {
        self.list.remove(frame);
    }

    fn take_victim(&mut self) -> Option<u32> {
        self.list.pop_front()
    }

    fn len(&self) -> usize {
        self.list.len()
    }
}

/// First-in, first-out: eviction order ignores later accesses.
pub struct Fifo {
    list: FrameList,
}

impl Fifo {
    /// Creates a FIFO policy for `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Fifo { list: FrameList::new(capacity) }
    }
}

impl ReplacementPolicy for Fifo {
    fn insert(&mut self, frame: u32, _meta: AccessMeta<'_>) {
        self.list.push_back(frame);
    }

    fn touch(&mut self, _frame: u32, _meta: AccessMeta<'_>) {}

    fn remove(&mut self, frame: u32) {
        self.list.remove(frame);
    }

    fn take_victim(&mut self) -> Option<u32> {
        self.list.pop_front()
    }

    fn len(&self) -> usize {
        self.list.len()
    }
}

/// Random replacement (the paper's "RR").
pub struct RandomPolicy {
    members: Vec<u32>,
    /// members index per frame id (or `u32::MAX`).
    slot: Vec<u32>,
    rng: StdRng,
}

impl RandomPolicy {
    /// Creates a random policy with a deterministic RNG.
    pub fn new(capacity: usize, rng: StdRng) -> Self {
        RandomPolicy { members: Vec::new(), slot: vec![u32::MAX; capacity], rng }
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn insert(&mut self, frame: u32, _meta: AccessMeta<'_>) {
        debug_assert_eq!(self.slot[frame as usize], u32::MAX);
        self.slot[frame as usize] = self.members.len() as u32;
        self.members.push(frame);
    }

    fn touch(&mut self, _frame: u32, _meta: AccessMeta<'_>) {}

    fn remove(&mut self, frame: u32) {
        let s = self.slot[frame as usize];
        if s == u32::MAX {
            return;
        }
        self.slot[frame as usize] = u32::MAX;
        let last = self.members.pop().expect("slot implies membership");
        if last != frame {
            self.members[s as usize] = last;
            self.slot[last as usize] = s;
        }
    }

    fn take_victim(&mut self) -> Option<u32> {
        if self.members.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.members.len());
        let frame = self.members[i];
        self.remove(frame);
        Some(frame)
    }

    fn len(&self) -> usize {
        self.members.len()
    }
}

/// Least-frequently-used with FIFO tiebreak.
pub struct Lfu {
    /// (access count, frame) ordered set: first element is the victim.
    set: BTreeSet<(u64, u32)>,
    count: Vec<u64>,
    member: Vec<bool>,
}

impl Lfu {
    /// Creates an LFU policy for `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Lfu { set: BTreeSet::new(), count: vec![0; capacity], member: vec![false; capacity] }
    }
}

impl ReplacementPolicy for Lfu {
    fn insert(&mut self, frame: u32, meta: AccessMeta<'_>) {
        self.count[frame as usize] = meta.count;
        self.member[frame as usize] = true;
        self.set.insert((meta.count, frame));
    }

    fn touch(&mut self, frame: u32, meta: AccessMeta<'_>) {
        if !self.member[frame as usize] {
            return;
        }
        let old = self.count[frame as usize];
        self.set.remove(&(old, frame));
        self.count[frame as usize] = meta.count;
        self.set.insert((meta.count, frame));
    }

    fn remove(&mut self, frame: u32) {
        if self.member[frame as usize] {
            self.set.remove(&(self.count[frame as usize], frame));
            self.member[frame as usize] = false;
        }
    }

    fn take_victim(&mut self) -> Option<u32> {
        let &(count, frame) = self.set.iter().next()?;
        self.set.remove(&(count, frame));
        self.member[frame as usize] = false;
        Some(frame)
    }

    fn len(&self) -> usize {
        self.set.len()
    }
}

/// Segmented LRU: a probationary and a protected segment.
///
/// First access inserts into probation; a hit in probation promotes to
/// the protected segment (bounded to `protected_cap`, overflow demotes
/// back to probation's MRU end). Victims come from probation first.
pub struct Slru {
    probation: FrameList,
    protected: FrameList,
    in_protected: Vec<bool>,
    protected_cap: usize,
}

impl Slru {
    /// Creates an SLRU policy; the protected segment holds at most
    /// `protected_cap` frames.
    pub fn new(capacity: usize, protected_cap: usize) -> Self {
        Slru {
            probation: FrameList::new(capacity),
            protected: FrameList::new(capacity),
            in_protected: vec![false; capacity],
            protected_cap,
        }
    }
}

impl ReplacementPolicy for Slru {
    fn insert(&mut self, frame: u32, _meta: AccessMeta<'_>) {
        self.probation.push_back(frame);
        self.in_protected[frame as usize] = false;
    }

    fn touch(&mut self, frame: u32, _meta: AccessMeta<'_>) {
        if self.in_protected[frame as usize] {
            self.protected.move_to_back(frame);
            return;
        }
        if !self.probation.remove(frame) {
            return;
        }
        self.protected.push_back(frame);
        self.in_protected[frame as usize] = true;
        if self.protected.len() > self.protected_cap {
            if let Some(demoted) = self.protected.pop_front() {
                self.in_protected[demoted as usize] = false;
                self.probation.push_back(demoted);
            }
        }
    }

    fn remove(&mut self, frame: u32) {
        if self.in_protected[frame as usize] {
            self.protected.remove(frame);
            self.in_protected[frame as usize] = false;
        } else {
            self.probation.remove(frame);
        }
    }

    fn take_victim(&mut self) -> Option<u32> {
        if let Some(f) = self.probation.pop_front() {
            return Some(f);
        }
        let f = self.protected.pop_front()?;
        self.in_protected[f as usize] = false;
        Some(f)
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }
}

/// LRU-K (K = 2): victim has the oldest K-th most recent access.
///
/// Frames with fewer than K accesses are preferred victims (their K-th
/// access time is treated as the epoch), matching O'Neil's definition.
pub struct LruK {
    /// (k-th most recent access, frame).
    set: BTreeSet<(SimTime, u32)>,
    ktime: Vec<SimTime>,
    member: Vec<bool>,
    k: usize,
}

impl LruK {
    /// Creates an LRU-K policy (use `k = 2` for classic LRU-2).
    pub fn new(capacity: usize, k: usize) -> Self {
        assert!(k >= 1);
        LruK {
            set: BTreeSet::new(),
            ktime: vec![SimTime::ZERO; capacity],
            member: vec![false; capacity],
            k,
        }
    }

    fn kth(&self, meta: &AccessMeta<'_>) -> SimTime {
        // `history` is newest-last; the K-th most recent access is
        // `history[len - k]` when enough history exists.
        let h = meta.history;
        if h.len() >= self.k {
            h[h.len() - self.k]
        } else {
            SimTime::ZERO
        }
    }
}

impl ReplacementPolicy for LruK {
    fn insert(&mut self, frame: u32, meta: AccessMeta<'_>) {
        let kt = self.kth(&meta);
        self.ktime[frame as usize] = kt;
        self.member[frame as usize] = true;
        self.set.insert((kt, frame));
    }

    fn touch(&mut self, frame: u32, meta: AccessMeta<'_>) {
        if !self.member[frame as usize] {
            return;
        }
        let old = self.ktime[frame as usize];
        self.set.remove(&(old, frame));
        let kt = self.kth(&meta);
        self.ktime[frame as usize] = kt;
        self.set.insert((kt, frame));
    }

    fn remove(&mut self, frame: u32) {
        if self.member[frame as usize] {
            self.set.remove(&(self.ktime[frame as usize], frame));
            self.member[frame as usize] = false;
        }
    }

    fn take_victim(&mut self) -> Option<u32> {
        let &(kt, frame) = self.set.iter().next()?;
        self.set.remove(&(kt, frame));
        self.member[frame as usize] = false;
        Some(frame)
    }

    fn len(&self) -> usize {
        self.set.len()
    }
}

/// Builds a replacement policy by name.
///
/// Names: `lru`, `fifo`, `random`, `lfu`, `slru`, `lru-k`.
pub fn replacement_by_name(
    name: &str,
    capacity: usize,
    rng: StdRng,
) -> Option<Box<dyn ReplacementPolicy>> {
    match name {
        "lru" => Some(Box::new(Lru::new(capacity))),
        "fifo" => Some(Box::new(Fifo::new(capacity))),
        "random" | "rr" => Some(Box::new(RandomPolicy::new(capacity, rng))),
        "lfu" => Some(Box::new(Lfu::new(capacity))),
        "slru" => Some(Box::new(Slru::new(capacity, capacity / 2))),
        "lru-k" | "lru2" => Some(Box::new(LruK::new(capacity, 2))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn meta(now_ms: u64, count: u64) -> AccessMeta<'static> {
        AccessMeta { now: SimTime::from_nanos(now_ms * 1_000_000), count, history: &[] }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = Lru::new(8);
        p.insert(0, meta(0, 1));
        p.insert(1, meta(1, 1));
        p.insert(2, meta(2, 1));
        p.touch(0, meta(3, 2));
        assert_eq!(p.take_victim(), Some(1));
        assert_eq!(p.take_victim(), Some(2));
        assert_eq!(p.take_victim(), Some(0));
        assert_eq!(p.take_victim(), None);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut p = Fifo::new(8);
        p.insert(0, meta(0, 1));
        p.insert(1, meta(1, 1));
        p.touch(0, meta(5, 2));
        assert_eq!(p.take_victim(), Some(0));
    }

    #[test]
    fn random_returns_each_member_once() {
        let mut p = RandomPolicy::new(16, StdRng::seed_from_u64(7));
        for f in 0..10 {
            p.insert(f, meta(f as u64, 1));
        }
        p.remove(3);
        let mut got = Vec::new();
        while let Some(f) = p.take_victim() {
            got.push(f);
        }
        got.sort();
        assert_eq!(got, vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut p = Lfu::new(8);
        p.insert(0, meta(0, 5));
        p.insert(1, meta(1, 2));
        p.insert(2, meta(2, 9));
        assert_eq!(p.take_victim(), Some(1));
        p.touch(0, meta(3, 10));
        assert_eq!(p.take_victim(), Some(2));
        assert_eq!(p.take_victim(), Some(0));
    }

    #[test]
    fn slru_promotes_on_rehit() {
        let mut p = Slru::new(8, 2);
        p.insert(0, meta(0, 1));
        p.insert(1, meta(1, 1));
        p.insert(2, meta(2, 1));
        // Re-hit 0: promoted to protected; victims now start at 1.
        p.touch(0, meta(3, 2));
        assert_eq!(p.take_victim(), Some(1));
        assert_eq!(p.take_victim(), Some(2));
        // Only protected frames left.
        assert_eq!(p.take_victim(), Some(0));
    }

    #[test]
    fn slru_protected_overflow_demotes() {
        let mut p = Slru::new(8, 1);
        p.insert(0, meta(0, 1));
        p.insert(1, meta(1, 1));
        p.touch(0, meta(2, 2)); // 0 -> protected.
        p.touch(1, meta(3, 2)); // 1 -> protected, 0 demoted to probation.
        assert_eq!(p.take_victim(), Some(0));
        assert_eq!(p.take_victim(), Some(1));
    }

    #[test]
    fn lruk_prefers_frames_without_k_history() {
        let mut p = LruK::new(8, 2);
        let h0 = [SimTime::from_nanos(10), SimTime::from_nanos(20)];
        let h1 = [SimTime::from_nanos(30)];
        p.insert(0, AccessMeta { now: SimTime::from_nanos(20), count: 2, history: &h0 });
        p.insert(1, AccessMeta { now: SimTime::from_nanos(30), count: 1, history: &h1 });
        // Frame 1 has no 2nd-most-recent access => epoch => first victim.
        assert_eq!(p.take_victim(), Some(1));
        assert_eq!(p.take_victim(), Some(0));
    }

    #[test]
    fn factory_builds_all() {
        for name in ["lru", "fifo", "random", "lfu", "slru", "lru-k"] {
            let p = replacement_by_name(name, 4, StdRng::seed_from_u64(1));
            assert!(p.is_some(), "{name} missing");
        }
        assert!(replacement_by_name("arc", 4, StdRng::seed_from_u64(1)).is_none());
    }
}
