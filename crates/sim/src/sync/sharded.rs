//! Instrumented and striped mutexes: the lock family the sharded
//! engine is built on.
//!
//! A [`TrackedMutex`] is an async mutex (FIFO handoff, built on
//! [`Semaphore`]) whose critical section may span `await`s and that
//! accounts for every acquisition: how long acquirers waited (contention
//! cost in *simulated* time) and how long the lock was held. A
//! [`ShardedMutex`] stripes N tracked mutexes over a key space so
//! independent keys proceed past each other, while `lock_all` still
//! offers whole-structure exclusion (format, recovery, the cleaner) by
//! taking every stripe in ascending index order — the global lock
//! ordering that rules out deadlock between stripe holders.

use std::cell::RefCell;
use std::cell::{Ref, RefMut};
use std::rc::Rc;

use crate::executor::Handle;
use crate::sync::semaphore::{Permit, Semaphore};
use crate::time::{SimDuration, SimTime};

/// Wait/hold accounting for one lock (or a whole stripe family).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that found the lock busy and had to queue.
    pub contentions: u64,
    /// Total simulated time acquirers spent waiting for the lock.
    pub wait: SimDuration,
    /// Total simulated time the lock was held.
    pub hold: SimDuration,
    /// Longest single wait.
    pub max_wait: SimDuration,
}

impl LockStats {
    /// Merges another lock's counters into this one (stripe roll-up).
    pub fn merge(&mut self, other: &LockStats) {
        self.acquisitions += other.acquisitions;
        self.contentions += other.contentions;
        self.wait += other.wait;
        self.hold += other.hold;
        if other.max_wait > self.max_wait {
            self.max_wait = other.max_wait;
        }
    }
}

struct Tracked {
    stats: RefCell<LockStats>,
}

/// A mutual-exclusion lock with wait-time and hold-time accounting in
/// simulated time.
///
/// The uncontended fast path is immediate (no yield), so taking the
/// lock cannot perturb a seeded schedule that never contends.
#[derive(Clone)]
pub struct TrackedMutex<T> {
    handle: Handle,
    sem: Semaphore,
    value: Rc<RefCell<T>>,
    tracked: Rc<Tracked>,
}

impl<T> TrackedMutex<T> {
    /// Creates a tracked mutex owning `value`.
    pub fn new(handle: &Handle, value: T) -> Self {
        TrackedMutex {
            handle: handle.clone(),
            sem: Semaphore::new(handle, 1),
            value: Rc::new(RefCell::new(value)),
            tracked: Rc::new(Tracked { stats: RefCell::new(LockStats::default()) }),
        }
    }

    /// Locks the mutex, blocking the task until it is free; the wait is
    /// charged to this lock's [`LockStats`].
    pub async fn lock(&self) -> TrackedMutexGuard<T> {
        let t0 = self.handle.now();
        let contended = self.sem.available() == 0;
        let permit = self.sem.acquire().await;
        let now = self.handle.now();
        {
            let mut st = self.tracked.stats.borrow_mut();
            st.acquisitions += 1;
            if contended {
                st.contentions += 1;
            }
            let waited = now - t0;
            st.wait += waited;
            if waited > st.max_wait {
                st.max_wait = waited;
            }
        }
        TrackedMutexGuard {
            value: self.value.clone(),
            tracked: self.tracked.clone(),
            handle: self.handle.clone(),
            acquired: now,
            _permit: permit,
        }
    }

    /// Tries to lock without blocking (no wait is charged).
    pub fn try_lock(&self) -> Option<TrackedMutexGuard<T>> {
        let permit = self.sem.try_acquire()?;
        self.tracked.stats.borrow_mut().acquisitions += 1;
        Some(TrackedMutexGuard {
            value: self.value.clone(),
            tracked: self.tracked.clone(),
            handle: self.handle.clone(),
            acquired: self.handle.now(),
            _permit: permit,
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LockStats {
        *self.tracked.stats.borrow()
    }
}

/// Guard granting access to the protected value; unlocks (and charges
/// the hold time) on drop.
pub struct TrackedMutexGuard<T> {
    value: Rc<RefCell<T>>,
    tracked: Rc<Tracked>,
    handle: Handle,
    acquired: SimTime,
    _permit: Permit,
}

impl<T> TrackedMutexGuard<T> {
    /// Immutable access to the protected value.
    ///
    /// # Panics
    ///
    /// Panics if a `get_mut` borrow is still alive (do not hold the
    /// returned `Ref` across an `await`).
    pub fn get(&self) -> Ref<'_, T> {
        self.value.borrow()
    }

    /// Mutable access to the protected value.
    ///
    /// # Panics
    ///
    /// Panics if another borrow is still alive (do not hold the returned
    /// `RefMut` across an `await`).
    pub fn get_mut(&self) -> RefMut<'_, T> {
        self.value.borrow_mut()
    }

    /// Runs a closure with mutable access and returns its result.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.value.borrow_mut())
    }
}

impl<T> Drop for TrackedMutexGuard<T> {
    fn drop(&mut self) {
        let held = self.handle.now() - self.acquired;
        self.tracked.stats.borrow_mut().hold += held;
    }
}

/// Deterministic key → stripe spreading (Fibonacci multiplicative
/// hash): a fixed constant, so the same key lands on the same stripe
/// in every run on every platform.
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// N [`TrackedMutex`] stripes over a key space.
///
/// Keys are spread deterministically, so two runs of a seeded workload
/// shard identically. With one stripe this *is* a tracked global mutex
/// — the unsharded configuration stays expressible (and is the oracle
/// the shard-determinism proptests compare against).
#[derive(Clone)]
pub struct ShardedMutex<T> {
    stripes: Rc<Vec<TrackedMutex<T>>>,
}

impl<T> ShardedMutex<T> {
    /// Creates a family of `shards` stripes; `mk(i)` builds the value
    /// guarded by stripe `i`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(handle: &Handle, shards: usize, mut mk: impl FnMut(usize) -> T) -> Self {
        assert!(shards > 0, "a sharded mutex needs at least one stripe");
        let stripes = (0..shards).map(|i| TrackedMutex::new(handle, mk(i))).collect();
        ShardedMutex { stripes: Rc::new(stripes) }
    }

    /// The stripe a key belongs to.
    pub fn stripe_of(&self, key: u64) -> usize {
        (spread(key) % self.stripes.len() as u64) as usize
    }

    /// Locks the stripe guarding `key`.
    pub async fn lock(&self, key: u64) -> TrackedMutexGuard<T> {
        self.stripes[self.stripe_of(key)].lock().await
    }

    /// Locks the stripes guarding two keys without deadlock: stripes
    /// are acquired in ascending index order, and a shared stripe is
    /// locked once (the second guard is `None`).
    pub async fn lock_pair(
        &self,
        a: u64,
        b: u64,
    ) -> (TrackedMutexGuard<T>, Option<TrackedMutexGuard<T>>) {
        let (sa, sb) = (self.stripe_of(a), self.stripe_of(b));
        if sa == sb {
            return (self.stripes[sa].lock().await, None);
        }
        let (lo, hi) = (sa.min(sb), sa.max(sb));
        let g_lo = self.stripes[lo].lock().await;
        let g_hi = self.stripes[hi].lock().await;
        // Hand back in (a, b) order so callers can tell them apart.
        if sa < sb {
            (g_lo, Some(g_hi))
        } else {
            (g_hi, Some(g_lo))
        }
    }

    /// Locks every stripe (ascending index order — the same global
    /// order `lock_pair` uses, so family-wide exclusion cannot deadlock
    /// against per-key holders).
    pub async fn lock_all(&self) -> Vec<TrackedMutexGuard<T>> {
        let mut guards = Vec::with_capacity(self.stripes.len());
        for s in self.stripes.iter() {
            guards.push(s.lock().await);
        }
        guards
    }

    /// Direct access to one stripe's lock (deterministic iteration over
    /// per-stripe state, e.g. a stable shard-merge order).
    pub fn stripe(&self, i: usize) -> &TrackedMutex<T> {
        &self.stripes[i]
    }

    /// Family-wide counters (all stripes merged).
    pub fn stats(&self) -> LockStats {
        let mut out = LockStats::default();
        for s in self.stripes.iter() {
            out.merge(&s.stats());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use std::cell::Cell;

    #[test]
    fn uncontended_lock_charges_no_wait() {
        let sim = Sim::new(3);
        let h = sim.handle();
        let m = TrackedMutex::new(&h, 0u32);
        let m2 = m.clone();
        let h2 = h.clone();
        h.spawn("t", async move {
            for _ in 0..5 {
                let g = m2.lock().await;
                *g.get_mut() += 1;
                h2.sleep(SimDuration::from_millis(2)).await;
                drop(g);
            }
        });
        sim.run();
        let st = m.stats();
        assert_eq!(st.acquisitions, 5);
        assert_eq!(st.contentions, 0);
        assert_eq!(st.wait, SimDuration::ZERO);
        assert_eq!(st.hold, SimDuration::from_millis(10));
    }

    #[test]
    fn contended_lock_charges_wait_and_hold() {
        let sim = Sim::new(3);
        let h = sim.handle();
        let m = TrackedMutex::new(&h, ());
        for i in 0..3u64 {
            let (m2, h2) = (m.clone(), h.clone());
            h.spawn("w", async move {
                h2.sleep(SimDuration::from_millis(i)).await;
                let _g = m2.lock().await;
                h2.sleep(SimDuration::from_millis(10)).await;
            });
        }
        sim.run();
        let st = m.stats();
        assert_eq!(st.acquisitions, 3);
        assert_eq!(st.contentions, 2);
        // Arrivals at 1 and 2 ms wait for the 0 ms holder (10 ms) and
        // then each other: (10-1) + (20-2) = 27 ms.
        assert_eq!(st.wait, SimDuration::from_millis(27));
        assert_eq!(st.hold, SimDuration::from_millis(30));
        assert_eq!(st.max_wait, SimDuration::from_millis(18));
    }

    #[test]
    fn stripes_let_distinct_keys_proceed() {
        let sim = Sim::new(9);
        let h = sim.handle();
        let m: ShardedMutex<()> = ShardedMutex::new(&h, 8, |_| ());
        // Two keys on different stripes never contend.
        let (a, b) = (0u64, 1u64);
        assert_ne!(m.stripe_of(a), m.stripe_of(b), "test keys must spread");
        for (i, key) in [(0u64, a), (1, b)] {
            let (m2, h2) = (m.clone(), h.clone());
            h.spawn("w", async move {
                h2.sleep(SimDuration::from_millis(i)).await;
                let _g = m2.lock(key).await;
                h2.sleep(SimDuration::from_millis(10)).await;
            });
        }
        sim.run();
        let st = m.stats();
        assert_eq!(st.acquisitions, 2);
        assert_eq!(st.contentions, 0, "distinct stripes must not contend");
        assert_eq!(st.wait, SimDuration::ZERO);
    }

    #[test]
    fn same_key_still_excludes() {
        let sim = Sim::new(9);
        let h = sim.handle();
        let m: ShardedMutex<Vec<u64>> = ShardedMutex::new(&h, 8, |_| Vec::new());
        for i in 0..2u64 {
            let (m2, h2) = (m.clone(), h.clone());
            h.spawn("w", async move {
                h2.sleep(SimDuration::from_millis(i)).await;
                let g = m2.lock(42).await;
                g.get_mut().push(i);
                h2.sleep(SimDuration::from_millis(10)).await;
                g.get_mut().push(i + 100);
                drop(g);
            });
        }
        sim.run();
        let st = m.stats();
        assert_eq!(st.contentions, 1);
        let g = m.stripe(m.stripe_of(42)).try_lock().expect("free");
        assert_eq!(*g.get(), vec![0, 100, 1, 101], "critical sections interleaved");
    }

    #[test]
    fn lock_pair_orders_and_dedups() {
        let sim = Sim::new(9);
        let h = sim.handle();
        let m: ShardedMutex<u32> = ShardedMutex::new(&h, 4, |i| i as u32);
        let done = Rc::new(Cell::new(false));
        let done2 = done.clone();
        let m2 = m.clone();
        h.spawn("t", async move {
            // Same stripe: one guard.
            let (g, dup) = m2.lock_pair(7, 7).await;
            assert!(dup.is_none());
            drop(g);
            // Distinct stripes: guards map to their keys' stripes.
            let (a, b) = (0u64, 1u64);
            let (ga, gb) = m2.lock_pair(a, b).await;
            assert_eq!(*ga.get(), m2.stripe_of(a) as u32);
            assert_eq!(*gb.expect("distinct stripes").get(), m2.stripe_of(b) as u32);
            done2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn lock_all_excludes_every_stripe() {
        let sim = Sim::new(9);
        let h = sim.handle();
        let m: ShardedMutex<()> = ShardedMutex::new(&h, 4, |_| ());
        let order = Rc::new(RefCell::new(Vec::new()));
        let (m1, o1, h1) = (m.clone(), order.clone(), h.clone());
        h.spawn("global", async move {
            let _gs = m1.lock_all().await;
            o1.borrow_mut().push("global");
            h1.sleep(SimDuration::from_millis(10)).await;
        });
        let (m2, o2, h2) = (m.clone(), order.clone(), h.clone());
        h.spawn("keyed", async move {
            h2.sleep(SimDuration::from_millis(1)).await;
            let _g = m2.lock(3).await;
            o2.borrow_mut().push("keyed");
        });
        sim.run();
        assert_eq!(*order.borrow(), vec!["global", "keyed"]);
    }

    #[test]
    fn spreading_is_deterministic_and_covers_stripes() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let m: ShardedMutex<()> = ShardedMutex::new(&h, 16, |_| ());
        let mut hit = [false; 16];
        for k in 0..256u64 {
            assert_eq!(m.stripe_of(k), m.stripe_of(k), "stable per key");
            hit[m.stripe_of(k)] = true;
        }
        assert!(hit.iter().all(|&b| b), "256 sequential keys must cover 16 stripes");
    }
}
