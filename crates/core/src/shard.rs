//! Sharded interior tables: the engine's key-indexed maps, partitioned.
//!
//! The shared engine keeps several tables every client touches on every
//! operation — the inode table, the block in-flight table. Unsharded,
//! each is one `RefCell<HashMap>`: a single borrow point and, in any
//! multi-core port, a single lock. [`ShardedTable`] partitions the
//! entries by key hash so independent clients land on independent
//! shards, mirroring the lock striping in `cnp_sim::ShardedMutex`.
//!
//! Determinism: routing uses the same fixed multiplicative hash as the
//! lock stripes (`cnp_sim`'s Fibonacci spread), never the std
//! `HashMap` hasher, so the shard of a key is a pure function of the
//! key and the shard count. Partitioning never reorders any decision —
//! iteration helpers that feed persistence paths collect across shards
//! and sort, exactly as the unsharded table had to.

use std::cell::{Ref, RefCell, RefMut};
use std::collections::HashMap;
use std::hash::Hash;

use cnp_cache::FixedState;

/// Fixed key → shard spreading (Fibonacci multiplicative hash over a
/// `u64` key image); identical constant to the lock-stripe spread so a
/// table shard and its guarding lock stripe agree.
pub(crate) fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// One shard: integer keys, so the cache's fixed hasher serves.
pub(crate) type Shard<K, V> = HashMap<K, V, FixedState>;

/// A `HashMap` partitioned into `shards` independently borrowable
/// shards by a deterministic hash of the key's `u64` image.
pub(crate) struct ShardedTable<K, V> {
    shards: Vec<RefCell<Shard<K, V>>>,
}

impl<K: Eq + Hash + Copy, V> ShardedTable<K, V> {
    /// Builds an empty table with `shards` partitions (≥ 1 enforced).
    /// Callers address entries by the key's `u64` image (the value they
    /// also stripe locks by), passed to [`ShardedTable::shard`].
    pub fn new(shards: u32) -> ShardedTable<K, V> {
        assert!(shards >= 1, "a table needs at least one shard");
        ShardedTable { shards: (0..shards).map(|_| RefCell::default()).collect() }
    }

    fn shard_of(&self, image: u64) -> usize {
        (spread(image) % self.shards.len() as u64) as usize
    }

    /// Immutably borrows the shard holding `image`.
    pub fn shard(&self, image: u64) -> Ref<'_, Shard<K, V>> {
        self.shards[self.shard_of(image)].borrow()
    }

    /// Mutably borrows the shard holding `image`.
    pub fn shard_mut(&self, image: u64) -> RefMut<'_, Shard<K, V>> {
        self.shards[self.shard_of(image)].borrow_mut()
    }

    /// Collects every key across shards (unordered; callers that feed
    /// persistence paths must sort — shard walk order is stable but
    /// the in-shard `HashMap` order is not).
    pub fn keys(&self) -> Vec<K> {
        let mut keys = Vec::new();
        for s in &self.shards {
            keys.extend(s.borrow().keys().copied());
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(shards: u32) -> ShardedTable<u64, u32> {
        ShardedTable::new(shards)
    }

    #[test]
    fn routing_is_deterministic_and_consistent() {
        let t = table(8);
        for k in 0..256u64 {
            t.shard_mut(k).insert(k, k as u32);
        }
        for k in 0..256u64 {
            assert_eq!(t.shard(k).get(&k).copied(), Some(k as u32));
        }
        assert_eq!(t.keys().len(), 256);
    }

    #[test]
    fn distinct_shards_borrow_independently() {
        let t = table(16);
        // Find two keys on different shards and hold both borrows.
        let (a, b) = (0u64, 1u64);
        assert_ne!(t.shard_of(a), t.shard_of(b));
        let ga = t.shard_mut(a);
        let gb = t.shard_mut(b);
        drop((ga, gb));
    }

    #[test]
    fn single_shard_matches_unsharded_semantics() {
        let t = table(1);
        t.shard_mut(7).insert(7, 1);
        t.shard_mut(99).insert(99, 2);
        assert_eq!(t.shard(7).len(), 2, "one shard holds everything");
    }
}
