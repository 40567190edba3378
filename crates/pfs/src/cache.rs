//! The server-side NFS attribute / lookup cache.
//!
//! Real NFS servers (and clients) keep two small caches in front of the
//! file system: *lookup* (name → file handle), so a path is walked once
//! per incarnation rather than once per operation, and *attributes*
//! (ino → size/mtime/…), so GETATTR — the most frequent NFS procedure —
//! usually never reaches the engine. Both are write-invalidated by the
//! serving tier: data writes drop the attr entry, namespace mutations
//! drop the name entries (whole subtrees on rename/rmdir).
//!
//! Both maps are capacity-capped with deterministic eviction (smallest
//! key first — a `BTreeMap` pop, so two seeded runs evict identically).
//! Evicting a lookup entry also drops the paired attr entry, keeping
//! the invariant that a cached directory attribute is reachable (and
//! hence invalidatable) through a cached name.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Bound;

use crate::nfs::Fhandle;

/// Cached file attributes — the subset the NFS attr reply carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// Inode number.
    pub ino: u64,
    /// Handle generation for this incarnation.
    pub gen: u32,
    /// File kind tag ([`cnp_layout::FileKind::tag`]).
    pub kind_tag: u32,
    /// Size in bytes.
    pub size: u64,
    /// Modification time (ns of virtual time).
    pub mtime: u64,
}

/// The attribute + lookup cache. [`crate::NfsServer::metrics`] reports
/// its counters (`serve.lookup_cache.*`, `serve.attr_cache.*`,
/// `serve.cache.invalidations`).
pub struct NfsCache {
    cap: usize,
    lookups: RefCell<BTreeMap<String, Fhandle>>,
    attrs: RefCell<BTreeMap<u64, Attr>>,
    pub(crate) lookup_hits: Cell<u64>,
    pub(crate) lookup_misses: Cell<u64>,
    pub(crate) attr_hits: Cell<u64>,
    pub(crate) attr_misses: Cell<u64>,
    pub(crate) invalidations: Cell<u64>,
}

/// Adds `n` to a counter.
pub(crate) fn add(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get() + n);
}

impl NfsCache {
    /// Creates a cache holding at most `cap` entries per map.
    pub fn new(cap: usize) -> Self {
        NfsCache {
            cap: cap.max(1),
            lookups: RefCell::new(BTreeMap::new()),
            attrs: RefCell::new(BTreeMap::new()),
            lookup_hits: Cell::new(0),
            lookup_misses: Cell::new(0),
            attr_hits: Cell::new(0),
            attr_misses: Cell::new(0),
            invalidations: Cell::new(0),
        }
    }

    /// Name → handle, counting a hit or miss.
    pub fn lookup(&self, path: &str) -> Option<Fhandle> {
        let hit = self.lookups.borrow().get(path).copied();
        match hit {
            Some(fh) => {
                add(&self.lookup_hits, 1);
                Some(fh)
            }
            None => {
                add(&self.lookup_misses, 1);
                None
            }
        }
    }

    /// Ino → attributes, counting a hit or miss.
    pub fn attr(&self, ino: u64) -> Option<Attr> {
        let hit = self.attrs.borrow().get(&ino).copied();
        match hit {
            Some(a) => {
                add(&self.attr_hits, 1);
                Some(a)
            }
            None => {
                add(&self.attr_misses, 1);
                None
            }
        }
    }

    /// Inserts a name → handle binding (plus its attributes if given).
    pub fn insert(&self, path: &str, fh: Fhandle, attr: Option<Attr>) {
        {
            let mut l = self.lookups.borrow_mut();
            l.insert(path.to_string(), fh);
            if l.len() > self.cap {
                if let Some((_, evicted)) = l.pop_first() {
                    self.attrs.borrow_mut().remove(&evicted.ino);
                }
            }
        }
        if let Some(a) = attr {
            self.insert_attr(a);
        }
    }

    /// Inserts attributes by ino (the GETATTR-by-handle refill path).
    pub fn insert_attr(&self, attr: Attr) {
        let mut m = self.attrs.borrow_mut();
        m.insert(attr.ino, attr);
        if m.len() > self.cap {
            m.pop_first();
        }
    }

    /// Drops the attributes of `ino` (after a write or truncate).
    pub fn invalidate_ino(&self, ino: u64) {
        if self.attrs.borrow_mut().remove(&ino).is_some() {
            add(&self.invalidations, 1);
        }
    }

    /// Drops one name binding and its attributes (after remove).
    pub fn invalidate_path(&self, path: &str) {
        if let Some(fh) = self.lookups.borrow_mut().remove(path) {
            self.attrs.borrow_mut().remove(&fh.ino);
            add(&self.invalidations, 1);
        }
    }

    /// Drops `path` and every cached name under it (after rename or
    /// rmdir, whose effect is not visible in the children's own keys).
    pub fn invalidate_subtree(&self, path: &str) {
        let prefix = format!("{}/", path.trim_end_matches('/'));
        let mut l = self.lookups.borrow_mut();
        let mut a = self.attrs.borrow_mut();
        let doomed: Vec<String> = l
            .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, _)| k.clone())
            .collect();
        for k in doomed {
            if let Some(fh) = l.remove(&k) {
                a.remove(&fh.ino);
                add(&self.invalidations, 1);
            }
        }
        if let Some(fh) = l.remove(path) {
            a.remove(&fh.ino);
            add(&self.invalidations, 1);
        }
    }

    /// Drops the attributes of `path`'s parent directory, if cached —
    /// a namespace mutation changed its size/mtime. The parent is
    /// looked up by a slice of `path`, so this allocates nothing.
    pub fn invalidate_parent_attr(&self, path: &str) {
        let parent = match path.trim_end_matches('/').rsplit_once('/') {
            Some(("", _)) | None => "/",
            Some((p, _)) => p,
        };
        let fh = self.lookups.borrow().get(parent).copied();
        if let Some(fh) = fh {
            self.invalidate_ino(fh.ino);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh(ino: u64) -> Fhandle {
        Fhandle { ino, gen: 1 }
    }

    fn attr(ino: u64, size: u64) -> Attr {
        Attr { ino, gen: 1, kind_tag: 0, size, mtime: 0 }
    }

    #[test]
    fn hit_and_miss_counters() {
        let c = NfsCache::new(8);
        assert!(c.lookup("/a").is_none());
        c.insert("/a", fh(1), Some(attr(1, 10)));
        assert_eq!(c.lookup("/a"), Some(fh(1)));
        assert_eq!(c.attr(1).unwrap().size, 10);
        assert_eq!(c.lookup_hits.get(), 1);
        assert_eq!(c.lookup_misses.get(), 1);
        assert_eq!(c.attr_hits.get(), 1);
    }

    #[test]
    fn write_invalidation_drops_attr_only() {
        let c = NfsCache::new(8);
        c.insert("/a", fh(1), Some(attr(1, 10)));
        c.invalidate_ino(1);
        assert!(c.attr(1).is_none());
        assert_eq!(c.lookup("/a"), Some(fh(1)), "name binding survives a data write");
    }

    #[test]
    fn subtree_invalidation_on_rename() {
        let c = NfsCache::new(32);
        c.insert("/d", fh(1), None);
        c.insert("/d/x", fh(2), Some(attr(2, 5)));
        c.insert("/d/y", fh(3), None);
        c.insert("/dz", fh(4), None);
        c.invalidate_subtree("/d");
        assert!(c.lookup("/d").is_none());
        assert!(c.lookup("/d/x").is_none());
        assert!(c.lookup("/d/y").is_none());
        assert!(c.attr(2).is_none());
        assert_eq!(c.lookup("/dz"), Some(fh(4)), "sibling sharing the prefix string survives");
    }

    #[test]
    fn parent_attr_invalidation() {
        let c = NfsCache::new(8);
        c.insert("/d", fh(1), Some(attr(1, 4096)));
        c.insert("/d/f", fh(2), None);
        c.invalidate_parent_attr("/d/f");
        assert!(c.attr(1).is_none());
        // Root parent: no panic, no-op when root is uncached.
        c.invalidate_parent_attr("/top");
    }

    #[test]
    fn capped_eviction_is_deterministic_and_paired() {
        let c = NfsCache::new(2);
        c.insert("/a", fh(1), Some(attr(1, 1)));
        c.insert("/b", fh(2), Some(attr(2, 2)));
        c.insert("/c", fh(3), Some(attr(3, 3)));
        // Smallest key "/a" evicted, and its attr went with it.
        assert!(c.lookup("/a").is_none());
        assert!(c.attr(1).is_none());
        assert_eq!(c.lookup("/b"), Some(fh(2)));
        assert_eq!(c.lookup("/c"), Some(fh(3)));
    }
}
