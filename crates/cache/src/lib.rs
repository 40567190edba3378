//! # cnp-cache — the file-system block cache component
//!
//! The paper's cache component (§2): dirty/clean/free lists, pluggable
//! replacement policies (LRU, FIFO, Random, LFU, SLRU, LRU-K), and the
//! flush/persistency policies its evaluation compares (§5.1):
//! 30-second-update write-delay, UPS write-saving, and NVRAM-bounded
//! whole-file / partial-file flushing.
//!
//! The engine is passive and synchronous; the file-system engine above
//! performs the flush I/O it requests (synchronously or through an async
//! flush daemon — the §5.2 lesson) and reports completion back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod flush;
mod key;
mod list;
#[cfg(test)]
mod model;
pub mod policy;

pub use engine::{
    BlockCache, BlockState, CacheConfig, CacheStats, DirtyOutcome, Reserve, UNATTRIBUTED,
};
pub use flush::{
    flush_by_name, flush_by_name_batched, CacheQuery, FlushPolicy, NvramFlush, PeriodicUpdate,
    WriteSaving,
};
pub use key::{BlockKey, FileId, FixedHasher, FixedState};
pub use list::FrameList;
pub use policy::{
    replacement_by_name, AccessMeta, Fifo, Lfu, Lru, LruK, RandomPolicy, ReplacementPolicy, Slru,
};
