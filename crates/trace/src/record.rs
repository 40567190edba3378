//! Trace records: what a file-system trace stores per operation.
//!
//! "File-system traces are collections of records that describe all the
//! activity of a real file-system at some time. These records specify
//! when the operation took place (usually down to the microsecond), and
//! which file-system operation was executed." (§4)
//!
//! A workload names the same few files again and again, so a record
//! does not own its path: it shares one `Arc<str>` per distinct path
//! with every other record naming that file ([`PathInterner`]). Cloning
//! a record, a client plan or a bounded prefix bumps reference counts
//! and copies no text. `Arc`, not `Rc`: the crash checker hands records
//! to worker threads.

use std::collections::HashSet;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// A traced file-system operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Open (or create-and-open) a file.
    Open {
        /// Absolute path.
        path: Arc<str>,
    },
    /// Close a previously opened file.
    Close {
        /// Absolute path.
        path: Arc<str>,
    },
    /// Read a byte range.
    Read {
        /// Absolute path.
        path: Arc<str>,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u64,
    },
    /// Write a byte range.
    Write {
        /// Absolute path.
        path: Arc<str>,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u64,
    },
    /// Remove a file.
    Delete {
        /// Absolute path.
        path: Arc<str>,
    },
    /// Truncate to a size.
    Truncate {
        /// Absolute path.
        path: Arc<str>,
        /// New size in bytes.
        size: u64,
    },
    /// Stat a file.
    Stat {
        /// Absolute path.
        path: Arc<str>,
    },
    /// Create a directory.
    Mkdir {
        /// Absolute path.
        path: Arc<str>,
    },
}

impl TraceOp {
    /// Short operation mnemonic (codec tag / reports).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            TraceOp::Open { .. } => "open",
            TraceOp::Close { .. } => "close",
            TraceOp::Read { .. } => "read",
            TraceOp::Write { .. } => "write",
            TraceOp::Delete { .. } => "delete",
            TraceOp::Truncate { .. } => "trunc",
            TraceOp::Stat { .. } => "stat",
            TraceOp::Mkdir { .. } => "mkdir",
        }
    }

    /// The path the operation touches.
    pub fn path(&self) -> &str {
        match self {
            TraceOp::Open { path }
            | TraceOp::Close { path }
            | TraceOp::Read { path, .. }
            | TraceOp::Write { path, .. }
            | TraceOp::Delete { path }
            | TraceOp::Truncate { path, .. }
            | TraceOp::Stat { path }
            | TraceOp::Mkdir { path } => path,
        }
    }
}

/// Hands out one shared path per distinct path text: the generators'
/// way to name a file without allocating it again for every record.
///
/// The path is formatted into a reusable buffer and looked up by its
/// text; only a path not seen before is allocated (once, as the
/// `Arc<str>` every later record naming it shares).
#[derive(Debug, Default)]
pub struct PathInterner {
    buf: String,
    paths: HashSet<Arc<str>>,
}

impl PathInterner {
    /// The shared path spelled by `args` (`format_args!("/c{c}/f{i}")`).
    pub fn intern(&mut self, args: fmt::Arguments<'_>) -> Arc<str> {
        self.buf.clear();
        self.buf.write_fmt(args).expect("formatting into a String cannot fail");
        if let Some(path) = self.paths.get(self.buf.as_str()) {
            return path.clone();
        }
        let path: Arc<str> = Arc::from(self.buf.as_str());
        self.paths.insert(path.clone());
        path
    }
}

/// One trace record: timestamp, issuing client, operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since trace start.
    pub time_ns: u64,
    /// Issuing client id.
    pub client: u32,
    /// The operation.
    pub op: TraceOp,
}

/// The bounded-prefix projection: the first `limit` records of a trace
/// with the listed indices (relative to the full trace) dropped.
///
/// This is the workload view a crash-point enumerator iterates — cut
/// the prefix one op later each cell — and the shape a delta-debugging
/// minimizer shrinks: dropping an index keeps every other record's
/// timestamp, so the surviving ops replay at their original instants.
pub fn bounded_prefix(records: &[TraceRecord], limit: usize, drop: &[usize]) -> Vec<TraceRecord> {
    records
        .iter()
        .take(limit)
        .enumerate()
        .filter(|(i, _)| !drop.contains(i))
        .map(|(_, r)| r.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_and_paths() {
        let r = TraceOp::Read { path: "/a/b".into(), offset: 0, len: 10 };
        assert_eq!(r.mnemonic(), "read");
        assert_eq!(r.path(), "/a/b");
        assert_eq!(TraceOp::Mkdir { path: "/d".into() }.mnemonic(), "mkdir");
    }

    #[test]
    fn an_interned_path_is_shared_by_its_text() {
        let mut paths = PathInterner::default();
        let a = paths.intern(format_args!("/c{}/f{}", 1, 7));
        let b = paths.intern(format_args!("/c1/f{}", 7));
        let c = paths.intern(format_args!("/c1/f{}", 8));
        assert_eq!(&*a, "/c1/f7");
        assert!(Arc::ptr_eq(&a, &b), "the same text must share one allocation");
        assert_eq!(&*c, "/c1/f8");
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn bounded_prefix_cuts_and_drops() {
        let records: Vec<TraceRecord> = (0..6)
            .map(|i| TraceRecord {
                time_ns: i * 10,
                client: 0,
                op: TraceOp::Stat { path: format!("/f{i}").into() },
            })
            .collect();
        let cut = bounded_prefix(&records, 4, &[]);
        assert_eq!(cut.len(), 4);
        assert_eq!(cut[3], records[3]);
        let dropped = bounded_prefix(&records, 4, &[1, 2]);
        assert_eq!(dropped.len(), 2);
        assert_eq!(dropped[0], records[0]);
        // Surviving records keep their original timestamps.
        assert_eq!(dropped[1], records[3]);
        // A limit beyond the trace takes everything.
        assert_eq!(bounded_prefix(&records, 100, &[]).len(), 6);
    }
}
