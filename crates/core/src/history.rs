//! Per-client operation histories: the raw material of linearizability
//! checking.
//!
//! A [`HistoryLog`] attached to a [`crate::ClientFs`] records every
//! operation issued through that handle as an *(invoke, ack)* interval
//! plus the observable outcome. The log is shared (cheaply cloneable),
//! so N client handles recording into one log produce a single
//! multi-client history in completion order — exactly what a witness
//! search consumes. Recording is off unless a log is attached, so the
//! hot path of un-instrumented runs is untouched.
//!
//! The outcome keeps *observables only* (inode numbers, byte counts,
//! sizes, or the error): a checker replays the operations against a
//! sequential model and compares these observables, so anything the
//! model cannot predict (latencies, cache state) stays out.

use std::cell::RefCell;
use std::rc::Rc;

use crate::error::FsError;

/// One recorded operation, in the shared vocabulary of the abstract
/// client interface. Paths identify namespace operations; data-path
/// operations carry the inode number the client held.
#[derive(Debug, Clone, PartialEq)]
pub enum HistOp {
    /// Path resolution.
    Lookup {
        /// Resolved path.
        path: String,
    },
    /// File creation (any kind except directories).
    Create {
        /// Created path.
        path: String,
    },
    /// Directory creation.
    Mkdir {
        /// Created path.
        path: String,
    },
    /// Open (resolves and bumps the open count).
    Open {
        /// Opened path.
        path: String,
    },
    /// Close.
    Close {
        /// Closed inode.
        ino: u64,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// Inode read.
        ino: u64,
        /// Byte offset.
        offset: u64,
        /// Requested length.
        len: u64,
    },
    /// Write `len` bytes at `offset`.
    Write {
        /// Inode written.
        ino: u64,
        /// Byte offset.
        offset: u64,
        /// Acknowledged length.
        len: u64,
    },
    /// Truncate to `size` bytes.
    Truncate {
        /// Inode truncated.
        ino: u64,
        /// New size.
        size: u64,
    },
    /// File removal.
    Unlink {
        /// Removed path.
        path: String,
    },
    /// Directory removal.
    Rmdir {
        /// Removed path.
        path: String,
    },
    /// Rename.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// Stat by path.
    Stat {
        /// Statted path.
        path: String,
    },
}

/// The observable outcome of a recorded operation.
#[derive(Debug, Clone, PartialEq)]
pub enum HistOutcome {
    /// Success with no observable value (close, unlink, rename, …).
    Ok,
    /// Success returning an inode number (lookup, create, mkdir, open).
    Ino(u64),
    /// Success returning a byte count (read).
    Bytes(u64),
    /// Success returning a file size (stat).
    Size(u64),
    /// Failure: the operation was *not* acknowledged. The error is kept
    /// so crash tests can distinguish a dying disk from a layout error.
    Failed(FsError),
}

/// One entry of a recorded multi-client history.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEvent {
    /// Issuing client id.
    pub client: u32,
    /// Virtual time (ns) the operation was invoked.
    pub invoke_ns: u64,
    /// Virtual time (ns) the operation returned to the client.
    pub ack_ns: u64,
    /// The operation.
    pub op: HistOp,
    /// What the client observed.
    pub outcome: HistOutcome,
}

impl HistoryEvent {
    /// True if the operation was acknowledged as successful. An op that
    /// returned an error — a power cut included — must never read as
    /// acked: loss accounting and witness search both rely on it.
    pub fn acked(&self) -> bool {
        !matches!(self.outcome, HistOutcome::Failed(_))
    }

    /// True if the operation failed because the disk reported a power
    /// cut.
    pub fn power_cut(&self) -> bool {
        matches!(&self.outcome, HistOutcome::Failed(e) if e.is_power_cut())
    }
}

/// A shared, append-only history of client operations (completion
/// order). Clone the log once per client handle; all clones append to
/// the same history.
#[derive(Debug, Clone, Default)]
pub struct HistoryLog {
    events: Rc<RefCell<Vec<HistoryEvent>>>,
}

impl HistoryLog {
    /// An empty log.
    pub fn new() -> HistoryLog {
        HistoryLog::default()
    }

    /// Appends one event (completion order).
    pub fn record(&self, event: HistoryEvent) {
        self.events.borrow_mut().push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Drains the history, leaving the log empty.
    pub fn take(&self) -> Vec<HistoryEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_disk::IoError;

    #[test]
    fn acked_tracks_outcome() {
        let ok = HistoryEvent {
            client: 0,
            invoke_ns: 1,
            ack_ns: 2,
            op: HistOp::Stat { path: "/f".into() },
            outcome: HistOutcome::Size(0),
        };
        assert!(ok.acked());
        assert!(!ok.power_cut());
        let cut = HistoryEvent {
            outcome: HistOutcome::Failed(FsError::Disk(IoError::PowerCut)),
            ..ok.clone()
        };
        assert!(!cut.acked());
        assert!(cut.power_cut());
        let other =
            HistoryEvent { outcome: HistOutcome::Failed(FsError::NotFound("/f".into())), ..ok };
        assert!(!other.acked());
        assert!(!other.power_cut());
    }

    /// Satellite regression for the crash oracle's ground truth: an
    /// operation that fails with [`FsError::Disk`]`(PowerCut)` must
    /// never read as acked in the recorded history — and the history's
    /// acked count must agree exactly with the successes the caller
    /// observed. Asserted at queue depth 1 and 8, where one command or
    /// several are at the device when the cut lands.
    #[test]
    fn power_cut_errors_are_never_acked_in_history() {
        for qd in [1u32, 8] {
            let (events, ok_ops, err_ops) = run_power_cut_leg(qd);
            let cuts = events.iter().filter(|e| e.power_cut()).count();
            assert!(cuts > 0, "qd={qd}: the cut must surface in recorded operations");
            for e in &events {
                if e.power_cut() {
                    assert!(!e.acked(), "qd={qd}: a power-cut op must not appear acked: {e:?}");
                }
            }
            let acked = events.iter().filter(|e| e.acked()).count() as u64;
            let failed = events.len() as u64 - acked;
            assert_eq!(acked, ok_ops, "qd={qd}: history acks must match observed successes");
            assert_eq!(failed, err_ops, "qd={qd}: history failures must match observed errors");
        }
    }

    /// Drives reads through a client handle into a disk that power-cuts
    /// mid-run; returns (history, Ok results seen, Err results seen).
    fn run_power_cut_leg(queue_depth: u32) -> (Vec<HistoryEvent>, u64, u64) {
        use crate::{DataMode, FileSystem, FsConfig};
        use cnp_disk::{compose_device, CLook, DiskModel, FaultPlan, Hp97560};
        use cnp_layout::{FileKind, Layout, LfsLayout, LfsParams};
        use cnp_sim::Sim;

        let sim = Sim::new(17 + queue_depth as u64);
        let h = sim.handle();
        let models: Vec<Box<dyn DiskModel>> = vec![Box::new(Hp97560::new())];
        let plan = FaultPlan { power_cut_at_op: Some(120), ..FaultPlan::default() };
        let (driver, _) =
            compose_device(&h, "pc0", models, None, Box::new(CLook), plan, None, None);
        let layout = Layout::Lfs(LfsLayout::new(&h, driver, LfsParams::default()));
        let cfg = FsConfig {
            // A tiny cache forces evictions, so reads keep touching the
            // (dying) disk instead of hitting warm frames.
            cache: cnp_cache::CacheConfig {
                block_size: 4096,
                mem_bytes: 8 * 4096,
                nvram_bytes: None,
            },
            queue_depth,
            data_mode: DataMode::Simulated,
            ..FsConfig::default()
        };
        let fs = FileSystem::new(&h, layout, cfg);
        sim.block_on("power-cut-leg", async move {
            fs.format().await.unwrap();
            let log = HistoryLog::new();
            let cfs = fs.client(0).with_history(log.clone());
            let ino = cfs.create("/victim", FileKind::Regular).await.unwrap();
            cfs.write(ino, 0, 32 * 4096, None).await.unwrap();
            fs.sync().await.unwrap();
            let (mut ok_ops, mut err_ops) = (0u64, 0u64);
            // Cold re-reads march the disk toward its cut.
            for round in 0..8u64 {
                for blk in 0..32u64 {
                    match cfs.read(ino, blk * 4096, 4096).await {
                        Ok(_) => ok_ops += 1,
                        Err(e) => {
                            assert!(
                                e.is_power_cut(),
                                "round {round}: only the cut may fail reads: {e}"
                            );
                            err_ops += 1;
                        }
                    }
                }
            }
            // The creation burst went through the handle too.
            ok_ops += 2; // create + write above.
            let out = (log.take(), ok_ops, err_ops);
            fs.shutdown();
            out
        })
    }

    #[test]
    fn log_is_shared_between_clones() {
        let log = HistoryLog::new();
        let log2 = log.clone();
        log.record(HistoryEvent {
            client: 1,
            invoke_ns: 0,
            ack_ns: 1,
            op: HistOp::Close { ino: 3 },
            outcome: HistOutcome::Ok,
        });
        assert_eq!(log2.len(), 1);
        let drained = log2.take();
        assert_eq!(drained.len(), 1);
        assert!(log.is_empty());
    }
}
