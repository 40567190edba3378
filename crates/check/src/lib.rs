//! # cnp-check — bounded crash-point model checking and a
//! linearizability oracle
//!
//! The paper's premise is that pasting a simulator into a file system
//! makes behavior *inspectable and repeatable*; this crate turns that
//! determinism into an exhaustive verifier instead of a sampled one:
//!
//! * [`cell`] — one crash cell as a pure function, in two halves: the
//!   doomed half replays a bounded workload prefix and crashes
//!   (gracefully or with a disk-level power cut after which the first
//!   writes the disk serves still retire); the verification powers
//!   the crash state on once (recovery, NVRAM replay, fsck + repair) in
//!   a simulation of its own; acked losses are accounted per cell;
//! * [`enumerate`] — every op boundary × every legal retire prefix,
//!   across layout × flush-policy cells, with delta-debugging
//!   minimization of failures — fanned across OS threads with an
//!   order-restoring merge, so the report is byte-identical at every
//!   thread count, running each boundary's prefix at most twice and
//!   verifying each distinct crash state once;
//! * [`cache`] — incremental checking: cells keyed by a content hash
//!   of `(CellSpec, records, CutSpec)` in a persisted, versioned cache
//!   file, so unchanged work is replayed instead of re-simulated;
//! * [`repro`] — every failure as a self-contained one-line blob that
//!   `patsy check --repro` replays with no other inputs;
//! * [`model`] + [`linearize`] — the flat sequential model and the
//!   memoized Wing–Gong witness search over recorded multi-client
//!   *(invoke, ack)* histories;
//! * [`linrun`] — the history leg: run a multi-client scenario with
//!   recording on and demand a sequential witness.
//!
//! The oracle: every crash point must recover fsck-clean, and
//! battery-backed (NVRAM) configurations must lose **zero**
//! acknowledged writes at every crash point: every crash state carries
//! the battery-backed staging buffer, whether or not the cut killed
//! the disk first. Volatile policies trade a bounded loss window for
//! performance — the report shows their losses without punishing them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cell;
pub mod enumerate;
pub mod linearize;
pub mod linrun;
pub mod model;
pub mod repro;

pub use cache::{cell_key, spec_fingerprint, CellCache, PrefixHashes};
pub use cell::{
    run_cell, run_cell_at, run_sampled_cell, CellOutcome, CellSpec, CellViolation, CutSpec,
    RecoveryCounts,
};
pub use enumerate::{
    format_check_report, minimize, run_check_with, CheckConfig, CheckOptions, CheckProgress,
    CheckReport, CheckStats, Failure, PolicyRow,
};
pub use linearize::{check_history, LinConfig, LinOutcome};
pub use linrun::{
    format_history_report, record_history, run_history_check, HistoryCheckConfig,
    HistoryCheckReport,
};
pub use model::FlatModel;
pub use repro::Repro;
