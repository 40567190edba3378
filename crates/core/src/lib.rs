//! # cnp-core — the cut-and-paste framework core
//!
//! The paper's abstract client interface, global file table, typed
//! instantiated files, and the engine wiring cache, storage layout and
//! disk driver together (§2). Instantiate it with a virtual clock and
//! simulated payloads and you have Patsy; instantiate it with a
//! file-backed driver that stores real bytes and you have PFS — same
//! code, same virtual clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod fs;
pub mod history;

pub use config::{DataMode, FsConfig};
pub use error::{FsError, FsResult};
pub use fs::{ClientFs, FileSystem, FsStats, NvramSnapshot};
pub use history::{HistOp, HistOutcome, HistoryEvent, HistoryLog};
