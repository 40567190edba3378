//! # cnp-fault — deterministic fault injection and crash recovery
//!
//! The paper's central claim is that one component framework
//! instantiates both the off-line simulator (Patsy) and the on-line
//! file system (PFS), so experiments that would be destructive on-line
//! run off-line at simulation speed — and nothing is more destructive
//! than a crash. This crate turns crashes into a first-class, seeded,
//! replayable scenario family:
//!
//! * [`plan`] — a builder deriving deterministic [`cnp_disk::FaultPlan`]
//!   schedules (power cuts at operation N or virtual time T, torn
//!   writes, latent sector errors, transient bus faults) from a seed;
//! * [`faulty`] — [`Stack`], the one builder of a full simulated stack
//!   (disk → driver → layout → engine): healthy, executing a fault plan,
//!   or powered on from a crash image;
//! * [`mod@check`] — an fsck-style consistency walker over the abstract
//!   [`cnp_layout::StorageLayout`] interface (LFS, FFS, sim-guess):
//!   verify inode/dirent/block-map invariants, then repair what a crash
//!   broke;
//! * [`crash`] — crash-state capture (on-disk image at the cut point +
//!   whatever the flush policy keeps in NVRAM), remount/recover,
//!   NVRAM replay, and loss accounting: the pieces `cnp-check`'s crash
//!   cell composes into one verification.
//!
//! Everything is pure data + seeded RNG, so a crash experiment is a
//! deterministic function of (configuration, seed) like every other
//! experiment in the framework.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod crash;
pub mod faulty;
pub mod plan;

pub use check::{check, repair, FsckReport, RepairReport, Violation};
pub use crash::{
    apply_staged_to_image, recover_and_check, recovered_sizes, replay_nvram, CrashState,
    LayoutKind, LossReport, Policy, RecoveryOutcome, POLICIES,
};
pub use faulty::Stack;
pub use plan::{cut_points, FaultPlanBuilder};
