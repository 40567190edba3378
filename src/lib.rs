//! # cut-and-paste — integrating simulators and file systems
//!
//! A Rust reproduction of Bosch & Mullender, *"Cut-and-Paste
//! file-systems: integrating simulators and file-systems"* (USENIX 1996
//! Annual Technical Conference).
//!
//! One component framework instantiates both an **off-line trace-driven
//! file-system simulator** (Patsy: [`patsy`]) and an **on-line file
//! system** (PFS: [`pfs`]) from the same code:
//!
//! * [`sim`] — deterministic discrete-event kernel (threads, virtual
//!   time, events, statistics);
//! * [`disk`] — HP 97560 disk model, SCSI-2 bus, scheduled drivers;
//! * [`cache`] — block cache with pluggable replacement + flush policies;
//! * [`layout`] — segmented LFS (+ cleaner), FFS-like, and sim-guess
//!   storage layouts;
//! * [`core`] — the abstract client interface and file-system engine;
//! * [`trace`] — Sprite-like workload generation, codecs, and replay;
//! * [`fault`] — deterministic fault injection, crash-state capture,
//!   and recovery verification (fsck walker, NVRAM replay);
//! * [`workload`] — seeded scenario generation (Zipf / mail / build /
//!   scan / web) and the closed-loop multi-client engine;
//! * [`check`] — bounded crash-point model checking (every op boundary
//!   × every legal retire prefix of the in-flight write batch) and a
//!   linearizability witness search over multi-client histories;
//! * [`obs`] — virtual-time span tracing (Chrome trace_event export),
//!   the unified metrics registry, and the shared histogram type.
//!
//! See `DESIGN.md` for the full inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.

pub use cnp_cache as cache;
pub use cnp_check as check;
pub use cnp_core as core;
pub use cnp_disk as disk;
pub use cnp_fault as fault;
pub use cnp_layout as layout;
pub use cnp_obs as obs;
pub use cnp_patsy as patsy;
pub use cnp_pfs as pfs;
pub use cnp_sim as sim;
pub use cnp_trace as trace;
pub use cnp_workload as workload;
