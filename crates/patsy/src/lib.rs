//! # cnp-patsy — the off-line file-system simulator instantiation
//!
//! Wires the cut-and-paste components into the paper's simulator (§4):
//! simulated HP 97560 disks on SCSI-2 buses behind scheduled drivers, a
//! segmented LFS on every file system, the block cache with the
//! experiment's flush policy, and trace-replay clients — all on virtual
//! time. The experiment harness reruns the §5.1 write-saving study;
//! [`rigs::RIGS`] is one table of Figures 2–5 and the A1, A4–A6
//! ablations (A3, the schedulers, is `sweep-qd`; there is no A2), each
//! with the claims it judges on the rows it prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cli;
pub mod clients;
pub mod crash;
pub mod experiment;
pub mod qdsweep;
pub mod rigs;
pub mod serve;

pub use clients::{
    derive_shards, format_client_sweep, format_client_sweep_json, run_client_cell,
    run_client_sweep, ClientCell, ClientSweepConfig,
};
pub use cnp_fault::{Policy, POLICIES};
pub use crash::{
    format_crash_sweep, format_crash_sweep_json, run_crash_sweep, sweep_cells, CrashCell,
    CrashConfig,
};
pub use experiment::{run_experiment, ExperimentConfig, ExperimentResult};
pub use qdsweep::{run_depth_cell, run_qd_sweep, sweep_queue_depth, trace_footprint, QdCell};
pub use serve::{
    format_serve_bench, format_serve_bench_json, run_serve_bench, run_serve_cell, ServeBenchConfig,
    ServeCell, DEFAULT_RSIZE,
};
