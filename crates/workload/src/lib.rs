//! # cnp-workload — scenario generation and the multi-client engine
//!
//! The paper's framework serves one artifact to both simulation and
//! real experiments, but its evaluation drives a single closed-loop
//! client. This crate is the scale + scenario-diversity front end: a
//! seeded generator for five workload families beyond the Sprite-like
//! trace presets —
//!
//! * [`WorkloadKind::Zipf`] — Zipfian hot-set small I/O,
//! * [`WorkloadKind::Mail`] — mail-spool create/append/unlink churn,
//! * [`WorkloadKind::Build`] — build-tree metadata storms,
//! * [`WorkloadKind::Scan`] — large sequential scans + log append,
//! * [`WorkloadKind::Web`] — a mixed "web serve" profile —
//!
//! and [`run_clients`], which paces each program by its think times and
//! hands the clients to `cnp_trace`'s one runner: N concurrent
//! closed-loop clients on one shared [`cnp_core::FileSystem`], each a
//! deterministic `cnp-sim` task with its own namespace shard,
//! interleaving at the engine's block-I/O await points.
//!
//! Scenarios also project onto plain trace records
//! ([`Scenario::to_trace_records`]), so the whole existing `cnp-trace`
//! replay/codec machinery applies to them unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runner;
mod scenario;

pub use runner::run_clients;
pub use scenario::{ClientOp, ClientPlan, Scenario, WorkloadKind, WORKLOADS};
