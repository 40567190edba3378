//! Observability for the cut-and-paste stack: the shared histogram
//! type, a unified metrics snapshot, and a virtual-time span tracer.
//!
//! The paper's methodology is *measurement* — cut a component out of
//! the simulator, paste it into the file system, compare the figures —
//! so the measurement machinery itself is a first-class component.
//! This crate sits below `cnp-sim` (it depends on nothing) and offers:
//!
//! * [`Histogram`] — the fixed-bucket histogram every layer shares
//!   (replay latencies, device service times, per-client latencies);
//! * [`MetricsSnapshot`] — each layer's counters, gauges and histogram
//!   summaries under namespaced keys in one sorted-key structure with
//!   deterministic serialization;
//! * [`trace`] — `span_enter`/`span_exit`/`instant` structured events
//!   stamped with *simulated* time (the caller supplies nanoseconds),
//!   exported as Chrome `trace_event` JSON. Because timestamps are
//!   virtual and the executor is deterministic, two seeded runs emit
//!   byte-identical trace files — a diff of two traces is a regression
//!   oracle.
//!
//! Timestamps everywhere in this crate are plain `u64` nanoseconds so
//! the crate stays dependency-free; `cnp-sim` layers its `SimTime`
//! sugar on top.

pub mod chrome;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod trace;

pub use histogram::Histogram;
pub use json::Json;
pub use metrics::{Metric, MetricsSnapshot};
