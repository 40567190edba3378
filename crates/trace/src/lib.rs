//! # cnp-trace — work loads and traces
//!
//! The paper's trace machinery (§4): trace records and codecs, the
//! probabilistic hand-crafted workload generator with Sprite-like trace
//! personalities (the published Sprite traces are unavailable — see
//! DESIGN.md §5 for the substitution argument), and the replay engine
//! mapping records onto the abstract client interface with per-client
//! threads and the 15-minute interval measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
pub mod codec;
mod record;
mod replay;
pub mod sprite;

pub use adapter::records_from_streams;
pub use record::{bounded_prefix, PathInterner, TraceOp, TraceRecord};
pub use replay::{drive_clients, replay, AckedFile, ClientReport, Pace, RunOptions, RunReport};
pub use sprite::{
    preset, trace_1a, trace_1b, trace_2a, trace_2b, trace_5, SpriteParams, SyntheticSprite, PRESETS,
};
