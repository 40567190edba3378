//! Statistics primitives used by the plug-in statistics objects.

mod interval;
mod timeweighted;

pub use interval::{IntervalReporter, IntervalRow};
pub use timeweighted::TimeWeighted;
