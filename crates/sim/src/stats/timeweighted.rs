//! Time-weighted statistics: track a level (queue length, dirty bytes,
//! NVRAM occupancy) over simulated time and report its time-average.

use crate::time::{SimDuration, SimTime};

/// Tracks a piecewise-constant value over simulation time.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    start: SimTime,
    max: f64,
    min: f64,
}

impl TimeWeighted {
    /// Starts tracking at `now` with an initial value.
    pub fn new(now: SimTime, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            last_change: now,
            weighted_sum: 0.0,
            start: now,
            max: initial,
            min: initial,
        }
    }

    /// Sets the value at time `now`.
    pub fn set(&mut self, now: SimTime, v: f64) {
        let span = now.saturating_since(self.last_change);
        self.weighted_sum += self.value * span.as_secs_f64();
        self.value = v;
        self.last_change = now;
        if v > self.max {
            self.max = v;
        }
        if v < self.min {
            self.min = v;
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Maximum value observed.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Minimum value observed.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Time-average over `[start, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let total: SimDuration = now.saturating_since(self.start);
        if total.is_zero() {
            return self.value;
        }
        let tail = self.value * now.saturating_since(self.last_change).as_secs_f64();
        (self.weighted_sum + tail) / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn constant_value_mean() {
        let tw = TimeWeighted::new(t(0), 3.0);
        assert!((tw.mean(t(100)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn step_function_mean() {
        let mut tw = TimeWeighted::new(t(0), 0.0);
        tw.set(t(50), 10.0);
        // Half the window at 0, half at 10 => mean 5.
        assert!((tw.mean(t(100)) - 5.0).abs() < 1e-9);
        assert_eq!(tw.max(), 10.0);
        assert_eq!(tw.min(), 0.0);
    }

    #[test]
    fn zero_span_mean_is_current_value() {
        let tw = TimeWeighted::new(t(5), 42.0);
        assert_eq!(tw.mean(t(5)), 42.0);
    }
}
