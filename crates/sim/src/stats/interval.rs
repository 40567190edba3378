//! Interval reporting: the paper's general simulation class shows
//! measurements "every 15 minutes of simulation time and of the overall
//! simulation". This module accumulates per-interval rows.

use crate::time::{SimDuration, SimTime};

/// One reporting interval's aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRow {
    /// Interval start time.
    pub start: SimTime,
    /// Number of samples recorded in the interval.
    pub count: u64,
    /// Mean sample value over the interval.
    pub mean: f64,
    /// Maximum sample value over the interval.
    pub max: f64,
}

/// Accumulates samples into fixed-width simulation-time intervals.
#[derive(Debug, Clone)]
pub struct IntervalReporter {
    width: SimDuration,
    rows: Vec<IntervalRow>,
    cur_start: SimTime,
    cur_count: u64,
    cur_sum: f64,
    cur_max: f64,
}

impl IntervalReporter {
    /// Creates a reporter with 15-minute intervals (the paper's default).
    pub fn paper_default() -> Self {
        Self::new(SimDuration::from_secs(15 * 60))
    }

    /// Creates a reporter with a custom interval width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "interval width must be positive");
        IntervalReporter {
            width,
            rows: Vec::new(),
            cur_start: SimTime::ZERO,
            cur_count: 0,
            cur_sum: 0.0,
            cur_max: 0.0,
        }
    }

    /// Records a sample observed at time `now`.
    pub fn record(&mut self, now: SimTime, value: f64) {
        self.roll_to(now);
        self.cur_count += 1;
        self.cur_sum += value;
        if value > self.cur_max {
            self.cur_max = value;
        }
    }

    /// Closes intervals up to (not including) the one containing `now`.
    fn roll_to(&mut self, now: SimTime) {
        while now >= self.cur_start + self.width {
            self.flush_current();
            self.cur_start += self.width;
        }
    }

    fn flush_current(&mut self) {
        self.rows.push(IntervalRow {
            start: self.cur_start,
            count: self.cur_count,
            mean: if self.cur_count == 0 { 0.0 } else { self.cur_sum / self.cur_count as f64 },
            max: self.cur_max,
        });
        self.cur_count = 0;
        self.cur_sum = 0.0;
        self.cur_max = 0.0;
    }

    /// Finalizes at `end` and returns every interval row.
    pub fn finish(mut self, end: SimTime) -> Vec<IntervalRow> {
        self.roll_to(end);
        self.flush_current();
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn samples_land_in_their_intervals() {
        let mut r = IntervalReporter::new(SimDuration::from_secs(60));
        r.record(t(10), 1.0);
        r.record(t(20), 3.0);
        r.record(t(70), 10.0);
        let rows = r.finish(t(130));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].count, 2);
        assert!((rows[0].mean - 2.0).abs() < 1e-9);
        assert_eq!(rows[1].count, 1);
        assert!((rows[1].mean - 10.0).abs() < 1e-9);
        assert_eq!(rows[2].count, 0);
    }

    #[test]
    fn empty_intervals_emitted() {
        let mut r = IntervalReporter::new(SimDuration::from_secs(10));
        r.record(t(35), 5.0);
        let rows = r.finish(t(40));
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.iter().map(|r| r.count).sum::<u64>(), 1);
        assert_eq!(rows[3].count, 1);
    }

    #[test]
    fn paper_default_is_15_minutes() {
        let r = IntervalReporter::paper_default();
        assert_eq!(r.width, SimDuration::from_secs(900));
    }

    #[test]
    fn max_tracked_per_interval() {
        let mut r = IntervalReporter::new(SimDuration::from_secs(60));
        r.record(t(1), 5.0);
        r.record(t(2), 9.0);
        r.record(t(3), 1.0);
        let rows = r.finish(t(60));
        assert_eq!(rows[0].max, 9.0);
    }
}
