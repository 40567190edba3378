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

/// Accumulates samples into fixed-width simulation-time intervals, each
/// sample in the interval its operation *started* in, whatever order
/// the samples arrive in.
#[derive(Debug, Clone)]
pub struct IntervalReporter {
    width: SimDuration,
    /// `(count, sum, max)` per interval, indexed by `start / width`.
    slots: Vec<(u64, f64, f64)>,
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
        IntervalReporter { width, slots: Vec::new() }
    }

    /// Records a sample of an operation that started at `start`.
    pub fn record(&mut self, start: SimTime, value: f64) {
        let (count, sum, max) = self.slot(start);
        *count += 1;
        *sum += value;
        if value > *max {
            *max = value;
        }
    }

    /// The slot of the interval containing `at`, padding the list to it.
    fn slot(&mut self, at: SimTime) -> &mut (u64, f64, f64) {
        let i = (at.as_nanos() / self.width.as_nanos()) as usize;
        if self.slots.len() <= i {
            self.slots.resize(i + 1, (0, 0.0, 0.0));
        }
        &mut self.slots[i]
    }

    /// Pads the list to the interval containing `end`.
    pub fn pad_to(&mut self, end: SimTime) {
        self.slot(end);
    }

    /// Adds `other`'s samples interval by interval.
    ///
    /// # Panics
    ///
    /// Panics if the two widths differ.
    pub fn merge(&mut self, other: &IntervalReporter) {
        assert_eq!(self.width, other.width, "cannot merge intervals of different widths");
        if self.slots.len() < other.slots.len() {
            self.slots.resize(other.slots.len(), (0, 0.0, 0.0));
        }
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            a.0 += b.0;
            a.1 += b.1;
            a.2 = a.2.max(b.2);
        }
    }

    /// Every interval row, earliest first.
    pub fn rows(&self) -> Vec<IntervalRow> {
        let mut start = SimTime::ZERO;
        let mut rows = Vec::with_capacity(self.slots.len());
        for &(count, sum, max) in &self.slots {
            let mean = if count == 0 { 0.0 } else { sum / count as f64 };
            rows.push(IntervalRow { start, count, mean, max });
            start += self.width;
        }
        rows
    }

    /// Finalizes at `end` and returns every interval row.
    pub fn finish(mut self, end: SimTime) -> Vec<IntervalRow> {
        self.pad_to(end);
        self.rows()
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

    #[test]
    fn a_sample_lands_in_the_interval_its_op_started_in() {
        // Client B starts at 901 s and completes first; client A's op,
        // started at 899 s, still belongs to interval 0.
        let mut r = IntervalReporter::paper_default();
        r.record(t(901), 1.0);
        r.record(t(899), 2.0);
        let counts: Vec<u64> = r.finish(t(901)).iter().map(|r| r.count).collect();
        assert_eq!(counts, [1, 1]);
    }

    #[test]
    fn merging_adds_interval_by_interval() {
        let mut a = IntervalReporter::new(SimDuration::from_secs(10));
        a.record(t(1), 1.0);
        let mut b = IntervalReporter::new(SimDuration::from_secs(10));
        b.record(t(2), 3.0);
        b.record(t(25), 7.0);
        a.merge(&b);
        let rows = a.finish(t(5));
        assert_eq!(rows.iter().map(|r| r.count).collect::<Vec<_>>(), [2, 0, 1]);
        assert!((rows[0].mean - 2.0).abs() < 1e-9);
        assert_eq!((rows[0].max, rows[2].max), (3.0, 7.0));
        assert_eq!(rows[2].start, t(20));
    }
}
