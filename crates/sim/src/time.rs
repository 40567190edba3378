//! Simulated time: `SimTime` instants and `SimDuration` spans.
//!
//! Both are nanosecond-resolution `u64` newtypes. A `u64` of nanoseconds
//! covers more than 580 years of virtual time, far beyond the 24-hour
//! traces the paper replays.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, measured from simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Returns the number of nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the number of whole microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the number of whole milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns `self + d`, saturating at `SimTime::MAX`.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `n` nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// Creates a duration of `n` microseconds.
    pub const fn from_micros(n: u64) -> Self {
        SimDuration(n * 1_000)
    }

    /// Creates a duration of `n` milliseconds.
    pub const fn from_millis(n: u64) -> Self {
        SimDuration(n * 1_000_000)
    }

    /// Creates a duration of `n` seconds.
    pub const fn from_secs(n: u64) -> Self {
        SimDuration(n * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating on overflow.
    ///
    /// Negative or NaN inputs are clamped to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos as u64)
        }
    }

    /// Creates a duration from fractional milliseconds, clamping like
    /// [`SimDuration::from_secs_f64`].
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Returns the length in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the length in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the length in whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the length as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the length as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `self - other`, saturating at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns true if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_nanos(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_nanos(self.0))
    }
}

/// Formats a nanosecond count with a human-readable unit.
fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.3}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.3}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.3}us", n as f64 / 1e3)
    } else {
        format!("{}ns", n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_nanos(1_500).as_micros(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        let u = t + SimDuration::from_millis(5);
        assert_eq!(u - t, SimDuration::from_millis(5));
        assert_eq!(u - SimDuration::from_millis(15), SimTime::ZERO);
        assert_eq!(SimDuration::from_millis(4) * 3, SimDuration::from_millis(12));
        assert_eq!(SimDuration::from_millis(12) / 4, SimDuration::from_millis(3));
    }

    #[test]
    fn saturating_ops() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_nanos(4));
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_secs(1)), SimTime::MAX);
        assert_eq!(
            SimDuration::from_nanos(3).saturating_sub(SimDuration::from_nanos(7)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn float_conversions() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert!((SimDuration::from_millis_f64(2.5).as_secs_f64() - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }
}
