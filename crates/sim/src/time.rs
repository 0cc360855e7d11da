//! Simulation time and duration newtypes.
//!
//! Simulated time is kept in integer microseconds so that event ordering is
//! exact and replays are bit-for-bit reproducible. [`SimTime`] is a point on
//! the simulated timeline; [`SimDuration`] is a span between two points.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, measured in integer microseconds from the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use aqua_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
/// assert_eq!(t.as_millis(), 1_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in integer microseconds.
///
/// # Examples
///
/// ```
/// use aqua_sim::SimDuration;
///
/// let d = SimDuration::from_millis(250) * 4;
/// assert_eq!(d.as_secs_f64(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// A time far beyond any simulated horizon, usable as a sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates a time from fractional seconds, rounding to microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "time must be finite and non-negative"
        );
        SimTime((s * 1e6).round() as u64)
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((s * 1e6).round() as u64)
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Returns the span from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(
            self.0 >= rhs.0,
            "subtracting a later time from an earlier one"
        );
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_units() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert_eq!(SimTime::from_secs_f64(0.25).as_millis(), 250);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(300) + SimDuration::from_millis(700);
        assert_eq!(d.as_secs_f64(), 1.0);
        assert_eq!((d - SimDuration::from_secs(2)), SimDuration::ZERO);
        assert_eq!(d * 3, SimDuration::from_secs(3));
        assert_eq!(d / 4, SimDuration::from_millis(250));
    }

    #[test]
    fn time_duration_interaction() {
        let t0 = SimTime::from_secs(1);
        let t1 = t0 + SimDuration::from_millis(500);
        assert_eq!(t1 - t0, SimDuration::from_millis(500));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t1.saturating_since(t0), SimDuration::from_millis(500));
    }

    #[test]
    fn ordering_and_extremes() {
        assert!(SimTime::ZERO < SimTime::MAX);
        assert_eq!(
            SimTime::from_secs(3).max(SimTime::from_secs(5)),
            SimTime::from_secs(5)
        );
        assert_eq!(
            SimTime::from_secs(3).min(SimTime::from_secs(5)),
            SimTime::from_secs(3)
        );
    }

    #[test]
    fn saturating_add_does_not_wrap() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_seconds() {
        let _ = SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(1).to_string(), "0.000001s");
    }
}
