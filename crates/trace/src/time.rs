//! Integer-microsecond time types shared by traces and the simulator.
//!
//! All simulation time is kept in integer microseconds to make runs
//! deterministic and hashable; conversion to `f64` milliseconds happens
//! only at the measurement boundary.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute instant on the simulated timeline, in microseconds since
/// the start of the trace.
///
/// # Examples
///
/// ```
/// use faas_trace::{TimeDelta, TimePoint};
///
/// let t = TimePoint::from_millis(5) + TimeDelta::from_millis(3);
/// assert_eq!(t.as_micros(), 8_000);
/// assert_eq!(t - TimePoint::ZERO, TimeDelta::from_millis(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimePoint(u64);

/// A span of simulated time, in microseconds.
///
/// # Examples
///
/// ```
/// use faas_trace::TimeDelta;
///
/// let d = TimeDelta::from_secs(2);
/// assert_eq!(d.as_millis_f64(), 2000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

impl TimePoint {
    /// The trace origin.
    pub const ZERO: TimePoint = TimePoint(0);

    /// Creates a time point from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// Creates a time point from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// Creates a time point from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// Raw microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the origin as a float (measurement boundary).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the origin as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The delta from `earlier` to `self`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: TimePoint) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }
}

impl TimeDelta {
    /// The empty span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Creates a delta from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// Creates a delta from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// Creates a delta from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// Creates a delta from whole minutes.
    pub const fn from_minutes(m: u64) -> Self {
        Self(m * 60_000_000)
    }

    /// Creates a delta from float milliseconds, rounding to microseconds
    /// and saturating negative values to zero.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the operand is clamped non-negative and the cast saturates"
    )]
    pub fn from_millis_f64(ms: f64) -> Self {
        Self((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies the span by a non-negative factor, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the factor is asserted non-negative and the cast saturates"
    )]
    pub fn scale(self, factor: f64) -> Self {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        Self((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<TimeDelta> for TimePoint {
    type Output = TimePoint;
    fn add(self, rhs: TimeDelta) -> TimePoint {
        TimePoint(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for TimePoint {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for TimePoint {
    type Output = TimePoint;
    fn sub(self, rhs: TimeDelta) -> TimePoint {
        TimePoint(self.0.checked_sub(rhs.0).expect("TimePoint underflow"))
    }
}

impl Sub for TimePoint {
    type Output = TimeDelta;
    fn sub(self, rhs: TimePoint) -> TimeDelta {
        TimeDelta(self.0.checked_sub(rhs.0).expect("TimePoint underflow"))
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.checked_sub(rhs.0).expect("TimeDelta underflow"))
    }
}

impl SubAssign for TimeDelta {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 = self.0.checked_sub(rhs.0).expect("TimeDelta underflow");
    }
}

impl fmt::Display for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(TimePoint::from_millis(1).as_micros(), 1000);
        assert_eq!(TimePoint::from_secs(1).as_millis_f64(), 1000.0);
        assert_eq!(TimeDelta::from_minutes(2).as_secs_f64(), 120.0);
    }

    #[test]
    fn arithmetic() {
        let a = TimePoint::from_micros(100);
        let b = a + TimeDelta::from_micros(50);
        assert_eq!(b - a, TimeDelta::from_micros(50));
        assert_eq!(b - TimeDelta::from_micros(150), TimePoint::ZERO);
    }

    #[test]
    fn saturating_since() {
        let early = TimePoint::from_micros(10);
        let late = TimePoint::from_micros(30);
        assert_eq!(late.saturating_since(early), TimeDelta::from_micros(20));
        assert_eq!(early.saturating_since(late), TimeDelta::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn point_sub_underflow_panics() {
        let _ = TimePoint::from_micros(1) - TimePoint::from_micros(2);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(
            TimeDelta::from_micros(3).scale(0.5),
            TimeDelta::from_micros(2)
        );
        assert_eq!(
            TimeDelta::from_micros(100).scale(1.5),
            TimeDelta::from_micros(150)
        );
        assert_eq!(TimeDelta::from_micros(7).scale(0.0), TimeDelta::ZERO);
    }

    #[test]
    fn from_millis_f64_saturates_negative() {
        assert_eq!(TimeDelta::from_millis_f64(-1.0), TimeDelta::ZERO);
        assert_eq!(
            TimeDelta::from_millis_f64(1.5),
            TimeDelta::from_micros(1500)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(TimePoint::from_millis(5).to_string(), "5.000ms");
        assert_eq!(TimeDelta::from_micros(1500).to_string(), "1.500ms");
    }

    #[test]
    fn ordering() {
        assert!(TimePoint::from_micros(1) < TimePoint::from_micros(2));
        assert!(TimeDelta::from_millis(1) > TimeDelta::from_micros(1));
    }
}
