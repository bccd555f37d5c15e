//! Virtual time points and durations.
//!
//! Time is measured in integer microseconds from the start of the simulation.
//! Integer arithmetic keeps event ordering exact: two events scheduled at the
//! same instant are broken by insertion order, never by floating-point noise.

use impress_json::json_struct;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);
json_struct!(SimTime(u64));

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);
json_struct!(SimDuration(u64));

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; used as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Raw microseconds since simulation start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`. Saturates at zero rather than
    /// panicking so that trace post-processing never underflows.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000)
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Hours, as a float.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3.6e9
    }

    /// Scale this duration by a non-negative factor (clamped at zero).
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: SimDuration) -> Self {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 3600.0 {
            write!(f, "{:.2}h", s / 3600.0)
        } else if s >= 60.0 {
            write!(f, "{:.2}m", s / 60.0)
        } else {
            write!(f, "{:.3}s", s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_micros(5_000_000);
        let d = SimDuration::from_secs(3);
        assert_eq!((t + d).as_micros(), 8_000_000);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(20);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a).as_micros(), 10);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
    }

    #[test]
    fn negative_and_nan_float_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-4.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn hours_reporting() {
        let d = SimDuration::from_hours(27) + SimDuration::from_mins(42);
        assert!((d.as_hours_f64() - 27.7).abs() < 1e-9);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_hours(2).to_string(), "2.00h");
        assert_eq!(SimDuration::from_mins(2).to_string(), "2.00m");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn saturating_add_does_not_wrap() {
        let d = SimDuration::from_micros(u64::MAX);
        assert_eq!(
            d.saturating_add(SimDuration::from_secs(1)).as_micros(),
            u64::MAX
        );
        let t = SimTime::MAX;
        assert_eq!(t + SimDuration::from_secs(1), SimTime::MAX);
    }
}
