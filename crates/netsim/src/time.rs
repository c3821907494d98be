//! Simulated time: nanosecond-resolution instants and durations.
//!
//! The simulator never consults the wall clock; [`Time`] is a count of
//! nanoseconds since the start of the run. Keeping time in integer
//! nanoseconds (rather than floats) makes event ordering exact and runs
//! reproducible.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; used as "never".
    pub const MAX: Time = Time(u64::MAX);

    /// Constructs a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`; saturates to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference between two instants.
    pub fn checked_since(self, earlier: Time) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration)
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The longest representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// From raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// From fractional seconds (for configuration convenience; rounds to
    /// the nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Duration {
        assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be finite and non-negative"
        );
        // `as` saturates: a duration past u64::MAX ns (584 years) clamps.
        #[allow(clippy::cast_possible_truncation)]
        let nanos = (s * 1e9).round() as u64;
        Duration(nanos)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, truncated.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies by an integer factor, saturating at the maximum.
    pub const fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// Divides by an integer divisor.
    pub const fn div(self, divisor: u64) -> Duration {
        Duration(self.0 / divisor)
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.1}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(Duration::from_micros(64).as_nanos(), 64_000);
        assert_eq!(Duration::from_millis(64).as_nanos(), 64_000_000);
        assert_eq!(Duration::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(Duration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_nanos(1_000) + Duration::from_nanos(500);
        assert_eq!(t.as_nanos(), 1_500);
        assert_eq!(t.saturating_since(Time::from_nanos(400)).as_nanos(), 1_100);
        assert_eq!(
            Time::from_nanos(5).saturating_since(Time::from_nanos(10)),
            Duration::ZERO
        );
        assert_eq!(
            Time::from_nanos(5).checked_since(Time::from_nanos(10)),
            None
        );
    }

    #[test]
    fn saturation_at_extremes() {
        assert_eq!(Time::MAX + Duration::from_secs(1), Time::MAX);
        assert_eq!(Duration::MAX + Duration::from_secs(1), Duration::MAX);
        assert_eq!(
            Duration::from_secs(1).saturating_mul(u64::MAX),
            Duration::MAX
        );
    }

    #[test]
    fn ordering() {
        assert!(Time::from_nanos(1) < Time::from_nanos(2));
        assert!(Duration::from_micros(64) < Duration::from_micros(128));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(Duration::from_nanos(12).to_string(), "12ns");
        assert_eq!(Duration::from_micros(64).to_string(), "64.0us");
        assert_eq!(Duration::from_millis(64).to_string(), "64.00ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_float_duration_panics() {
        let _ = Duration::from_secs_f64(-1.0);
    }
}
