//! Virtual time.
//!
//! All kernel-path costs in the paper are quoted in microseconds with
//! sub-microsecond terms (e.g. the 0.25 µs-per-node EDF queue walk of
//! Table 1), so virtual time is kept in integer *nanoseconds*. Integer
//! arithmetic keeps every experiment bit-for-bit reproducible.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant of virtual time, measured in nanoseconds since boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The boot instant.
    pub const ZERO: Time = Time(0);

    /// The largest representable instant; used as an "infinitely far"
    /// sentinel for idle kernels.
    pub const MAX: Time = Time(u64::MAX);

    /// Builds an instant from raw nanoseconds since boot.
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns)
    }

    /// Builds an instant from microseconds since boot.
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Builds an instant from milliseconds since boot.
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Raw nanoseconds since boot.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Whole microseconds since boot (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds since boot as a float, for reporting.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds since boot as a float, for reporting.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; virtual time never runs
    /// backwards, so this indicates a simulator bug.
    pub fn since(self, earlier: Time) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("virtual time ran backwards"),
        )
    }

    /// Saturating elapsed duration since `earlier` (zero if `earlier` is
    /// in the future).
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// The largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Builds a span from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Builds a span from microseconds.
    pub const fn from_us(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Builds a span from milliseconds.
    pub const fn from_ms(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Builds a span from seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// Builds a span from fractional microseconds, rounding to the
    /// nearest nanosecond. Handy for the paper's "1.2 + 0.25 n µs"-style
    /// cost constants.
    pub fn from_us_f64(us: f64) -> Duration {
        assert!(us >= 0.0 && us.is_finite(), "negative or non-finite span");
        Duration((us * 1_000.0).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds as a float, for reporting.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds as a float, for reporting.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: clamps at [`Duration::MAX`] instead of
    /// panicking. For lifetime accumulators (histogram totals) that
    /// must survive pathological inputs; `+`/`+=` stay checked so
    /// genuine virtual-time bugs still trap.
    pub fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Checked multiplication by an integer factor.
    pub fn checked_mul(self, k: u64) -> Option<Duration> {
        self.0.checked_mul(k).map(Duration)
    }

    /// Multiplies by a non-negative float, rounding to the nearest
    /// nanosecond. Used by the breakdown-utilization scaling loop.
    pub fn scale_f64(self, k: f64) -> Duration {
        assert!(k >= 0.0 && k.is_finite(), "invalid scale factor");
        Duration((self.0 as f64 * k).round() as u64)
    }

    /// The ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: Duration) -> f64 {
        assert!(!other.is_zero(), "division by zero duration");
        self.0 as f64 / other.0 as f64
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.checked_add(rhs.0).expect("virtual time overflow"))
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
        Time(self.0.checked_sub(rhs.0).expect("virtual time underflow"))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("duration overflow"))
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
        Duration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div for Duration {
    /// Integer quotient of two spans (how many `rhs` fit in `self`).
    type Output = u64;
    fn div(self, rhs: Duration) -> u64 {
        assert!(!rhs.is_zero(), "division by zero duration");
        self.0 / rhs.0
    }
}

impl Rem for Duration {
    type Output = Duration;
    fn rem(self, rhs: Duration) -> Duration {
        assert!(!rhs.is_zero(), "modulo by zero duration");
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// Formats a nanosecond count with the most readable unit.
fn format_ns(ns: u64) -> String {
    if ns == 0 {
        "0ns".to_string()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1_000_000.0)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1_000.0)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Time::from_us(3).as_ns(), 3_000);
        assert_eq!(Time::from_ms(2).as_us(), 2_000);
        assert_eq!(Duration::from_ms(1).as_ns(), 1_000_000);
        assert_eq!(Duration::from_secs(1).as_ms_f64(), 1000.0);
    }

    #[test]
    fn arithmetic_basics() {
        let t = Time::from_us(10) + Duration::from_us(5);
        assert_eq!(t.as_us(), 15);
        assert_eq!(t.since(Time::from_us(10)), Duration::from_us(5));
        assert_eq!(Duration::from_us(7) * 3, Duration::from_us(21));
        assert_eq!(Duration::from_us(21) / 3, Duration::from_us(7));
        assert_eq!(Duration::from_us(21) / Duration::from_us(10), 2);
        assert_eq!(
            Duration::from_us(21) % Duration::from_us(10),
            Duration::from_us(1)
        );
    }

    #[test]
    fn fractional_us_round_to_ns() {
        assert_eq!(Duration::from_us_f64(0.25).as_ns(), 250);
        assert_eq!(Duration::from_us_f64(1.2).as_ns(), 1_200);
        assert_eq!(Duration::from_us_f64(2.8).as_ns(), 2_800);
    }

    #[test]
    fn saturating_ops() {
        let a = Duration::from_us(1);
        let b = Duration::from_us(2);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(b.saturating_sub(a), Duration::from_us(1));
        assert_eq!(
            Time::from_us(1).saturating_since(Time::from_us(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn scale_f64_rounds() {
        assert_eq!(Duration::from_ns(1000).scale_f64(1.5).as_ns(), 1500);
        assert_eq!(Duration::from_ns(3).scale_f64(0.5).as_ns(), 2); // 1.5 rounds to 2
    }

    #[test]
    fn display_units() {
        assert_eq!(Duration::from_ns(5).to_string(), "5ns");
        assert_eq!(Duration::from_us(5).to_string(), "5.000us");
        assert_eq!(Duration::from_ms(5).to_string(), "5.000ms");
        assert_eq!(Duration::from_secs(5).to_string(), "5s");
    }

    #[test]
    #[should_panic(expected = "virtual time ran backwards")]
    fn since_panics_on_reversed_order() {
        let _ = Time::from_us(1).since(Time::from_us(2));
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].iter().map(|&u| Duration::from_us(u)).sum();
        assert_eq!(total, Duration::from_us(6));
    }

    #[test]
    fn ratio_reports_fraction() {
        assert!((Duration::from_us(1).ratio(Duration::from_us(4)) - 0.25).abs() < 1e-12);
    }
}
