//! Virtual time in nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A virtual-time instant or duration, in nanoseconds.
///
/// The simulation uses a single numeric type for both instants and
/// durations, mirroring how ns-granularity tick counters are used in
/// kernels. All arithmetic is saturating-free and will panic on overflow in
/// debug builds like ordinary integer math; simulated experiments stay far
/// below `u64::MAX` nanoseconds (~584 years).
///
/// # Example
///
/// ```
/// use spamaware_sim::Nanos;
/// let t = Nanos::from_millis(30) + Nanos::from_micros(500);
/// assert_eq!(t.as_micros(), 30_500);
/// assert_eq!(format!("{t}"), "30.500ms");
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
#[serde(transparent)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero duration / the simulation epoch.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable instant, used as an "infinite" horizon.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a value from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Nanos {
        Nanos(ns)
    }

    /// Creates a value from microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Creates a value from milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Creates a value from whole seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a value from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    ///
    /// # Example
    ///
    /// ```
    /// use spamaware_sim::Nanos;
    /// assert_eq!(Nanos::from_secs_f64(0.25), Nanos::from_millis(250));
    /// assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
    /// ```
    pub fn from_secs_f64(s: f64) -> Nanos {
        if s <= 0.0 || !s.is_finite() {
            return Nanos::ZERO;
        }
        Nanos((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is later.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of the two instants.
    pub fn max(self, rhs: Nanos) -> Nanos {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Returns the earlier of the two instants.
    pub fn min(self, rhs: Nanos) -> Nanos {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Mul<f64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: f64) -> Nanos {
        Nanos::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{}.{:03}ms", ns / 1_000_000, (ns / 1_000) % 1_000)
        } else if ns >= 1_000 {
            write!(f, "{}.{:03}us", ns / 1_000, ns % 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Nanos {
        Nanos(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_convert_units() {
        assert_eq!(Nanos::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Nanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Nanos::from_secs(3).as_nanos(), 3_000_000_000);
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos::from_millis(1500));
        assert_eq!(Nanos::from_secs_f64(0.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(-3.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
    }

    #[test]
    fn arithmetic_behaves_like_integers() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!(a + b, Nanos::from_micros(14));
        assert_eq!(a - b, Nanos::from_micros(6));
        assert_eq!(a * 3, Nanos::from_micros(30));
        assert_eq!(a / 2, Nanos::from_micros(5));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
    }

    #[test]
    fn float_scaling() {
        let a = Nanos::from_millis(100);
        assert_eq!(a * 0.5, Nanos::from_millis(50));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Nanos::from_micros(1);
        let b = Nanos::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_uses_sensible_units() {
        assert_eq!(format!("{}", Nanos::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", Nanos::from_micros(17)), "17.000us");
        assert_eq!(format!("{}", Nanos::from_millis(17)), "17.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(17)), "17.000s");
    }

    #[test]
    fn sum_of_iterator() {
        let total: Nanos = (1..=4).map(Nanos::from_micros).sum();
        assert_eq!(total, Nanos::from_micros(10));
    }
}
