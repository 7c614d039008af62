use crate::CoreError;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in simulated time, measured in fractional days since the start of
/// the rating history.
///
/// The paper's detectors mix two clocks: rating-index time (the *n*-th
/// rating) and wall-clock time in days (arrival rates, 30-day MP periods).
/// `Timestamp` is the wall clock; rating-index positions are plain `usize`.
///
/// The inner value is guaranteed finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timestamp(f64);

impl Timestamp {
    /// The origin of simulated time.
    pub const ZERO: Timestamp = Timestamp(0.0);

    /// Creates a timestamp at `days` fractional days.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTime`] if `days` is not finite.
    pub fn new(days: f64) -> Result<Self, CoreError> {
        if days.is_finite() {
            Ok(Timestamp(days))
        } else {
            Err(CoreError::InvalidTime { value: days })
        }
    }

    /// Creates a timestamp, clamping non-finite inputs instead of
    /// erroring: `NaN` maps to the origin, infinities to the nearest
    /// finite value.
    ///
    /// This is the constructor for call sites whose input is already
    /// validated (loop counters scaled by finite constants, sums of
    /// finite timestamps): it keeps the type's finiteness invariant
    /// without an `.expect()` chain on an unreachable branch.
    #[must_use]
    pub fn saturating(days: f64) -> Self {
        if days.is_finite() {
            Timestamp(days)
        } else if days == f64::INFINITY {
            Timestamp(f64::MAX)
        } else if days == f64::NEG_INFINITY {
            Timestamp(f64::MIN)
        } else {
            Timestamp(0.0)
        }
    }

    /// Boundary `index` of `period`-day periods from `origin`:
    /// `origin + index × period`, multiplied out rather than summed, so
    /// [`TimeWindow::periods`] and the serving engine agree to the bit.
    #[must_use]
    pub fn period_boundary(origin: Timestamp, period: Days, index: u64) -> Self {
        Timestamp::saturating(origin.0 + index as f64 * period.get())
    }

    /// Returns the timestamp as fractional days.
    #[must_use]
    pub const fn as_days(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "day {:.2}", self.0)
    }
}

impl Eq for Timestamp {}

impl Ord for Timestamp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Timestamp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<Days> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: Days) -> Timestamp {
        Timestamp(self.0 + rhs.get())
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Days;

    fn sub(self, rhs: Timestamp) -> Days {
        Days::new_saturating(self.0 - rhs.0)
    }
}

/// A non-negative duration in fractional days.
///
/// ```
/// use rrs_core::Days;
/// # fn main() -> Result<(), rrs_core::CoreError> {
/// let month = Days::new(30.0)?;
/// assert_eq!(month.get(), 30.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Days(f64);

impl Days {
    /// The zero-length duration.
    pub const ZERO: Days = Days(0.0);

    /// Creates a duration of `days` fractional days.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDuration`] if `days` is negative or not
    /// finite.
    pub fn new(days: f64) -> Result<Self, CoreError> {
        if days.is_finite() && days >= 0.0 {
            Ok(Days(days))
        } else {
            Err(CoreError::InvalidDuration { days })
        }
    }

    /// Creates a duration, clamping negative or non-finite inputs to zero.
    #[must_use]
    pub fn new_saturating(days: f64) -> Self {
        if days.is_finite() && days > 0.0 {
            Days(days)
        } else {
            Days(0.0)
        }
    }

    /// Returns the duration in fractional days.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Days {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} days", self.0)
    }
}

impl Eq for Days {}

impl Ord for Days {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Days {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A half-open time interval `[start, end)`.
///
/// Used for detector windows, MP scoring periods, and the overall challenge
/// horizon.
///
/// ```
/// use rrs_core::{Days, TimeWindow, Timestamp};
/// # fn main() -> Result<(), rrs_core::CoreError> {
/// let w = TimeWindow::new(Timestamp::new(0.0)?, Timestamp::new(30.0)?)?;
/// assert!(w.contains(Timestamp::new(29.99)?));
/// assert!(!w.contains(Timestamp::new(30.0)?));
/// assert_eq!(w.length(), Days::new(30.0)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimeWindow {
    start: Timestamp,
    end: Timestamp,
}

impl TimeWindow {
    /// Creates the window `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWindow`] if `end < start`.
    pub fn new(start: Timestamp, end: Timestamp) -> Result<Self, CoreError> {
        if end < start {
            Err(CoreError::InvalidWindow {
                start: start.as_days(),
                end: end.as_days(),
            })
        } else {
            Ok(TimeWindow { start, end })
        }
    }

    /// Creates the window `[start, start + length)`.
    ///
    /// # Errors
    ///
    /// Propagates timestamp validation errors for a non-finite endpoint.
    pub fn with_length(start: Timestamp, length: Days) -> Result<Self, CoreError> {
        let end = Timestamp::new(start.as_days() + length.get())?;
        TimeWindow::new(start, end)
    }

    /// Creates the window spanning `a` and `b` in either order.
    ///
    /// Both orderings produce the same `[min, max)` window, so this
    /// constructor cannot fail — it replaces
    /// `TimeWindow::new(..).expect("ordered endpoints")` at call sites
    /// whose endpoints are ordered by construction.
    #[must_use]
    pub fn ordered(a: Timestamp, b: Timestamp) -> Self {
        if b < a {
            TimeWindow { start: b, end: a }
        } else {
            TimeWindow { start: a, end: b }
        }
    }

    /// Returns the inclusive start of the window.
    #[must_use]
    pub const fn start(self) -> Timestamp {
        self.start
    }

    /// Returns the exclusive end of the window.
    #[must_use]
    pub const fn end(self) -> Timestamp {
        self.end
    }

    /// Returns the window length.
    #[must_use]
    pub fn length(self) -> Days {
        self.end - self.start
    }

    /// Returns `true` if `t` lies inside `[start, end)`.
    #[must_use]
    pub fn contains(self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// Returns the midpoint of the window.
    #[must_use]
    pub fn center(self) -> Timestamp {
        Timestamp((self.start.as_days() + self.end.as_days()) / 2.0)
    }

    /// Splits the window into consecutive periods of `period` days.
    ///
    /// Period `i` ends at [`Timestamp::period_boundary`]`(start, period,
    /// i + 1)`. The final period is truncated at the window end; a
    /// zero-length tail is not emitted. This is how the MP metric derives
    /// its 30-day scoring periods from the challenge horizon.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn periods(self, period: Days) -> Vec<TimeWindow> {
        assert!(period.get() > 0.0, "period length must be positive");
        let mut out = Vec::new();
        let mut start = self.start;
        while start < self.end {
            let end =
                Timestamp::period_boundary(self.start, period, out.len() as u64 + 1).min(self.end);
            out.push(TimeWindow { start, end });
            start = end;
        }
        out
    }

    /// Returns the intersection of two windows, or `None` if disjoint.
    #[must_use]
    pub fn intersect(self, other: TimeWindow) -> Option<TimeWindow> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(TimeWindow { start, end })
        } else {
            None
        }
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.2}, {:.2}) days",
            self.start.as_days(),
            self.end.as_days()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prop_assert, prop_assert_eq, props};

    fn ts(d: f64) -> Timestamp {
        Timestamp::new(d).unwrap()
    }

    #[test]
    fn timestamp_rejects_non_finite() {
        assert!(Timestamp::new(f64::NAN).is_err());
        assert!(Timestamp::new(f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn arithmetic() {
        let t = ts(10.0) + Days::new(2.5).unwrap();
        assert_eq!(t.as_days(), 12.5);
        assert_eq!((ts(12.5) - ts(10.0)).get(), 2.5);
        // Subtraction saturates at zero rather than producing a negative duration.
        assert_eq!((ts(1.0) - ts(5.0)).get(), 0.0);
    }

    #[test]
    fn window_rejects_reversed() {
        assert!(TimeWindow::new(ts(2.0), ts(1.0)).is_err());
    }

    #[test]
    fn saturating_timestamp_clamps() {
        assert_eq!(Timestamp::saturating(1.5).as_days(), 1.5);
        assert_eq!(Timestamp::saturating(f64::NAN).as_days(), 0.0);
        assert_eq!(Timestamp::saturating(f64::INFINITY).as_days(), f64::MAX);
        assert_eq!(Timestamp::saturating(f64::NEG_INFINITY).as_days(), f64::MIN);
    }

    #[test]
    fn ordered_window_accepts_either_order() {
        let w = TimeWindow::ordered(ts(5.0), ts(2.0));
        assert_eq!(w.start(), ts(2.0));
        assert_eq!(w.end(), ts(5.0));
        assert_eq!(TimeWindow::ordered(ts(2.0), ts(5.0)), w);
        let degenerate = TimeWindow::ordered(ts(3.0), ts(3.0));
        assert_eq!(degenerate.length(), Days::ZERO);
    }

    #[test]
    fn window_contains_is_half_open() {
        let w = TimeWindow::new(ts(1.0), ts(2.0)).unwrap();
        assert!(w.contains(ts(1.0)));
        assert!(!w.contains(ts(2.0)));
    }

    #[test]
    fn periods_cover_window_exactly() {
        let w = TimeWindow::new(ts(0.0), ts(95.0)).unwrap();
        let ps = w.periods(Days::new(30.0).unwrap());
        assert_eq!(ps.len(), 4);
        assert_eq!(ps[0].start(), ts(0.0));
        assert_eq!(ps[3].end(), ts(95.0));
        assert_eq!(ps[3].length().get(), 5.0);
        // Boundaries are multiplied out: boundary 6 of 0.1-day periods is
        // 6 × 0.1 = 0.6000000000000001 (0.1 summed six times is 0.6), and
        // boundary 60 lands on the window end, leaving no sliver period.
        let w = TimeWindow::new(ts(0.0), ts(6.0)).unwrap();
        let ps = w.periods(Days::new(0.1).unwrap());
        assert_eq!(ps.len(), 60);
        assert_eq!(ps[6].start().as_days(), 0.6000000000000001);
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let a = TimeWindow::new(ts(0.0), ts(1.0)).unwrap();
        let b = TimeWindow::new(ts(1.0), ts(2.0)).unwrap();
        assert!(a.intersect(b).is_none());
    }

    #[test]
    fn intersect_overlapping() {
        let a = TimeWindow::new(ts(0.0), ts(5.0)).unwrap();
        let b = TimeWindow::new(ts(3.0), ts(8.0)).unwrap();
        let i = a.intersect(b).unwrap();
        assert_eq!(i.start(), ts(3.0));
        assert_eq!(i.end(), ts(5.0));
    }

    props! {
        #[test]
        fn periods_partition(start in -100.0f64..100.0, len in 0.1f64..400.0, period in 0.5f64..60.0) {
            let w = TimeWindow::with_length(ts(start), Days::new(len).unwrap()).unwrap();
            let ps = w.periods(Days::new(period).unwrap());
            prop_assert!(!ps.is_empty());
            prop_assert_eq!(ps[0].start(), w.start());
            prop_assert_eq!(ps[ps.len() - 1].end(), w.end());
            for pair in ps.windows(2) {
                prop_assert_eq!(pair[0].end(), pair[1].start());
            }
            // Boundary i is `start + i × period` exactly, not a running sum.
            for (i, p) in ps.iter().enumerate() {
                prop_assert_eq!(p.start().as_days(), start + i as f64 * period);
            }
        }

        #[test]
        fn window_center_is_inside(start in -50.0f64..50.0, len in 0.1f64..100.0) {
            let w = TimeWindow::with_length(ts(start), Days::new(len).unwrap()).unwrap();
            prop_assert!(w.contains(w.center()));
        }
    }
}
