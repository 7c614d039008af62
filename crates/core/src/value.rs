use crate::CoreError;
use std::fmt;

/// A validated rating value on the paper's 0–5 scale.
///
/// The inner value is guaranteed finite and within
/// [`RatingValue::SCALE_MIN`], [`RatingValue::SCALE_MAX`]. The original
/// rating data of the paper uses values between 0 and 5 with a fair-rating
/// mean around 4.
///
/// ```
/// use rrs_core::RatingValue;
/// # fn main() -> Result<(), rrs_core::CoreError> {
/// let v = RatingValue::new(4.5)?;
/// assert_eq!(v.get(), 4.5);
/// let clamped = RatingValue::new_clamped(7.3);
/// assert_eq!(clamped.get(), 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatingValue(f64);

impl RatingValue {
    /// The smallest expressible rating.
    pub const SCALE_MIN: f64 = 0.0;
    /// The largest expressible rating.
    pub const SCALE_MAX: f64 = 5.0;

    /// Creates a rating value, validating the scale.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidValue`] if `value` is not finite or lies
    /// outside `[0, 5]`.
    pub fn new(value: f64) -> Result<Self, CoreError> {
        if value.is_finite() && (Self::SCALE_MIN..=Self::SCALE_MAX).contains(&value) {
            Ok(RatingValue(value))
        } else {
            Err(CoreError::InvalidValue { value })
        }
    }

    /// Creates a rating value, clamping out-of-range inputs to the scale.
    ///
    /// Non-finite inputs clamp to the scale midpoint. This is the
    /// constructor attack generators use: a sampled Gaussian value may fall
    /// outside the scale and must be expressible as the nearest legal
    /// rating, exactly as a human attacker would round it.
    #[must_use]
    pub fn new_clamped(value: f64) -> Self {
        if value.is_nan() {
            return RatingValue((Self::SCALE_MIN + Self::SCALE_MAX) / 2.0);
        }
        RatingValue(value.clamp(Self::SCALE_MIN, Self::SCALE_MAX))
    }

    /// Returns the inner floating-point value.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns the value normalized to `[0, 1]`, as used by beta-reputation
    /// models.
    #[must_use]
    pub fn normalized(self) -> f64 {
        (self.0 - Self::SCALE_MIN) / (Self::SCALE_MAX - Self::SCALE_MIN)
    }
}

impl fmt::Display for RatingValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

impl Eq for RatingValue {}

impl Ord for RatingValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // The constructor guarantees the inner value is never NaN, so
        // total_cmp agrees with the usual order.
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for RatingValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl TryFrom<f64> for RatingValue {
    type Error = CoreError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        RatingValue::new(value)
    }
}

impl From<RatingValue> for f64 {
    fn from(value: RatingValue) -> Self {
        value.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::any_f64;
    use crate::{prop_assert, prop_assert_eq, props};

    #[test]
    fn new_rejects_out_of_scale() {
        assert!(RatingValue::new(-0.1).is_err());
        assert!(RatingValue::new(5.1).is_err());
        assert!(RatingValue::new(f64::NAN).is_err());
        assert!(RatingValue::new(f64::INFINITY).is_err());
    }

    #[test]
    fn new_accepts_bounds() {
        assert_eq!(RatingValue::new(0.0).unwrap().get(), 0.0);
        assert_eq!(RatingValue::new(5.0).unwrap().get(), 5.0);
    }

    #[test]
    fn clamped_handles_nan() {
        assert_eq!(RatingValue::new_clamped(f64::NAN).get(), 2.5);
    }

    #[test]
    fn normalized_spans_unit_interval() {
        assert_eq!(RatingValue::new(0.0).unwrap().normalized(), 0.0);
        assert_eq!(RatingValue::new(5.0).unwrap().normalized(), 1.0);
        assert_eq!(RatingValue::new(2.5).unwrap().normalized(), 0.5);
    }

    #[test]
    fn ordering_is_consistent() {
        let a = RatingValue::new(1.0).unwrap();
        let b = RatingValue::new(4.0).unwrap();
        assert!(a < b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Less);
    }

    props! {
        #[test]
        fn clamped_always_in_scale(x in any_f64()) {
            let v = RatingValue::new_clamped(x);
            prop_assert!(v.get() >= RatingValue::SCALE_MIN);
            prop_assert!(v.get() <= RatingValue::SCALE_MAX);
        }

        #[test]
        fn new_round_trips(x in 0.0f64..=5.0) {
            let v = RatingValue::new(x).unwrap();
            prop_assert_eq!(f64::from(v), x);
        }

        #[test]
        fn normalized_in_unit_interval(x in 0.0f64..=5.0) {
            let n = RatingValue::new(x).unwrap().normalized();
            prop_assert!((0.0..=1.0).contains(&n));
        }
    }
}
