use crate::{ProductId, RaterId, RatingValue, Timestamp};
use std::fmt;

/// A single rating event: `rater` rated `product` with `value` at `time`.
///
/// ```
/// use rrs_core::{ProductId, RaterId, Rating, RatingValue, Timestamp};
/// # fn main() -> Result<(), rrs_core::CoreError> {
/// let r = Rating::new(
///     RaterId::new(7),
///     ProductId::new(1),
///     Timestamp::new(12.0)?,
///     RatingValue::new(4.0)?,
/// );
/// assert_eq!(r.value().get(), 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    rater: RaterId,
    product: ProductId,
    time: Timestamp,
    value: RatingValue,
}

impl Rating {
    /// Creates a rating event.
    #[must_use]
    pub const fn new(
        rater: RaterId,
        product: ProductId,
        time: Timestamp,
        value: RatingValue,
    ) -> Self {
        Rating {
            rater,
            product,
            time,
            value,
        }
    }

    /// Returns the rater who submitted this rating.
    #[must_use]
    pub const fn rater(&self) -> RaterId {
        self.rater
    }

    /// Returns the rated product.
    #[must_use]
    pub const fn product(&self) -> ProductId {
        self.product
    }

    /// Returns the submission time.
    #[must_use]
    pub const fn time(&self) -> Timestamp {
        self.time
    }

    /// Returns the rating value.
    #[must_use]
    pub const fn value(&self) -> RatingValue {
        self.value
    }
}

impl fmt::Display for Rating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rated {} as {} at {}",
            self.rater, self.product, self.value, self.time
        )
    }
}

/// Ground-truth provenance of a rating.
///
/// In the paper's Rating Challenge the organizers know exactly which ratings
/// were inserted by participants; this enum carries that knowledge through
/// the simulation so detection quality can be scored against truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RatingSource {
    /// An honest rating reflecting the product's true quality (plus noise).
    #[default]
    Fair,
    /// A collaborative unfair rating inserted by an attacker.
    Unfair,
}

impl RatingSource {
    /// Returns `true` for unfair ratings.
    #[must_use]
    pub const fn is_unfair(self) -> bool {
        matches!(self, RatingSource::Unfair)
    }
}

impl fmt::Display for RatingSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatingSource::Fair => write!(f, "fair"),
            RatingSource::Unfair => write!(f, "unfair"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Rating {
        Rating::new(
            RaterId::new(1),
            ProductId::new(2),
            Timestamp::new(3.0).unwrap(),
            RatingValue::new(4.0).unwrap(),
        )
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.rater(), RaterId::new(1));
        assert_eq!(r.product(), ProductId::new(2));
        assert_eq!(r.time().as_days(), 3.0);
        assert_eq!(r.value().get(), 4.0);
    }

    #[test]
    fn source_flags() {
        assert!(!RatingSource::Fair.is_unfair());
        assert!(RatingSource::Unfair.is_unfair());
        assert_eq!(RatingSource::default(), RatingSource::Fair);
    }

    #[test]
    fn display_mentions_parts() {
        let s = sample().to_string();
        assert!(s.contains("rater#1"));
        assert!(s.contains("product#2"));
    }
}
