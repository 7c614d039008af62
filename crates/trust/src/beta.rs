use std::fmt;

/// A beta-function trust record: `S` observed successes (non-suspicious
/// ratings) and `F` failures (suspicious ratings).
///
/// The trust value is the posterior mean `(S + 1) / (S + F + 2)` of a
/// Beta(S+1, F+1) distribution under a uniform prior — exactly the
/// Jøsang–Ismail beta reputation the paper adopts. A fresh record has
/// trust 0.5, matching the paper's "initial trust value of all raters is
/// 0.5".
///
/// ```
/// use rrs_trust::BetaTrust;
/// let mut t = BetaTrust::new();
/// assert_eq!(t.trust(), 0.5);
/// t.record(10, 0); // ten ratings, none suspicious
/// assert!(t.trust() > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BetaTrust {
    s: f64,
    f: f64,
}

impl BetaTrust {
    /// Creates a fresh record with no observations (trust 0.5).
    #[must_use]
    pub fn new() -> Self {
        BetaTrust::default()
    }

    /// Creates a record with explicit success/failure counts.
    ///
    /// # Panics
    ///
    /// Panics if either count is negative or non-finite.
    #[must_use]
    pub fn with_counts(successes: f64, failures: f64) -> Self {
        assert!(
            successes.is_finite() && failures.is_finite() && successes >= 0.0 && failures >= 0.0,
            "counts must be finite and non-negative"
        );
        BetaTrust {
            s: successes,
            f: failures,
        }
    }

    /// Records an epoch in which the rater provided `n` ratings of which
    /// `suspicious` were marked suspicious (Procedure 1 inner loop).
    ///
    /// # Panics
    ///
    /// Panics if `suspicious > n`.
    pub fn record(&mut self, n: u64, suspicious: u64) {
        assert!(
            suspicious <= n,
            "cannot have more suspicious ratings ({suspicious}) than ratings ({n})"
        );
        self.f += suspicious as f64;
        self.s += (n - suspicious) as f64;
    }

    /// Returns the trust value `(S + 1) / (S + F + 2)`.
    #[must_use]
    pub fn trust(&self) -> f64 {
        (self.s + 1.0) / (self.s + self.f + 2.0)
    }

    /// Returns the accumulated success count.
    #[must_use]
    pub const fn successes(&self) -> f64 {
        self.s
    }

    /// Returns the accumulated failure count.
    #[must_use]
    pub const fn failures(&self) -> f64 {
        self.f
    }

    /// Applies exponential forgetting: both counts are scaled by
    /// `factor ∈ [0, 1]`.
    ///
    /// Forgetting lets a reformed rater recover and keeps trust responsive
    /// — part of the generic framework this model simplifies.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is outside `[0, 1]`.
    pub fn discount(&mut self, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "discount factor must lie in [0, 1]"
        );
        self.s *= factor;
        self.f *= factor;
    }
}

impl fmt::Display for BetaTrust {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trust {:.3} (S = {:.1}, F = {:.1})",
            self.trust(),
            self.s,
            self.f
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::check::vec_of;
    use rrs_core::{prop_assert, prop_assert_eq, props};

    #[test]
    fn fresh_record_is_neutral() {
        assert_eq!(BetaTrust::new().trust(), 0.5);
        assert_eq!(
            BetaTrust::new().successes() + BetaTrust::new().failures(),
            0.0
        );
    }

    #[test]
    fn paper_formula() {
        // (S+1)/(S+F+2) with S=3, F=1 => 4/6.
        let t = BetaTrust::with_counts(3.0, 1.0);
        assert!((t.trust() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn record_splits_counts() {
        let mut t = BetaTrust::new();
        t.record(5, 2);
        assert_eq!(t.successes(), 3.0);
        assert_eq!(t.failures(), 2.0);
    }

    #[test]
    #[should_panic(expected = "more suspicious")]
    fn record_rejects_overcount() {
        BetaTrust::new().record(2, 3);
    }

    #[test]
    fn all_suspicious_drives_trust_down() {
        let mut t = BetaTrust::new();
        t.record(20, 20);
        assert!(t.trust() < 0.1);
    }

    #[test]
    fn discount_pulls_back_toward_neutral() {
        let mut t = BetaTrust::with_counts(100.0, 0.0);
        let before = t.trust();
        t.discount(0.1);
        let after = t.trust();
        assert!(after < before);
        assert!(after > 0.5);
    }

    #[test]
    #[should_panic(expected = "discount factor")]
    fn discount_rejects_bad_factor() {
        BetaTrust::new().discount(1.5);
    }

    #[test]
    fn display_shows_counts() {
        let t = BetaTrust::with_counts(3.0, 1.0);
        let s = t.to_string();
        assert!(s.contains("S = 3.0"));
        assert!(s.contains("F = 1.0"));
    }

    props! {
        #[test]
        fn trust_in_open_unit_interval(s in 0.0f64..1e6, f in 0.0f64..1e6) {
            let t = BetaTrust::with_counts(s, f).trust();
            prop_assert!(t > 0.0 && t < 1.0);
        }

        #[test]
        fn trust_monotone_in_successes(s in 0.0f64..1000.0, f in 0.0f64..1000.0, extra in 1.0f64..100.0) {
            let base = BetaTrust::with_counts(s, f).trust();
            let more = BetaTrust::with_counts(s + extra, f).trust();
            prop_assert!(more > base);
        }

        #[test]
        fn trust_antitone_in_failures(s in 0.0f64..1000.0, f in 0.0f64..1000.0, extra in 1.0f64..100.0) {
            let base = BetaTrust::with_counts(s, f).trust();
            let less = BetaTrust::with_counts(s, f + extra).trust();
            prop_assert!(less < base);
        }

        #[test]
        fn record_accumulates(epochs in vec_of((0u64..50, 0u64..50), 0..20)) {
            let mut t = BetaTrust::new();
            let mut s_total = 0u64;
            let mut f_total = 0u64;
            for (n, f) in epochs {
                let f = f.min(n);
                t.record(n, f);
                s_total += n - f;
                f_total += f;
            }
            prop_assert_eq!(t.successes(), s_total as f64);
            prop_assert_eq!(t.failures(), f_total as f64);
        }
    }
}
