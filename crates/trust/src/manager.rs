use crate::BetaTrust;
use rrs_core::{DatasetView, RaterId, RatingId, TimeWindow};
use std::collections::{BTreeMap, BTreeSet};

// Metric names, declared as constants per the `metric-name` lint rule.
const METRIC_EPOCHS: &str = "trust.epochs";
const METRIC_SUSPICIOUS_RATINGS: &str = "trust.suspicious_ratings";
const METRIC_MASS_TOTAL: &str = "trust.mass_total";
const METRIC_RATERS_TRACKED: &str = "trust.raters_tracked";

/// The before/after beta-trust state of one rater across an epoch.
///
/// Recorded only for raters that had at least one suspicious rating in
/// the epoch, so the list stays bounded by the attack size rather than
/// the population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustDelta {
    /// The rater whose record changed.
    pub rater: RaterId,
    /// Accumulated successes `S` before the epoch.
    pub successes_before: f64,
    /// Accumulated failures `F` before the epoch.
    pub failures_before: f64,
    /// Accumulated successes `S` after the epoch.
    pub successes_after: f64,
    /// Accumulated failures `F` after the epoch.
    pub failures_after: f64,
}

/// Summary of one trust-update epoch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrustUpdate {
    /// Raters whose records changed in this epoch.
    pub touched: Vec<RaterId>,
    /// Total ratings processed.
    pub ratings: usize,
    /// Total ratings that were marked suspicious.
    pub suspicious: usize,
    /// Before/after records, in ascending rater order, for raters with suspicious ratings.
    pub deltas: Vec<TrustDelta>,
}

/// The trust manager of the P-scheme (paper Procedure 1).
///
/// Maintains one [`BetaTrust`] record per rater. At each update epoch the
/// caller supplies the time window covered by the epoch and the set of
/// ratings currently marked suspicious; the manager counts, per rater, how
/// many of that rater's ratings in the window were suspicious and updates
/// the record.
///
/// ```
/// use rrs_core::{ProductId, RaterId, Rating, RatingDataset, RatingSource, RatingValue,
///                TimeWindow, Timestamp};
/// use rrs_trust::TrustManager;
/// use std::collections::BTreeSet;
///
/// # fn main() -> Result<(), rrs_core::CoreError> {
/// let mut dataset = RatingDataset::new();
/// let id = dataset.insert(
///     Rating::new(RaterId::new(1), ProductId::new(0), Timestamp::new(3.0)?, RatingValue::new(0.0)?),
///     RatingSource::Unfair,
/// );
/// let mut manager = TrustManager::new();
/// let mut suspicious = BTreeSet::new();
/// suspicious.insert(id);
/// let window = TimeWindow::new(Timestamp::new(0.0)?, Timestamp::new(30.0)?)?;
/// manager.update_epoch(&dataset, window, &suspicious);
/// assert!(manager.trust_of(RaterId::new(1)) < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrustManager {
    records: BTreeMap<RaterId, BetaTrust>,
}

impl TrustManager {
    /// Creates a manager with no records; unknown raters have trust 0.5.
    #[must_use]
    pub fn new() -> Self {
        TrustManager::default()
    }

    /// Runs one epoch of Procedure 1 over all ratings in `window`.
    ///
    /// Accepts `&RatingDataset` or a borrowed [`DatasetView`] (the
    /// P-scheme passes its zero-copy prefix view). For each rater: `n_i`
    /// = ratings provided in the window, `f_i` = those marked suspicious;
    /// accumulates `F_i += f_i`, `S_i += n_i − f_i`.
    pub fn update_epoch<'a>(
        &mut self,
        dataset: impl Into<DatasetView<'a>>,
        window: TimeWindow,
        suspicious: &BTreeSet<RatingId>,
    ) -> TrustUpdate {
        let _span = rrs_obs::trace::span("trust.update_epoch");
        let view = dataset.into();
        let mut per_rater: BTreeMap<RaterId, (u64, u64)> = BTreeMap::new();
        let mut total = 0usize;
        let mut total_suspicious = 0usize;
        for (_, timeline) in view.products() {
            for entry in timeline.in_window(window).iter() {
                let counts = per_rater.entry(entry.rater()).or_insert((0, 0));
                counts.0 += 1;
                total += 1;
                if suspicious.contains(&entry.id()) {
                    counts.1 += 1;
                    total_suspicious += 1;
                }
            }
        }
        let mut touched = Vec::with_capacity(per_rater.len());
        let mut deltas = Vec::new();
        for (rater, (n, f)) in per_rater {
            let record = self.records.entry(rater).or_default();
            let (s_before, f_before) = (record.successes(), record.failures());
            record.record(n, f);
            if f > 0 {
                deltas.push(TrustDelta {
                    rater,
                    successes_before: s_before,
                    failures_before: f_before,
                    successes_after: record.successes(),
                    failures_after: record.failures(),
                });
            }
            touched.push(rater);
        }
        rrs_obs::metrics::counter_add(METRIC_EPOCHS, 1);
        rrs_obs::metrics::counter_add(METRIC_SUSPICIOUS_RATINGS, total_suspicious as u64);
        TrustUpdate {
            touched,
            ratings: total,
            suspicious: total_suspicious,
            deltas,
        }
    }

    /// Sets the trust-mass health gauges, `trust.mass_total` (the sum of
    /// every record's trust) and `trust.raters_tracked`, from the current
    /// records. O(raters), so it is the caller's choice when to pay it:
    /// `PScheme::evaluate` calls it after every epoch's update, and a
    /// server when its metrics are scraped.
    ///
    /// The records map is ordered, so the f64 sum is deterministic; call
    /// it from a serial point to keep the gauges thread-count invariant.
    pub fn publish_gauges(&self) {
        if !rrs_obs::enabled() {
            return;
        }
        let mass: f64 = self.records.values().map(BetaTrust::trust).sum();
        rrs_obs::metrics::gauge_set(METRIC_MASS_TOTAL, mass);
        rrs_obs::metrics::gauge_set(METRIC_RATERS_TRACKED, self.records.len() as f64);
    }

    /// Returns the trust value of a rater (0.5 if never observed).
    #[must_use]
    pub fn trust_of(&self, rater: RaterId) -> f64 {
        self.records.get(&rater).map_or(0.5, BetaTrust::trust)
    }

    /// Returns the full record of a rater, if one exists.
    #[must_use]
    pub fn record(&self, rater: RaterId) -> Option<&BetaTrust> {
        self.records.get(&rater)
    }

    /// Returns a snapshot of all trust values.
    #[must_use]
    pub fn snapshot(&self) -> BTreeMap<RaterId, f64> {
        self.records.iter().map(|(r, t)| (*r, t.trust())).collect()
    }

    /// Iterates every `(rater, record)` pair in rater order.
    ///
    /// This is the checkpoint surface: together with
    /// [`TrustManager::from_records`] it round-trips the manager's full
    /// state (the accumulated `S`/`F` evidence, not just the derived
    /// trust values) bit-exactly.
    pub fn records(&self) -> impl Iterator<Item = (RaterId, &BetaTrust)> {
        self.records.iter().map(|(r, t)| (*r, t))
    }

    /// Rebuilds a manager from previously captured records.
    ///
    /// The inverse of [`TrustManager::records`]: feeding the captured
    /// pairs back yields a manager whose every observable —
    /// [`trust_of`](TrustManager::trust_of), future
    /// [`update_epoch`](TrustManager::update_epoch) results — is
    /// bit-identical to the original. Later pairs win on duplicate
    /// raters.
    pub fn from_records(records: impl IntoIterator<Item = (RaterId, BetaTrust)>) -> Self {
        TrustManager {
            records: records.into_iter().collect(),
        }
    }

    /// Applies exponential forgetting to every record.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is outside `[0, 1]`.
    pub fn discount_all(&mut self, factor: f64) {
        for record in self.records.values_mut() {
            record.discount(factor);
        }
    }

    /// Returns the number of raters with records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no rater has been observed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::{ProductId, Rating, RatingDataset, RatingSource, RatingValue, Timestamp};

    fn rating(rater: u32, product: u16, day: f64, value: f64) -> Rating {
        Rating::new(
            RaterId::new(rater),
            ProductId::new(product),
            Timestamp::new(day).unwrap(),
            RatingValue::new(value).unwrap(),
        )
    }

    fn window(a: f64, b: f64) -> TimeWindow {
        TimeWindow::new(Timestamp::new(a).unwrap(), Timestamp::new(b).unwrap()).unwrap()
    }

    #[test]
    fn unknown_rater_is_neutral() {
        let m = TrustManager::new();
        assert_eq!(m.trust_of(RaterId::new(9)), 0.5);
        assert!(m.is_empty());
    }

    #[test]
    fn honest_rater_gains_trust_over_epochs() {
        let mut d = RatingDataset::new();
        for day in 0..60 {
            d.insert(rating(1, 0, f64::from(day), 4.0), RatingSource::Fair);
        }
        let mut m = TrustManager::new();
        let empty = BTreeSet::new();
        m.update_epoch(&d, window(0.0, 30.0), &empty);
        let after_one = m.trust_of(RaterId::new(1));
        m.update_epoch(&d, window(30.0, 60.0), &empty);
        let after_two = m.trust_of(RaterId::new(1));
        assert!(after_one > 0.9);
        assert!(after_two > after_one);
    }

    #[test]
    fn suspicious_marks_destroy_trust() {
        let mut d = RatingDataset::new();
        let mut marked = BTreeSet::new();
        for day in 0..20 {
            let id = d.insert(rating(2, 0, f64::from(day), 0.0), RatingSource::Unfair);
            marked.insert(id);
        }
        let mut m = TrustManager::new();
        m.update_epoch(&d, window(0.0, 30.0), &marked);
        assert!(m.trust_of(RaterId::new(2)) < 0.1);
    }

    #[test]
    fn update_counts_only_ratings_in_window() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 0, 5.0, 4.0), RatingSource::Fair);
        d.insert(rating(1, 0, 45.0, 4.0), RatingSource::Fair);
        let mut m = TrustManager::new();
        let up = m.update_epoch(&d, window(0.0, 30.0), &BTreeSet::new());
        assert_eq!(up.ratings, 1);
        // (S+1)/(S+F+2) with S=1, F=0 => 2/3.
        assert!((m.trust_of(RaterId::new(1)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn update_spans_products() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 0, 1.0, 4.0), RatingSource::Fair);
        d.insert(rating(1, 1, 2.0, 4.0), RatingSource::Fair);
        let mut m = TrustManager::new();
        let up = m.update_epoch(&d, window(0.0, 30.0), &BTreeSet::new());
        assert_eq!(up.ratings, 2);
        assert_eq!(up.touched, vec![RaterId::new(1)]);
    }

    #[test]
    fn mixed_marks_balance() {
        let mut d = RatingDataset::new();
        let mut marked = BTreeSet::new();
        for day in 0..10 {
            let id = d.insert(rating(3, 0, f64::from(day), 4.0), RatingSource::Fair);
            if day < 5 {
                marked.insert(id);
            }
        }
        let mut m = TrustManager::new();
        let up = m.update_epoch(&d, window(0.0, 30.0), &marked);
        assert_eq!(up.suspicious, 5);
        // S=5, F=5 => 6/12 = 0.5.
        assert!((m.trust_of(RaterId::new(3)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deltas_come_one_per_marked_rater_in_rater_order() {
        // Decision records look deltas up by binary search, so the order
        // is part of the contract.
        let mut d = RatingDataset::new();
        let mut marked = BTreeSet::new();
        for (day, rater) in [9u32, 4, 7, 4, 1, 9].into_iter().enumerate() {
            let id = d.insert(
                rating(rater, (day % 2) as u16, day as f64, 1.0),
                RatingSource::Unfair,
            );
            if rater != 7 {
                marked.insert(id);
            }
        }
        let mut m = TrustManager::new();
        let up = m.update_epoch(&d, window(0.0, 30.0), &marked);
        let raters: Vec<u32> = up.deltas.iter().map(|d| d.rater.value()).collect();
        assert_eq!(raters, vec![1, 4, 9]);
    }

    #[test]
    fn snapshot_and_len() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 0, 1.0, 4.0), RatingSource::Fair);
        d.insert(rating(2, 0, 2.0, 4.0), RatingSource::Fair);
        let mut m = TrustManager::new();
        m.update_epoch(&d, window(0.0, 30.0), &BTreeSet::new());
        assert_eq!(m.len(), 2);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.values().all(|&t| t > 0.5));
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let mut d = RatingDataset::new();
        let mut marked = BTreeSet::new();
        for day in 0..20 {
            let id = d.insert(
                rating(1, 0, f64::from(day), 4.0 - f64::from(day) * 0.07),
                RatingSource::Fair,
            );
            if day % 3 == 0 {
                marked.insert(id);
            }
            d.insert(rating(2, 0, f64::from(day) + 0.5, 3.5), RatingSource::Fair);
        }
        let mut m = TrustManager::new();
        m.update_epoch(&d, window(0.0, 10.0), &marked);
        m.discount_all(0.25);
        m.update_epoch(&d, window(10.0, 20.0), &marked);

        let restored = TrustManager::from_records(m.records().map(|(r, t)| (r, *t)));
        assert_eq!(restored.len(), m.len());
        for (rater, record) in m.records() {
            let r = restored.record(rater).unwrap();
            assert_eq!(r.successes().to_bits(), record.successes().to_bits());
            assert_eq!(r.failures().to_bits(), record.failures().to_bits());
            assert_eq!(
                restored.trust_of(rater).to_bits(),
                m.trust_of(rater).to_bits()
            );
        }
        // Future epochs from the restored manager match bit for bit.
        let mut a = m.clone();
        let mut b = restored;
        let up_a = a.update_epoch(&d, window(0.0, 20.0), &marked);
        let up_b = b.update_epoch(&d, window(0.0, 20.0), &marked);
        assert_eq!(up_a, up_b);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn discount_all_moves_toward_neutral() {
        let mut d = RatingDataset::new();
        for day in 0..30 {
            d.insert(rating(1, 0, f64::from(day), 4.0), RatingSource::Fair);
        }
        let mut m = TrustManager::new();
        m.update_epoch(&d, window(0.0, 30.0), &BTreeSet::new());
        let before = m.trust_of(RaterId::new(1));
        m.discount_all(0.01);
        let after = m.trust_of(RaterId::new(1));
        assert!(after < before);
        assert!((after - 0.5).abs() < (before - 0.5).abs());
    }
}
