use crate::store::ColumnTimeline;
use crate::{
    CoreError, ProductId, RaterId, Rating, RatingSource, RatingValue, TimeWindow, Timestamp,
};
use std::collections::BTreeMap;
use std::fmt;

/// A dataset-unique identifier for an inserted rating.
///
/// Detectors refer to individual ratings (for example to mark them
/// suspicious) by `RatingId`. Identifiers are assigned in insertion order
/// and are stable under [`RatingDataset::clone`], so a cloned dataset that
/// receives extra unfair ratings keeps the fair ratings' identifiers —
/// which is what lets the challenge harness compare suspicion marks against
/// ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RatingId(u64);

impl RatingId {
    /// Returns the raw identifier value.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }
}

/// Builds a [`RatingId`] from its raw value (store tests need to mint
/// ids without a dataset).
#[cfg(test)]
pub(crate) const fn raw_rating_id(value: u64) -> RatingId {
    RatingId(value)
}

impl fmt::Display for RatingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rating#{}", self.0)
    }
}

/// A rating stored in a dataset, together with its identifier and
/// ground-truth provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatingEntry {
    id: RatingId,
    rating: Rating,
    source: RatingSource,
}

impl RatingEntry {
    /// Assembles an entry from its parts (crate-internal: views
    /// reconstitute entries from the store's columns).
    pub(crate) const fn assemble(id: RatingId, rating: Rating, source: RatingSource) -> Self {
        RatingEntry { id, rating, source }
    }

    /// Returns the dataset-unique identifier.
    #[must_use]
    pub const fn id(&self) -> RatingId {
        self.id
    }

    /// Returns the rating event.
    #[must_use]
    pub const fn rating(&self) -> &Rating {
        &self.rating
    }

    /// Returns the ground-truth provenance.
    #[must_use]
    pub const fn source(&self) -> RatingSource {
        self.source
    }

    /// Shorthand for the rating time.
    #[must_use]
    pub const fn time(&self) -> Timestamp {
        self.rating.time()
    }

    /// Shorthand for the rating value as `f64`.
    #[must_use]
    pub const fn value(&self) -> f64 {
        self.rating.value().get()
    }

    /// Shorthand for the rater.
    #[must_use]
    pub const fn rater(&self) -> RaterId {
        self.rating.rater()
    }
}

/// A borrowed, copyable read view of one product's rating history.
///
/// The view holds the [`RatingDataset`]'s parallel column slices for one
/// product; index `i` across them reassembles the `i`-th entry, and the
/// product id rides along because the columns don't store it per row.
/// Callers read through one indexed API (`len` /
/// [`entry`](TimelineView::entry) / [`value_at`](TimelineView::value_at)
/// / …) or the by-value [`iter`](TimelineView::iter).
/// [`values`](TimelineView::values) borrows the contiguous value column
/// and [`times`](TimelineView::times) copies the time column — the
/// cache-friendly scans the detectors feed on.
///
/// The type is `Copy`; methods take `self`, and window restriction
/// ([`in_window`](TimelineView::in_window)) returns a sub-view borrowing
/// the same storage.
#[derive(Debug, Clone, Copy)]
pub struct TimelineView<'a> {
    product: ProductId,
    ids: &'a [RatingId],
    times: &'a [Timestamp],
    values: &'a [f64],
    raters: &'a [RaterId],
    sources: &'a [RatingSource],
}

impl<'a> TimelineView<'a> {
    /// Wraps one product's column slices, which must share one length
    /// and one `(time, id)`-sorted order.
    pub(crate) fn from_columns(
        product: ProductId,
        ids: &'a [RatingId],
        times: &'a [Timestamp],
        values: &'a [f64],
        raters: &'a [RaterId],
        sources: &'a [RatingSource],
    ) -> Self {
        TimelineView {
            product,
            ids,
            times,
            values,
            raters,
            sources,
        }
    }

    /// Returns the number of ratings in the view.
    #[must_use]
    pub fn len(self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the view holds no ratings.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Returns the `index`-th entry (by value; entries are `Copy`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds, like slice indexing.
    #[must_use]
    pub fn entry(self, index: usize) -> RatingEntry {
        // Values were validated on the way in, so the clamping
        // constructor is an identity here.
        RatingEntry::assemble(
            self.ids[index],
            Rating::new(
                self.raters[index],
                self.product,
                self.times[index],
                RatingValue::new_clamped(self.values[index]),
            ),
            self.sources[index],
        )
    }

    /// Returns the `index`-th rating identifier.
    #[must_use]
    pub fn id_at(self, index: usize) -> RatingId {
        self.ids[index]
    }

    /// Returns the `index`-th rating time.
    #[must_use]
    pub fn time_at(self, index: usize) -> Timestamp {
        self.times[index]
    }

    /// Returns the `index`-th rating value.
    #[must_use]
    pub fn value_at(self, index: usize) -> f64 {
        self.values[index]
    }

    /// Returns the `index`-th rater.
    #[must_use]
    pub fn rater_at(self, index: usize) -> RaterId {
        self.raters[index]
    }

    /// Returns the `index`-th provenance.
    #[must_use]
    pub fn source_at(self, index: usize) -> RatingSource {
        self.sources[index]
    }

    /// Returns the first entry, if any.
    #[must_use]
    pub fn first(self) -> Option<RatingEntry> {
        if self.is_empty() {
            None
        } else {
            Some(self.entry(0))
        }
    }

    /// Returns the last entry, if any.
    #[must_use]
    pub fn last(self) -> Option<RatingEntry> {
        self.len().checked_sub(1).map(|i| self.entry(i))
    }

    /// Iterates entries by value in time order.
    pub fn iter(self) -> impl Iterator<Item = RatingEntry> + 'a {
        (0..self.len()).map(move |i| self.entry(i))
    }

    /// Copies the entries into a vector (test/oracle convenience).
    #[must_use]
    pub fn to_vec(self) -> Vec<RatingEntry> {
        self.iter().collect()
    }

    /// Returns the sub-view over `[lo, hi)` of this view's entries.
    fn subrange(self, lo: usize, hi: usize) -> TimelineView<'a> {
        TimelineView {
            product: self.product,
            ids: &self.ids[lo..hi],
            times: &self.times[lo..hi],
            values: &self.values[lo..hi],
            raters: &self.raters[lo..hi],
            sources: &self.sources[lo..hi],
        }
    }

    /// Returns the sub-view of entries whose times fall in `window`
    /// (half-open, two binary searches).
    #[must_use]
    pub fn in_window(self, window: TimeWindow) -> TimelineView<'a> {
        let range = self.window_range(window);
        self.subrange(range.start, range.end)
    }

    /// Returns the index range of the entries whose times fall in
    /// `window` — the positions [`in_window`](TimelineView::in_window)
    /// covers, for callers holding columns parallel to this view.
    #[must_use]
    pub fn window_range(self, window: TimeWindow) -> std::ops::Range<usize> {
        self.lower_bound(window.start())..self.lower_bound(window.end())
    }

    /// Index of the first entry with `time >= t`.
    fn lower_bound(self, t: Timestamp) -> usize {
        self.times.partition_point(|&time| time < t)
    }

    /// Returns all rating values in time order: the contiguous `f64`
    /// column itself, borrowed from the dataset.
    #[must_use]
    pub fn values(self) -> &'a [f64] {
        self.values
    }

    /// Returns all rating times in time order.
    #[must_use]
    pub fn times(self) -> Vec<Timestamp> {
        self.times.to_vec()
    }

    /// Returns the mean rating value, or `None` if the view is empty.
    #[must_use]
    pub fn mean_value(self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            let sum: f64 = self.values.iter().sum();
            Some(sum / self.len() as f64)
        }
    }

    /// Counts ratings per whole day over `window`.
    ///
    /// Element `i` of the result is the number of ratings in
    /// `[start + i, start + i + 1)` days; the last bucket is truncated at the
    /// window end. This is the `y(n)` series of the paper's arrival-rate
    /// change detector.
    #[must_use]
    pub fn daily_counts(self, window: TimeWindow) -> Vec<u32> {
        self.daily_counts_filtered(window, |_| true)
    }

    /// Counts ratings per whole day, restricted to values accepted by
    /// `keep`.
    ///
    /// The H-ARC and L-ARC detectors use this with "value above
    /// `threshold_a`" and "value below `threshold_b`" predicates.
    #[must_use]
    pub fn daily_counts_filtered<F>(self, window: TimeWindow, mut keep: F) -> Vec<u32>
    where
        F: FnMut(f64) -> bool,
    {
        let days = window.length().get().ceil() as usize;
        let mut counts = vec![0u32; days];
        let scoped = self.in_window(window);
        for i in 0..scoped.len() {
            if keep(scoped.value_at(i)) {
                let offset = scoped.time_at(i).as_days() - window.start().as_days();
                let idx = (offset.floor() as usize).min(days.saturating_sub(1));
                counts[idx] += 1;
            }
        }
        counts
    }
}

/// Views are equal when their entry sequences are equal, whichever
/// storage they borrow from.
impl<'a, 'b> PartialEq<TimelineView<'b>> for TimelineView<'a> {
    fn eq(&self, other: &TimelineView<'b>) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.entry(i) == other.entry(i))
    }
}

/// A collection of rating histories for a set of products.
///
/// This is the unit the aggregation schemes and the Rating Challenge operate
/// on: the challenge distributes one fair dataset, attackers produce a
/// modified copy with unfair ratings inserted, and the MP metric compares
/// aggregation results on the two.
///
/// Ratings live in one struct-of-arrays timeline per product, kept in
/// ascending product order, and all reads go through borrowed
/// [`TimelineView`]s.
///
/// # Example
///
/// ```
/// use rrs_core::{ProductId, RaterId, Rating, RatingDataset, RatingSource, RatingValue, Timestamp};
/// # fn main() -> Result<(), rrs_core::CoreError> {
/// let mut clean = RatingDataset::new();
/// for day in 0..10 {
///     clean.insert(
///         Rating::new(
///             RaterId::new(day),
///             ProductId::new(0),
///             Timestamp::new(f64::from(day))?,
///             RatingValue::new(4.0)?,
///         ),
///         RatingSource::Fair,
///     );
/// }
/// let mut attacked = clean.clone();
/// attacked.insert(
///     Rating::new(RaterId::new(100), ProductId::new(0), Timestamp::new(5.0)?, RatingValue::new(0.0)?),
///     RatingSource::Unfair,
/// );
/// assert_eq!(clean.len(), 10);
/// assert_eq!(attacked.unfair_ids().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RatingDataset {
    timelines: BTreeMap<ProductId, ColumnTimeline>,
    len: usize,
    next_id: u64,
}

impl RatingDataset {
    /// Creates an empty dataset.
    #[must_use]
    pub fn new() -> Self {
        RatingDataset::default()
    }

    /// Inserts a rating with the given provenance and returns its
    /// identifier.
    pub fn insert(&mut self, rating: Rating, source: RatingSource) -> RatingId {
        let id = RatingId(self.next_id);
        self.next_id += 1;
        self.insert_entry(RatingEntry { id, rating, source });
        id
    }

    /// Files `entry` under its rating's product, keeping its identifier.
    fn insert_entry(&mut self, entry: RatingEntry) {
        self.timelines
            .entry(entry.rating().product())
            .or_default()
            .insert(entry);
        self.len += 1;
    }

    /// Returns the timeline view for `product`, if any rating exists for
    /// it.
    #[must_use]
    pub fn product(&self, product: ProductId) -> Option<TimelineView<'_>> {
        self.timelines.get(&product).map(|tl| tl.view(product))
    }

    /// Iterates over `(product, timeline)` pairs in product order.
    pub fn products(&self) -> impl Iterator<Item = (ProductId, TimelineView<'_>)> {
        self.timelines.iter().map(|(&pid, tl)| (pid, tl.view(pid)))
    }

    /// Returns the product identifiers present in the dataset.
    #[must_use]
    pub fn product_ids(&self) -> Vec<ProductId> {
        self.timelines.keys().copied().collect()
    }

    /// Returns the total number of ratings across all products.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the dataset holds no ratings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the earliest and latest rating time across all products.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Empty`] if the dataset holds no ratings.
    pub fn time_span(&self) -> Result<(Timestamp, Timestamp), CoreError> {
        let mut span: Option<(Timestamp, Timestamp)> = None;
        for (_, tl) in self.products() {
            if let (Some(first), Some(last)) = (tl.first(), tl.last()) {
                span = Some(match span {
                    None => (first.time(), last.time()),
                    Some((lo, hi)) => (lo.min(first.time()), hi.max(last.time())),
                });
            }
        }
        span.ok_or(CoreError::Empty { what: "dataset" })
    }

    /// Returns the identifiers of all ratings with
    /// [`RatingSource::Unfair`] provenance.
    #[must_use]
    pub fn unfair_ids(&self) -> Vec<RatingId> {
        let mut out = Vec::new();
        for (_, tl) in self.products() {
            for i in 0..tl.len() {
                if tl.source_at(i).is_unfair() {
                    out.push(tl.id_at(i));
                }
            }
        }
        out
    }

    /// Returns the distinct raters appearing in the dataset.
    #[must_use]
    pub fn raters(&self) -> Vec<RaterId> {
        let mut set = std::collections::BTreeSet::new();
        for (_, tl) in self.products() {
            for i in 0..tl.len() {
                set.insert(tl.rater_at(i));
            }
        }
        set.into_iter().collect()
    }

    /// Iterates over every entry in the dataset, grouped by product and in
    /// time order within each product.
    pub fn iter(&self) -> impl Iterator<Item = RatingEntry> + '_ {
        self.products().flat_map(|(_, tl)| tl.iter())
    }

    /// Returns a copy containing only the ratings whose times fall in
    /// `window`, with identifiers preserved.
    ///
    /// Prefer [`prefix_view`](Self::prefix_view) on hot paths: it exposes
    /// the same product set without copying a single rating. `restricted`
    /// remains for callers that need an owned, independently mutable
    /// dataset.
    #[must_use]
    pub fn restricted(&self, window: TimeWindow) -> RatingDataset {
        let mut out = RatingDataset {
            next_id: self.next_id,
            ..RatingDataset::default()
        };
        for entry in self.iter().filter(|e| window.contains(e.time())) {
            out.insert_entry(entry);
        }
        out
    }

    /// Returns a borrowed view of the whole dataset.
    ///
    /// The store holds no product without ratings, so `view()` and
    /// [`prefix_view`](Self::prefix_view) over a window covering the
    /// whole time span expose the same product set.
    #[must_use]
    pub fn view(&self) -> DatasetView<'_> {
        DatasetView {
            products: self.products().collect(),
        }
    }

    /// Returns a borrowed view of the ratings whose times fall in
    /// `window` — the zero-copy equivalent of
    /// [`restricted`](Self::restricted), covering the same products (ones
    /// with no rating in the window are omitted).
    ///
    /// The P-scheme runs *online*: at each monthly trust-update epoch it
    /// re-detects over the data available so far. Materializing that
    /// prefix with `restricted` made epoch *e* re-clone epochs `0..e` —
    /// O(epochs × ratings) allocation over a run; this view borrows each
    /// product's in-window sub-view instead, so an epoch costs two binary
    /// searches per product.
    #[must_use]
    pub fn prefix_view(&self, window: TimeWindow) -> DatasetView<'_> {
        let mut products = Vec::new();
        for (pid, tl) in self.products() {
            let scoped = tl.in_window(window);
            if !scoped.is_empty() {
                products.push((pid, scoped));
            }
        }
        DatasetView { products }
    }
}

/// A borrowed read view of a dataset: the product timelines visible to
/// one detection or trust-update pass.
///
/// Produced by [`RatingDataset::view`] (everything) and
/// [`RatingDataset::prefix_view`] (one time window, zero-copy). APIs that
/// only read ratings accept `impl Into<DatasetView>`, so `&RatingDataset`
/// and `&DatasetView` are interchangeable at call sites.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetView<'a> {
    products: Vec<(ProductId, TimelineView<'a>)>,
}

impl<'a> DatasetView<'a> {
    /// Returns the `(product, timeline)` pairs in ascending product
    /// order.
    #[must_use]
    pub fn products(&self) -> &[(ProductId, TimelineView<'a>)] {
        &self.products
    }

    /// Returns the view of `product`, if it has any rating here.
    #[must_use]
    pub fn product(&self, product: ProductId) -> Option<TimelineView<'a>> {
        self.products
            .binary_search_by_key(&product, |(pid, _)| *pid)
            .ok()
            .map(|i| self.products[i].1)
    }

    /// Returns the total number of ratings across all products.
    #[must_use]
    pub fn len(&self) -> usize {
        self.products.iter().map(|(_, tl)| tl.len()).sum()
    }

    /// Returns `true` if the view holds no ratings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.products.iter().all(|(_, tl)| tl.is_empty())
    }
}

impl<'a> From<&'a RatingDataset> for DatasetView<'a> {
    fn from(dataset: &'a RatingDataset) -> Self {
        dataset.view()
    }
}

impl<'a> From<&DatasetView<'a>> for DatasetView<'a> {
    fn from(view: &DatasetView<'a>) -> Self {
        view.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::vec_of;
    use crate::{prop_assert, prop_assert_eq, props};
    use std::collections::BTreeMap;

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

    /// Builds a dataset from `days`, spreading ratings over five products.
    fn spread_over_products(days: &[f64]) -> RatingDataset {
        let mut d = RatingDataset::new();
        for (i, day) in days.iter().enumerate() {
            d.insert(
                rating(i as u32, (i % 5) as u16, *day, 1.0 + (i % 4) as f64),
                RatingSource::Fair,
            );
        }
        d
    }

    /// The row layout the columnar store is checked against: per
    /// product, a `Vec<RatingEntry>` sorted by `(time, id)`, with ids
    /// assigned in insertion order.
    fn row_reference(ratings: &[(Rating, RatingSource)]) -> BTreeMap<ProductId, Vec<RatingEntry>> {
        let mut rows: BTreeMap<ProductId, Vec<RatingEntry>> = BTreeMap::new();
        for (i, &(rating, source)) in ratings.iter().enumerate() {
            let entry = RatingEntry {
                id: RatingId(i as u64),
                rating,
                source,
            };
            let timeline = rows.entry(rating.product()).or_default();
            let pos =
                timeline.partition_point(|e| (e.time(), e.id()) <= (entry.time(), entry.id()));
            timeline.insert(pos, entry);
        }
        rows
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut d = RatingDataset::new();
        let a = d.insert(rating(1, 0, 0.0, 4.0), RatingSource::Fair);
        let b = d.insert(rating(2, 0, 1.0, 4.0), RatingSource::Fair);
        assert!(a < b);
        assert_eq!(a.value() + 1, b.value());
    }

    #[test]
    fn entries_sorted_by_time_regardless_of_insert_order() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 0, 5.0, 4.0), RatingSource::Fair);
        d.insert(rating(2, 0, 1.0, 3.0), RatingSource::Fair);
        d.insert(rating(3, 0, 3.0, 2.0), RatingSource::Fair);
        let times = d.product(ProductId::new(0)).unwrap().times();
        assert_eq!(
            times.iter().map(|t| t.as_days()).collect::<Vec<_>>(),
            vec![1.0, 3.0, 5.0]
        );
    }

    #[test]
    fn ties_in_time_preserve_insertion_order() {
        let mut d = RatingDataset::new();
        let a = d.insert(rating(1, 0, 2.0, 1.0), RatingSource::Fair);
        let b = d.insert(rating(2, 0, 2.0, 2.0), RatingSource::Fair);
        let tl = d.product(ProductId::new(0)).unwrap();
        assert_eq!(tl.entry(0).id(), a);
        assert_eq!(tl.entry(1).id(), b);
    }

    #[test]
    fn in_window_is_half_open() {
        let mut d = RatingDataset::new();
        for day in 0..10 {
            d.insert(rating(day, 0, f64::from(day), 4.0), RatingSource::Fair);
        }
        let tl = d.product(ProductId::new(0)).unwrap();
        let scoped = tl.in_window(window(2.0, 5.0));
        assert_eq!(scoped.len(), 3);
        assert_eq!(scoped.time_at(0).as_days(), 2.0);
        assert_eq!(scoped.time_at(2).as_days(), 4.0);
        assert_eq!(tl.window_range(window(2.0, 5.0)), 2..5);
        assert!(tl.window_range(window(20.0, 30.0)).is_empty());
    }

    #[test]
    fn daily_counts_buckets_correctly() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 0, 0.2, 4.0), RatingSource::Fair);
        d.insert(rating(2, 0, 0.9, 4.0), RatingSource::Fair);
        d.insert(rating(3, 0, 1.5, 4.0), RatingSource::Fair);
        d.insert(rating(4, 0, 2.0, 4.0), RatingSource::Fair);
        let counts = d
            .product(ProductId::new(0))
            .unwrap()
            .daily_counts(window(0.0, 3.0));
        assert_eq!(counts, vec![2, 1, 1]);
    }

    #[test]
    fn daily_counts_filtered_splits_high_low() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 0, 0.5, 5.0), RatingSource::Fair);
        d.insert(rating(2, 0, 0.6, 1.0), RatingSource::Fair);
        let tl = d.product(ProductId::new(0)).unwrap();
        let high = tl.daily_counts_filtered(window(0.0, 1.0), |v| v > 2.5);
        let low = tl.daily_counts_filtered(window(0.0, 1.0), |v| v < 2.5);
        assert_eq!(high, vec![1]);
        assert_eq!(low, vec![1]);
    }

    #[test]
    fn clone_preserves_ids_for_ground_truth() {
        let mut clean = RatingDataset::new();
        let fair_id = clean.insert(rating(1, 0, 0.0, 4.0), RatingSource::Fair);
        let mut attacked = clean.clone();
        let unfair_id = attacked.insert(rating(99, 0, 1.0, 0.0), RatingSource::Unfair);
        assert_ne!(fair_id, unfair_id);
        assert_eq!(attacked.unfair_ids(), vec![unfair_id]);
        assert!(clean.unfair_ids().is_empty());
    }

    #[test]
    fn restricted_keeps_ids_and_window_only() {
        let mut d = RatingDataset::new();
        let a = d.insert(rating(1, 0, 5.0, 4.0), RatingSource::Fair);
        let _b = d.insert(rating(2, 0, 50.0, 4.0), RatingSource::Fair);
        let r = d.restricted(window(0.0, 30.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().id(), a);
        // New insertions after restriction do not collide with old ids.
        let mut r2 = r.clone();
        let c = r2.insert(rating(3, 0, 10.0, 4.0), RatingSource::Unfair);
        assert!(c.value() >= 2);
    }

    #[test]
    fn time_span_on_empty_errors() {
        assert!(RatingDataset::new().time_span().is_err());
    }

    #[test]
    fn time_span_spans_products() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 0, 5.0, 4.0), RatingSource::Fair);
        d.insert(rating(2, 1, 1.0, 4.0), RatingSource::Fair);
        d.insert(rating(3, 1, 9.0, 4.0), RatingSource::Fair);
        let (lo, hi) = d.time_span().unwrap();
        assert_eq!(lo.as_days(), 1.0);
        assert_eq!(hi.as_days(), 9.0);
    }

    #[test]
    fn raters_are_distinct_and_sorted() {
        let mut d = RatingDataset::new();
        d.insert(rating(5, 0, 0.0, 4.0), RatingSource::Fair);
        d.insert(rating(1, 1, 1.0, 4.0), RatingSource::Fair);
        d.insert(rating(5, 1, 2.0, 4.0), RatingSource::Fair);
        assert_eq!(d.raters(), vec![RaterId::new(1), RaterId::new(5)]);
    }

    #[test]
    fn mean_value() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 0, 0.0, 2.0), RatingSource::Fair);
        d.insert(rating(2, 0, 1.0, 4.0), RatingSource::Fair);
        let tl = d.product(ProductId::new(0)).unwrap();
        assert_eq!(tl.mean_value(), Some(3.0));
        assert_eq!(tl.in_window(window(5.0, 6.0)).mean_value(), None);
    }

    #[test]
    fn prefix_view_matches_restricted() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 0, 5.0, 4.0), RatingSource::Fair);
        d.insert(rating(2, 0, 50.0, 4.0), RatingSource::Fair);
        d.insert(rating(3, 1, 70.0, 2.0), RatingSource::Unfair);
        let w = window(0.0, 30.0);
        let view = d.prefix_view(w);
        let copy = d.restricted(w);
        // Same product set, same entries, same order — without copying.
        assert_eq!(view.products().len(), copy.products().count());
        for (pid, tl) in view.products() {
            assert_eq!(
                Some(tl.to_vec()),
                copy.product(*pid).map(TimelineView::to_vec)
            );
        }
        assert_eq!(view.len(), copy.len());
        // Products with nothing in the window are omitted, as in
        // `restricted`.
        assert!(view.product(ProductId::new(1)).is_none());
    }

    #[test]
    fn dataset_view_product_lookup() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 3, 1.0, 4.0), RatingSource::Fair);
        d.insert(rating(2, 7, 2.0, 3.0), RatingSource::Fair);
        let view = d.view();
        assert_eq!(view.products().len(), 2);
        assert_eq!(
            view.product(ProductId::new(7)).map(TimelineView::len),
            Some(1)
        );
        assert!(view.product(ProductId::new(5)).is_none());
        assert!(!view.is_empty());
        assert_eq!(view.len(), 2);
    }

    #[test]
    fn timeline_view_mirrors_timeline() {
        let mut d = RatingDataset::new();
        d.insert(rating(1, 0, 0.2, 4.0), RatingSource::Fair);
        d.insert(rating(2, 0, 1.5, 2.0), RatingSource::Fair);
        let tl = d.product(ProductId::new(0)).unwrap();
        assert_eq!(tl.iter().count(), 2);
        assert_eq!(tl.first().map(|e| e.rater()), Some(RaterId::new(1)));
        assert_eq!(tl.last().map(|e| e.rater()), Some(RaterId::new(2)));
        let w = window(0.0, 3.0);
        assert_eq!(tl.daily_counts(w), vec![1, 1, 0]);
        assert_eq!(tl.in_window(w), tl);
    }

    props! {
        #[test]
        fn prefix_view_equals_restricted_on_random_windows(
            days in vec_of(0.0f64..90.0, 0..60)
        ) {
            let mut d = RatingDataset::new();
            for (i, day) in days.iter().enumerate() {
                d.insert(rating(i as u32, (i % 3) as u16, *day, 3.0), RatingSource::Fair);
            }
            let w = window(20.0, 60.0);
            let view = d.prefix_view(w);
            let copy = d.restricted(w);
            prop_assert_eq!(view.len(), copy.len());
            for (pid, tl) in view.products() {
                let owned = copy.product(*pid).map(TimelineView::to_vec);
                prop_assert_eq!(Some(tl.to_vec()), owned);
            }
        }

        #[test]
        fn timeline_always_sorted(days in vec_of(0.0f64..100.0, 1..50)) {
            let mut d = RatingDataset::new();
            for (i, day) in days.iter().enumerate() {
                d.insert(rating(i as u32, 0, *day, 3.0), RatingSource::Fair);
            }
            let times = d.product(ProductId::new(0)).unwrap().times();
            for pair in times.windows(2) {
                prop_assert!(pair[0] <= pair[1]);
            }
        }

        #[test]
        fn daily_counts_sum_to_window_population(days in vec_of(0.0f64..30.0, 0..80)) {
            let mut d = RatingDataset::new();
            for (i, day) in days.iter().enumerate() {
                d.insert(rating(i as u32, 0, *day, 3.0), RatingSource::Fair);
            }
            if let Some(tl) = d.product(ProductId::new(0)) {
                let w = window(0.0, 30.0);
                let counts = tl.daily_counts(w);
                let total: u32 = counts.iter().sum();
                prop_assert_eq!(total as usize, tl.in_window(w).len());
            }
        }

        // The row reference: the columnar store exposes the same
        // entries, bit for bit, through every read path. Days are drawn
        // on a half-day grid so ties in time exercise the id order.
        #[test]
        fn columns_equal_the_row_reference(
            draws in vec_of((0u32..120, 0u16..9, 0.0f64..=5.0, 0u32..40), 0..80),
            window_start in 0.0f64..40.0,
        ) {
            let ratings: Vec<(Rating, RatingSource)> = draws
                .iter()
                .enumerate()
                .map(|(i, &(half_days, product, value, rater))| {
                    let source = if i % 3 == 0 { RatingSource::Unfair } else { RatingSource::Fair };
                    (rating(rater, product, f64::from(half_days) / 2.0, value), source)
                })
                .collect();
            let mut d = RatingDataset::new();
            for &(r, source) in &ratings {
                d.insert(r, source);
            }
            let rows = row_reference(&ratings);
            let w = window(window_start, window_start + 25.0);
            prop_assert_eq!(d.len(), ratings.len());
            prop_assert_eq!(d.product_ids(), rows.keys().copied().collect::<Vec<_>>());
            let mut in_window_rows = Vec::new();
            for (pid, row) in &rows {
                let tl = d.product(*pid).unwrap();
                prop_assert_eq!(&tl.to_vec(), row);
                let bits: Vec<u64> = tl.values().iter().map(|v| v.to_bits()).collect();
                let row_bits: Vec<u64> = row.iter().map(|e| e.value().to_bits()).collect();
                prop_assert_eq!(bits, row_bits);
                let row_times: Vec<Timestamp> = row.iter().map(RatingEntry::time).collect();
                prop_assert_eq!(tl.times(), row_times);
                let scoped: Vec<RatingEntry> =
                    row.iter().filter(|e| w.contains(e.time())).copied().collect();
                prop_assert_eq!(tl.in_window(w).to_vec(), scoped.clone());
                if !scoped.is_empty() {
                    in_window_rows.push((*pid, scoped));
                }
            }
            let prefix: Vec<(ProductId, Vec<RatingEntry>)> = d
                .prefix_view(w)
                .products()
                .iter()
                .map(|(pid, tl)| (*pid, tl.to_vec()))
                .collect();
            prop_assert_eq!(prefix, in_window_rows);
        }

        // `view()` omits empty timelines, so it exposes exactly the
        // product set of a whole-span `prefix_view` (satellite: the two
        // "whole dataset" views used to disagree on products() length).
        #[test]
        fn view_matches_whole_span_prefix_view(
            days in vec_of(0.0f64..50.0, 1..40)
        ) {
            let mut d = RatingDataset::new();
            for (i, day) in days.iter().enumerate() {
                d.insert(rating(i as u32, (i % 4) as u16, *day, 3.0), RatingSource::Fair);
            }
            let whole = window(0.0, 51.0);
            let full = d.view();
            let prefixed = d.prefix_view(whole);
            prop_assert_eq!(full.products().len(), prefixed.products().len());
            prop_assert_eq!(full, prefixed);
        }

        // The binary-search contract of `DatasetView::product`: views
        // from every constructor keep products strictly ascending.
        #[test]
        fn dataset_views_keep_products_sorted(
            days in vec_of(0.0f64..60.0, 0..50)
        ) {
            let d = spread_over_products(&days);
            let w = window(10.0, 45.0);
            for view in [d.view(), d.prefix_view(w)] {
                for pair in view.products().windows(2) {
                    prop_assert!(pair[0].0 < pair[1].0);
                }
                // And the lookup actually finds every product.
                for (pid, tl) in view.products() {
                    prop_assert_eq!(view.product(*pid).map(TimelineView::len), Some(tl.len()));
                }
            }
        }
    }
}
