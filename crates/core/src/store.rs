//! The column layout behind [`RatingDataset`](crate::RatingDataset).
//!
//! The paper logic (detectors, trust, aggregation) is a pure core that
//! reads ratings exclusively through the borrowed views
//! [`TimelineView`](crate::TimelineView) / [`DatasetView`](crate::DatasetView).
//! A [`ColumnTimeline`] is what a view borrows from: one product's
//! history as parallel `ids` / `times` / `values` / `raters` / `sources`
//! columns, so detector scans walk contiguous `f64`/`Timestamp` columns
//! instead of hopping across 56-byte row structs. The dataset keeps one
//! timeline per product in a single product-ordered map, and every
//! rating enters it through [`ColumnTimeline::insert`]. The dataset
//! tests keep a row layout (one `(time, id)`-sorted `Vec<RatingEntry>`
//! per product) as the reference the columns are checked against bit
//! for bit.

use crate::dataset::{RatingEntry, TimelineView};
use crate::{ProductId, Timestamp};

/// One product's history as five parallel columns.
///
/// All five vectors share one length and one `(time, id)`-sorted order;
/// index `i` across them reassembles the `i`-th [`RatingEntry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ColumnTimeline {
    ids: Vec<crate::RatingId>,
    times: Vec<Timestamp>,
    values: Vec<f64>,
    raters: Vec<crate::RaterId>,
    sources: Vec<crate::RatingSource>,
}

impl ColumnTimeline {
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Inserts keeping `(time, id)` order; the common case — ratings
    /// arriving in time order — is a pure append to all five columns.
    pub(crate) fn insert(&mut self, entry: RatingEntry) {
        let key = (entry.time(), entry.id());
        let pos = if self
            .ids
            .last()
            .is_none_or(|&last| (self.times[self.len() - 1], last) <= key)
        {
            self.len()
        } else {
            let lo = self.times.partition_point(|&t| t < entry.time());
            let hi = self.times.partition_point(|&t| t <= entry.time());
            lo + self.ids[lo..hi].partition_point(|&id| id <= entry.id())
        };
        self.ids.insert(pos, entry.id());
        self.times.insert(pos, entry.time());
        self.values.insert(pos, entry.value());
        self.raters.insert(pos, entry.rater());
        self.sources.insert(pos, entry.source());
    }

    pub(crate) fn view(&self, product: ProductId) -> TimelineView<'_> {
        TimelineView::from_columns(
            product,
            &self.ids,
            &self.times,
            &self.values,
            &self.raters,
            &self.sources,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RaterId, Rating, RatingSource, RatingValue};

    fn entry(id: u64, rater: u32, product: u16, day: f64, value: f64) -> RatingEntry {
        RatingEntry::assemble(
            crate::dataset::raw_rating_id(id),
            Rating::new(
                RaterId::new(rater),
                ProductId::new(product),
                Timestamp::new(day).unwrap(),
                RatingValue::new(value).unwrap(),
            ),
            RatingSource::Fair,
        )
    }

    #[test]
    fn columnar_insert_orders_by_time_then_id() {
        let mut timeline = ColumnTimeline::default();
        timeline.insert(entry(0, 1, 0, 5.0, 4.0));
        timeline.insert(entry(1, 2, 0, 1.0, 3.0));
        timeline.insert(entry(2, 3, 0, 5.0, 2.0));
        let tl = timeline.view(ProductId::new(0));
        let days: Vec<f64> = tl.times().iter().map(|t| t.as_days()).collect();
        assert_eq!(days, vec![1.0, 5.0, 5.0]);
        // Tie at day 5 keeps id order: id 0 before id 2.
        assert_eq!(tl.id_at(1).value(), 0);
        assert_eq!(tl.id_at(2).value(), 2);
        assert_eq!(tl.len(), 3);
    }
}
