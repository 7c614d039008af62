//! The storage engine behind [`RatingDataset`](crate::RatingDataset).
//!
//! The paper logic (detectors, trust, aggregation) is a pure core that
//! reads ratings exclusively through the borrowed views
//! [`TimelineView`](crate::TimelineView) / [`DatasetView`](crate::DatasetView).
//! [`ColumnarStore`] is what those views borrow from: a struct-of-arrays
//! layout sharded by product. Each shard owns parallel `ids` / `times` /
//! `values` / `raters` / `sources` columns per product, so detector scans
//! walk contiguous `f64`/`Timestamp` columns instead of hopping across
//! 56-byte row structs, and bulk ingest fans shards out through
//! [`crate::par::par_map_owned`]. The dataset tests keep a row layout
//! (one `(time, id)`-sorted `Vec<RatingEntry>` per product) as the
//! reference the columns are checked against bit for bit.
//!
//! Determinism: shards are keyed by disjoint [`ProductId`] ranges and
//! never share state, so per-shard parallel ingest commutes — each
//! rating lands in exactly one shard, and within a shard entries are
//! ordered by `(time, id)`. A 1-thread and an 8-thread ingest therefore
//! build byte-identical stores.

use crate::dataset::{RatingEntry, TimelineView};
use crate::{ProductId, Timestamp};
use std::collections::BTreeMap;

/// How many consecutive product ids share one shard.
///
/// Small on purpose: the paper-scale challenge uses single-digit product
/// ids, and a narrow span spreads even those across shards so bulk
/// ingest parallelizes at every scale. With `u16` product ids the shard
/// count is bounded by `65536 / SHARD_SPAN`.
const SHARD_SPAN: u16 = 4;

/// Returns the shard key owning `product`.
const fn shard_key(product: ProductId) -> u16 {
    product.value() / SHARD_SPAN
}

/// One product's history as five parallel columns.
///
/// All five vectors share one length and one `(time, id)`-sorted order;
/// index `i` across them reassembles the `i`-th [`RatingEntry`].
#[derive(Debug, Clone, Default, PartialEq)]
struct ColumnTimeline {
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
    fn insert(&mut self, entry: RatingEntry) {
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

    fn view(&self, product: ProductId) -> TimelineView<'_> {
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

/// One shard: the column timelines of a contiguous [`ProductId`] range.
///
/// `products` is kept sorted and parallel to `timelines`.
#[derive(Debug, Clone, Default, PartialEq)]
struct Shard {
    products: Vec<ProductId>,
    timelines: Vec<ColumnTimeline>,
}

impl Shard {
    fn timeline_mut(&mut self, product: ProductId) -> &mut ColumnTimeline {
        let index = match self.products.binary_search(&product) {
            Ok(i) => i,
            Err(i) => {
                self.products.insert(i, product);
                self.timelines.insert(i, ColumnTimeline::default());
                i
            }
        };
        &mut self.timelines[index]
    }

    fn absorb(&mut self, entries: Vec<RatingEntry>) {
        for entry in entries {
            self.timeline_mut(entry.rating().product()).insert(entry);
        }
    }
}

/// Struct-of-arrays columns, sharded by product.
///
/// Each product's entries are sorted by `(time, id)`, and
/// [`timelines`](ColumnarStore::timelines) yields products in ascending
/// [`ProductId`] order — the binary-search contract of
/// [`DatasetView::product`](crate::DatasetView::product) rests on it. See
/// the module docs for layout and determinism rationale.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ColumnarStore {
    shards: BTreeMap<u16, Shard>,
    len: usize,
}

impl ColumnarStore {
    /// Inserts one entry under its rating's product.
    pub(crate) fn insert_entry(&mut self, entry: RatingEntry) {
        let product = entry.rating().product();
        self.shards
            .entry(shard_key(product))
            .or_default()
            .timeline_mut(product)
            .insert(entry);
        self.len += 1;
    }

    /// Inserts a batch with the same result as repeated
    /// [`insert_entry`](ColumnarStore::insert_entry) calls in order.
    ///
    /// Buckets the batch per shard, then runs the per-shard inserts
    /// through [`crate::par::par_map_owned`]. Shards are disjoint and
    /// each bucket preserves arrival order, so the result is identical
    /// at any thread count.
    pub(crate) fn bulk_insert(&mut self, entries: Vec<RatingEntry>) {
        self.len += entries.len();
        let mut buckets: BTreeMap<u16, Vec<RatingEntry>> = BTreeMap::new();
        for entry in entries {
            buckets
                .entry(shard_key(entry.rating().product()))
                .or_default()
                .push(entry);
        }
        let tasks: Vec<(u16, Shard, Vec<RatingEntry>)> = buckets
            .into_iter()
            .map(|(key, bucket)| (key, self.shards.remove(&key).unwrap_or_default(), bucket))
            .collect();
        let done = crate::par::par_map_owned(tasks, |_, (key, mut shard, bucket)| {
            shard.absorb(bucket);
            (key, shard)
        });
        for (key, shard) in done {
            self.shards.insert(key, shard);
        }
    }

    /// Returns the borrowed timeline of `product`, if it has ratings.
    pub(crate) fn timeline(&self, product: ProductId) -> Option<TimelineView<'_>> {
        let shard = self.shards.get(&shard_key(product))?;
        let index = shard.products.binary_search(&product).ok()?;
        Some(shard.timelines[index].view(product))
    }

    /// Returns every `(product, timeline)` pair in ascending product
    /// order.
    pub(crate) fn timelines(&self) -> Vec<(ProductId, TimelineView<'_>)> {
        // BTreeMap iterates shard keys ascending and shard-local product
        // lists are sorted, so the concatenation is globally sorted.
        let mut out = Vec::new();
        for shard in self.shards.values() {
            for (pid, tl) in shard.products.iter().zip(&shard.timelines) {
                out.push((*pid, tl.view(*pid)));
            }
        }
        out
    }

    /// Returns the total number of stored ratings.
    pub(crate) fn len(&self) -> usize {
        self.len
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
    fn shard_key_groups_contiguous_ranges() {
        assert_eq!(shard_key(ProductId::new(0)), shard_key(ProductId::new(3)));
        assert_ne!(shard_key(ProductId::new(3)), shard_key(ProductId::new(4)));
    }

    #[test]
    fn columnar_insert_orders_by_time_then_id() {
        let mut store = ColumnarStore::default();
        store.insert_entry(entry(0, 1, 0, 5.0, 4.0));
        store.insert_entry(entry(1, 2, 0, 1.0, 3.0));
        store.insert_entry(entry(2, 3, 0, 5.0, 2.0));
        let tl = store.timeline(ProductId::new(0)).unwrap();
        let days: Vec<f64> = tl.times().iter().map(|t| t.as_days()).collect();
        assert_eq!(days, vec![1.0, 5.0, 5.0]);
        // Tie at day 5 keeps id order: id 0 before id 2.
        assert_eq!(tl.id_at(1).value(), 0);
        assert_eq!(tl.id_at(2).value(), 2);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn bulk_insert_matches_serial_inserts() {
        let batch: Vec<RatingEntry> = (0..200)
            .map(|i| {
                entry(
                    i,
                    i as u32,
                    (i % 13) as u16,
                    (i as f64 * 7.3) % 90.0,
                    3.0 + (i % 3) as f64 / 2.0,
                )
            })
            .collect();
        let mut serial = ColumnarStore::default();
        for e in &batch {
            serial.insert_entry(*e);
        }
        let mut bulk = ColumnarStore::default();
        bulk.bulk_insert(batch);
        assert_eq!(serial, bulk);
    }

    #[test]
    fn bulk_insert_is_thread_count_invariant() {
        let batch: Vec<RatingEntry> = (0..500)
            .map(|i| entry(i, i as u32, (i % 29) as u16, (i as f64 * 3.7) % 60.0, 4.0))
            .collect();
        let one = crate::par::with_threads(1, || {
            let mut s = ColumnarStore::default();
            s.bulk_insert(batch.clone());
            s
        });
        let eight = crate::par::with_threads(8, || {
            let mut s = ColumnarStore::default();
            s.bulk_insert(batch.clone());
            s
        });
        assert_eq!(one, eight);
    }
}
