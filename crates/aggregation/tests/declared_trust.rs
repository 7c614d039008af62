//! Detection with a declared trust column equals detection without one.
//!
//! `OnlineState` keeps each rater's trust between epochs and, when the
//! epoch loop declares which raters its trust update wrote, re-reads
//! only those. Here a real `TrustManager` evolves under random marks
//! between epochs, the way Procedure 1 moves it in the P-scheme, and at
//! every epoch three detections of the same prefix must agree exactly:
//! an online state fed the declarations, an online state that never
//! declares (a full resolve every call), and the batch `detect_all`.
//! Under a trust discount every record changes, so the loop declares
//! nothing and both online states take the full path.

use rrs_core::rng::{RrsRng, Xoshiro256pp};
use rrs_core::{
    prop_assert, props, ProductId, RaterId, Rating, RatingDataset, RatingId, RatingSource,
    RatingValue, TimeWindow, Timestamp,
};
use rrs_detectors::{JointDetector, OnlineState};
use rrs_trust::TrustManager;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

fn ts(d: f64) -> Timestamp {
    Timestamp::new(d).unwrap()
}

/// 90 days over three products from a pool of recurring raters, plus a
/// burst of low ratings on product 0 from raters who also rate fairly
/// elsewhere, so trust both accumulates and moves.
fn dataset(seed: u64) -> RatingDataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut d = RatingDataset::new();
    for product in 0..3u16 {
        for day in 0..90 {
            let n = 3 + (rng.gen::<u8>() % 3) as u32;
            for slot in 0..n {
                d.insert(
                    Rating::new(
                        RaterId::new(rng.gen_range(0..120u32)),
                        ProductId::new(product),
                        ts(f64::from(day) + f64::from(slot) / f64::from(n)),
                        RatingValue::new_clamped(4.0 + rng.gen_range(-0.8..0.8)),
                    ),
                    RatingSource::Fair,
                );
            }
        }
    }
    let start = 35.0 + f64::from(rng.gen::<u8>() % 20);
    for i in 0..48u32 {
        d.insert(
            Rating::new(
                RaterId::new(100 + i % 24),
                ProductId::new(0),
                ts(start + f64::from(i) / 4.0),
                RatingValue::new_clamped(0.5 + rng.gen_range(0.0..0.5)),
            ),
            RatingSource::Unfair,
        );
    }
    d
}

props! {
    #![cases(16)]
    #[test]
    fn declared_trust_column_equals_full_resolve_and_batch(
        seed in 0u64..1024,
        discounted in 0usize..2,
        mark_percent in 5u64..40,
    ) {
        let d = dataset(seed);
        let discount = (discounted == 1).then_some(0.8);
        let detector = JointDetector::default();
        let mut trust = TrustManager::new();
        let mut declared = OnlineState::new();
        let mut undeclared = OnlineState::new();
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5eed);
        let (mut declared_calls, mut full_calls) = (0usize, 0usize);
        let mut moved = false;
        for step in 0..9 {
            let start = f64::from(step) * 10.0;
            let period = TimeWindow::new(ts(start), ts(start + 10.0)).unwrap();
            let window = TimeWindow::new(ts(0.0), period.end()).unwrap();
            let prefix = d.prefix_view(window);
            let counted = |calls: &AtomicUsize, r: RaterId| {
                calls.fetch_add(1, Ordering::Relaxed);
                trust.trust_of(r)
            };
            let (d_calls, u_calls) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let (d_marks, d_results) = detector.detect_all_online(
                &prefix,
                window,
                |r| counted(&d_calls, r),
                &mut declared,
            );
            let (u_marks, u_results) = detector.detect_all_online(
                &prefix,
                window,
                |r| counted(&u_calls, r),
                &mut undeclared,
            );
            let (b_marks, b_results) = detector.detect_all(&prefix, window, |r| trust.trust_of(r));
            prop_assert!(d_marks == u_marks, "declared marks diverged at epoch {step}");
            prop_assert!(d_results == u_results, "declared results diverged at epoch {step}");
            prop_assert!(u_marks == b_marks, "online marks diverged from batch at epoch {step}");
            prop_assert!(u_results == b_results, "online results diverged from batch at epoch {step}");
            if step > 0 {
                declared_calls += d_calls.load(Ordering::Relaxed);
                full_calls += u_calls.load(Ordering::Relaxed);
            }

            // Random marks over the period's ratings, then Procedure 1.
            let mut marks: BTreeSet<RatingId> = BTreeSet::new();
            for &(_, timeline) in prefix.products() {
                for i in timeline.window_range(period) {
                    if rng.gen_range(0..100u64) < mark_percent {
                        marks.insert(timeline.id_at(i));
                    }
                }
            }
            if let Some(factor) = discount {
                trust.discount_all(factor);
            }
            let before = trust.snapshot();
            let update = trust.update_epoch(&prefix, period, &marks);
            moved |= before
                .iter()
                .any(|(r, t)| trust.trust_of(*r).to_bits() != t.to_bits());
            if discount.is_none() {
                declared.declare_trust_changes(update.touched.iter().copied());
            }
        }
        prop_assert!(moved, "trust never moved for a rater already seen");
        if discount.is_none() {
            prop_assert!(
                declared_calls < full_calls,
                "the declared state resolved {declared_calls} raters, the full one {full_calls}"
            );
        } else {
            prop_assert!(declared_calls == full_calls, "a discounted run must not patch");
        }
    }
}
