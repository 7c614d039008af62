//! The signal-model-change / model-error (ME) detector (paper Section
//! IV-E, after Yang et al. 2007).
//!
//! Ratings in a sliding window are fitted to an AR model by the covariance
//! method. Honest ratings are close to white noise around the product
//! quality — the model predicts poorly and the (variance-normalized)
//! model error stays near 1. Collaborative unfair ratings introduce
//! structure the model locks onto, and the error drops. Windows whose
//! error falls below a threshold are ME-suspicious.

use crate::suspicion::{SuspicionKind, SuspiciousInterval};
use rrs_core::{TimeWindow, TimelineView, Timestamp};
use rrs_signal::ar::fit_ar;
use rrs_signal::curve::{Curve, CurvePoint};

/// Window length in ratings (paper: 40).
pub(crate) const WINDOW_RATINGS: usize = 40;
/// Step between window starts, in ratings.
pub(crate) const STEP: usize = 5;
/// AR model order.
pub(crate) const ORDER: usize = 4;

/// Configuration of the ME detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeConfig {
    /// Windows with normalized model error at or below this are
    /// suspicious.
    pub threshold: f64,
}

impl Default for MeConfig {
    fn default() -> Self {
        MeConfig { threshold: 0.55 }
    }
}

/// The output of the ME detector on one product.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeOutcome {
    /// The model-error curve (one sample per evaluated window center).
    pub curve: Curve,
    /// Maximal runs of below-threshold windows, as time intervals.
    pub suspicious: Vec<SuspiciousInterval>,
}

impl MeOutcome {
    /// Returns `true` if any window fell below the threshold.
    #[must_use]
    pub fn is_suspicious(&self) -> bool {
        !self.suspicious.is_empty()
    }
}

/// Computes the ME curve point for the window starting at `start`, or
/// `None` when the AR fit fails (requires
/// `start + WINDOW_RATINGS ≤ values.len()`).
///
/// The point only reads the frozen prefix
/// `values[start..start + WINDOW_RATINGS]` and `times[center]`, so it is
/// final as soon as the window fits — the online path appends each new
/// window's point exactly once.
pub(crate) fn window_point(values: &[f64], times: &[f64], start: usize) -> Option<CurvePoint> {
    let center = start + WINDOW_RATINGS / 2;
    fit_ar(&values[start..start + WINDOW_RATINGS], ORDER)
        .ok()
        .map(|model| CurvePoint {
            index: center,
            time: times[center],
            value: model.normalized_error(),
        })
}

/// Merges consecutive below-threshold curve samples into suspicious
/// intervals covering the full windows involved — shared verbatim by the
/// batch and online paths.
pub(crate) fn suspicious_runs(
    curve: &Curve,
    times: &[f64],
    config: &MeConfig,
) -> Vec<SuspiciousInterval> {
    let mut suspicious = Vec::new();
    let pts = curve.points();
    let mut run_start: Option<usize> = None;
    for (i, p) in pts.iter().enumerate() {
        let below = p.value <= config.threshold;
        match (below, run_start) {
            (true, None) => run_start = Some(i),
            (false, Some(s)) => {
                suspicious.push(run_interval(pts, s, i - 1, times));
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = run_start {
        suspicious.push(run_interval(pts, s, pts.len() - 1, times));
    }
    suspicious
}

/// Runs the ME detector over one product's timeline.
#[must_use]
pub fn detect(timeline: TimelineView<'_>, config: &MeConfig) -> MeOutcome {
    let n = timeline.len();
    if n < WINDOW_RATINGS {
        return MeOutcome::default();
    }
    // Contiguous column walks on the columnar engine.
    let values = timeline.values();
    let times: Vec<f64> = timeline.times().iter().map(|t| t.as_days()).collect();

    let signal_span = rrs_obs::trace::span("signal.me");
    let mut points = Vec::new();
    let mut start = 0usize;
    while start + WINDOW_RATINGS <= n {
        if let Some(p) = window_point(values, &times, start) {
            points.push(p);
        }
        start += STEP;
    }
    let curve = Curve::new(points);
    drop(signal_span);
    let _detect_span = rrs_obs::trace::span("detect.me");

    let suspicious = suspicious_runs(&curve, &times, config);
    MeOutcome { curve, suspicious }
}

fn run_interval(
    pts: &[CurvePoint],
    first: usize,
    last: usize,
    times: &[f64],
) -> SuspiciousInterval {
    let n = times.len();
    let start_idx = pts[first].index.saturating_sub(WINDOW_RATINGS / 2);
    let end_idx = (pts[last].index + WINDOW_RATINGS / 2).min(n - 1);
    // Strength: how far below threshold the error dropped (lower error =
    // stronger signal), reported as 1 − min error.
    let strength = 1.0
        - pts[first..=last]
            .iter()
            .map(|p| p.value)
            .fold(f64::INFINITY, f64::min);
    let window = TimeWindow::ordered(
        Timestamp::saturating(times[start_idx]),
        Timestamp::saturating(times[end_idx] + 1e-9),
    );
    SuspiciousInterval::new(window, SuspicionKind::ModelError, strength)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::rng::RrsRng;
    use rrs_core::rng::Xoshiro256pp;
    use rrs_core::{ProductId, RaterId, Rating, RatingDataset, RatingSource, RatingValue};

    fn dataset(values: impl Iterator<Item = (f64, f64)>) -> RatingDataset {
        let mut d = RatingDataset::new();
        for (i, (t, v)) in values.enumerate() {
            d.insert(
                Rating::new(
                    RaterId::new(i as u32),
                    ProductId::new(0),
                    Timestamp::new(t).unwrap(),
                    RatingValue::new_clamped(v),
                ),
                RatingSource::Fair,
            );
        }
        d
    }

    #[test]
    fn fair_noise_is_quiet() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let d = dataset((0..300).map(|i| (f64::from(i) * 0.25, 4.0 + rng.gen_range(-0.8..0.8))));
        let out = detect(d.product(ProductId::new(0)).unwrap(), &MeConfig::default());
        assert!(!out.is_suspicious(), "{:?}", out.suspicious);
        assert!(!out.curve.is_empty());
    }

    #[test]
    fn constant_collusion_run_is_flagged() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        // Ratings 120..180 all exactly 1.2: perfectly predictable.
        let d = dataset((0..300).map(|i| {
            let v = if (120..180).contains(&i) {
                1.2
            } else {
                4.0 + rng.gen_range(-0.8..0.8)
            };
            (f64::from(i) * 0.25, v)
        }));
        let out = detect(d.product(ProductId::new(0)).unwrap(), &MeConfig::default());
        assert!(out.is_suspicious(), "constant run not flagged");
        let attack =
            TimeWindow::new(Timestamp::new(30.0).unwrap(), Timestamp::new(45.0).unwrap()).unwrap();
        assert!(out.suspicious.iter().any(|s| s.overlaps(attack)));
    }

    #[test]
    fn oscillating_collusion_is_flagged() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        // Deterministic alternating pattern: AR-predictable.
        let d = dataset((0..300).map(|i| {
            let v = if (120..180).contains(&i) {
                if i % 2 == 0 {
                    1.0
                } else {
                    2.0
                }
            } else {
                4.0 + rng.gen_range(-0.8..0.8)
            };
            (f64::from(i) * 0.25, v)
        }));
        let out = detect(d.product(ProductId::new(0)).unwrap(), &MeConfig::default());
        assert!(out.is_suspicious(), "oscillation not flagged");
    }

    #[test]
    fn short_stream_is_silent() {
        let d = dataset((0..10).map(|i| (f64::from(i), 4.0)));
        let out = detect(d.product(ProductId::new(0)).unwrap(), &MeConfig::default());
        assert!(out.curve.is_empty());
        assert!(!out.is_suspicious());
    }
}
