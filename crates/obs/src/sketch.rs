//! Deterministic quantile sketches (DDSketch-style).
//!
//! A [`QuantileSketch`] summarises a stream of `f64` observations in
//! logarithmic buckets with a *relative-error* guarantee: for any
//! quantile `q`, the reported value `v̂` satisfies
//! `|v̂ - v| <= RELATIVE_ERROR * |v|` against the exact quantile `v`
//! of the observed finite values. The bucket for a positive value `v`
//! is the integer `ceil(ln(v) / ln(GAMMA))`, so every observation maps
//! to a bucket *index* and all state is integer counts. Integer counts
//! make the observation order irrelevant: a sketch is byte-for-byte
//! determined by the multiset of observed values, so a registry sketch
//! that `par_map` workers feed in any interleaving snapshots
//! identically at any thread count (an `f64` running sum would not,
//! since float addition is not associative).
//!
//! Negative values get their own mirror bucket map, zeros an exact
//! counter, and non-finite observations (NaN/±inf) are counted but
//! excluded from quantiles — a telemetry sink must not poison itself
//! on one bad sample.

use std::collections::BTreeMap;

/// The relative-error bound `α` every reported quantile honours.
pub const RELATIVE_ERROR: f64 = 0.01;

/// The bucket growth factor `γ = (1 + α) / (1 - α)` for α = 1%.
pub const GAMMA: f64 = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR);

/// Bucket indices are clamped to this magnitude; with γ ≈ 1.0202 the
/// extreme buckets still cover far beyond the f64 normal range, and the
/// clamp keeps index arithmetic comfortably inside `i32`.
const MAX_BUCKET: i32 = 40_000;

/// A log-bucketed quantile sketch with a fixed relative-error guarantee
/// of [`RELATIVE_ERROR`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Bucket counts for positive observations, keyed by log index.
    positive: BTreeMap<i32, u64>,
    /// Bucket counts for negative observations, keyed by the log index
    /// of the magnitude.
    negative: BTreeMap<i32, u64>,
    /// Exact count of observations equal to 0.0 (or so small they
    /// underflow the lowest bucket).
    zeros: u64,
    /// NaN / ±inf observations: counted, excluded from quantiles.
    non_finite: u64,
}

/// Log-bucket index for a strictly positive finite magnitude.
fn bucket_index(magnitude: f64) -> i32 {
    let idx = (magnitude.ln() / GAMMA.ln()).ceil();
    // The clamp also catches the (impossible for finite inputs) NaN.
    if idx >= f64::from(MAX_BUCKET) {
        MAX_BUCKET
    } else if idx <= f64::from(-MAX_BUCKET) {
        -MAX_BUCKET
    } else {
        idx as i32
    }
}

/// The representative magnitude of bucket `i`: the geometric-mean-like
/// midpoint `2γ^i / (γ + 1)`, which is within [`RELATIVE_ERROR`] of
/// every magnitude the bucket covers (`(γ^(i-1), γ^i]`).
fn bucket_value(index: i32) -> f64 {
    2.0 * GAMMA.powi(index) / (GAMMA + 1.0)
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            self.non_finite += 1;
        // lint:allow(float-eq): 0.0 is the exact sentinel routing to the zero bucket
        } else if value == 0.0 {
            self.zeros += 1;
        } else if value > 0.0 {
            *self.positive.entry(bucket_index(value)).or_insert(0) += 1;
        } else {
            *self.negative.entry(bucket_index(-value)).or_insert(0) += 1;
        }
    }

    /// Total observations, including non-finite ones.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.finite_count() + self.non_finite
    }

    /// Observations that participate in quantiles.
    #[must_use]
    pub fn finite_count(&self) -> u64 {
        self.zeros + self.positive.values().sum::<u64>() + self.negative.values().sum::<u64>()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the observed finite values,
    /// within [`RELATIVE_ERROR`] of the exact answer; `None` when no
    /// finite value has been observed. `q` outside `[0, 1]` is clamped.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.finite_count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The nearest-rank target among n sorted values (1-based).
        let target = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0_u64;
        // Ascending value order: most-negative first (descending
        // magnitude bucket), then zeros, then positives ascending.
        for (&idx, &c) in self.negative.iter().rev() {
            seen += c;
            if seen >= target {
                return Some(-bucket_value(idx));
            }
        }
        seen += self.zeros;
        if seen >= target {
            return Some(0.0);
        }
        for (&idx, &c) in &self.positive {
            seen += c;
            if seen >= target {
                return Some(bucket_value(idx));
            }
        }
        // Unreachable: target <= n and all n were walked.
        None
    }

    /// Deterministic approximate sum of the finite observations,
    /// accumulated over buckets in fixed (index) order so it does not
    /// depend on observation order.
    #[must_use]
    pub fn approx_sum(&self) -> f64 {
        let mut sum = 0.0;
        for (&idx, &c) in self.negative.iter().rev() {
            sum -= bucket_value(idx) * c as f64;
        }
        for (&idx, &c) in &self.positive {
            sum += bucket_value(idx) * c as f64;
        }
        sum
    }

    /// Renders the sketch as a JSON object: counts, the p50/p90/p99
    /// summary, and the raw bucket maps (the whole state).
    #[must_use]
    pub fn to_json(&self) -> String {
        let quant = |q: f64| {
            self.quantile(q)
                .map_or_else(|| "null".to_string(), rrs_core::io::json_number_or_null)
        };
        let buckets = |map: &BTreeMap<i32, u64>| {
            let entries: Vec<String> = map
                .iter()
                .map(|(idx, c)| format!("\"{idx}\":{c}"))
                .collect();
            format!("{{{}}}", entries.join(","))
        };
        format!(
            "{{\"count\":{},\"zeros\":{},\"non_finite\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\
             \"positive\":{},\"negative\":{}}}",
            self.count(),
            self.zeros,
            self.non_finite,
            quant(0.5),
            quant(0.9),
            quant(0.99),
            buckets(&self.positive),
            buckets(&self.negative),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::rng::{SliceRandom, Xoshiro256pp};
    use rrs_core::{prop_assert, props};

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn single_value_is_every_quantile_within_bound() {
        let mut s = QuantileSketch::new();
        s.observe(123.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!((v - 123.0).abs() <= RELATIVE_ERROR * 123.0, "q={q} v={v}");
        }
    }

    #[test]
    fn zeros_and_negatives_order_correctly() {
        let mut s = QuantileSketch::new();
        for v in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            s.observe(v);
        }
        assert_eq!(s.finite_count(), 5);
        let p50 = s.quantile(0.5).unwrap();
        assert!((p50 - 0.0).abs() <= 1e-12, "median of symmetric set: {p50}");
        assert!(s.quantile(0.0).unwrap() < 0.0);
        assert!(s.quantile(1.0).unwrap() > 0.0);
    }

    #[test]
    fn non_finite_observations_are_counted_but_ignored() {
        let mut s = QuantileSketch::new();
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        s.observe(2.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.finite_count(), 1);
        assert_eq!(s.non_finite, 2);
        let p99 = s.quantile(0.99).unwrap();
        assert!(p99.is_finite());
        assert!((p99 - 2.0).abs() <= RELATIVE_ERROR * 2.0);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut s = QuantileSketch::new();
        s.observe(1.0);
        let json = s.to_json();
        assert!(json.starts_with("{\"count\":1,"));
        for key in [
            "zeros",
            "non_finite",
            "p50",
            "p90",
            "p99",
            "positive",
            "negative",
        ] {
            assert!(
                json.contains(&format!("\"{key}\":")),
                "missing {key} in {json}"
            );
        }
    }

    fn fill(values: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &v in values {
            s.observe(v);
        }
        s
    }

    props! {
        #[test]
        fn observation_order_does_not_change_the_state(
            values in rrs_core::check::vec_of(rrs_core::check::any_f64(), 1..=200),
            seed in 0u64..1_000_000,
        ) {
            // The registry's sketches are fed by pool workers in whatever
            // order they run: any permutation of the same values must
            // leave bit-identical state, including quantile bits.
            let mut shuffled = values.clone();
            shuffled.shuffle(&mut Xoshiro256pp::seed_from_u64(seed));
            let ordered = fill(&values);
            let permuted = fill(&shuffled);
            prop_assert!(ordered == permuted, "permutation changed sketch state");
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let x = ordered.quantile(q).map(f64::to_bits);
                let y = permuted.quantile(q).map(f64::to_bits);
                prop_assert!(x == y, "quantile bits differ at q={q}");
            }
            prop_assert!(ordered.approx_sum().to_bits() == permuted.approx_sum().to_bits());
        }

        #[test]
        fn quantiles_respect_relative_error_bound(
            values in rrs_core::check::vec_of(-1.0e6f64..1.0e6, 1..=300),
        ) {
            // Round small magnitudes to exact zeros so the zero bucket
            // is exercised alongside both sign ranges.
            let values: Vec<f64> = values
                .into_iter()
                .map(|v| if v.abs() < 1.0 { 0.0 } else { v })
                .collect();
            let n = values.len();
            let s = fill(&values);
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                // The exact nearest-rank quantile the sketch targets.
                let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
                let exact = sorted[rank];
                let got = s.quantile(q).unwrap();
                let tol = RELATIVE_ERROR * exact.abs() + 1e-12;
                prop_assert!(
                    (got - exact).abs() <= tol,
                    "q={q}: sketch {got} vs exact {exact} (n={n})"
                );
            }
        }
    }
}
