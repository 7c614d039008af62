//! The metrics registry: counters, gauges and quantile sketches.
//!
//! Every write goes through one of three free functions against one
//! global registry — [`counter_add`], [`gauge_set`] and
//! [`observe_quantile`] — and is a no-op while metrics collection is
//! [off](crate::enabled). [`snapshot`] returns an owned, ordered copy of
//! every metric — deterministic given deterministic inputs, since
//! nothing here reads a clock. Counter adds and sketch observations
//! commute (integer arithmetic only), so hot paths running under
//! `par_map` in any interleaving still produce bit-identical snapshots;
//! gauges must only be written from deterministic (serial) points.
//!
//! Snapshots render as JSON ([`MetricsSnapshot::to_json`]) for the
//! experiment artifact tree and as Prometheus text exposition
//! ([`MetricsSnapshot::to_prometheus`]) for scrape endpoints and the
//! `rrs metrics` command.

use crate::sketch::QuantileSketch;
use rrs_core::io::{json_number_or_null, json_string};
use std::collections::BTreeMap;
use std::sync::Mutex;

static REGISTRY: Mutex<Option<Inner>> = Mutex::new(None);

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    sketches: BTreeMap<String, QuantileSketch>,
}

fn with_inner<T>(f: impl FnOnce(&mut Inner) -> T) -> Option<T> {
    let mut slot = REGISTRY.lock().ok()?;
    Some(f(slot.get_or_insert_with(Inner::default)))
}

/// Applies `update` to the named series, creating it with `new` on
/// first sight. A series that already exists is found without
/// allocating its name: updates come from hot loops (the detector
/// workers), and only the first one pays for the key.
fn update_series<V, T>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    new: impl FnOnce() -> V,
    update: impl FnOnce(&mut V) -> T,
) -> T {
    match map.get_mut(name) {
        Some(value) => update(value),
        None => {
            let mut value = new();
            let out = update(&mut value);
            map.insert(name.to_string(), value);
            out
        }
    }
}

/// Adds `by` to the named counter.
#[inline]
pub fn counter_add(name: &str, by: u64) {
    if !crate::enabled() {
        return;
    }
    with_inner(|inner| {
        update_series(&mut inner.counters, name, || 0, |count| *count += by);
    });
}

/// Sets the named gauge to `value`.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    with_inner(|inner| {
        update_series(&mut inner.gauges, name, || value, |gauge| *gauge = value);
    });
}

/// Records `value` into the named quantile sketch, creating it on first
/// use. Safe to call from `par_map` workers: sketch state is integer
/// bucket counts, so any observation interleaving yields the same
/// snapshot.
#[inline]
pub fn observe_quantile(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    with_inner(|inner| {
        update_series(&mut inner.sketches, name, QuantileSketch::default, |s| {
            s.observe(value);
        });
    });
}

/// An owned, ordered copy of every metric at one point in time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Quantile sketches by name.
    pub sketches: BTreeMap<String, QuantileSketch>,
}

/// Rewrites a dotted metric name into the `[a-zA-Z0-9_:]` alphabet
/// Prometheus requires (`signal.online.rebuilds` →
/// `signal_online_rebuilds`).
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Formats a value for Prometheus exposition, which unlike JSON has
/// spellings for the non-finite floats.
fn prom_number(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "+Inf".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        x.to_string()
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as a single JSON object. Non-finite values
    /// (a gauge set to NaN or ±inf) serialize as `null` so the output
    /// always parses.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{}",
                json_string(name),
                json_number_or_null(*v)
            ));
        }
        out.push_str("},\"sketches\":{");
        for (i, (name, s)) in self.sketches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(name), s.to_json()));
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// counters and gauges as single samples, and quantile sketches as
    /// summaries with `quantile` labels and `_sum`/`_count`. Dotted
    /// names are rewritten to the Prometheus alphabet (`.` → `_`);
    /// ordering is fixed (counters, gauges, sketches, each sorted by
    /// name), so equal snapshots render byte-identically.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", prom_number(*v)));
        }
        for (name, s) in &self.sketches {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                let v = s.quantile(q).unwrap_or(f64::NAN);
                out.push_str(&format!("{n}{{quantile=\"{label}\"}} {}\n", prom_number(v)));
            }
            out.push_str(&format!("{n}_sum {}\n", prom_number(s.approx_sum())));
            out.push_str(&format!("{n}_count {}\n", s.finite_count()));
        }
        out
    }
}

/// Returns a copy of every metric currently registered.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    with_inner(|inner| MetricsSnapshot {
        counters: inner.counters.clone(),
        gauges: inner.gauges.clone(),
        sketches: inner.sketches.clone(),
    })
    .unwrap_or_default()
}

/// Clears every counter, gauge, and sketch.
pub fn reset() {
    with_inner(|inner| *inner = Inner::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests_lock;

    #[test]
    fn disabled_writes_are_dropped() {
        let _guard = tests_lock();
        crate::disable();
        reset();
        counter_add("c", 3);
        gauge_set("g", 1.5);
        observe_quantile("s", 4.0);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.sketches.is_empty());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        counter_add("marks", 2);
        counter_add("marks", 5);
        gauge_set("raters", 10.0);
        gauge_set("raters", 12.0);
        let snap = snapshot();
        crate::disable();
        assert_eq!(snap.counters["marks"], 7);
        assert!((snap.gauges["raters"] - 12.0).abs() < 1e-12);
    }

    #[test]
    fn sketches_register_and_report_quantiles() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        for i in 1..=100 {
            observe_quantile("sizes", f64::from(i));
        }
        let snap = snapshot();
        crate::disable();
        let s = &snap.sketches["sizes"];
        assert_eq!(s.finite_count(), 100);
        let p50 = s.quantile(0.5).unwrap();
        assert!((p50 - 50.0).abs() <= 50.0 * crate::sketch::RELATIVE_ERROR + 1.0);
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        counter_add("a.b", 1);
        gauge_set("g", 2.0);
        observe_quantile("s", 2.0);
        let json = snapshot().to_json();
        crate::disable();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"a.b\":1"));
        assert!(json.contains("\"g\":2.0"));
        assert!(json.contains("\"sketches\":{\"s\":{\"count\":1,"));
        assert!(json.ends_with("}}"));
    }

    /// Regression: non-finite gauges must not produce invalid JSON
    /// tokens.
    #[test]
    fn non_finite_values_serialize_as_null() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        gauge_set("bad_gauge", f64::NAN);
        gauge_set("worse_gauge", f64::INFINITY);
        let json = snapshot().to_json();
        crate::disable();
        assert!(json.contains("\"bad_gauge\":null"));
        assert!(json.contains("\"worse_gauge\":null"));
        assert!(!json.contains("inf"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn an_empty_registry_renders_three_empty_families() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        let snap = snapshot();
        crate::disable();
        assert_eq!(
            snap.to_json(),
            "{\"counters\":{},\"gauges\":{},\"sketches\":{}}"
        );
        assert_eq!(snap.to_prometheus(), "");
    }

    #[test]
    fn prometheus_exposition_renders_all_families() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        counter_add("detect.path1_hits", 3);
        gauge_set("signal.online.products", 5.0);
        for i in 1..=10 {
            observe_quantile("scheme.suspicious_size", f64::from(i));
        }
        let text = snapshot().to_prometheus();
        crate::disable();
        assert!(text.contains("# TYPE detect_path1_hits counter\ndetect_path1_hits 3\n"));
        assert!(text.contains("# TYPE signal_online_products gauge\nsignal_online_products 5\n"));
        assert!(text.contains("# TYPE scheme_suspicious_size summary\n"));
        assert!(text.contains("scheme_suspicious_size{quantile=\"0.5\"}"));
        assert!(text.contains("scheme_suspicious_size_count 10\n"));
    }

    #[test]
    fn prometheus_non_finite_spellings() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        gauge_set("nan_gauge", f64::NAN);
        gauge_set("inf_gauge", f64::INFINITY);
        let text = snapshot().to_prometheus();
        crate::disable();
        assert!(text.contains("nan_gauge NaN\n"));
        assert!(text.contains("inf_gauge +Inf\n"));
    }
}
