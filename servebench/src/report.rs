//! Percentiles and the result line.

use rrs_signal::special::reg_inc_beta;

/// The Harrell-Davis estimate of the `q`-quantile (0 < q < 1) of
/// `values`: a Beta-weighted average of all order statistics. `None` for
/// no samples.
///
/// Served latencies are quantized in 4 ms steps by the client's
/// delayed-ACK timer, so a single order statistic jumps a whole step when
/// the mass near the quantile shifts slightly between runs; this estimate
/// moves smoothly with that mass instead.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = reg_inc_beta(a, b, (i + 1) as f64 / n);
        estimate += (upto - below) * x;
        below = upto;
    }
    Some(estimate)
}

/// The Harrell-Davis median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The plain sample median: the middle order statistic, or the mean of
/// the two middle ones. Used for the few repeated set-ups, and for the
/// mirror's per-request share of the program's time.
pub fn sample_median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The mean of `values` (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

/// An ordered set of metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Adds a Harrell-Davis percentile of `values`, or fails when there
    /// are no samples.
    pub fn percentile(
        &mut self,
        name: &str,
        values: &[f64],
        q: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let value = quantile(values, q).ok_or_else(|| format!("{name}: no samples"))?;
        self.put(name, value, unit, values.len());
        Ok(())
    }

    /// Adds the plain sample median of `values`, or fails when there are
    /// no samples.
    pub fn sample_median(
        &mut self,
        name: &str,
        values: &[f64],
        unit: &'static str,
    ) -> Result<(), String> {
        let value = sample_median(values).ok_or_else(|| format!("{name}: no samples"))?;
        self.put(name, value, unit, values.len());
        Ok(())
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A finite JSON number with all its digits.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}
