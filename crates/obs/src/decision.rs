//! Structured decision traces: why the pipeline marked (or spared) an
//! interval.
//!
//! One [`DecisionRecord`] describes one (product, scoring-interval) cell
//! of the P-scheme pipeline: what every detector measured against its
//! threshold, which joint-decision path fired, which ratings landed in
//! the suspicion set, and how each affected rater's beta-trust record
//! (α/β) moved. Records hold only plain identifiers and statistics — no
//! wall-clock values — so a trace of a seeded run is byte-for-byte
//! deterministic and can be golden-tested.
//!
//! Records are pushed into a global thread-safe buffer via [`record`]
//! while [tracing](crate::tracing) is on and taken out with
//! [`drain`]; [`crate::export`] renders them as JSONL.

use rrs_core::io::{json_number, json_string};
use std::sync::Mutex;

static RECORDS: Mutex<Vec<DecisionRecord>> = Mutex::new(Vec::new());

/// One detector's verdict on the interval.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorVerdict {
    /// Detector name: `"mc"`, `"h-arc"`, `"l-arc"`, `"hc"`, or `"me"`.
    pub name: &'static str,
    /// The raw decision statistic the detector compared (MC: largest
    /// segment mean shift; ARC: largest segment rate increase; HC:
    /// largest cluster-balance ratio; ME: smallest normalized AR model
    /// error).
    pub statistic: f64,
    /// The configured threshold the statistic was compared against.
    pub threshold: f64,
    /// Whether the detector flagged anything in the interval.
    pub fired: bool,
}

/// One firing of a joint-decision path (paper Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct PathDecision {
    /// 1 for the strong-attack path, 2 for the alarm path.
    pub path: u8,
    /// `"high"` or `"low"` — which value band was marked.
    pub band: &'static str,
    /// Start of the marked overlap, in days.
    pub start_day: f64,
    /// End of the marked overlap, in days.
    pub end_day: f64,
    /// How many ratings the firing marked.
    pub marked: usize,
}

/// One rater's beta-trust trajectory across the interval's trust update:
/// Beta(α, β) with α = S + 1 and β = F + 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustTrajectory {
    /// The rater.
    pub rater: u64,
    /// α before the update.
    pub alpha_before: f64,
    /// β before the update.
    pub beta_before: f64,
    /// α after the update.
    pub alpha_after: f64,
    /// β after the update.
    pub beta_after: f64,
}

impl TrustTrajectory {
    /// Trust value α/(α+β) before the update.
    #[must_use]
    pub fn trust_before(&self) -> f64 {
        self.alpha_before / (self.alpha_before + self.beta_before)
    }

    /// Trust value α/(α+β) after the update.
    #[must_use]
    pub fn trust_after(&self) -> f64 {
        self.alpha_after / (self.alpha_after + self.beta_after)
    }
}

/// The full decision trace of one (product, interval) pipeline cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// The product the decision concerns.
    pub product: u64,
    /// Interval start, in days.
    pub start_day: f64,
    /// Interval end, in days.
    pub end_day: f64,
    /// Every detector's statistic, threshold, and verdict.
    pub detectors: Vec<DetectorVerdict>,
    /// Joint-decision path firings, in detection order.
    pub paths: Vec<PathDecision>,
    /// Rating ids marked suspicious inside the interval.
    pub suspicious: Vec<u64>,
    /// Trust trajectories of the raters the interval's update penalised.
    pub trust: Vec<TrustTrajectory>,
}

impl DecisionRecord {
    /// Returns `true` when any detector fired on this interval.
    #[must_use]
    pub fn any_fired(&self) -> bool {
        self.detectors.iter().any(|d| d.fired)
    }

    /// Renders the record as one JSON object on a single line — the
    /// JSONL body format locked by the trace-schema golden test.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"product\":{},\"start_day\":{},\"end_day\":{},\"detectors\":[",
            self.product,
            json_number(self.start_day),
            json_number(self.end_day),
        ));
        for (i, d) in self.detectors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"statistic\":{},\"threshold\":{},\"fired\":{}}}",
                json_string(d.name),
                json_number(d.statistic),
                json_number(d.threshold),
                d.fired,
            ));
        }
        out.push_str("],\"paths\":[");
        for (i, p) in self.paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":{},\"band\":{},\"start_day\":{},\"end_day\":{},\"marked\":{}}}",
                p.path,
                json_string(p.band),
                json_number(p.start_day),
                json_number(p.end_day),
                p.marked,
            ));
        }
        out.push_str("],\"suspicious\":[");
        for (i, id) in self.suspicious.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&id.to_string());
        }
        out.push_str("],\"trust\":[");
        for (i, t) in self.trust.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rater\":{},\"alpha_before\":{},\"beta_before\":{},\
                 \"alpha_after\":{},\"beta_after\":{},\"trust_before\":{},\"trust_after\":{}}}",
                t.rater,
                json_number(t.alpha_before),
                json_number(t.beta_before),
                json_number(t.alpha_after),
                json_number(t.beta_after),
                json_number(t.trust_before()),
                json_number(t.trust_after()),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Pushes a record into the global buffer (dropped unless tracing is on)
/// and feeds it through the [flight recorder](crate::recorder).
pub fn record(r: DecisionRecord) {
    if !crate::tracing() {
        return;
    }
    crate::recorder::record_decision(&r);
    if let Ok(mut buf) = RECORDS.lock() {
        buf.push(r);
    }
}

/// Takes every buffered record, in record order.
pub fn drain() -> Vec<DecisionRecord> {
    RECORDS
        .lock()
        .map(|mut v| std::mem::take(&mut *v))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests_lock;

    fn sample() -> DecisionRecord {
        DecisionRecord {
            product: 2,
            start_day: 30.0,
            end_day: 60.0,
            detectors: vec![
                DetectorVerdict {
                    name: "mc",
                    statistic: 1.25,
                    threshold: 0.8,
                    fired: true,
                },
                DetectorVerdict {
                    name: "l-arc",
                    statistic: 4.5,
                    threshold: 0.25,
                    fired: true,
                },
            ],
            paths: vec![PathDecision {
                path: 1,
                band: "low",
                start_day: 40.0,
                end_day: 52.5,
                marked: 60,
            }],
            suspicious: vec![101, 102],
            trust: vec![TrustTrajectory {
                rater: 50_000,
                alpha_before: 1.0,
                beta_before: 1.0,
                alpha_after: 1.0,
                beta_after: 6.0,
            }],
        }
    }

    /// The JSONL schema contract: field names, nesting, and value
    /// shapes. Changing this golden string is changing the public trace
    /// format.
    #[test]
    fn json_body_matches_golden_schema() {
        assert_eq!(
            sample().to_json(),
            "{\"product\":2,\"start_day\":30.0,\"end_day\":60.0,\"detectors\":[\
             {\"name\":\"mc\",\"statistic\":1.25,\"threshold\":0.8,\"fired\":true},\
             {\"name\":\"l-arc\",\"statistic\":4.5,\"threshold\":0.25,\"fired\":true}],\
             \"paths\":[{\"path\":1,\"band\":\"low\",\"start_day\":40.0,\"end_day\":52.5,\
             \"marked\":60}],\"suspicious\":[101,102],\"trust\":[{\"rater\":50000,\
             \"alpha_before\":1.0,\"beta_before\":1.0,\"alpha_after\":1.0,\"beta_after\":6.0,\
             \"trust_before\":0.5,\"trust_after\":0.14285714285714285}]}"
        );
    }

    #[test]
    fn trust_trajectory_values() {
        let t = TrustTrajectory {
            rater: 1,
            alpha_before: 1.0,
            beta_before: 1.0,
            alpha_after: 11.0,
            beta_after: 1.0,
        };
        assert!((t.trust_before() - 0.5).abs() < 1e-12);
        assert!((t.trust_after() - 11.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn record_respects_the_switch() {
        let _guard = tests_lock();
        crate::disable();
        drain();
        record(sample());
        assert!(drain().is_empty());
        crate::enable();
        record(sample());
        let records = drain();
        crate::disable();
        assert_eq!(records.len(), 1);
        assert!(records[0].any_fired());
    }
}
