//! Ablation: the contribution of each detector to the P-scheme.
//!
//! An extension the paper motivates but does not run: disable each of
//! the four detectors in turn and measure (a) the best MP the population
//! achieves and (b) detection quality against ground truth. Because the
//! two integration paths require ARC evidence for any marking, ablating
//! the arrival-rate detectors is expected to hurt the most.

use crate::fig5::downgrade_mp;
use crate::report::{ExperimentReport, Table};
use crate::suite::Workbench;
use rrs_aggregation::{PScheme, PSchemeConfig};
use rrs_challenge::ScoringSession;
use rrs_detectors::{AblatedDetector, DetectorConfig};
use std::fmt::Write as _;

/// One ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Which variant ("full" or the disabled detector's name).
    pub variant: String,
    /// Best population MP against this variant.
    pub best_mp: f64,
    /// Mean detection recall over the strongest submissions.
    pub mean_recall: f64,
    /// Mean false-alarm rate over the strongest submissions.
    pub mean_false_alarm: f64,
}

/// Evaluates one P-scheme variant over the given `strongest` submission
/// indices (ranked by SA-scheme damage, i.e. raw attack strength — see
/// [`strongest_submissions`]). The ranking is a parameter so that one
/// ranking pass serves every variant.
#[must_use]
pub fn evaluate_variant(
    workbench: &Workbench,
    config: DetectorConfig,
    variant: &str,
    strongest: &[usize],
) -> AblationRow {
    let scheme = PScheme::with_config(PSchemeConfig {
        detectors: config,
        ..PSchemeConfig::paper()
    });
    let session = ScoringSession::new(&workbench.challenge, &scheme);

    let mut best_mp = 0.0f64;
    let mut recalls = Vec::new();
    let mut false_alarms = Vec::new();
    for &idx in strongest {
        let spec = &workbench.population[idx];
        let (report, outcome, truth) = session.score_detailed(&spec.sequence);
        best_mp = best_mp.max(downgrade_mp(workbench, &report));
        let confusion = truth.score(outcome.suspicious());
        recalls.push(confusion.recall());
        false_alarms.push(confusion.false_alarm_rate());
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    AblationRow {
        variant: variant.to_string(),
        best_mp,
        mean_recall: mean(&recalls),
        mean_false_alarm: mean(&false_alarms),
    }
}

/// Indices of the `sample` submissions with the largest raw damage
/// (scored against the undefended SA-scheme).
#[must_use]
pub fn strongest_submissions(workbench: &Workbench, sample: usize) -> Vec<usize> {
    let sa = rrs_aggregation::SaScheme::new();
    let session = ScoringSession::new(&workbench.challenge, &sa);
    let mut ranked: Vec<(usize, f64)> = workbench
        .population
        .iter()
        .enumerate()
        .map(|(i, spec)| (i, session.score(&spec.sequence).total()))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked.into_iter().take(sample).map(|(i, _)| i).collect()
}

/// Runs the ablation.
#[must_use]
pub fn run(workbench: &Workbench) -> ExperimentReport {
    let sample = match workbench.config.scale {
        crate::suite::Scale::Small => 8,
        crate::suite::Scale::Paper => 25,
    };
    let variants = [
        ("full", None),
        ("no-mean-change", Some(AblatedDetector::MeanChange)),
        ("no-arrival-rate", Some(AblatedDetector::ArrivalRate)),
        ("no-histogram", Some(AblatedDetector::Histogram)),
        ("no-model-error", Some(AblatedDetector::ModelError)),
    ];
    // Rank submissions by their raw (undefended) strength once, then fan
    // the independent variants out across workers.
    let strongest = strongest_submissions(workbench, sample);
    let rows: Vec<AblationRow> = rrs_core::par::par_map(&variants, |_, (name, ablated)| {
        let config = DetectorConfig { ablated: *ablated };
        evaluate_variant(workbench, config, name, &strongest)
    });

    let mut table = Table::new(vec![
        "variant",
        "best_mp",
        "mean_recall",
        "mean_false_alarm",
    ]);
    for r in &rows {
        table.push_row(vec![
            r.variant.clone(),
            format!("{:.4}", r.best_mp),
            format!("{:.4}", r.mean_recall),
            format!("{:.4}", r.mean_false_alarm),
        ]);
    }

    let full = &rows[0];
    let no_arc = rows
        .iter()
        .find(|r| r.variant == "no-arrival-rate")
        .expect("variant list is fixed");
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "Detector ablation over the {sample} strongest submissions"
    );
    let _ = writeln!(summary, "{}", table.to_ascii());
    let _ = writeln!(
        summary,
        "shape check: removing the arrival-rate detectors collapses recall ({:.3} -> {:.3}): {}",
        full.mean_recall,
        no_arc.mean_recall,
        verdict(no_arc.mean_recall < full.mean_recall * 0.5 + 1e-9)
    );

    ExperimentReport {
        name: "ablation".into(),
        summary,
        tables: vec![("ablation".into(), table)],
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "MATCHES EXPECTATION"
    } else {
        "DIVERGES"
    }
}
