//! Boost-attack analysis — the paper's stated future work.
//!
//! The paper observes that boosting is far less effective than
//! downgrading — "the mean of the fair ratings is high … and there is no
//! much room to further boost the rating values" — and that the
//! variance–bias plane loses its resolution on the positive side. It
//! defers the detailed analysis to future work; this experiment runs it:
//! a (bias, σ) probe sweep over the *positive* plane, scored on the boost
//! targets only, compared head-to-head against the mirrored downgrade
//! sweep.

use crate::report::{ExperimentReport, Table};
use crate::suite::Workbench;
use rrs_aggregation::PScheme;
use rrs_attack::generator::{AttackConfig, AttackGenerator};
use rrs_attack::search::probe;
use rrs_attack::{ArrivalModel, AttackSequence, MappingStrategy};
use rrs_challenge::ScoringSession;
use rrs_core::rng::Xoshiro256pp;
use rrs_core::{Days, Timestamp};
use std::fmt::Write as _;

/// Builds a boost probe: every target attacked, MP scored on the boost
/// targets.
#[must_use]
pub fn boost_probe(workbench: &Workbench, bias: f64, std_dev: f64, trial: usize) -> AttackSequence {
    let ctx = &workbench.attack_ctx;
    let horizon_days = ctx.horizon.length().get();
    let start = Timestamp::saturating(ctx.horizon.start().as_days() + 2.0);
    let config = AttackConfig {
        bias_magnitude: bias.abs(),
        std_dev,
        start,
        duration: Days::new_saturating((horizon_days * 0.3).min(25.0)),
        count: ctx.raters.len(),
        arrival: ArrivalModel::Poisson,
        mapping: MappingStrategy::InOrder,
        calibrated: true,
    };
    let mut rng = Xoshiro256pp::seed_from_u64(
        workbench
            .config
            .seed
            .wrapping_mul(53)
            .wrapping_add(trial as u64),
    );
    AttackGenerator::new().generate(
        &mut rng,
        ctx,
        format!("boost probe b={bias:.2} s={std_dev:.2}"),
        &config,
    )
}

/// MP summed over the boost targets only.
#[must_use]
pub fn boost_mp(workbench: &Workbench, report: &rrs_core::MpReport) -> f64 {
    workbench
        .challenge
        .config()
        .boost_targets
        .iter()
        .map(|&p| report.product_mp(p))
        .sum()
}

/// Runs the boost-side analysis.
#[must_use]
pub fn run(workbench: &Workbench) -> ExperimentReport {
    let scheme = PScheme::new();
    let session = ScoringSession::new(&workbench.challenge, &scheme);
    let ctx = &workbench.attack_ctx;
    let trials = match workbench.config.scale {
        crate::suite::Scale::Small => 2,
        crate::suite::Scale::Paper => 4,
    };

    let biases = [0.4, 0.8, 1.2, 1.8, 2.5];
    let stds = [0.1, 0.6, 1.2];
    // The 5 × 3 grid cells are independent probe pairs: fan them out and
    // fold the ordered results back into the table rows.
    let cells: Vec<(f64, f64)> = biases
        .iter()
        .flat_map(|&bias| stds.iter().map(move |&std| (bias, std)))
        .collect();
    let per_cell = rrs_core::par::par_map(&cells, |_, &(bias, std)| {
        let mut best_boost = 0.0f64;
        let mut best_down = 0.0f64;
        for trial in 0..trials {
            let b = boost_probe(workbench, bias, std, trial);
            best_boost = best_boost.max(boost_mp(workbench, &session.score(&b)));
            let d = probe(ctx, workbench.config.seed, -bias, std, trial);
            best_down = best_down.max(crate::fig5::downgrade_mp(workbench, &session.score(&d)));
        }
        (best_boost, best_down)
    });
    let mut table = Table::new(vec!["bias", "std_dev", "boost_mp", "downgrade_mp"]);
    let mut boost_values = Vec::new();
    let mut downgrade_values = Vec::new();
    for (&(bias, std), &(best_boost, best_down)) in cells.iter().zip(&per_cell) {
        boost_values.push(best_boost);
        downgrade_values.push(best_down);
        table.push_row(vec![
            format!("{bias:.2}"),
            format!("{std:.2}"),
            format!("{best_boost:.4}"),
            format!("{best_down:.4}"),
        ]);
    }

    let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);
    let spread = |v: &[f64]| {
        let hi = max(v);
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        hi - lo
    };
    let boost_max = max(&boost_values);
    let down_max = max(&downgrade_values);

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "Boost-attack analysis (the paper's future work), P-scheme"
    );
    let _ = writeln!(summary, "{}", table.to_ascii());
    let _ = writeln!(
        summary,
        "best boost MP {boost_max:.4} vs best downgrade MP {down_max:.4} at mirrored parameters"
    );
    let _ = writeln!(
        summary,
        "shape check: boosting is weaker than downgrading (paper V-B): {}",
        verdict(boost_max < down_max)
    );
    let _ = writeln!(
        summary,
        "shape check: the positive plane has low resolution — MP spread {:.3} (boost) vs {:.3} (downgrade): {}",
        spread(&boost_values),
        spread(&downgrade_values),
        verdict(spread(&boost_values) < spread(&downgrade_values))
    );

    ExperimentReport {
        name: "boost".into(),
        summary,
        tables: vec![("boost_plane".into(), table)],
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "MATCHES PAPER"
    } else {
        "DIVERGES"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Scale, SuiteConfig};

    #[test]
    fn boost_probe_raises_boost_target_values() {
        let wb = Workbench::build(&SuiteConfig {
            scale: Scale::Small,
            seed: 4,
            out_dir: None,
        });
        let seq = boost_probe(&wb, 1.5, 0.2, 0);
        let boost_product = wb.challenge.config().boost_targets[0];
        let fair_mean = wb.attack_ctx.fair_view(boost_product).mean;
        let mean: f64 = seq
            .for_product(boost_product)
            .iter()
            .map(|r| r.value().get())
            .sum::<f64>()
            / seq.for_product(boost_product).len() as f64;
        assert!(
            mean > fair_mean,
            "boost values ({mean:.2}) should exceed the fair mean ({fair_mean:.2})"
        );
    }
}
