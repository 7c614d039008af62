//! One bench per paper figure/claim, at reduced scale.
//!
//! | bench | paper artifact |
//! |---|---|
//! | `fig2_variance_bias_p` | Fig. 2 (P-scheme scatter) |
//! | `fig3_variance_bias_sa` | Fig. 3 (SA-scheme scatter) |
//! | `fig4_variance_bias_bf` | Fig. 4 (BF-scheme scatter) |
//! | `fig5_region_search` | Fig. 5 (Procedure-2 search) |
//! | `fig6_interval_sweep` | Fig. 6 (MP vs arrival interval) |
//! | `fig7_correlation` | Fig. 7 (value-order strategies) |
//! | `claim_max_mp_ratio` | §V-A max-MP claim |
//! | `ext_boost_plane` | boost-side analysis (paper future work) |
//! | `ext_roc_sweep` | per-detector operating characteristics |
//! | `ext_scoring_modes` | cumulative vs per-period MP scoring |
//!
//! Emits `BENCH_figures.json` (see `rrs_bench::harness`).

use rrs_aggregation::{BfScheme, PScheme, SaScheme};
use rrs_attack::search::optimize;
use rrs_bench::{bench_workbench, Harness};
use rrs_challenge::ScoringSession;
use rrs_core::AggregationScheme;
use rrs_eval::{boost, fig5, fig6, fig7, roc, scoring_ablation};
use std::hint::black_box;

const POPULATION_SLICE: usize = 12;

fn score_slice(h: &mut Harness, name: &str, scheme: &dyn AggregationScheme) {
    let workbench = bench_workbench(42);
    let session = ScoringSession::new(&workbench.challenge, scheme);
    h.bench(name, || {
        let mut total = 0.0;
        for spec in workbench.population.iter().take(POPULATION_SLICE) {
            total += session.score(black_box(&spec.sequence)).total();
        }
        total
    });
}

fn main() {
    let mut h = Harness::new("figures");

    score_slice(&mut h, "fig2_variance_bias_p", &PScheme::new());
    score_slice(&mut h, "fig3_variance_bias_sa", &SaScheme::new());
    score_slice(&mut h, "fig4_variance_bias_bf", &BfScheme::new());

    let workbench = bench_workbench(42);

    {
        let scheme = PScheme::new();
        let session = ScoringSession::new(&workbench.challenge, &scheme);
        h.bench("fig5_region_search", || {
            optimize(&workbench.attack_ctx, workbench.config.seed, |seq| {
                fig5::downgrade_mp(&workbench, &session.score(seq))
            })
            .best_mp
        });
    }

    h.bench("fig6_interval_sweep", || {
        fig6::interval_sweep(&workbench, &[0.5, 2.0, 6.0, 12.0], 1).len()
    });

    h.bench("fig7_correlation", || {
        fig7::compare_orders(&workbench, 3, 2).len()
    });

    {
        let p = PScheme::new();
        let sa = SaScheme::new();
        let p_session = ScoringSession::new(&workbench.challenge, &p);
        let sa_session = ScoringSession::new(&workbench.challenge, &sa);
        h.bench("claim_max_mp_ratio", || {
            let best = |session: &ScoringSession<'_>| {
                workbench
                    .population
                    .iter()
                    .take(POPULATION_SLICE)
                    .map(|s| session.score(&s.sequence).total())
                    .fold(0.0f64, f64::max)
            };
            best(&p_session) / best(&sa_session).max(1e-9)
        });
    }

    h.bench("ext_boost_plane", || boost::run(&workbench).tables.len());
    h.bench("ext_roc_sweep", || roc::sweep(&workbench, 2).len());
    h.bench("ext_scoring_modes", || {
        scoring_ablation::run(&workbench).summary.len()
    });

    h.finish();
}
