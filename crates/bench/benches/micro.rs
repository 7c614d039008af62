//! Microbenchmarks: per-component costs of the detectors, schemes,
//! generator stages, math kernels, and the parallel pool.
//!
//! Emits `BENCH_micro.json` (see `rrs_bench::harness`).

use rrs_aggregation::{BfScheme, PScheme, SaScheme};
use rrs_attack::generator::{AttackConfig, AttackGenerator};
use rrs_attack::mapper::{heuristic_correlation, MappingStrategy};
use rrs_attack::{ArrivalModel, FairView};
use rrs_bench::{bench_workbench, Harness};
use rrs_core::rng::{RrsRng, Xoshiro256pp};
use rrs_core::{AggregationScheme, RatingValue, Timestamp};
use rrs_detectors::{
    arc, hc, mc, me, ArcConfig, ArcVariant, HcConfig, JointDetector, McConfig, MeConfig,
};
use rrs_signal::{cluster, fit_ar, glrt};

fn detectors(h: &mut Harness) {
    let workbench = bench_workbench(7);
    let dataset = workbench.challenge.fair_dataset();
    let product = workbench
        .focus_product()
        .expect("bench challenge has a downgrade target");
    let timeline = dataset.product(product).unwrap();
    let horizon = workbench.challenge.horizon();

    h.bench("detector_mc", || {
        mc::detect(timeline, &McConfig::default(), |_| 0.5)
            .peaks
            .len()
    });
    h.bench("detector_arc_high", || {
        arc::detect(timeline, horizon, ArcVariant::High, &ArcConfig::default())
            .peaks
            .len()
    });
    h.bench("detector_hc", || {
        hc::detect(timeline, &HcConfig::default()).curve.len()
    });
    h.bench("detector_me", || {
        me::detect(timeline, &MeConfig::default()).curve.len()
    });
    let joint = JointDetector::default();
    h.bench("detector_joint", || {
        joint
            .detect_product(timeline, horizon, |_| 0.5)
            .suspicious
            .len()
    });
}

fn schemes(h: &mut Harness) {
    let workbench = bench_workbench(8);
    let dataset = workbench.challenge.fair_dataset();
    let ctx = workbench.challenge.eval_context();
    for (name, scheme) in [
        ("scheme_sa", &SaScheme::new() as &dyn AggregationScheme),
        ("scheme_bf", &BfScheme::new()),
        ("scheme_p", &PScheme::new()),
    ] {
        h.bench(name, || scheme.evaluate(dataset, &ctx).suspicious().len());
    }
}

fn attack_generation(h: &mut Harness) {
    let workbench = bench_workbench(9);
    let ctx = &workbench.attack_ctx;
    let config = AttackConfig {
        bias_magnitude: 2.2,
        std_dev: 1.3,
        start: Timestamp::new(30.0).unwrap(),
        duration: rrs_core::Days::new(25.0).unwrap(),
        count: 50,
        arrival: ArrivalModel::Poisson,
        mapping: MappingStrategy::HeuristicCorrelation,
        calibrated: false,
    };
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let generator = AttackGenerator::new();
    h.bench("attack_generate_submission", || {
        generator.generate(&mut rng, ctx, "bench", &config).len()
    });

    let fair = FairView::new((0..720).map(|i| (f64::from(i) * 0.25, 4.0)).collect());
    let values: Vec<RatingValue> = (0..50)
        .map(|i| RatingValue::new_clamped(f64::from(i % 6)))
        .collect();
    let times: Vec<Timestamp> = (0..50)
        .map(|i| Timestamp::new(30.0 + f64::from(i) * 0.5).unwrap())
        .collect();
    h.bench("mapper_heuristic_correlation", || {
        heuristic_correlation(&values, &times, &fair).len()
    });
}

fn math_kernels(h: &mut Harness) {
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let noise: Vec<f64> = (0..200).map(|_| 4.0 + rng.gen_range(-0.8..0.8)).collect();
    h.bench("kernel_ar_fit_order4", || {
        fit_ar(&noise[..40], 4).unwrap().normalized_error()
    });
    h.bench("kernel_single_linkage_40", || {
        cluster::single_linkage_1d(&noise[..40], 2).len()
    });
    let y1: Vec<u32> = (0..15).map(|i| 3 + (i % 3)).collect();
    let y2: Vec<u32> = (0..15).map(|i| 8 + (i % 4)).collect();
    h.bench("kernel_poisson_glrt", || glrt::arrival_rate_glrt(&y1, &y2));
}

fn substrate_extras(h: &mut Harness) {
    let workbench = bench_workbench(11);
    let csv = rrs_core::io::to_csv_string(workbench.challenge.fair_dataset());
    h.bench("io_csv_round_trip", || {
        rrs_core::io::read_csv(csv.as_bytes())
            .expect("valid csv")
            .len()
    });
    let dataset = workbench.challenge.fair_dataset();
    h.bench("io_json_export", || {
        rrs_core::io::to_json_string(dataset).len()
    });

    let mut rng = Xoshiro256pp::seed_from_u64(42);
    h.bench("rng_next_u64_x1000", || {
        let mut acc = 0u64;
        for _ in 0..1_000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    });
}

/// The pool's per-call price: a served epoch on servebench's `epoch`
/// workload fans 360 products out through one `par_map_owned` call.
/// Each item is a boxed 816-byte block, moved as a pointer like a boxed
/// product state, and comes back untouched, so what is timed is the
/// spawns, the hand-off and the ordered merge, not the work.
fn pool(h: &mut Harness) {
    let mut items: Vec<Box<[u8; 816]>> = (0..360).map(|_| Box::new([0u8; 816])).collect();
    h.bench("par_map_owned_360_boxed_identity", || {
        items = rrs_core::par::par_map_owned(std::mem::take(&mut items), |_, item| item);
        items.len()
    });
}

fn main() {
    let mut h = Harness::new("micro");
    detectors(&mut h);
    schemes(&mut h);
    attack_generation(&mut h);
    math_kernels(&mut h);
    substrate_extras(&mut h);
    pool(&mut h);
    h.finish();
}
