//! Property-based tests of the population model's core invariants.

use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, World, WorldConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared small world: generation is too expensive per proptest case.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut cfg = WorldConfig::test_scale(123);
        cfg.n_interests = 500;
        cfg.panel_size = 4_000;
        World::generate(cfg).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reach_monotone_under_extension(ids in prop::collection::vec(0u32..500, 1..8), extra in 0u32..500) {
        let mut ids: Vec<InterestId> = ids.into_iter().map(InterestId).collect();
        ids.dedup();
        let engine = world().reach_engine();
        let base = engine.conjunction_reach(&ids);
        ids.push(InterestId(extra));
        let extended = engine.conjunction_reach(&ids);
        prop_assert!(extended <= base + 1e-6, "extending a conjunction grew reach: {base} -> {extended}");
    }

    #[test]
    fn reach_order_invariant(ids in prop::collection::vec(0u32..500, 2..8), seed in 0u64..100) {
        let ids: Vec<InterestId> = ids.into_iter().map(InterestId).collect();
        let engine = world().reach_engine();
        let forward = engine.conjunction_reach(&ids);
        let mut shuffled = ids.clone();
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let back = engine.conjunction_reach(&shuffled);
        prop_assert!((forward - back).abs() <= 1e-6 * forward.abs().max(1.0));
    }

    #[test]
    fn nested_matches_pointwise(ids in prop::collection::vec(0u32..500, 1..6)) {
        let ids: Vec<InterestId> = ids.into_iter().map(InterestId).collect();
        let engine = world().reach_engine();
        let nested = engine.nested_reaches(&ids);
        for k in 0..ids.len() {
            let direct = engine.conjunction_reach(&ids[..=k]);
            prop_assert!((nested[k] - direct).abs() <= 1e-6 * direct.max(1.0));
        }
    }

    #[test]
    fn scalar_nested_sweep_prefixes_bit_identical(
        ids in prop::collection::vec(0u32..500, 1..8),
        countries in prop::collection::vec(0u16..50, 0..4),
        split in 0usize..8,
    ) {
        // The unified freeze-and-drop cutoff contract (reach.rs module docs):
        // every prefix reach is the SAME f64 bits whether computed by the
        // scalar path, the nested path, or any sweep_begin/sweep_extend
        // split of the sequence.
        let ids: Vec<InterestId> = ids.into_iter().map(InterestId).collect();
        let filter = if countries.is_empty() {
            CountryFilter::ALL
        } else {
            CountryFilter::of(&countries)
        };
        let engine = world().reach_engine();
        let nested = engine.nested_reaches_in(&ids, filter);
        for k in 1..=ids.len() {
            let scalar = engine.conjunction_reach_in(&ids[..k], filter);
            prop_assert_eq!(
                scalar.to_bits(),
                nested[k - 1].to_bits(),
                "scalar {} != nested {} at prefix {}",
                scalar,
                nested[k - 1],
                k
            );
        }
        let split = split.min(ids.len());
        let state = engine.sweep_begin(filter);
        let (head, state) = engine.sweep_extend(&state, &ids[..split]);
        let (tail, _) = engine.sweep_extend(&state, &ids[split..]);
        let swept: Vec<f64> = head.into_iter().chain(tail).collect();
        prop_assert_eq!(swept.len(), nested.len());
        for (k, (s, n)) in swept.iter().zip(&nested).enumerate() {
            prop_assert_eq!(
                s.to_bits(),
                n.to_bits(),
                "sweep split {} diverges from nested at prefix {}",
                split,
                k + 1
            );
        }
    }

    #[test]
    fn index_counts_match_reference_scan_at_any_thread_count(
        ids in prop::collection::vec(0u32..500, 0..6),
        countries in prop::collection::vec(0u16..50, 0..3),
        threads in 1usize..5,
    ) {
        use fbsim_population::index::{boolean_reference_count, ReachIndex};
        let ids: Vec<InterestId> = ids.into_iter().map(InterestId).collect();
        let filter = if countries.is_empty() {
            CountryFilter::ALL
        } else {
            CountryFilter::of(&countries)
        };
        let idx = rayon::with_thread_count(threads, || ReachIndex::build_for(world(), &ids));
        let want = boolean_reference_count(world(), &ids, filter);
        prop_assert_eq!(idx.conjunction_count(&ids, filter), Some(want));
    }

    #[test]
    fn country_filters_are_subadditive(id in 0u32..500, split in 1u16..49) {
        let engine = world().reach_engine();
        let ids = [InterestId(id)];
        let left: Vec<u16> = (0..split).collect();
        let right: Vec<u16> = (split..50).collect();
        let l = engine.conjunction_reach_in(&ids, CountryFilter::of(&left));
        let r = engine.conjunction_reach_in(&ids, CountryFilter::of(&right));
        let all = engine.conjunction_reach_in(&ids, CountryFilter::ALL);
        prop_assert!((l + r - all).abs() <= 1e-6 * all.max(1.0));
    }

    #[test]
    fn independence_never_exceeds_single_reach(ids in prop::collection::vec(0u32..500, 1..6)) {
        let mut ids: Vec<InterestId> = ids.into_iter().map(InterestId).collect();
        ids.sort();
        ids.dedup();
        let engine = world().reach_engine();
        let independent = engine.conjunction_reach_independent(&ids);
        for &id in &ids {
            prop_assert!(independent <= engine.single_reach(id) + 1e-6);
        }
    }

    #[test]
    fn materialized_users_are_valid(count in 1usize..200, seed in 0u64..50) {
        let user = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            world().materializer().sample_user_with_count(&mut rng, count)
        };
        prop_assert_eq!(user.interests.len(), count.min(world().catalog().len()));
        let mut dedup = user.interests.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), user.interests.len());
        for id in &user.interests {
            prop_assert!(world().catalog().get(*id).is_some());
        }
        prop_assert!(user.country < 50);
    }

    #[test]
    fn lp_sorting_is_total(count in 2usize..100, seed in 0u64..50) {
        let user = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            world().materializer().sample_user_with_count(&mut rng, count)
        };
        let sorted = user.interests_by_audience(world().catalog());
        prop_assert_eq!(sorted.len(), user.interests.len());
        for w in sorted.windows(2) {
            prop_assert!(
                world().catalog().interest(w[0]).target_audience
                    <= world().catalog().interest(w[1]).target_audience
            );
        }
    }
}

/// Deterministic regression for the scalar/nested cutoff divergence: short
/// conjunctions never reach the 1e-300 underflow cutoff, so this drives a
/// 400-interest sequence through it. Under the pre-fix scalar contract
/// (truncate-then-accumulate) the prefixes in the freeze transition region
/// disagreed with the nested path; under freeze-and-drop every prefix is
/// bit-identical and the deep tail collapses to exactly +0.0 once every
/// panel user has frozen.
#[test]
fn underflow_cutoff_is_bit_identical_and_freezes_to_zero() {
    let engine = world().reach_engine();
    let ids: Vec<InterestId> = (0..400u32).map(|i| InterestId(i * 7 % 500)).collect();
    let nested = engine.nested_reaches_in(&ids, CountryFilter::ALL);
    assert!(nested[0] > 0.0);
    assert_eq!(
        nested.last().copied().map(f64::to_bits),
        Some(0.0f64.to_bits()),
        "400 deep, every panel user must have frozen"
    );
    // Check scalar agreement across the whole freeze transition region:
    // every prefix where the nested value changes, plus the deep tail.
    let mut checkpoints: Vec<usize> =
        (1..nested.len()).filter(|&k| nested[k].to_bits() != nested[k - 1].to_bits()).collect();
    checkpoints.extend([1, nested.len() / 2, nested.len()]);
    for k in checkpoints {
        let scalar = engine.conjunction_reach_in(&ids[..k], CountryFilter::ALL);
        assert_eq!(
            scalar.to_bits(),
            nested[k - 1].to_bits(),
            "prefix {k}: scalar {scalar} vs nested {}",
            nested[k - 1]
        );
    }
    // The sweep path freezes identically across an arbitrary split.
    let state = engine.sweep_begin(CountryFilter::ALL);
    let (head, state) = engine.sweep_extend(&state, &ids[..123]);
    let (tail, _) = engine.sweep_extend(&state, &ids[123..]);
    let swept: Vec<f64> = head.into_iter().chain(tail).collect();
    for (k, (s, n)) in swept.iter().zip(&nested).enumerate() {
        assert_eq!(s.to_bits(), n.to_bits(), "sweep diverges at prefix {}", k + 1);
    }
}

/// Not a property test, but lives with the statistical validation: the
/// calibrated single-interest audiences follow the Fig.-2 log-normal shape,
/// not just its quartiles (KS distance against the target CDF).
#[test]
fn calibrated_audiences_follow_fig2_shape() {
    use fbsim_population::calibration::measured_single_audiences;
    use fbsim_stats::dist::Log10Normal;
    use fbsim_stats::ks::ks_one_sample;

    let w = world();
    let audiences = measured_single_audiences(w.catalog(), w.panel());
    let cfg = w.config();
    let target = Log10Normal::from_quartiles(cfg.audience_q25, cfg.audience_q75);
    let d = ks_one_sample(&audiences, |x| {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.log10() - target.mu) / target.sigma;
        // Logistic approximation of Φ (max error ~0.02, well inside the
        // acceptance band below).
        1.0 / (1.0 + (-1.702 * z).exp())
    })
    .unwrap();
    // Calibration + the 20-audience floor + saturation leave a residual
    // shape error; it must stay small (the quartile match is ~6%).
    assert!(d < 0.12, "KS distance {d} against the Fig.-2 target shape");
}

/// A world whose panel spans three engine chunks (the last one partial),
/// so the chunk partition and the chunk-order fold are exercised.
fn golden_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut cfg = WorldConfig::test_scale(123);
        cfg.n_interests = 500;
        cfg.panel_size = 10_000;
        World::generate(cfg).unwrap()
    })
}

/// Every engine path's answer for a fixed set of queries, as `to_bits`.
fn golden_engine_values() -> Vec<(String, u64)> {
    let engine = golden_world().reach_engine();
    let ids: Vec<InterestId> = [3u32, 41, 97, 160, 222, 305, 499].map(InterestId).to_vec();
    let three = CountryFilter::of(&[0, 3, 17]);
    let filters = [("all", CountryFilter::ALL), ("three", three)];
    let mut out = Vec::new();
    let mut push = |label: String, values: &[f64]| {
        for (k, v) in values.iter().enumerate() {
            out.push((format!("{label}[{k}]"), v.to_bits()));
        }
    };
    for (name, filter) in filters {
        push(format!("scalar.{name}"), &[engine.conjunction_reach_in(&ids, filter)]);
        push(format!("nested.{name}"), &engine.nested_reaches_in(&ids, filter));
        push(format!("empty.{name}"), &[engine.conjunction_reach_in(&[], filter)]);
    }
    let state = engine.sweep_begin(three);
    let (head, state) = engine.sweep_extend(&state, &ids[..3]);
    let (tail, _) = engine.sweep_extend(&state, &ids[3..]);
    push("sweep.head".into(), &head);
    push("sweep.tail".into(), &tail);
    let ends = [0, engine.chunk_count() - 1];
    push("chunk.scalar".into(), &engine.conjunction_chunk_partials(&ids, three, &ends));
    push("chunk.empty".into(), &engine.conjunction_chunk_partials(&[], three, &ends));
    for (c, partials) in engine.nested_chunk_partials(&ids, three, &ends).iter().enumerate() {
        push(format!("chunk.nested{c}"), partials);
    }
    let deep: Vec<InterestId> = (0..400u32).map(|i| InterestId(i * 7 % 500)).collect();
    let nested = engine.nested_reaches_in(&deep, CountryFilter::ALL);
    for k in [1, 50, 400] {
        push(format!("deep.nested{k}"), &[nested[k - 1]]);
        push(
            format!("deep.scalar{k}"),
            &[engine.conjunction_reach_in(&deep[..k], CountryFilter::ALL)],
        );
    }
    out
}

/// `to_bits` of every engine path's answer on [`golden_world`]. The other
/// tests compare the paths with each other; this one pins the values, so a
/// change that moves every path together fails too. Re-record it only for
/// a deliberate change to the engine's arithmetic.
const GOLDEN_ENGINE_BITS: &[(&str, u64)] = &[
    ("scalar.all[0]", 0x3ff2661c35621915),
    ("nested.all[0]", 0x412c790316d066f6),
    ("nested.all[1]", 0x40d02e83417fa3ef),
    ("nested.all[2]", 0x408ed7da7229c656),
    ("nested.all[3]", 0x4081751411cb8b81),
    ("nested.all[4]", 0x406236ea0a27b0dc),
    ("nested.all[5]", 0x405acb4d03422125),
    ("nested.all[6]", 0x3ff2661c35621915),
    ("empty.all[0]", 0x416312d000000000),
    ("scalar.three[0]", 0x3fcb20c6e01e461b),
    ("nested.three[0]", 0x410908233c1ab3f8),
    ("nested.three[1]", 0x40a9279ea63770f2),
    ("nested.three[2]", 0x40717c0987b40494),
    ("nested.three[3]", 0x40655b75510fb887),
    ("nested.three[4]", 0x404221c4aaa2e5ee),
    ("nested.three[5]", 0x403815992ae8eb70),
    ("nested.three[6]", 0x3fcb20c6e01e461b),
    ("empty.three[0]", 0x4140347000000000),
    ("sweep.head[0]", 0x410908233c1ab3f8),
    ("sweep.head[1]", 0x40a9279ea63770f2),
    ("sweep.head[2]", 0x40717c0987b40494),
    ("sweep.tail[0]", 0x40655b75510fb887),
    ("sweep.tail[1]", 0x404221c4aaa2e5ee),
    ("sweep.tail[2]", 0x403815992ae8eb70),
    ("sweep.tail[3]", 0x3fcb20c6e01e461b),
    ("chunk.scalar[0]", 0x3edd0637ed778544),
    ("chunk.scalar[1]", 0x3f16b8a69cea159c),
    ("chunk.empty[0]", 0x408a900000000000),
    ("chunk.empty[1]", 0x4078c00000000000),
    ("chunk.nested0[0]", 0x4053de35f7a9ba90),
    ("chunk.nested0[1]", 0x3ff296a066055b3a),
    ("chunk.nested0[2]", 0x3fb2733ffd765f05),
    ("chunk.nested0[3]", 0x3f9e3d1f814197bf),
    ("chunk.nested0[4]", 0x3f70bb11f7c3d29f),
    ("chunk.nested0[5]", 0x3f60cd0938614cff),
    ("chunk.nested0[6]", 0x3edd0637ed778544),
    ("chunk.nested1[0]", 0x404819db720ea0da),
    ("chunk.nested1[1]", 0x3feb0fe14f137a00),
    ("chunk.nested1[2]", 0x3fa4b72afa664171),
    ("chunk.nested1[3]", 0x3f97b666a7775204),
    ("chunk.nested1[4]", 0x3f67ba73ff484ce7),
    ("chunk.nested1[5]", 0x3f565b8da0b72440),
    ("chunk.nested1[6]", 0x3f16b8a69cea159c),
    ("deep.nested1[0]", 0x413bffac0e484e54),
    ("deep.scalar1[0]", 0x413bffac0e484e54),
    ("deep.nested50[0]", 0x35bdda8a280358d9),
    ("deep.scalar50[0]", 0x35bdda8a280358d9),
    ("deep.nested400[0]", 0x0000000000000000),
    ("deep.scalar400[0]", 0x0000000000000000),
];

#[test]
fn engine_values_match_golden_bits() {
    let got = golden_engine_values();
    assert_eq!(got.len(), GOLDEN_ENGINE_BITS.len());
    for ((label, bits), &(want_label, want)) in got.iter().zip(GOLDEN_ENGINE_BITS) {
        assert_eq!(label, want_label);
        assert_eq!(
            *bits,
            want,
            "{label}: {} vs golden {}",
            f64::from_bits(*bits),
            f64::from_bits(want)
        );
    }
}
