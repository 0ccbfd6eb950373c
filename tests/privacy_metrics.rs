//! Integration of the auxiliary privacy metrics: re-identification,
//! time-to-confusion, similarity, diary, and mobility statistics agreeing
//! on the same synthetic population.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch::model::diary::Diary;
use backwatch::model::hisbin::{MatchRule, Matcher};
use backwatch::model::pattern::{PatternKind, Profile};
use backwatch::model::poi::{ExtractorParams, SpatioTemporalExtractor, Stay};
use backwatch::model::reident::top_n_anonymity;
use backwatch::model::similarity;
use backwatch::model::timeconfusion::{time_to_confusion, TtcConfig};
use backwatch::prelude::{Grid, LatLon, Meters, Seconds, SynthConfig, Timestamp};
use backwatch::stats::chi2;
use backwatch::trace::sampling;
use backwatch::trace::stats::mobility_stats;
use backwatch::trace::synth::generate_user;
use proptest::prelude::*;

fn population() -> (SynthConfig, Vec<backwatch::trace::synth::UserTrace>) {
    let mut cfg = SynthConfig::small();
    cfg.n_users = 6;
    cfg.days = 6;
    let users = (0..cfg.n_users).map(|i| generate_user(&cfg, i)).collect();
    (cfg, users)
}

#[test]
fn top2_regions_identify_everyone_in_the_population() {
    let (cfg, users) = population();
    let grid = Grid::new(cfg.city_center, Meters::new(250.0));
    let extractor = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
    let stays: Vec<Vec<_>> = users.iter().map(|u| extractor.extract(&u.trace)).collect();
    let report = top_n_anonymity(&stays, &grid, 2);
    // private homes make home+work pairs unique — Zang & Bolot
    assert!(
        report.unique_fraction() > 0.8,
        "top-2 uniqueness {}",
        report.unique_fraction()
    );
}

#[test]
fn sparse_release_lengthens_tracking_runs() {
    let (_, users) = population();
    let others: Vec<&backwatch::trace::Trace> = users[1..].iter().map(|u| &u.trace).collect();
    let dense = time_to_confusion(
        &sampling::downsample(&users[0].trace, Seconds::new(60)),
        &others,
        TtcConfig::default(),
    );
    let sparse = time_to_confusion(
        &sampling::downsample(&users[0].trace, Seconds::new(3600)),
        &others,
        TtcConfig::default(),
    );
    // fewer release moments -> fewer confusion opportunities
    assert!(sparse.confusion_events <= dense.confusion_events);
    assert!(dense.fixes > sparse.fixes);
}

#[test]
fn similarity_ranks_self_above_others() {
    let (cfg, users) = population();
    let grid = Grid::new(cfg.city_center, Meters::new(250.0));
    let extractor = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
    let profiles: Vec<Profile> = users
        .iter()
        .map(|u| Profile::from_stays(PatternKind::MovementPattern, &extractor.extract(&u.trace), &grid))
        .collect();
    // half of user 0's data vs everyone's profile: self wins on JS score
    let stays = extractor.extract(&users[0].trace);
    let observed = Profile::from_stays(PatternKind::MovementPattern, &stays[..stays.len() / 2], &grid);
    let scores: Vec<f64> = profiles
        .iter()
        .map(|p| similarity::compare(&observed, p).map_or(0.0, |s| s.score()))
        .collect();
    let best = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert_eq!(best, 0, "scores: {scores:?}");
    assert!(scores[0] > 0.3, "self-similarity too weak: {}", scores[0]);
}

#[test]
fn diary_and_mobility_stats_tell_one_story() {
    let (cfg, users) = population();
    let user = &users[0];
    let params = ExtractorParams::paper_set1();
    let stays = SpatioTemporalExtractor::new(params).extract(&user.trace);
    let diary = Diary::from_stays(&stays, params.radius_m * 3.0, params.metric);
    let grid = Grid::new(cfg.city_center, Meters::new(250.0));
    let stats = mobility_stats(&user.trace, &grid).unwrap();

    // the diary's place count and the grid-cell count agree in magnitude
    assert!(diary.places.len() >= 2);
    assert!(stats.distinct_cells >= diary.places.len() / 2);
    // the anchor place dominates, as does the top cell
    assert!(stats.top_cell_share > 0.1);
    let anchor = diary.anchor_place().unwrap();
    assert!(diary.places.places()[anchor].visit_count() >= cfg.days as usize - 1);
    // every simulated day appears in the diary
    assert!(diary.days_covered() >= cfg.days as usize - 1);
}

// --- degenerate Deg_anonymity regressions -------------------------------
//
// The anonymity machinery must never panic or emit NaN on hostile inputs:
// empty candidate sets, single candidates, exact-duplicate traces (which
// drive every chi-square weight to zero under the paper's weighting).

#[test]
fn empty_store_inference_matches_nothing_without_panicking() {
    use backwatch::model::adversary::ProfileStore;
    use backwatch::model::anonymity::Weighting;
    use backwatch::model::hisbin::Matcher;

    let (cfg, users) = population();
    let grid = Grid::new(cfg.city_center, Meters::new(250.0));
    let extractor = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
    let stays = extractor.extract(&users[0].trace);
    let observed = Profile::from_stays(PatternKind::RegionVisits, &stays, &grid);

    let store = ProfileStore::new(PatternKind::RegionVisits);
    let inference = store.infer(&observed, &Matcher::paper(), Weighting::PaperChiSquare);
    assert!(inference.matched_users.is_empty());
    assert_eq!(inference.degree(), None, "an empty candidate set has no degree");
    assert_eq!(inference.identified_user(), None);
}

#[test]
fn empty_observation_matches_no_profile() {
    use backwatch::model::adversary::ProfileStore;
    use backwatch::model::anonymity::Weighting;
    use backwatch::model::hisbin::Matcher;

    let (cfg, users) = population();
    let grid = Grid::new(cfg.city_center, Meters::new(250.0));
    let extractor = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
    let mut store = ProfileStore::new(PatternKind::RegionVisits);
    for (u, user) in users.iter().enumerate() {
        let stays = extractor.extract(&user.trace);
        store.insert(u as u32, Profile::from_stays(PatternKind::RegionVisits, &stays, &grid));
    }
    let empty = Profile::new(PatternKind::RegionVisits);
    let inference = store.infer(&empty, &Matcher::paper(), Weighting::PaperChiSquare);
    assert!(inference.matched_users.is_empty(), "nothing collected must reveal nothing");
    assert_eq!(inference.degree(), None);
}

#[test]
fn single_candidate_collapses_to_zero_degree() {
    use backwatch::model::adversary::ProfileStore;
    use backwatch::model::anonymity::Weighting;
    use backwatch::model::hisbin::Matcher;

    let (cfg, users) = population();
    let grid = Grid::new(cfg.city_center, Meters::new(250.0));
    let extractor = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
    let stays = extractor.extract(&users[0].trace);
    let profile = Profile::from_stays(PatternKind::RegionVisits, &stays, &grid);

    let mut store = ProfileStore::new(PatternKind::RegionVisits);
    store.insert(42, profile.clone());
    let inference = store.infer(&profile, &Matcher::paper(), Weighting::PaperChiSquare);
    assert_eq!(inference.identified_user(), Some(42));
    let degree = inference.degree().expect("a match must carry a degree");
    assert!(degree.is_finite(), "degree must be finite, got {degree}");
    assert_eq!(degree, 0.0, "a unique candidate is zero anonymity");
}

#[test]
fn duplicate_traces_yield_uniform_posterior_not_a_panic() {
    use backwatch::model::anonymity::{assess, Weighting};
    use backwatch::model::hisbin::Matcher;

    let (cfg, users) = population();
    let grid = Grid::new(cfg.city_center, Meters::new(250.0));
    let extractor = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
    let stays = extractor.extract(&users[0].trace);
    let profile = Profile::from_stays(PatternKind::RegionVisits, &stays, &grid);

    // two byte-identical candidates: the observation equals both, every
    // chi-square statistic is exactly 0 — the adversary has no basis to
    // prefer either, so the posterior must degrade to uniform over the
    // anonymity set, never to a panic or NaN
    let outcome = assess(
        &profile,
        &[profile.clone(), profile.clone()],
        &Matcher::paper(),
        Weighting::PaperChiSquare,
    );
    assert_eq!(outcome.matched, vec![0, 1], "both duplicates must match");
    let total: f64 = outcome.posterior.iter().sum();
    assert!((total - 1.0).abs() < 1e-12, "posterior must sum to 1, got {total}");
    for p in &outcome.posterior {
        assert!(p.is_finite() && *p >= 0.0, "posterior entry {p} is not a probability");
        assert!((p - 0.5).abs() < 1e-12, "all-zero weights must fall back to uniform");
    }
    let degree = outcome.degree.expect("duplicates still carry a degree");
    assert!((degree - 1.0).abs() < 1e-12, "uniform over the full set is total anonymity");
}

#[test]
fn inverse_weighting_on_duplicates_stays_finite() {
    use backwatch::model::anonymity::{assess, Weighting};
    use backwatch::model::hisbin::Matcher;

    let (cfg, users) = population();
    let grid = Grid::new(cfg.city_center, Meters::new(250.0));
    let extractor = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
    let stays = extractor.extract(&users[0].trace);
    let profile = Profile::from_stays(PatternKind::RegionVisits, &stays, &grid);

    let outcome = assess(
        &profile,
        &[profile.clone(), profile.clone(), profile.clone()],
        &Matcher::paper(),
        Weighting::InverseChiSquare,
    );
    assert_eq!(outcome.matched.len(), 3);
    assert!(outcome.posterior.iter().all(|p| p.is_finite()));
    assert!(outcome.entropy_bits.is_finite());
    let degree = outcome.degree.expect("matches carry a degree");
    assert!(degree.is_finite() && (0.0..=1.0).contains(&degree));
}

/// A region-count profile with one visit per entry of `cells`, each cell
/// index mapped to its own 250 m grid cell.
fn cell_profile(cells: &[usize], grid: &Grid) -> Profile {
    let mut profile = Profile::new(PatternKind::RegionVisitCounts);
    for (i, &cell) in cells.iter().enumerate() {
        let stay = Stay {
            centroid: LatLon::new(39.9 + 0.005 * (cell / 40) as f64, 116.4 + 0.005 * (cell % 40) as f64).unwrap(),
            enter: Timestamp::from_secs(i as i64 * 3_600),
            leave: Timestamp::from_secs(i as i64 * 3_600 + 900),
            n_points: 900,
            end_index: i,
        };
        profile.observe_stay(&stay, grid);
    }
    profile
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential: wherever a comparison reaches the chi-square branch,
    /// `His_bin` is the rule's decision against the critical value solved
    /// directly by `chi2::inverse_cdf` — so the matcher's memoized critical
    /// values are the solver's. Every case runs all rules and α values on
    /// one pair, so a memo that confused two keys would flip a decision.
    #[test]
    fn his_bin_matches_the_directly_solved_critical_value(
        shape in 0usize..4,
        n_cats in 1usize..300,
        observed in prop::collection::vec(0usize..1_000, 0..120),
        profile in prop::collection::vec(0usize..1_000, 0..400),
    ) {
        let grid = Grid::new(LatLon::new(39.9, 116.4).unwrap(), Meters::new(250.0));
        let (observed, profile): (Vec<usize>, Vec<usize>) = match shape {
            // overlapping support over n_cats categories
            0 => (observed.iter().map(|c| c % n_cats).collect(), profile.iter().map(|c| c % n_cats).collect()),
            // disjoint support
            1 => (observed.iter().map(|c| c % n_cats).collect(), profile.iter().map(|c| n_cats + c % n_cats).collect()),
            // one shared category
            2 => (vec![0; observed.len()], vec![0; profile.len()]),
            // many categories: the profile covers all n_cats of them
            _ => (observed.iter().map(|c| c % n_cats).collect(), (0..n_cats).chain(profile.iter().map(|c| c % n_cats)).collect()),
        };
        let observed = cell_profile(&observed, &grid);
        let profile = cell_profile(&profile, &grid);
        for rule in [MatchRule::ScaledUpperTail, MatchRule::PaperLowerTail] {
            for alpha in [0.01, 0.05, 0.10, 0.5] {
                let matcher = Matcher::new(alpha, rule);
                let outcome = matcher.compare(&observed, &profile);
                prop_assert_eq!(outcome, matcher.compare(&observed, &profile));
                if outcome.df > 0.0 && outcome.statistic.is_finite() {
                    let leaky = match rule {
                        MatchRule::ScaledUpperTail => outcome.statistic <= chi2::inverse_cdf(1.0 - alpha, outcome.df),
                        MatchRule::PaperLowerTail => outcome.statistic >= chi2::inverse_cdf(alpha, outcome.df),
                    };
                    prop_assert_eq!(outcome.his_bin.is_leaky(), leaky, "rule={:?} alpha={} df={}", rule, alpha, outcome.df);
                }
            }
        }
    }
}
