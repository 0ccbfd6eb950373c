//! City-scale pin for the traffic-leakage sweep (X11).
//!
//! One 24-user × 7-day city is pushed through `ext_leakage::run` and the
//! containment adversary's output is pinned cell by cell: the
//! `identified` column and the exact bits of `mean_degree_containment`.
//! The population queries of that city (18 grid cells × 24 users) are
//! also held to a wall-clock budget: the containment adversary projects
//! its population once at enrolment, so a query only projects the
//! observed set.
//!
//! The city-scale pins run in release builds only (`--release`); debug
//! builds check at the small scale that the query path is live.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_experiments::{ext_leakage, ExperimentConfig};

#[cfg(not(debug_assertions))]
use backwatch_core::leakage::{self, CoordSet, LeakageAdversary};
#[cfg(not(debug_assertions))]
use backwatch_experiments::ext_leakage::{LEAK_INTERVALS, PRECISIONS};
#[cfg(not(debug_assertions))]
use backwatch_geo::Seconds;
#[cfg(not(debug_assertions))]
use backwatch_trace::synth::generate_user;
#[cfg(not(debug_assertions))]
use std::time::{Duration, Instant};

#[cfg(not(debug_assertions))]
fn city() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper();
    (cfg.synth.n_users, cfg.synth.days) = (24, 7);
    cfg.synth.seed = 0x5EED_0B11;
    cfg
}

#[test]
fn small_sweep_counts_its_candidates() {
    let before = backwatch_core::obs::LEAK_CANDIDATES.get();
    let sets_before = backwatch_core::obs::LEAK_CANDIDATE_SETS.get();
    let result = ext_leakage::run(&ExperimentConfig::small());
    if !backwatch_obs::enabled() {
        return;
    }
    // counters are process-global and other tests run in parallel, so the
    // deltas are lower bounds; the true user is always a candidate, so
    // every query contributes at least one
    let queries = (result.cells.len() * result.users) as u64;
    assert!(backwatch_core::obs::LEAK_CANDIDATE_SETS.get() >= sets_before + queries);
    assert!(backwatch_core::obs::LEAK_CANDIDATES.get() >= before + queries);
}

#[cfg(not(debug_assertions))]
#[test]
fn city_grid_matches_the_golden_pin() {
    let result = ext_leakage::run(&city());
    assert_eq!(result.users, 24);
    let identified: Vec<usize> = result.cells.iter().map(|c| c.identified).collect();
    let degree_bits: Vec<u64> = result.cells.iter().map(|c| c.mean_degree_containment.to_bits()).collect();
    // interval-major (3600, 600, 60 s), then d = 0..=4 and lossless
    assert_eq!(
        identified,
        [0, 0, 23, 24, 24, 24, 0, 0, 24, 24, 24, 24, 0, 0, 24, 24, 24, 24],
        "identified column"
    );
    #[rustfmt::skip]
    let golden: [u64; 18] = [
        0x3ff0_0000_0000_0000, 0x3fec_e4b8_3008_bee7, 0x3f8d_7fa6_8423_63b8, 0, 0, 0,
        0x3ff0_0000_0000_0000, 0x3fe9_5e27_ec4b_c071, 0, 0, 0, 0,
        0x3ff0_0000_0000_0000, 0x3fe9_4510_a0c8_99dc, 0, 0, 0, 0,
    ];
    assert_eq!(degree_bits, golden, "mean_degree_containment bits");
    assert!(ext_leakage::containment_grid_is_monotone(&result));
}

#[cfg(not(debug_assertions))]
#[test]
fn city_population_queries_fit_the_budget() {
    let cfg = city();
    let mut adversary = LeakageAdversary::new();
    let mut observed: Vec<Vec<CoordSet>> = Vec::new();
    for u in 0..cfg.synth.n_users {
        let trace = generate_user(&cfg.synth, u).trace;
        let times: Vec<i64> = trace.points().iter().map(|p| p.time.as_secs()).collect();
        observed.push(
            LEAK_INTERVALS
                .iter()
                .map(|&i| CoordSet::from_sampled(&trace, &leakage::sample_indices(&times, Seconds::new(i))))
                .collect(),
        );
        adversary.insert(u, CoordSet::from_trace(&trace));
    }

    let start = Instant::now();
    let mut queries = 0usize;
    for ii in 0..LEAK_INTERVALS.len() {
        for &precision in &PRECISIONS {
            for (u, sets) in observed.iter().enumerate() {
                let candidates = adversary.candidates(&sets[ii], precision);
                assert!(candidates.contains(&(u as u32)), "true user {u} dropped out");
                queries += 1;
            }
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(queries, 432);
    assert!(
        elapsed < Duration::from_millis(100),
        "432 population queries took {elapsed:?}, breaching the 100 ms budget"
    );
}
