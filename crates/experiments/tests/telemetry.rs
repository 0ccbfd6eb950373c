//! Counter-backed pipeline invariants.
//!
//! These tests drive real pipeline passes and then assert on the telemetry
//! deltas — the measured versions of claims the docs state in prose: the
//! certified planar filter "almost never" refines (DESIGN.md §5d), the
//! dumpsys text channel loses no listener lines on a round trip, and the
//! worker pool claims every user index exactly once.
//!
//! The counters are process-global, so every test serializes on one lock
//! and works with before/after deltas.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_experiments::{obs, pool, prepare, ExperimentConfig};
use std::sync::Mutex;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Whether obs was compiled with the `disabled` feature (empty registry:
/// every counter stays 0 and the invariants are vacuous).
fn obs_active() -> bool {
    obs::register_all();
    !backwatch_obs::snapshot().samples.is_empty()
}

#[test]
fn planar_refine_fraction_stays_under_one_percent() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    if !obs_active() {
        return;
    }
    let certified0 = backwatch_core::obs::POI_PLANAR_CERTIFIED.get();
    let refined0 = backwatch_core::obs::POI_PLANAR_REFINED.get();

    let cfg = ExperimentConfig::small();
    let users = prepare::prepare_users(&cfg);
    assert!(!users.is_empty());

    let certified = backwatch_core::obs::POI_PLANAR_CERTIFIED.get() - certified0;
    let refined = backwatch_core::obs::POI_PLANAR_REFINED.get() - refined0;
    let total = certified + refined;
    assert!(total > 0, "extraction made no distance decisions");
    let fraction = refined as f64 / total as f64;
    assert!(
        fraction < 0.01,
        "refine fallback fraction {fraction:.4} ({refined}/{total}) breaches the <1% design claim"
    );
}

#[test]
fn dumpsys_round_trip_drops_no_lines() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    if !obs_active() {
        return;
    }
    let rendered0 = backwatch_android::obs::DUMPSYS_LINES_RENDERED.get();
    let parsed0 = backwatch_android::obs::DUMPSYS_ENTRIES_PARSED.get();
    let errors0 = backwatch_android::obs::DUMPSYS_PARSE_ERRORS.get();

    let corpus = backwatch_market::corpus::generate(&backwatch_market::corpus::CorpusConfig::scaled(8));
    let observations = backwatch_market::dynamic_analysis::analyze_corpus(&corpus);
    assert!(!observations.is_empty());

    let rendered = backwatch_android::obs::DUMPSYS_LINES_RENDERED.get() - rendered0;
    let parsed = backwatch_android::obs::DUMPSYS_ENTRIES_PARSED.get() - parsed0;
    let errors = backwatch_android::obs::DUMPSYS_PARSE_ERRORS.get() - errors0;
    assert!(rendered > 0, "the dynamic analysis rendered no listener lines");
    assert_eq!(errors, 0, "dumpsys round trip produced parse errors");
    assert_eq!(
        rendered,
        parsed,
        "dumpsys round trip dropped {} listener lines",
        rendered - parsed
    );
}

#[test]
fn map_users_claims_every_index_exactly_once() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    if !obs_active() {
        return;
    }
    for (n_users, threads) in [(0u32, 3), (1, 4), (57, 1), (57, 4), (200, 8)] {
        let claimed0 = backwatch_experiments::obs::POOL_TASKS_CLAIMED.get();
        let out = pool::map_users(n_users, threads, |i| i);
        assert_eq!(out.len(), n_users as usize);
        let claimed = backwatch_experiments::obs::POOL_TASKS_CLAIMED.get() - claimed0;
        assert_eq!(
            claimed,
            u64::from(n_users),
            "pool claimed {claimed} indices for {n_users} users at {threads} threads"
        );
    }
}

#[test]
fn snapshot_counts_match_population() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    if !obs_active() {
        return;
    }
    let users0 = backwatch_trace::obs::SYNTH_USERS.get();
    let passes0 = backwatch_core::obs::POI_PASSES.get();

    let cfg = ExperimentConfig::small();
    let users = prepare::prepare_users(&cfg);

    let synth_users = backwatch_trace::obs::SYNTH_USERS.get() - users0;
    let passes = backwatch_core::obs::POI_PASSES.get() - passes0;
    assert_eq!(synth_users, u64::from(cfg.synth.n_users));
    // per user: one full extraction, one rotated, and one per interval
    // except the small config's 1 s interval, which keeps every fix and
    // reuses the full extraction
    assert_eq!(passes, u64::from(cfg.synth.n_users) * (cfg.intervals.len() as u64 + 1));
    drop(users);
}
