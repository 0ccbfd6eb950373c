//! Telemetry of the His_bin critical-value memo.
//!
//! The counters are process-wide, so this file holds a single test: its
//! own test binary keeps other tests' compares from racing the deltas.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_core::hisbin::Matcher;
use backwatch_core::obs::{HISBIN_COMPARES, HISBIN_CRITICAL_SOLVES};
use backwatch_core::pattern::{PatternKind, Profile};
use backwatch_core::poi::Stay;
use backwatch_geo::{Grid, LatLon, Meters};
use backwatch_trace::Timestamp;

#[test]
fn repeated_compare_hits_the_memo() {
    let grid = Grid::new(LatLon::new(39.9, 116.4).unwrap(), Meters::new(250.0));
    // three regions visited a different number of times: df = 2
    let stays: Vec<Stay> = [0, 1, 1, 2, 2, 2]
        .iter()
        .enumerate()
        .map(|(i, &cell)| Stay {
            centroid: LatLon::new(39.9 + 0.01 * f64::from(cell), 116.4).unwrap(),
            enter: Timestamp::from_secs(i as i64 * 10_000),
            leave: Timestamp::from_secs(i as i64 * 10_000 + 900),
            n_points: 900,
            end_index: i,
        })
        .collect();
    let profile = Profile::from_stays(PatternKind::RegionVisitCounts, &stays, &grid);
    let observed = Profile::from_stays(PatternKind::RegionVisitCounts, &stays[..4], &grid);
    let matcher = Matcher::paper();

    let first = matcher.compare(&observed, &profile);
    assert!(first.df > 0.0, "the pair must reach the chi-square branch");
    let compares = HISBIN_COMPARES.get();
    let solves = HISBIN_CRITICAL_SOLVES.get();
    let second = matcher.compare(&observed, &profile);
    assert_eq!(first, second);
    assert_eq!(HISBIN_COMPARES.get() - compares, 1, "one compare counted");
    assert_eq!(HISBIN_CRITICAL_SOLVES.get() - solves, 0, "the repeat must not re-solve");
    assert!(solves > 0, "the first compare solved its critical value");
}
