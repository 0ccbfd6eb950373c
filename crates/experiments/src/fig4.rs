//! Figure 4: how fast the His_bin risk is detected.
//!
//! - (a) growing the collection from the trace start at full rate: CDF
//!   over users of the fraction of the profile needed before detection,
//!   per pattern.
//! - (b) the same from a random starting position.
//! - (c) number of users with a detected risk, per pattern, as the access
//!   interval grows.
//! - (d) per interval, for how many users each pattern detected strictly
//!   faster than the other.

use crate::prepare::{IntervalData, UserData};
use crate::ExperimentConfig;
use backwatch_core::hisbin::{detect_incremental, Detection};
use backwatch_core::pattern::PatternKind;
use std::fmt::Write as _;

/// Per-user detection outcomes for one collection strategy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectionSet {
    /// Pattern-1 detections, one slot per user.
    pub pattern1: Vec<Option<Detection>>,
    /// Pattern-2 detections, one slot per user.
    pub pattern2: Vec<Option<Detection>>,
}

impl DetectionSet {
    /// Fraction of users whose risk was detected within `fraction` of
    /// their collection, for the given pattern's detections.
    #[must_use]
    pub fn detected_within(detections: &[Option<Detection>], fraction: f64) -> f64 {
        if detections.is_empty() {
            return 0.0;
        }
        let hits = detections
            .iter()
            .filter(|d| d.is_some_and(|d| d.fraction_of_points <= fraction))
            .count();
        hits as f64 / detections.len() as f64
    }

    /// Users with any detection under the given pattern's detections.
    #[must_use]
    pub fn detected_count(detections: &[Option<Detection>]) -> usize {
        detections.iter().filter(|d| d.is_some()).count()
    }

    /// `(pattern1 strictly faster, pattern2 strictly faster)` user counts.
    #[must_use]
    pub fn race(&self) -> (usize, usize) {
        let mut p1 = 0;
        let mut p2 = 0;
        for (a, b) in self.pattern1.iter().zip(&self.pattern2) {
            match (a, b) {
                (Some(a), Some(b)) => {
                    if a.points_needed < b.points_needed {
                        p1 += 1;
                    } else if b.points_needed < a.points_needed {
                        p2 += 1;
                    }
                }
                (Some(_), None) => p1 += 1,
                (None, Some(_)) => p2 += 1,
                (None, None) => {}
            }
        }
        (p1, p2)
    }
}

/// The Figure 4 bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// (a): detections from the trace start at full rate.
    pub from_start: DetectionSet,
    /// (b): detections from a random start at full rate.
    pub from_random: DetectionSet,
    /// (c)/(d): per configured interval, the detection sets.
    pub per_interval: Vec<(i64, DetectionSet)>,
}

fn detect_set<F>(cfg: &ExperimentConfig, users: &[UserData], data: F) -> DetectionSet
where
    F: Fn(&UserData) -> &IntervalData + Sync,
{
    let grid = cfg.grid();
    // Each user's incremental detection is independent; per-slot results
    // keep the output identical to the old sequential walk.
    let pairs = crate::pool::map_users(users.len() as u32, cfg.threads, |i| {
        let u = &users[i as usize];
        let d = data(u);
        (
            detect_incremental(
                &d.stays,
                d.collected_points,
                &grid,
                PatternKind::RegionVisits,
                &cfg.matcher,
                &u.profile1,
            ),
            detect_incremental(
                &d.stays,
                d.collected_points,
                &grid,
                PatternKind::MovementPattern,
                &cfg.matcher,
                &u.profile2,
            ),
        )
    });
    let (pattern1, pattern2) = pairs.into_iter().unzip();
    DetectionSet { pattern1, pattern2 }
}

/// Runs all four panels over the prepared users.
#[must_use]
pub fn run(cfg: &ExperimentConfig, users: &[UserData]) -> Fig4Result {
    let per_interval: Vec<(i64, DetectionSet)> = cfg
        .intervals
        .iter()
        .enumerate()
        .map(|(k, &interval)| (interval, detect_set(cfg, users, move |u| &u.per_interval[k])))
        .collect();
    // (a) is the first interval's set (the configs start at 1 s); with no
    // interval configured there is nothing collected and nothing detected.
    let from_start = per_interval
        .first()
        .map_or_else(DetectionSet::default, |(_, set)| set.clone());
    let from_random = detect_set(cfg, users, |u| &u.rotated);
    Fig4Result {
        from_start,
        from_random,
        per_interval,
    }
}

/// CDF sample points (fraction of collected data).
const CDF_POINTS: [f64; 10] = [0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 1.00];

fn render_cdf(s: &mut String, set: &DetectionSet) {
    let _ = writeln!(s, "{:>12} {:>12} {:>12}", "data_needed", "pattern1", "pattern2");
    for &x in &CDF_POINTS {
        let _ = writeln!(
            s,
            "{:>11.0}% {:>11.1}% {:>11.1}%",
            x * 100.0,
            100.0 * DetectionSet::detected_within(&set.pattern1, x),
            100.0 * DetectionSet::detected_within(&set.pattern2, x)
        );
    }
}

/// The Figure 4(c)/(d) series as CSV
/// (`interval_s,p1_detected,p2_detected,p1_faster,p2_faster`).
#[must_use]
pub fn to_csv(result: &Fig4Result) -> String {
    let mut s = String::from("interval_s,p1_detected,p2_detected,p1_faster,p2_faster\n");
    for (interval, set) in &result.per_interval {
        let (p1, p2) = set.race();
        let _ = writeln!(
            s,
            "{},{},{},{},{}",
            interval,
            DetectionSet::detected_count(&set.pattern1),
            DetectionSet::detected_count(&set.pattern2),
            p1,
            p2
        );
    }
    s
}

/// Renders all four panels.
#[must_use]
pub fn render(result: &Fig4Result) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "FIGURE 4(a): users detected vs fraction of data (from trace start, 1 s access)"
    );
    render_cdf(&mut s, &result.from_start);
    let _ = writeln!(s);
    let _ = writeln!(s, "FIGURE 4(b): same, collection starting at a random position");
    render_cdf(&mut s, &result.from_random);
    let _ = writeln!(s);
    let _ = writeln!(s, "FIGURE 4(c): users with detected risk vs access interval");
    let _ = writeln!(s, "{:>10} {:>10} {:>10}", "interval_s", "pattern1", "pattern2");
    for (interval, set) in &result.per_interval {
        let _ = writeln!(
            s,
            "{:>10} {:>10} {:>10}",
            interval,
            DetectionSet::detected_count(&set.pattern1),
            DetectionSet::detected_count(&set.pattern2)
        );
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "FIGURE 4(d): which pattern detects strictly faster");
    let _ = writeln!(s, "{:>10} {:>10} {:>10}", "interval_s", "p1_faster", "p2_faster");
    for (interval, set) in &result.per_interval {
        let (p1, p2) = set.race();
        let _ = writeln!(s, "{:>10} {:>10} {:>10}", interval, p1, p2);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::prepare_users;

    fn result() -> (ExperimentConfig, Fig4Result) {
        let cfg = ExperimentConfig::small();
        let users = prepare_users(&cfg);
        let r = run(&cfg, &users);
        (cfg, r)
    }

    #[test]
    fn full_rate_detects_every_user() {
        let (cfg, r) = result();
        let n = cfg.synth.n_users as usize;
        // a full-rate collection replays the profile exactly, so both
        // patterns must eventually fire for everyone
        assert_eq!(DetectionSet::detected_count(&r.from_start.pattern1), n);
        assert_eq!(DetectionSet::detected_count(&r.from_start.pattern2), n);
    }

    #[test]
    fn detection_needs_more_than_the_first_stay() {
        let (_, r) = result();
        for d in r.from_start.pattern2.iter().flatten() {
            assert!(d.stays_needed > 1);
            assert!(d.fraction_of_points > 0.0 && d.fraction_of_points <= 1.0);
        }
    }

    #[test]
    fn cdf_is_monotone() {
        let (_, r) = result();
        let mut last = 0.0;
        for &x in &CDF_POINTS {
            let v = DetectionSet::detected_within(&r.from_start.pattern2, x);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn coarse_intervals_detect_no_more_users_than_fine() {
        let (_, r) = result();
        let first = &r.per_interval.first().unwrap().1;
        let last = &r.per_interval.last().unwrap().1;
        assert!(DetectionSet::detected_count(&last.pattern1) <= DetectionSet::detected_count(&first.pattern1));
        assert!(DetectionSet::detected_count(&last.pattern2) <= DetectionSet::detected_count(&first.pattern2));
    }

    #[test]
    fn race_counts_bounded_by_population() {
        let (cfg, r) = result();
        for (_, set) in &r.per_interval {
            let (p1, p2) = set.race();
            assert!(p1 + p2 <= cfg.synth.n_users as usize);
        }
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let (cfg, r) = result();
        let csv = to_csv(&r);
        assert!(csv.starts_with("interval_s,"));
        assert_eq!(csv.lines().count(), 1 + cfg.intervals.len());
    }

    #[test]
    fn parallel_equals_sequential() {
        let mut cfg = ExperimentConfig::small();
        let users = prepare_users(&cfg);
        cfg.threads = 1;
        let seq = run(&cfg, &users);
        cfg.threads = 4;
        let par = run(&cfg, &users);
        assert_eq!(seq, par);
    }

    #[test]
    fn no_configured_interval_detects_nothing_from_start() {
        let mut cfg = ExperimentConfig::small();
        cfg.intervals.clear();
        let r = run(&cfg, &prepare_users(&cfg));
        assert_eq!(r.from_start, DetectionSet::default());
        assert!(r.per_interval.is_empty());
        assert_eq!(r.from_random.pattern1.len(), cfg.synth.n_users as usize);
    }

    #[test]
    fn render_contains_all_panels() {
        let (_, r) = result();
        let text = render(&r);
        for panel in ["FIGURE 4(a)", "FIGURE 4(b)", "FIGURE 4(c)", "FIGURE 4(d)"] {
            assert!(text.contains(panel));
        }
    }
}
