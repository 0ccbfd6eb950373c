//! Extension experiment X11: traffic-leakage granularity sweep — what
//! does an adversary reading exfiltrated coordinates learn as a function
//! of decimal precision d and reporting interval i?
//!
//! The channel is [`backwatch_core::leakage::observe`]: sample the trace
//! every i seconds, truncate each coordinate to d decimal digits (the
//! same transform `defense::truncation::DecimalTruncation` deploys on
//! the release path). Each (d, i) cell is pushed through the full metric
//! stack: PoI extraction, His_bin pattern-2 matching, the chi-square
//! Deg_anonymity store over pattern-1 profiles, and the containment
//! adversary whose degree is provably monotone in both knobs (the
//! `leakage_monotonicity` suite pins the proofs; the binary asserts the
//! monotone grid shape on every run).

use crate::ExperimentConfig;
use backwatch_core::adversary::ProfileStore;
use backwatch_core::anonymity::Weighting;
use backwatch_core::leakage::{self, CoordSet, LeakageAdversary, Precision};
use backwatch_core::pattern::{PatternKind, Profile};
use backwatch_core::poi::SpatioTemporalExtractor;
use backwatch_geo::Seconds;
use backwatch_trace::synth::generate_user;
use backwatch_trace::SoaProjectedTrace;
use std::fmt::Write as _;

/// Decimal precisions swept, coarse to lossless.
pub const PRECISIONS: [Precision; 6] = [
    Precision::Decimals(0),
    Precision::Decimals(1),
    Precision::Decimals(2),
    Precision::Decimals(3),
    Precision::Decimals(4),
    Precision::Lossless,
];

/// Reporting intervals swept, seconds — a divisor chain, so the sampled
/// fix sets nest and the containment degree is monotone along the axis.
pub const LEAK_INTERVALS: [i64; 3] = [3600, 600, 60];

/// One (interval, precision) cell of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakCell {
    /// Reporting interval, seconds.
    pub interval_s: i64,
    /// Coordinate precision on the wire.
    pub precision: Precision,
    /// Mean PoI visits recovered from the leaked stream.
    pub mean_pois: f64,
    /// Users whose leaked pattern-2 histogram His_bin-matched their
    /// true movement profile.
    pub hisbin_detected: usize,
    /// Users the chi-square store matched to at least one profile.
    pub chi2_matched: usize,
    /// Mean chi-square Deg_anonymity over matched users (1.0 when none
    /// matched: the release revealed nothing).
    pub mean_degree_chi2: f64,
    /// Mean containment Deg_anonymity (uniform posterior over the
    /// candidate set; monotone in both axes by construction).
    pub mean_degree_containment: f64,
    /// Users uniquely identified by the containment adversary.
    pub identified: usize,
}

/// The X11 bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageResult {
    /// Interval-major, then precision, matching [`LEAK_INTERVALS`] ×
    /// [`PRECISIONS`].
    pub cells: Vec<LeakCell>,
    /// Population size.
    pub users: usize,
}

struct UserLeak {
    profile1: Profile,
    full_set: CoordSet,
    per_interval: Vec<CoordSet>,
    cells: Vec<CellRaw>,
}

#[derive(Clone)]
struct CellRaw {
    pois: usize,
    fired: bool,
    observed1: Profile,
}

/// Runs the d × i sweep over the whole population.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> LeakageResult {
    let grid = cfg.grid();
    let extractor = SpatioTemporalExtractor::new(cfg.params);
    let matcher = cfg.matcher;
    let n_users = cfg.synth.n_users;

    let mut per_user: Vec<UserLeak> = crate::pool::map_users(n_users, cfg.threads, |u| {
        let user = generate_user(&cfg.synth, u);
        let times: Vec<i64> = user.trace.points().iter().map(|p| p.time.as_secs()).collect();
        let soa = SoaProjectedTrace::project(&user.trace);
        let full = extractor.extract_soa(&soa);
        let profile1 = Profile::from_stays(PatternKind::RegionVisits, &full, &grid);
        let profile2 = Profile::from_stays(PatternKind::MovementPattern, &full, &grid);
        let full_set = CoordSet::from_trace(&user.trace);

        let mut per_interval = Vec::with_capacity(LEAK_INTERVALS.len());
        let mut cells = Vec::with_capacity(LEAK_INTERVALS.len() * PRECISIONS.len());
        for &interval_s in &LEAK_INTERVALS {
            let indices = leakage::sample_indices(&times, Seconds::new(interval_s));
            per_interval.push(CoordSet::from_sampled(&user.trace, &indices));
            for &precision in &PRECISIONS {
                let leaked = leakage::observe(&user.trace, Seconds::new(interval_s), precision);
                let stays = extractor.extract(&leaked);
                let observed1 = Profile::from_stays(PatternKind::RegionVisits, &stays, &grid);
                let observed2 = Profile::from_stays(PatternKind::MovementPattern, &stays, &grid);
                let fired = matcher.compare(&observed2, &profile2).his_bin.is_leaky();
                cells.push(CellRaw {
                    pois: stays.len(),
                    fired,
                    observed1,
                });
            }
        }
        UserLeak {
            profile1,
            full_set,
            per_interval,
            cells,
        }
    });

    // Population-wide stores: the chi-square profile store and the
    // containment adversary, both over the full-precision ground truth.
    // The full cell sets are dead after enrolment: move them in.
    let mut store = ProfileStore::new(PatternKind::RegionVisits);
    let mut containment = LeakageAdversary::new();
    for (u, ul) in per_user.iter_mut().enumerate() {
        store.insert(u as u32, ul.profile1.clone());
        containment.insert(u as u32, std::mem::take(&mut ul.full_set));
    }

    let mut cells = Vec::with_capacity(LEAK_INTERVALS.len() * PRECISIONS.len());
    for (ii, &interval_s) in LEAK_INTERVALS.iter().enumerate() {
        for (pi, &precision) in PRECISIONS.iter().enumerate() {
            let idx = ii * PRECISIONS.len() + pi;
            let mut poi_sum = 0usize;
            let mut fired = 0usize;
            let mut chi2_matched = 0usize;
            let mut chi2_sum = 0.0;
            let mut cont_sum = 0.0;
            let mut identified = 0usize;
            for ul in &per_user {
                let raw = &ul.cells[idx];
                poi_sum += raw.pois;
                fired += usize::from(raw.fired);
                let inference = store.infer(&raw.observed1, &matcher, Weighting::PaperChiSquare);
                if let Some(d) = inference.degree() {
                    chi2_matched += 1;
                    chi2_sum += d;
                }
                let candidates = containment.candidates(&ul.per_interval[ii], precision);
                identified += usize::from(candidates.len() == 1);
                let n = containment.population();
                cont_sum += if n <= 1 || candidates.is_empty() {
                    0.0
                } else {
                    ((candidates.len() as f64).log2() / (n as f64).log2()).clamp(0.0, 1.0)
                };
            }
            let n = per_user.len().max(1);
            cells.push(LeakCell {
                interval_s,
                precision,
                mean_pois: poi_sum as f64 / n as f64,
                hisbin_detected: fired,
                chi2_matched,
                mean_degree_chi2: if chi2_matched > 0 {
                    chi2_sum / chi2_matched as f64
                } else {
                    1.0
                },
                mean_degree_containment: cont_sum / n as f64,
                identified,
            });
        }
    }
    LeakageResult {
        cells,
        users: per_user.len(),
    }
}

/// Whether the containment degree is monotone across the rendered grid:
/// non-increasing as precision grows (down a column) and as the interval
/// shrinks (along the divisor chain) — the invariant the channel model
/// guarantees by construction and the binary asserts on every run.
#[must_use]
pub fn containment_grid_is_monotone(result: &LeakageResult) -> bool {
    let np = PRECISIONS.len();
    let cell = |ii: usize, pi: usize| result.cells[ii * np + pi].mean_degree_containment;
    let eps = 1e-12;
    for ii in 0..LEAK_INTERVALS.len() {
        for pi in 1..np {
            if cell(ii, pi) > cell(ii, pi - 1) + eps {
                return false;
            }
        }
    }
    for pi in 0..np {
        for ii in 1..LEAK_INTERVALS.len() {
            if cell(ii, pi) > cell(ii - 1, pi) + eps {
                return false;
            }
        }
    }
    true
}

/// Renders the d × i grid.
#[must_use]
pub fn render(result: &LeakageResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXTENSION: traffic-leakage granularity sweep (X11) — precision d x interval i ({} users)",
        result.users
    );
    let _ = writeln!(
        s,
        "{:>10} {:>9} {:>10} {:>8} {:>12} {:>9} {:>9} {:>10}",
        "interval_s", "decimals", "mean_pois", "his_bin", "chi2_match", "deg_chi2", "deg_cont", "identified"
    );
    for c in &result.cells {
        let d = c
            .precision
            .decimals()
            .map_or_else(|| "lossless".to_owned(), |d| d.to_string());
        let _ = writeln!(
            s,
            "{:>10} {:>9} {:>10.1} {:>8} {:>12} {:>9.3} {:>9.3} {:>10}",
            c.interval_s,
            d,
            c.mean_pois,
            c.hisbin_detected,
            c.chi2_matched,
            c.mean_degree_chi2,
            c.mean_degree_containment,
            c.identified
        );
    }
    let _ = writeln!(
        s,
        "containment grid monotone: {}",
        if containment_grid_is_monotone(result) {
            "yes"
        } else {
            "VIOLATED"
        }
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_full_dimensions() {
        let r = run(&ExperimentConfig::small());
        assert_eq!(r.cells.len(), LEAK_INTERVALS.len() * PRECISIONS.len());
        assert_eq!(r.users, 4);
    }

    #[test]
    fn containment_degree_is_monotone_on_the_grid() {
        let r = run(&ExperimentConfig::small());
        assert!(containment_grid_is_monotone(&r));
    }

    #[test]
    fn zero_decimals_collapse_the_city() {
        let r = run(&ExperimentConfig::small());
        // the synthetic city fits inside one whole-degree cell, so at
        // d=0 every user is a candidate for every observation: full
        // anonymity, nobody identified
        for ii in 0..LEAK_INTERVALS.len() {
            let coarsest = r.cells[ii * PRECISIONS.len()];
            assert_eq!(coarsest.mean_degree_containment, 1.0);
            assert_eq!(coarsest.identified, 0);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let cfg = ExperimentConfig::small();
        let mut seq = cfg.clone();
        seq.threads = 1;
        assert_eq!(run(&cfg), run(&seq));
    }

    #[test]
    fn render_mentions_the_grid() {
        let text = render(&run(&ExperimentConfig::small()));
        assert!(text.contains("traffic-leakage granularity sweep"));
        assert!(text.contains("lossless"));
        assert!(text.contains("containment grid monotone: yes"));
    }
}
