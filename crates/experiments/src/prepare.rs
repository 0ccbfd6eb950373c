//! Shared per-user precomputation for the trace-driven experiments.
//!
//! For each synthetic user we generate the trace once and derive
//! everything Figures 3–5 need: the frequency-impact sweep, the stays
//! extracted at every access interval, a random-start variant, and the
//! user's ground-truth profiles. Users are processed in parallel and the
//! (large) raw traces are dropped as soon as their derivatives exist.

use crate::pool::map_users;
use crate::ExperimentConfig;
use backwatch_core::metrics::{impact_from_stays, FrequencyImpact};
use backwatch_core::pattern::{PatternKind, Profile};
use backwatch_core::poi::{SpatioTemporalExtractor, Stay};
use backwatch_geo::Seconds;
use backwatch_trace::sampling;
use backwatch_trace::synth::generate_user;
use backwatch_trace::SoaProjectedTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The stays an app polling at `interval_s` would let an adversary
/// extract.
#[derive(Debug, Clone)]
pub struct IntervalData {
    /// Polling interval, seconds.
    pub interval_s: i64,
    /// Number of fixes the app collected.
    pub collected_points: usize,
    /// PoI visits extracted from those fixes.
    pub stays: Vec<Stay>,
}

/// Everything the experiments need about one user.
#[derive(Debug, Clone)]
pub struct UserData {
    /// The user's id.
    pub user_id: u32,
    /// Fixes in the full (1 Hz) recorded trace.
    pub trace_len: usize,
    /// Stays extracted from the full trace (the ground-truth view).
    pub full_stays: Vec<Stay>,
    /// Ground-truth pattern-1 profile (region visits).
    pub profile1: Profile,
    /// Ground-truth pattern-2 profile (movement patterns).
    pub profile2: Profile,
    /// Stays at each configured interval, aligned with
    /// [`ExperimentConfig::intervals`].
    pub per_interval: Vec<IntervalData>,
    /// 1 Hz collection beginning at a random position of the trace
    /// (Figure 4(b)).
    pub rotated: IntervalData,
    /// Figure 3 measurements, aligned with the configured intervals.
    pub impacts: Vec<FrequencyImpact>,
}

fn prepare_one(cfg: &ExperimentConfig, user_idx: u32) -> UserData {
    let grid = cfg.grid();
    let extractor = SpatioTemporalExtractor::new(cfg.params);
    let user = generate_user(&cfg.synth, user_idx);

    // Project the trace into the local tangent plane once; every
    // extraction below — full rate, each interval, the rotated variant —
    // reuses it.
    let projected = SoaProjectedTrace::project(&user.trace);

    let full_stays = extractor.extract_soa(&projected);
    let profile1 = Profile::from_stays(PatternKind::RegionVisits, &full_stays, &grid);
    let profile2 = Profile::from_stays(PatternKind::MovementPattern, &full_stays, &grid);

    let per_interval: Vec<IntervalData> = cfg
        .intervals
        .iter()
        .map(|&interval_s| {
            let indices = sampling::downsample_indices(&user.trace, Seconds::new(interval_s));
            // An interval that kept every fix samples the identity view:
            // same points, order and end indices as the full extraction.
            let stays = if indices.len() == user.trace.len() {
                full_stays.clone()
            } else {
                extractor.extract_sampled_soa(&projected, &indices)
            };
            IntervalData {
                interval_s,
                collected_points: indices.len(),
                stays,
            }
        })
        .collect();

    // Random-start collection at full rate (Figure 4(b)); seeded per user
    // so the whole experiment stays deterministic.
    let mut rng = StdRng::seed_from_u64(cfg.synth.seed ^ (u64::from(user_idx) << 17) ^ 0x000F_1CED);
    let start = sampling::random_start_index(user.trace.len(), &mut rng);
    let rotated = IntervalData {
        interval_s: 1,
        collected_points: user.trace.len(),
        stays: extractor.extract_rotated_soa(&projected, start),
    };

    let impacts = per_interval
        .iter()
        .map(|d| impact_from_stays(&user, Seconds::new(d.interval_s), d.collected_points, &d.stays, cfg.params))
        .collect();

    UserData {
        user_id: user_idx,
        trace_len: user.trace.len(),
        full_stays,
        profile1,
        profile2,
        per_interval,
        rotated,
        impacts,
    }
}

/// Prepares every user of the configured population, in parallel.
#[must_use]
pub fn prepare_users(cfg: &ExperimentConfig) -> Vec<UserData> {
    map_users(cfg.synth.n_users, cfg.threads, |i| prepare_one(cfg, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepares_all_users_in_order() {
        let cfg = ExperimentConfig::small();
        let users = prepare_users(&cfg);
        assert_eq!(users.len(), cfg.synth.n_users as usize);
        for (i, u) in users.iter().enumerate() {
            assert_eq!(u.user_id, i as u32);
            assert_eq!(u.per_interval.len(), cfg.intervals.len());
            assert_eq!(u.impacts.len(), cfg.intervals.len());
            assert!(u.trace_len > 0);
            assert!(!u.full_stays.is_empty());
            assert!(!u.profile1.is_empty());
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let mut cfg = ExperimentConfig::small();
        cfg.threads = 1;
        let seq = prepare_users(&cfg);
        cfg.threads = 4;
        let par = prepare_users(&cfg);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.user_id, b.user_id);
            assert_eq!(a.full_stays, b.full_stays);
            assert_eq!(a.profile2, b.profile2);
            assert_eq!(a.rotated.stays, b.rotated.stays);
        }
    }

    #[test]
    fn soa_pipeline_matches_scalar_pipeline() {
        // The preparation pipeline runs on the SoA layout; pin it to the
        // scalar AoS oracle bit-for-bit on every synthetic user.
        let cfg = ExperimentConfig::small();
        let extractor = SpatioTemporalExtractor::new(cfg.params);
        for i in 0..cfg.synth.n_users {
            let user = generate_user(&cfg.synth, i);
            let scalar = extractor.extract_projected(&backwatch_trace::ProjectedTrace::project(&user.trace));
            let soa = extractor.extract_soa(&SoaProjectedTrace::project(&user.trace));
            assert_eq!(scalar, soa, "user {i}: SoA stays diverge from scalar oracle");
        }
    }

    #[test]
    fn interval_one_matches_full_extraction() {
        let cfg = ExperimentConfig::small();
        let users = prepare_users(&cfg);
        for u in &users {
            let at_1s = &u.per_interval[0];
            assert_eq!(at_1s.interval_s, 1);
            assert_eq!(at_1s.stays, u.full_stays);
            assert_eq!(at_1s.collected_points, u.trace_len);
        }
    }

    /// Differential for the identity-sampling reuse: every interval's
    /// stays equal a direct sampled extraction, both for the small config
    /// (whose first interval keeps every fix and reuses the full stays) and
    /// for a config whose first interval is 5 s (no reuse).
    #[test]
    fn interval_stays_match_direct_sampled_extraction() {
        let mut coarse = ExperimentConfig::small();
        coarse.intervals = vec![5, 60];
        for cfg in [ExperimentConfig::small(), coarse] {
            let extractor = SpatioTemporalExtractor::new(cfg.params);
            for u in prepare_users(&cfg) {
                let trace = generate_user(&cfg.synth, u.user_id).trace;
                let projected = SoaProjectedTrace::project(&trace);
                for d in &u.per_interval {
                    let indices = sampling::downsample_indices(&trace, Seconds::new(d.interval_s));
                    let direct = extractor.extract_sampled_soa(&projected, &indices);
                    assert_eq!(d.stays, direct, "user {} interval {} s", u.user_id, d.interval_s);
                }
            }
        }
    }

    #[test]
    fn coarser_intervals_never_collect_more() {
        let cfg = ExperimentConfig::small();
        for u in prepare_users(&cfg) {
            for w in u.per_interval.windows(2) {
                assert!(w[1].collected_points <= w[0].collected_points);
            }
        }
    }
}
