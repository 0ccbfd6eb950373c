//! `profile`: the §IV privacy model as `repro_all` runs it —
//! `prepare::prepare_users` (synthesis, projection, PoI extraction at every
//! paper interval, profiles, frequency impact) followed by `fig4::run`
//! (incremental His_bin detection). The 1 Hz, dwell-heavy path.
//!
//! The traced pass repeats the public calls of `prepare.rs` `prepare_one`
//! and `fig4.rs` `detect_set` with a span around each, and must reproduce
//! the production output bit for bit.

use crate::harness::{delta, mean, ratio, run_passes, steady, timed_setup, Ctx, Report, Timed, TraceLog};
use crate::spans::{scope, Scope, Tracer, ROOT};
use backwatch_core::hisbin::detect_incremental;
use backwatch_core::metrics::impact_from_stays;
use backwatch_core::pattern::{PatternKind, Profile};
use backwatch_core::poi::{SpatioTemporalExtractor, Stay};
use backwatch_experiments::fig4::{self, DetectionSet, Fig4Result};
use backwatch_experiments::prepare::{self, IntervalData, UserData};
use backwatch_experiments::{pool, ExperimentConfig};
use backwatch_geo::Seconds;
use backwatch_trace::sampling;
use backwatch_trace::synth::generate_user;
use backwatch_trace::SoaProjectedTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Every `CHECK_STRIDE`-th user is checked against the lat/lon extractor.
const CHECK_STRIDE: usize = 8;

const SELF_TIMES: &[(&str, &str)] = &[
    ("trace.synth.generate", "trace.synth.generate_s"),
    ("trace.project", "trace.project_s"),
    ("trace.sampling.downsample", "trace.sampling.downsample_s"),
    ("core.poi.extract", "core.poi.extract_s"),
    ("core.pattern.profile", "core.pattern.profile_s"),
    ("core.metrics.impact", "core.metrics.impact_s"),
    ("core.hisbin.detect", "core.hisbin.detect_s"),
];

fn config(ctx: &Ctx) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper();
    (cfg.synth.n_users, cfg.synth.days) = if ctx.tiny { (4, 2) } else { (182, 7) };
    cfg.synth.seed = ctx.derive_seed(cfg.synth.seed);
    cfg.threads = ctx.threads;
    cfg
}

/// Inputs and expected outputs: the configuration, and every 8th user's
/// stays from the lat/lon extractor on the regenerated trace.
struct Setup {
    cfg: ExperimentConfig,
    expected: Vec<(usize, Vec<Stay>)>,
}

fn setup(ctx: &Ctx) -> Setup {
    let cfg = config(ctx);
    let extractor = SpatioTemporalExtractor::new(cfg.params);
    let expected = (0..cfg.synth.n_users as usize)
        .step_by(CHECK_STRIDE)
        .map(|i| (i, extractor.extract(&generate_user(&cfg.synth, i as u32).trace)))
        .collect();
    Setup { cfg, expected }
}

pub fn run(ctx: &Ctx) -> Report {
    backwatch_experiments::obs::register_all();
    let mut r = Report::default();
    let (setup_s, Setup { cfg, expected }) = timed_setup(3, || setup(ctx));
    r.set("setup_s", setup_s);

    let mut walls = Vec::new();
    let mut first: Option<(Vec<UserData>, Fig4Result)> = None;
    let mut checked = (0, 0);
    let mut replayed = (0, 0);
    let mut log = TraceLog::default();
    let mut counts = None;
    let mut timed = Timed::start();
    r.passes = run_passes(ctx, &mut timed, |k, traced| {
        if traced {
            let tracer = Tracer::new();
            let t = Instant::now();
            let (rusers, rfig) = replay(&cfg, &tracer);
            log.record(&tracer, t.elapsed().as_secs_f64());
            // The replay must equal the production output bit for bit.
            let (users, fig) = first.as_ref().expect("an untraced pass runs first");
            replayed.0 += users.len() + 1;
            replayed.1 += users.iter().zip(&rusers).filter(|(a, b)| !same_user(a, b)).count();
            replayed.1 += usize::from(users.len() != rusers.len() || *fig != rfig);
            return;
        }
        let before = backwatch_obs::snapshot();
        let t = Instant::now();
        let mut users = prepare::prepare_users(&cfg);
        let fig = fig4::run(&cfg, &users);
        walls.push(t.elapsed().as_secs_f64());
        if k == 0 {
            counts = Some((before, backwatch_obs::snapshot()));
            if ctx.corrupt {
                users[0].full_stays.pop();
            }
        }
        checked.0 += expected.len();
        checked.1 += expected.iter().filter(|(i, stays)| users[*i].full_stays != *stays).count();
        if first.is_none() {
            first = Some((users, fig));
        }
    });
    r.walls.clone_from(&walls);
    timed.finish(ctx.threads, &mut r);

    let fixes: usize = first.as_ref().map_or(0, |(users, _)| users.iter().map(|u| u.trace_len).sum());
    let wall = mean(steady(&walls));
    r.set("throughput_per_s", fixes as f64 / wall);
    r.set("latency_ms", wall * 1e3);
    r.named("fixes_per_s", fixes as f64 / wall, "1/s");
    r.size("users", f64::from(cfg.synth.n_users));
    r.size("days", f64::from(cfg.synth.days));
    r.size("intervals", cfg.intervals.len() as f64);
    r.size("input_fixes", fixes as f64);
    r.check(
        "stays == SpatioTemporalExtractor::extract on the regenerated trace (every 8th user, every pass)",
        checked.0 as u64,
        checked.1 as u64,
    );
    if ctx.trace {
        r.check(
            "traced replay == prepare_users + fig4::run (per user, plus fig4)",
            replayed.0 as u64,
            replayed.1 as u64,
        );
    }

    if let Some((before, after)) = counts {
        for name in [
            "trace.synth.points_total",
            "core.poi.passes_total",
            "core.poi.points_total",
            "core.poi.stays_total",
            "core.poi.simd_lanes_chunks_total",
            "core.hisbin.compares_total",
            "stats.chi2.evals_total",
        ] {
            r.set(name, delta(&before, &after, name));
        }
        let refined = delta(&before, &after, "core.poi.planar_refined_total");
        let decisions = refined + delta(&before, &after, "core.poi.planar_certified_total");
        r.set("core.poi.decisions_total", decisions);
        r.set("core.poi.refine_ratio", ratio(refined, decisions));
    }
    log.report(&mut r, &walls, SELF_TIMES, "profile", ctx);
    r
}

fn same_interval(a: &IntervalData, b: &IntervalData) -> bool {
    a.interval_s == b.interval_s && a.collected_points == b.collected_points && a.stays == b.stays
}

fn same_user(a: &UserData, b: &UserData) -> bool {
    a.user_id == b.user_id
        && a.trace_len == b.trace_len
        && a.full_stays == b.full_stays
        && a.profile1 == b.profile1
        && a.profile2 == b.profile2
        && a.per_interval.len() == b.per_interval.len()
        && a.per_interval.iter().zip(&b.per_interval).all(|(x, y)| same_interval(x, y))
        && same_interval(&a.rotated, &b.rotated)
        && a.impacts == b.impacts
}

/// `prepare_users` then `fig4::run`, call for call, with a span per call.
fn replay(cfg: &ExperimentConfig, tracer: &Tracer) -> (Vec<UserData>, Fig4Result) {
    let tracer = Some(tracer);
    let users = scope(tracer, "bench.prepare", ROOT, 0, |phase| {
        let (tr, parent) = (phase.tracer(), phase.id());
        pool::map_users(cfg.synth.n_users, cfg.threads, |i| {
            scope(tr, "bench.user", parent, u64::from(i), |s| prepare_one(cfg, i, s))
        })
    });
    let fig = scope(tracer, "bench.detect", ROOT, 0, |phase| {
        let from_start = detect_set(cfg, &users, phase, |u| &u.per_interval[0]);
        let from_random = detect_set(cfg, &users, phase, |u| &u.rotated);
        let per_interval = (0..cfg.intervals.len())
            .map(|k| (cfg.intervals[k], detect_set(cfg, &users, phase, move |u| &u.per_interval[k])))
            .collect();
        Fig4Result {
            from_start,
            from_random,
            per_interval,
        }
    });
    (users, fig)
}

/// `prepare.rs` `prepare_one`.
fn prepare_one(cfg: &ExperimentConfig, user_idx: u32, s: &mut Scope<'_>) -> UserData {
    let grid = cfg.grid();
    let extractor = SpatioTemporalExtractor::new(cfg.params);
    let user = s.time("trace.synth.generate", || generate_user(&cfg.synth, user_idx));
    let projected = s.time("trace.project", || SoaProjectedTrace::project(&user.trace));
    let full_stays = s.time("core.poi.extract", || extractor.extract_soa(&projected));
    let (profile1, profile2) = s.time("core.pattern.profile", || {
        (
            Profile::from_stays(PatternKind::RegionVisits, &full_stays, &grid),
            Profile::from_stays(PatternKind::MovementPattern, &full_stays, &grid),
        )
    });
    let mut per_interval = Vec::with_capacity(cfg.intervals.len());
    for &interval_s in &cfg.intervals {
        let indices = s.time("trace.sampling.downsample", || {
            sampling::downsample_indices(&user.trace, Seconds::new(interval_s))
        });
        let stays = s.time("core.poi.extract", || extractor.extract_sampled_soa(&projected, &indices));
        per_interval.push(IntervalData {
            interval_s,
            collected_points: indices.len(),
            stays,
        });
    }
    let mut rng = StdRng::seed_from_u64(cfg.synth.seed ^ (u64::from(user_idx) << 17) ^ 0x000F_1CED);
    let start = s.time("trace.sampling.downsample", || {
        sampling::random_start_index(user.trace.len(), &mut rng)
    });
    let rotated = IntervalData {
        interval_s: 1,
        collected_points: user.trace.len(),
        stays: s.time("core.poi.extract", || extractor.extract_rotated_soa(&projected, start)),
    };
    let impacts = s.time("core.metrics.impact", || {
        per_interval
            .iter()
            .map(|d| impact_from_stays(&user, Seconds::new(d.interval_s), d.collected_points, &d.stays, cfg.params))
            .collect()
    });
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

/// `fig4.rs` `detect_set`.
fn detect_set<F>(cfg: &ExperimentConfig, users: &[UserData], phase: &Scope<'_>, data: F) -> DetectionSet
where
    F: Fn(&UserData) -> &IntervalData + Sync,
{
    let grid = cfg.grid();
    let (tr, parent) = (phase.tracer(), phase.id());
    let pairs = pool::map_users(users.len() as u32, cfg.threads, |i| {
        scope(tr, "bench.user", parent, u64::from(i), |s| {
            let u = &users[i as usize];
            let d = data(u);
            s.time("core.hisbin.detect", || {
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
            })
        })
    });
    let (pattern1, pattern2) = pairs.into_iter().unzip();
    DetectionSet { pattern1, pattern2 }
}
