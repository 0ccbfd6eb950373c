//! `reidentify`: experiment X11 (`ext_leakage::run`), the d × i grid of
//! truncated-traffic observations pushed through PoI extraction, His_bin,
//! the chi-square Deg_anonymity store and the containment adversary, over
//! three independent 24-user populations per pass. The only workload
//! dominated by population queries, whose cost grows as N² while the
//! per-user stage grows as N.
//!
//! The traced pass repeats `ext_leakage::run` call for call and must
//! reproduce its result bit for bit.

use crate::harness::{delta, mean, median, ratio, run_passes, steady, tail, timed_setup, Ctx, Report, Timed, TraceLog};
use crate::spans::{scope, Tracer, ROOT};
use backwatch_core::adversary::ProfileStore;
use backwatch_core::anonymity::Weighting;
use backwatch_core::leakage::{self, CoordSet, LeakageAdversary};
use backwatch_core::pattern::{PatternKind, Profile};
use backwatch_core::poi::SpatioTemporalExtractor;
use backwatch_experiments::ext_leakage::{self, LeakCell, LeakageResult, LEAK_INTERVALS, PRECISIONS};
use backwatch_experiments::{pool, ExperimentConfig};
use backwatch_geo::Seconds;
use backwatch_trace::synth::generate_user;
use backwatch_trace::SoaProjectedTrace;
use std::time::Instant;

const SELF_TIMES: &[(&str, &str)] = &[
    ("trace.synth.generate", "trace.synth.generate_s"),
    ("trace.project", "trace.project_s"),
    ("core.poi.extract", "core.poi.extract_s"),
    ("core.pattern.profile", "core.pattern.profile_s"),
    ("core.leakage.coordset", "core.leakage.coordset_s"),
    ("core.leakage.observe", "core.leakage.observe_s"),
    ("core.hisbin.compare", "core.hisbin.compare_s"),
    ("core.adversary.infer", "core.adversary.infer_s"),
    ("core.leakage.candidates", "core.leakage.candidates_s"),
];

/// Populations ("cities") per pass. Each seed draws a whole synthetic
/// city, so one population's cost swings with that city's layout; a pass
/// over several independent cities averages that out.
const CITIES: u64 = 3;

fn configs(ctx: &Ctx) -> Vec<ExperimentConfig> {
    (0..CITIES)
        .map(|city| {
            let mut cfg = ExperimentConfig::paper();
            (cfg.synth.n_users, cfg.synth.days) = if ctx.tiny { (4, 2) } else { (24, 7) };
            cfg.synth.seed = ctx.derive_seed(cfg.synth.seed ^ city.wrapping_mul(0xD1B5_4A32_D192_ED03));
            cfg.threads = ctx.threads;
            cfg
        })
        .collect()
}

/// One city's reference population: every user's full-trace cell set in a
/// containment adversary, and the cell set each interval leaks.
struct Reference {
    population: LeakageAdversary,
    observed: Vec<Vec<CoordSet>>,
}

fn reference(cfg: &ExperimentConfig) -> Reference {
    let mut population = LeakageAdversary::new();
    let mut observed = Vec::new();
    for u in 0..cfg.synth.n_users {
        let user = generate_user(&cfg.synth, u);
        let times: Vec<i64> = user.trace.points().iter().map(|p| p.time.as_secs()).collect();
        population.insert(u, CoordSet::from_trace(&user.trace));
        observed.push(
            LEAK_INTERVALS
                .iter()
                .map(|&i| CoordSet::from_sampled(&user.trace, &leakage::sample_indices(&times, Seconds::new(i))))
                .collect(),
        );
    }
    Reference { population, observed }
}

/// Inputs and expected outputs: the cities and their reference populations.
fn setup(ctx: &Ctx) -> (Vec<ExperimentConfig>, Vec<Reference>) {
    let cfgs = configs(ctx);
    let refs = cfgs.iter().map(reference).collect();
    (cfgs, refs)
}

pub fn run(ctx: &Ctx) -> Report {
    backwatch_experiments::obs::register_all();
    let mut r = Report::default();
    let (setup_s, (cfgs, refs)) = timed_setup(3, || setup(ctx));
    r.set("setup_s", setup_s);

    let mut walls = Vec::new();
    let mut outputs: Vec<Vec<LeakageResult>> = Vec::new();
    let mut replayed = (0, 0);
    let mut log = TraceLog::default();
    let mut counts = None;
    let mut timed = Timed::start();
    r.passes = run_passes(ctx, &mut timed, |k, traced| {
        if traced {
            let tracer = Tracer::new();
            let t = Instant::now();
            let results: Vec<LeakageResult> = cfgs.iter().map(|cfg| replay(cfg, &tracer)).collect();
            log.record(&tracer, t.elapsed().as_secs_f64());
            // The replay must equal the production output bit for bit.
            let first = outputs.first().expect("an untraced pass runs first");
            replayed.0 += results.len();
            replayed.1 += results.iter().zip(first).filter(|(a, b)| a != b).count();
            return;
        }
        let before = backwatch_obs::snapshot();
        let t = Instant::now();
        let mut results: Vec<LeakageResult> = cfgs.iter().map(ext_leakage::run).collect();
        walls.push(t.elapsed().as_secs_f64());
        if k == 0 {
            counts = Some((before, backwatch_obs::snapshot()));
            if ctx.corrupt {
                let cells = &mut results[0].cells;
                cells[1].mean_degree_containment = cells[0].mean_degree_containment + 1.0;
            }
        }
        outputs.push(results);
    });
    r.walls.clone_from(&walls);
    timed.finish(ctx.threads, &mut r);

    let users = cfgs[0].synth.n_users as usize;
    let queries = cfgs.len() * users * LEAK_INTERVALS.len() * PRECISIONS.len();
    let wall = mean(steady(&walls));
    r.set("throughput_per_s", queries as f64 / wall);
    r.set("latency_ms", wall / cfgs.len() as f64 * 1e3);
    r.named("queries_per_s", queries as f64 / wall, "1/s");
    r.size("cities", cfgs.len() as f64);
    r.size("users_per_city", users as f64);
    r.size("days", f64::from(cfgs[0].synth.days));
    r.size("queries", queries as f64);

    let grids: Vec<&LeakageResult> = outputs.iter().flatten().collect();
    let monotone_failed = grids.iter().filter(|o| !ext_leakage::containment_grid_is_monotone(o)).count();
    r.check(
        "containment_grid_is_monotone (every city, every pass)",
        grids.len() as u64,
        monotone_failed as u64,
    );
    let mut missing = 0;
    for Reference { population, observed } in &refs {
        for (u, sets) in observed.iter().enumerate() {
            for set in sets {
                for &precision in &PRECISIONS {
                    missing += usize::from(!population.candidates(set, precision).contains(&(u as u32)));
                }
            }
        }
    }
    r.check(
        "querying user in own candidate set (every query)",
        queries as u64,
        missing as u64,
    );
    if ctx.trace {
        r.check("traced replay == ext_leakage::run", replayed.0 as u64, replayed.1 as u64);
    }

    if let Some((before, after)) = counts {
        for name in [
            "trace.synth.points_total",
            "core.poi.passes_total",
            "core.poi.points_total",
            "core.poi.stays_total",
            "core.hisbin.compares_total",
            "stats.chi2.evals_total",
            "core.leakage.candidate_sets_total",
            "core.leakage.candidates_total",
            "core.leakage.observations_total",
            "core.leakage.fixes_leaked_total",
        ] {
            r.set(name, delta(&before, &after, name));
        }
        r.set(
            "core.leakage.candidates_per_query",
            ratio(
                delta(&before, &after, "core.leakage.candidates_total"),
                delta(&before, &after, "core.leakage.candidate_sets_total"),
            ),
        );
    }
    if ctx.trace {
        let mut lat: Vec<f64> = log
            .last_spans()
            .iter()
            .filter(|s| s.name == "core.leakage.candidates")
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .collect();
        lat.sort_by(f64::total_cmp);
        let (pct, value) = tail(&lat);
        r.set("core.leakage.candidates_p50_ms", median(&lat));
        r.set("core.leakage.candidates_tail_ms", value);
        r.set("core.leakage.candidates_tail_pct", pct);
        r.set("core.leakage.candidates_samples", lat.len() as f64);
    }
    log.report(&mut r, &walls, SELF_TIMES, "reidentify", ctx);
    r
}

struct UserLeak {
    profile1: Profile,
    full_set: CoordSet,
    per_interval: Vec<CoordSet>,
    cells: Vec<CellRaw>,
}

struct CellRaw {
    pois: usize,
    fired: bool,
    observed1: Profile,
}

/// `ext_leakage::run`, call for call, with a span per call.
fn replay(cfg: &ExperimentConfig, tracer: &Tracer) -> LeakageResult {
    let tracer = Some(tracer);
    let grid = cfg.grid();
    let extractor = SpatioTemporalExtractor::new(cfg.params);
    let matcher = cfg.matcher;
    let per_user: Vec<UserLeak> = scope(tracer, "bench.per_user", ROOT, 0, |phase| {
        let (tr, parent) = (phase.tracer(), phase.id());
        pool::map_users(cfg.synth.n_users, cfg.threads, |u| {
            scope(tr, "bench.user", parent, u64::from(u), |s| {
                let user = s.time("trace.synth.generate", || generate_user(&cfg.synth, u));
                let times: Vec<i64> = user.trace.points().iter().map(|p| p.time.as_secs()).collect();
                let soa = s.time("trace.project", || SoaProjectedTrace::project(&user.trace));
                let full = s.time("core.poi.extract", || extractor.extract_soa(&soa));
                let (profile1, profile2) = s.time("core.pattern.profile", || {
                    (
                        Profile::from_stays(PatternKind::RegionVisits, &full, &grid),
                        Profile::from_stays(PatternKind::MovementPattern, &full, &grid),
                    )
                });
                let full_set = s.time("core.leakage.coordset", || CoordSet::from_trace(&user.trace));
                let mut per_interval = Vec::with_capacity(LEAK_INTERVALS.len());
                let mut cells = Vec::with_capacity(LEAK_INTERVALS.len() * PRECISIONS.len());
                for &interval_s in &LEAK_INTERVALS {
                    per_interval.push(s.time("core.leakage.coordset", || {
                        let indices = leakage::sample_indices(&times, Seconds::new(interval_s));
                        CoordSet::from_sampled(&user.trace, &indices)
                    }));
                    for &precision in &PRECISIONS {
                        let leaked = s.time("core.leakage.observe", || {
                            leakage::observe(&user.trace, Seconds::new(interval_s), precision)
                        });
                        let stays = s.time("core.poi.extract", || extractor.extract(&leaked));
                        let (observed1, observed2) = s.time("core.pattern.profile", || {
                            (
                                Profile::from_stays(PatternKind::RegionVisits, &stays, &grid),
                                Profile::from_stays(PatternKind::MovementPattern, &stays, &grid),
                            )
                        });
                        let fired = s.time("core.hisbin.compare", || {
                            matcher.compare(&observed2, &profile2).his_bin.is_leaky()
                        });
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
            })
        })
    });

    scope(tracer, "bench.population", ROOT, 0, |phase| {
        let (tr, parent) = (phase.tracer(), phase.id());
        let mut store = ProfileStore::new(PatternKind::RegionVisits);
        let mut containment = LeakageAdversary::new();
        phase.time("core.adversary.insert", || {
            for (u, ul) in per_user.iter().enumerate() {
                store.insert(u as u32, ul.profile1.clone());
            }
        });
        phase.time("core.leakage.insert", || {
            for (u, ul) in per_user.iter().enumerate() {
                containment.insert(u as u32, ul.full_set.clone());
            }
        });
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
                for (u, ul) in per_user.iter().enumerate() {
                    let query = (idx * per_user.len() + u) as u64;
                    scope(tr, "bench.query", parent, query, |s| {
                        let raw = &ul.cells[idx];
                        poi_sum += raw.pois;
                        fired += usize::from(raw.fired);
                        let inference = s.time("core.adversary.infer", || {
                            store.infer(&raw.observed1, &matcher, Weighting::PaperChiSquare)
                        });
                        if let Some(d) = inference.degree() {
                            chi2_matched += 1;
                            chi2_sum += d;
                        }
                        let candidates = s.time("core.leakage.candidates", || {
                            containment.candidates(&ul.per_interval[ii], precision)
                        });
                        identified += usize::from(candidates.len() == 1);
                        let n = containment.population();
                        cont_sum += if n <= 1 || candidates.is_empty() {
                            0.0
                        } else {
                            ((candidates.len() as f64).log2() / (n as f64).log2()).clamp(0.0, 1.0)
                        };
                    });
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
    })
}
