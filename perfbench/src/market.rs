//! `market`: the §III market study at scale (X9/X12) — a cold `sweep` of a
//! 56,000-app corpus (90 % SDK share) into a fresh `SummaryCache`, then
//! twelve `sweep_incremental` epochs at 2 % churn each. The cold phase
//! fills the cache; the epochs mostly read it and carry records over, so a
//! change that speeds one phase at the other's cost shows.
//!
//! The traced pass wraps each sweep call in a span and then walks a
//! strided slice sequentially (`app_at` → `app_digest` →
//! `analyze_entry_cached`, plus the uncached oracles) to split the sweep
//! into layers.

use crate::harness::{delta, mean, median, ratio, run_passes, steady, timed_setup, Ctx, Report, Timed, TraceLog};
use crate::spans::{scope, Tracer, ROOT};
use backwatch_market::corpus::{app_at, CorpusConfig};
use backwatch_market::reach::{self, ReachClass, ReachFinding};
use backwatch_market::summary::{analyze_entry_cached, app_digest, SummaryCache};
use backwatch_market::sweep::{sweep, sweep_incremental, SweepResult};
use backwatch_market::taint::{self, TaintClass};
use std::time::Instant;

const SELF_TIMES: &[(&str, &str)] = &[
    ("market.sweep.cold", "market.sweep.cold_s"),
    ("market.sweep.incremental", "market.sweep.incremental_s"),
    ("market.corpus.app_at", "market.corpus.app_at_s"),
    ("market.summary.app_digest", "market.summary.app_digest_s"),
    ("market.summary.analyze_cached", "market.summary.analyze_cached_s"),
    ("market.reach.oracle", "market.reach.oracle_s"),
    ("market.taint.oracle", "market.taint.oracle_s"),
];

struct Sizes {
    corpus: CorpusConfig,
    epochs: u32,
    stride: usize,
}

type Slice = Vec<(ReachFinding, TaintClass)>;

/// Inputs and expected outputs: the corpus schedule, and the uncached
/// oracles' findings on the strided slice of the first and last snapshot.
struct Setup {
    sizes: Sizes,
    cold_oracle: Slice,
    last_oracle: Slice,
}

fn setup(ctx: &Ctx) -> Setup {
    let (per_category, epochs, stride) = if ctx.tiny { (20, 2, 3) } else { (2_000, 12, 50) };
    let mut corpus = CorpusConfig::scaled(per_category).with_sdk_share(90).with_churn_ppm(20_000);
    corpus.seed = ctx.derive_seed(corpus.seed);
    Setup {
        cold_oracle: oracle_slice(&corpus, stride),
        last_oracle: oracle_slice(&corpus.at_snapshot(epochs), stride),
        sizes: Sizes { corpus, epochs, stride },
    }
}

fn slice_of(result: &SweepResult, stride: usize) -> Slice {
    (0..result.records.len())
        .step_by(stride)
        .map(|i| (result.finding_at(i), result.records[i].taint))
        .collect()
}

/// The incremental epochs after `cold`, each run through `each` (which
/// times or traces the call). Returns the last snapshot's result and the
/// version-changed and digest-changed app totals.
fn epochs(
    sizes: &Sizes,
    cold: &SweepResult,
    threads: usize,
    cache: &SummaryCache,
    mut each: impl FnMut(&dyn Fn() -> (SweepResult, usize, usize)) -> (SweepResult, usize, usize),
) -> (SweepResult, usize, usize) {
    let mut last: Option<SweepResult> = None;
    let (mut version_changed, mut digest_changed) = (0, 0);
    for e in 1..=sizes.epochs {
        let prev = last.as_ref().unwrap_or(cold);
        let next_cfg = sizes.corpus.at_snapshot(e);
        let (next, v, d) = each(&|| {
            let (next, delta) = sweep_incremental(&next_cfg, prev, threads, cache);
            (next, delta.version_changed, delta.digest_changed)
        });
        version_changed += v;
        digest_changed += d;
        last = Some(next);
    }
    (last.unwrap_or_else(|| cold.clone()), version_changed, digest_changed)
}

pub fn run(ctx: &Ctx) -> Report {
    backwatch_market::obs::register();
    backwatch_experiments::obs::register_all();
    let mut r = Report::default();
    let (
        setup_s,
        Setup {
            sizes,
            cold_oracle,
            last_oracle,
        },
    ) = timed_setup(3, || setup(ctx));
    r.set("setup_s", setup_s);
    let total = sizes.corpus.total();

    let mut cold_walls = Vec::new();
    let mut epoch_walls: Vec<Vec<f64>> = Vec::new();
    let mut pass_walls = Vec::new();
    let mut slices: Vec<(Slice, Slice)> = Vec::new();
    let mut traced_mismatch = (0usize, 0usize);
    let mut changed = (0usize, 0usize);
    let mut log = TraceLog::default();
    let mut counts = None;
    let mut timed = Timed::start();
    r.passes = run_passes(ctx, &mut timed, |k, traced| {
        if traced {
            let tracer = Tracer::new();
            let (wall, mismatches) = traced_pass(&sizes, ctx.threads, &tracer);
            log.record(&tracer, wall);
            traced_mismatch.0 += mismatches.0;
            traced_mismatch.1 += mismatches.1;
            return;
        }
        let before = backwatch_obs::snapshot();
        let cache = SummaryCache::new();
        let t = Instant::now();
        let cold = sweep(&sizes.corpus, ctx.threads, &cache);
        let cold_s = t.elapsed().as_secs_f64();
        let mut walls = Vec::with_capacity(sizes.epochs as usize);
        let (last, v, d) = epochs(&sizes, &cold, ctx.threads, &cache, |f| {
            let t = Instant::now();
            let out = f();
            let wall = t.elapsed().as_secs_f64();
            walls.push(wall);
            out
        });
        pass_walls.push(t.elapsed().as_secs_f64());
        if k == 0 {
            counts = Some((before, backwatch_obs::snapshot()));
            changed = (v, d);
        }
        cold_walls.push(cold_s);
        epoch_walls.push(walls);
        slices.push((slice_of(&cold, sizes.stride), slice_of(&last, sizes.stride)));
    });
    r.walls.clone_from(&cold_walls);
    timed.finish(ctx.threads, &mut r);

    r.set("throughput_per_s", total as f64 / mean(steady(&cold_walls)));
    // An epoch takes tens of milliseconds, so one preemption moves a mean
    // over a few passes; the median over every epoch of the steady passes
    // does not move.
    let epochs_steady = steady(&epoch_walls).concat();
    r.set("latency_ms", median(&epochs_steady) * 1e3);
    r.named("apps_per_s", total as f64 / mean(steady(&cold_walls)), "1/s");
    r.named("resweep_s", mean(&epochs_steady) * f64::from(sizes.epochs), "s");
    r.size("apps", total as f64);
    r.size("sdk_share_percent", f64::from(sizes.corpus.sdk_share_percent));
    r.size("churn_ppm", f64::from(sizes.corpus.churn_ppm));
    r.size("epochs", f64::from(sizes.epochs));
    r.size("slice_stride", sizes.stride as f64);

    if ctx.corrupt {
        let record = &mut slices[0].0[1].0;
        record.class = match record.class {
            ReachClass::NonAccessor => ReachClass::AutoStart,
            _ => ReachClass::NonAccessor,
        };
    }
    let mut failed = 0;
    for (cold, last) in &slices {
        failed += cold.iter().zip(&cold_oracle).filter(|(a, b)| a != b).count();
        failed += last.iter().zip(&last_oracle).filter(|(a, b)| a != b).count();
    }
    r.check(
        "cached records == reach::analyze_entry + taint::analyze_entry (slice of cold and last epoch, every pass)",
        (slices.len() * (cold_oracle.len() + last_oracle.len())) as u64,
        failed as u64,
    );
    if ctx.trace {
        r.check(
            "traced slice analyze_entry_cached == cold sweep record and digest",
            traced_mismatch.0 as u64,
            traced_mismatch.1 as u64,
        );
    }

    if let Some((before, after)) = counts {
        for name in [
            "market.reach.cache_hits_total",
            "market.reach.cache_misses_total",
            "android.ir.apps_lowered_total",
            "android.ir.programs_parsed_total",
            "market.reach.apps_classified_total",
            "market.taint.apps_classified_total",
            "market.reach.apps_reanalyzed_total",
        ] {
            r.set(name, delta(&before, &after, name));
        }
        let hits = delta(&before, &after, "market.reach.cache_hits_total");
        let misses = delta(&before, &after, "market.reach.cache_misses_total");
        r.set("market.summary.hit_rate", ratio(hits, hits + misses));
        r.set("market.sweep.version_changed_total", changed.0 as f64);
        r.set("market.sweep.reanalyze_ratio", ratio(changed.1 as f64, changed.0 as f64));
    }
    log.report(&mut r, &pass_walls, SELF_TIMES, "market", ctx);
    r
}

fn oracle_slice(cfg: &CorpusConfig, stride: usize) -> Slice {
    (0..cfg.total())
        .step_by(stride)
        .map(|i| {
            let entry = app_at(cfg, i);
            (reach::analyze_entry(&entry), taint::analyze_entry(&entry).taint)
        })
        .collect()
}

/// The production calls with a span each, then a sequential strided pass
/// through the per-app layers. Returns the wall of the production calls
/// and `(apps checked, mismatches)` of the slice pass.
fn traced_pass(sizes: &Sizes, threads: usize, tracer: &Tracer) -> (f64, (usize, usize)) {
    scope(Some(tracer), "bench.market", ROOT, 0, |phase| {
        let cache = SummaryCache::new();
        let t = Instant::now();
        let cold = phase.time("market.sweep.cold", || sweep(&sizes.corpus, threads, &cache));
        let _ = epochs(sizes, &cold, threads, &cache, |f| phase.time("market.sweep.incremental", f));
        let wall = t.elapsed().as_secs_f64();

        let slice_cache = SummaryCache::new();
        let (tr, parent) = (phase.tracer(), phase.id());
        let mut checked = 0;
        let mut mismatches = 0;
        for i in (0..sizes.corpus.total()).step_by(sizes.stride) {
            scope(tr, "bench.app", parent, i as u64, |s| {
                let entry = s.time("market.corpus.app_at", || app_at(&sizes.corpus, i));
                let digest = s.time("market.summary.app_digest", || app_digest(&entry));
                let cached = s.time("market.summary.analyze_cached", || analyze_entry_cached(&entry, &slice_cache));
                let reach = s.time("market.reach.oracle", || reach::analyze_entry(&entry));
                let taint = s.time("market.taint.oracle", || taint::analyze_entry(&entry));
                let ok = cached.finding == cold.finding_at(i)
                    && cached.taint == cold.records[i].taint
                    && digest == cold.digests[i]
                    && cached.app_digest == digest
                    && reach == cached.finding
                    && taint.taint == cached.taint;
                checked += 1;
                mismatches += usize::from(!ok);
            });
        }
        (wall, (checked, mismatches))
    })
}
