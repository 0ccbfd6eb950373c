//! `ingest`: the X8 ingestion service. Set-up generates the interleaved
//! load (`loadgen::interleaved_fixes`, 64 users × 14 days polled every
//! 5 s); each pass replays it through a fresh 4-shard `IngestService` with
//! a whole-service snapshot every 250,000 fixes — four times closed-loop
//! (one front-end thread as fast as it can), then open-loop at 2 M and 5 M
//! fixes/s — and ends with snapshot → `restore` → `finish`.
//!
//! The open loop wakes every 100 µs and ingests every fix due by then. A
//! fix's latency runs from the moment it was due to the end of the tick
//! that ingested it, so a fix queued behind a snapshot counts the wait.
//! Traffic stays in time order: in-order delivery is the service's
//! documented precondition. Spans wrap the real calls, one per tick.

use crate::harness::{delta, gauge, mean, median, percentile, run_passes, steady, timed_setup, Ctx, Report, Timed, TraceLog};
use crate::spans::{scope, Scope, Tracer, ROOT};
use backwatch_core::poi::{ExtractorParams, Stay, StreamingExtractor};
use backwatch_experiments::ExperimentConfig;
use backwatch_geo::Seconds;
use backwatch_serve::{loadgen, IngestService};
use backwatch_trace::TracePoint;
use std::collections::BTreeMap;
use std::time::Instant;

const SHARDS: usize = 4;
const POLL_S: i64 = 5;
const CLOSED_TICK_FIXES: usize = 5_000;
/// Closed-loop replays per pass: one replay of the load is only tens of
/// milliseconds, too short to time steadily on its own.
const CLOSED_REPLAYS: usize = 4;
const OPEN_TICK_NS: u64 = 100_000;
/// Open-loop rates, fixes per second, with their metric-name suffixes.
const RATES: [(f64, &str); 2] = [(2e6, "2m"), (5e6, "5m")];

const SELF_TIMES: &[(&str, &str)] = &[("serve.ingest", "serve.ingest_s"), ("ingest.pace.wait", "ingest.pace_wait_s")];

type Fixes = Vec<(u64, TracePoint)>;
type Stays = Vec<(u64, Stay)>;

struct Load {
    fixes: Fixes,
    params: ExtractorParams,
    users: u32,
    days: u32,
    snapshot_every: usize,
}

/// The load and, per user, the stays the per-user oracle engines emit.
fn setup(ctx: &Ctx) -> (Load, BTreeMap<u64, Vec<Stay>>) {
    let mut cfg = ExperimentConfig::paper();
    (cfg.synth.n_users, cfg.synth.days) = if ctx.tiny { (4, 2) } else { (64, 14) };
    cfg.synth.seed = ctx.derive_seed(cfg.synth.seed);
    let load = Load {
        fixes: loadgen::interleaved_fixes(&cfg.synth, Seconds::new(POLL_S)).collect(),
        params: cfg.params,
        users: cfg.synth.n_users,
        days: cfg.synth.days,
        snapshot_every: if ctx.tiny { 1_000 } else { 250_000 },
    };
    let expected = oracle(&load);
    (load, expected)
}

/// Open-loop measurements at one rate.
#[derive(Default)]
struct OpenLoop {
    latency_ns: Vec<f64>,
    gen_late_max_ns: f64,
    backlog_max: usize,
}

/// Open-loop figures at one rate across passes.
#[derive(Default)]
struct RateStats {
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    samples: usize,
    late_max_us: f64,
    backlog_max: usize,
}

/// One pass: the stays of each replay, the closed-loop wall, the
/// open-loop measurements, the restored finish and the service it was
/// restored from (still unfinished).
struct Pass {
    stays: Vec<Stays>,
    closed_s: f64,
    open: Vec<OpenLoop>,
    restored_finish: Option<Stays>,
    unfinished: IngestService,
    snapshot_bytes: usize,
    /// `serve.shard.users_current` as the final snapshot left it.
    users_current: f64,
}

/// Ingests `fixes[from..to]`, taking a snapshot after every
/// `every`-th fix of the stream.
fn feed(svc: &mut IngestService, load: &Load, from: usize, to: usize, stays: &mut Stays, s: &mut Scope<'_>) -> usize {
    let mut bytes = 0;
    let mut i = from;
    while i < to {
        let boundary = (i / load.snapshot_every + 1) * load.snapshot_every;
        let end = to.min(boundary);
        s.time("serve.ingest", || {
            for &(uid, fix) in &load.fixes[i..end] {
                if let Some(stay) = svc.ingest(uid, fix) {
                    stays.push((uid, stay));
                }
            }
        });
        i = end;
        if i == boundary {
            bytes = bytes.max(s.time("serve.snapshot", || svc.snapshot_bytes()).len());
        }
    }
    bytes
}

fn closed_loop(load: &Load, tr: Option<&Tracer>, parent: u32) -> (IngestService, Stays, f64, usize) {
    let mut svc = IngestService::new(SHARDS, load.params);
    let mut stays = Vec::new();
    let mut bytes = 0;
    let t = Instant::now();
    let n = load.fixes.len();
    for (tick, from) in (0..n).step_by(CLOSED_TICK_FIXES).enumerate() {
        let to = n.min(from + CLOSED_TICK_FIXES);
        bytes = bytes.max(scope(tr, "bench.tick", parent, tick as u64, |s| {
            feed(&mut svc, load, from, to, &mut stays, s)
        }));
    }
    (svc, stays, t.elapsed().as_secs_f64(), bytes)
}

fn open_loop(load: &Load, rate: f64, tr: Option<&Tracer>, parent: u32) -> (IngestService, Stays, OpenLoop, usize) {
    let mut svc = IngestService::new(SHARDS, load.params);
    let mut stays = Vec::new();
    let n = load.fixes.len();
    let mut m = OpenLoop {
        latency_ns: Vec::with_capacity(n),
        ..OpenLoop::default()
    };
    let mut bytes = 0;
    let period_ns = 1e9 / rate;
    let due = |j: usize| j as f64 * period_ns;
    let t0 = Instant::now();
    let elapsed_ns = || t0.elapsed().as_nanos() as f64;
    let (mut next, mut tick) = (0usize, 1u64);
    while next < n {
        scope(tr, "bench.tick", parent, tick, |s| {
            let target = (tick * OPEN_TICK_NS) as f64;
            s.time("ingest.pace.wait", || {
                while elapsed_ns() < target {
                    std::hint::spin_loop();
                }
            });
            let now = elapsed_ns();
            let due_upto = n.min((now / period_ns) as usize + 1);
            if due_upto > next {
                m.gen_late_max_ns = m.gen_late_max_ns.max(now - due(next));
                m.backlog_max = m.backlog_max.max(due_upto - next);
                bytes = bytes.max(feed(&mut svc, load, next, due_upto, &mut stays, s));
                let done = elapsed_ns();
                m.latency_ns.extend((next..due_upto).map(|j| done - due(j)));
                next = due_upto;
            }
            // Ticks missed while busy are skipped, not replayed.
            tick = (tick + 1).max((elapsed_ns() as u64) / OPEN_TICK_NS + 1);
        });
    }
    (svc, stays, m, bytes)
}

fn pass(load: &Load, tracer: Option<&Tracer>) -> Pass {
    scope(tracer, "bench.ingest", ROOT, 0, |phase| {
        let (tr, parent) = (phase.tracer(), phase.id());
        let mut all = Vec::new();
        let mut closed_s = 0.0;
        let mut bytes = 0;
        for _ in 0..CLOSED_REPLAYS {
            let (mut svc, mut stays, wall, b) = closed_loop(load, tr, parent);
            stays.extend(phase.time("serve.finish", || svc.finish()));
            all.push(stays);
            closed_s += wall;
            bytes = bytes.max(b);
        }
        let mut open = Vec::new();
        let mut last = None;
        for (k, &(rate, _)) in RATES.iter().enumerate() {
            let (mut svc, mut stays, m, b) = open_loop(load, rate, tr, parent);
            bytes = bytes.max(b);
            open.push(m);
            if k + 1 < RATES.len() {
                stays.extend(phase.time("serve.finish", || svc.finish()));
                all.push(stays);
            } else {
                last = Some((svc, stays));
            }
        }
        let (mut svc, mut stays) = last.expect("at least one open-loop rate");
        // The workload ends with snapshot -> restore -> finish.
        let snapshot = phase.time("serve.snapshot", || svc.snapshot_bytes());
        // The snapshot refreshed the population gauge; `finish` would zero it.
        let users_current = gauge(&backwatch_obs::snapshot(), "serve.shard.users_current");
        let restored = phase.time("serve.restore", || IngestService::restore(load.params, &snapshot));
        let restored_finish = restored.ok().map(|mut r| phase.time("serve.finish", || r.finish()));
        stays.extend(restored_finish.iter().flatten().copied());
        all.push(stays);
        Pass {
            stays: all,
            closed_s,
            open,
            restored_finish,
            unfinished: svc,
            snapshot_bytes: bytes.max(snapshot.len()),
            users_current,
        }
    })
}

fn per_user(stays: &[(u64, Stay)]) -> BTreeMap<u64, Vec<Stay>> {
    let mut map: BTreeMap<u64, Vec<Stay>> = BTreeMap::new();
    for &(uid, stay) in stays {
        map.entry(uid).or_default().push(stay);
    }
    for v in map.values_mut() {
        v.sort_by_key(|s| (s.enter.as_secs(), s.end_index));
    }
    map
}

/// One plain `StreamingExtractor` per user fed the same fixes: no
/// sharding, no snapshots.
fn oracle(load: &Load) -> BTreeMap<u64, Vec<Stay>> {
    let mut engines: BTreeMap<u64, StreamingExtractor> = BTreeMap::new();
    let mut stays = Vec::new();
    for &(uid, fix) in &load.fixes {
        let engine = engines.entry(uid).or_insert_with(|| StreamingExtractor::new(load.params));
        stays.extend(engine.push(fix).map(|s| (uid, s)));
    }
    for (&uid, engine) in &mut engines {
        stays.extend(engine.finish().map(|s| (uid, s)));
    }
    per_user(&stays)
}

pub fn run(ctx: &Ctx) -> Report {
    backwatch_experiments::obs::register_all();
    backwatch_serve::obs::register();
    let mut r = Report::default();
    let (setup_s, (load, expected)) = timed_setup(3, || setup(ctx));
    r.set("setup_s", setup_s);
    let n = load.fixes.len();

    let mut walls = Vec::new();
    let mut closed = Vec::new();
    let mut open: Vec<RateStats> = (0..RATES.len()).map(|_| RateStats::default()).collect();
    let mut snapshot_bytes = 0;
    let mut checked = (0, 0);
    let mut restores = (0, 0);
    let mut log = TraceLog::default();
    let mut counts = None;
    let mut timed = Timed::start();
    r.passes = run_passes(ctx, &mut timed, |k, traced| {
        let before = backwatch_obs::snapshot();
        let tracer = traced.then(Tracer::new);
        let t = Instant::now();
        let mut p = pass(&load, tracer.as_ref());
        let wall = t.elapsed().as_secs_f64();
        if let Some(tracer) = &tracer {
            log.record(tracer, wall);
        } else {
            walls.push(wall);
        }
        if k == 0 {
            counts = Some((before, backwatch_obs::snapshot(), p.users_current));
            if ctx.corrupt {
                p.stays[0].pop();
            }
        }
        closed.push(p.closed_s);
        snapshot_bytes = snapshot_bytes.max(p.snapshot_bytes);
        for (acc, m) in open.iter_mut().zip(&mut p.open) {
            m.latency_ns.sort_by(f64::total_cmp);
            acc.p50_us.push(percentile(&m.latency_ns, 50.0) * 1e-3);
            acc.p99_us.push(percentile(&m.latency_ns, 99.0) * 1e-3);
            acc.samples += m.latency_ns.len();
            acc.late_max_us = acc.late_max_us.max(m.gen_late_max_ns * 1e-3);
            acc.backlog_max = acc.backlog_max.max(m.backlog_max);
        }
        for stays in &p.stays {
            let got = per_user(stays);
            checked.0 += expected.len();
            checked.1 += expected.iter().filter(|(uid, s)| got.get(uid) != Some(s)).count();
            checked.1 += got.keys().filter(|uid| !expected.contains_key(uid)).count();
        }
        restores.0 += 1;
        restores.1 += usize::from(p.restored_finish.as_ref() != Some(&p.unfinished.finish()));
    });
    r.walls.clone_from(&closed);
    timed.finish(ctx.threads, &mut r);

    let closed = mean(steady(&closed));
    let closed_fixes = (n * CLOSED_REPLAYS) as f64;
    r.set("throughput_per_s", closed_fixes / closed);
    r.named("ingest_fixes_per_s", closed_fixes / closed, "1/s");
    for (&(_, tag), acc) in RATES.iter().zip(&open) {
        let (p50, p99, samples) = (median(steady(&acc.p50_us)), median(steady(&acc.p99_us)), acc.samples as f64);
        let (late, backlog) = (acc.late_max_us, acc.backlog_max as f64);
        if tag == "5m" {
            r.set("latency_ms", p50 * 1e-3);
            r.set("ingest.p99_us_5m", p99);
            r.set("ingest.samples_5m", samples);
            r.set("ingest.gen_late_max_us_5m", late);
            r.set("ingest.backlog_max_fixes_5m", backlog);
            r.named("ingest_p50_us_5m", p50, "us");
            r.named("ingest_p99_us_5m", p99, "us");
            r.named("ingest_samples_5m", samples, "count");
        } else {
            r.set("ingest.p50_us_2m", p50);
            r.set("ingest.p99_us_2m", p99);
            r.set("ingest.samples_2m", samples);
            r.set("ingest.gen_late_max_us_2m", late);
            r.set("ingest.backlog_max_fixes_2m", backlog);
            r.named("ingest_p50_us_2m", p50, "us");
            r.named("ingest_p99_us_2m", p99, "us");
            r.named("ingest_samples_2m", samples, "count");
        }
    }
    r.size("users", f64::from(load.users));
    r.size("days", f64::from(load.days));
    r.size("poll_interval_s", POLL_S as f64);
    r.size("fixes", n as f64);
    r.size("shards", SHARDS as f64);
    r.size("closed_loop_replays", CLOSED_REPLAYS as f64);
    r.size("snapshot_every", load.snapshot_every as f64);
    r.check(
        "service stays == per-user oracle engines (every user stream, every replay)",
        checked.0 as u64,
        checked.1 as u64,
    );
    r.check(
        "restore(snapshot).finish() == uninterrupted finish (every pass)",
        restores.0 as u64,
        restores.1 as u64,
    );

    if let Some((before, after, users_current)) = counts {
        for name in [
            "serve.shard.fixes_total",
            "serve.shard.stays_total",
            "core.stream.points_pushed_total",
        ] {
            r.set(name, delta(&before, &after, name));
        }
        r.set("serve.shard.users_current", users_current);
        r.set(
            "core.stream.peak_buffer_current",
            gauge(&after, "core.stream.peak_buffer_current"),
        );
    }
    r.set("serve.snapshot_bytes", snapshot_bytes as f64);
    if ctx.trace {
        let spans = log.last_spans();
        let ms = |name: &str| -> Vec<f64> {
            let mut v: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let snaps = ms("serve.snapshot");
        r.set("serve.snapshot_p50_ms", median(&snaps));
        r.set("serve.snapshot_max_ms", snaps.last().copied().unwrap_or(0.0));
        r.set("serve.snapshot_samples", snaps.len() as f64);
        r.set("serve.restore_ms", median(&ms("serve.restore")));
        r.set("serve.finish_ms", median(&ms("serve.finish")));
    }
    log.report(&mut r, &walls, SELF_TIMES, "ingest", ctx);
    r
}
