//! What every workload shares: the run context, the timed phase, the
//! report, process statistics from `/proc/self`, and the run record.

use crate::{E2E, LAYER};
use backwatch_obs::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    /// The self-test's tiny inputs instead of the benchmark's.
    pub tiny: bool,
    /// Deliberately corrupt one output before the checks (self-test only).
    pub corrupt: bool,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            seed,
            seconds,
            trace,
            threads: nproc(),
            tiny: false,
            corrupt: false,
        }
    }

    /// Mixes the run seed into a workload's default seed; seed 0 keeps the
    /// default.
    pub fn derive_seed(&self, default: u64) -> u64 {
        default ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// The workload's own headline metrics, printed by name for people.
    named: Vec<(&'static str, f64, &'static str)>,
    checks: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub sizes: Vec<(&'static str, f64)>,
    pub passes: usize,
    /// Wall of each untraced pass's headline phase, seconds.
    pub walls: Vec<f64>,
}

impl Report {
    /// Sets a metric declared in [`E2E`] or [`LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            E2E.iter().chain(LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.metrics.insert(name, value);
    }

    /// Records a workload headline metric (human output only).
    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    /// Records one output check: `attempted` operations, `failed` of them wrong.
    pub fn check(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.checks.push(format!("check {what}: {failed} failed of {attempted}"));
    }

    pub fn size(&mut self, name: &'static str, value: f64) {
        self.sizes.push((name, value));
    }

    /// Sets each `(span, metric)` of `map` to the span's median self time
    /// over the traced passes.
    pub fn set_self_times(&mut self, per_pass: &[BTreeMap<&'static str, f64>], map: &[(&'static str, &'static str)]) {
        for &(span, metric) in map {
            let values: Vec<f64> = per_pass.iter().map(|m| m.get(span).copied().unwrap_or(0.0)).collect();
            self.set(metric, median(&values));
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn human_lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self.checks.clone();
        out.push(format!(
            "metric error_rate {} ratio (failed {} / attempted {})",
            self.error_rate(),
            self.failed,
            self.attempted
        ));
        for (name, value, unit) in &self.named {
            out.push(format!("metric {name} {value} {unit}"));
        }
        for (name, unit) in E2E.iter().chain(LAYER) {
            if let Some(v) = self.metrics.get(name) {
                out.push(format!("metric {name} {v} {unit}"));
            }
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `set` with its unit. A metric the workload does not produce reads 0.
    pub fn result_json(&self, set: &[(&'static str, &'static str)]) -> String {
        let mut finite = true;
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let mut v = self.metrics.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                finite = false;
                v = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        let correct = finite && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Times `reps` set-ups and returns the median seconds and the last output.
pub fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let value = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
        // The previous set-up's output is dropped here, outside the timing.
        out = Some(value);
    }
    (median(&times), out.expect("at least one set-up ran"))
}

/// The timed phase: wall clock and process CPU time at its start, and the
/// first pass's peak RSS.
pub struct Timed {
    wall: Instant,
    cpu_s: f64,
    first_peak_mb: f64,
}

impl Timed {
    /// Starts the timed phase. Memory freed during set-up goes back to the
    /// kernel and the peak-RSS mark is reset, so the first pass's peak
    /// counts what the workload holds, from the same heap state every run.
    pub fn start() -> Self {
        release_free_memory();
        // "5" resets the peak-RSS high-water mark to the current RSS.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        Self {
            wall: Instant::now(),
            cpu_s: cpu_seconds(),
            first_peak_mb: 0.0,
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Sets `peak_rss_mb` (the first pass's peak RSS; later passes inherit
    /// the allocator's fragmentation) and `cpu_util` (CPU time ÷ (wall ×
    /// threads)).
    pub fn finish(&self, threads: usize, report: &mut Report) {
        let wall = self.elapsed();
        let cpu = cpu_seconds() - self.cpu_s;
        report.set("peak_rss_mb", self.first_peak_mb);
        report.set("cpu_util", cpu / (wall * threads.max(1) as f64));
    }
}

/// Runs `pass(k, traced)` until `ctx.seconds` have elapsed since `timed`
/// started, at least once; in trace mode untraced and traced passes
/// alternate and at least one of each runs. The first pass is untraced.
pub fn run_passes(ctx: &Ctx, timed: &mut Timed, mut pass: impl FnMut(usize, bool)) -> usize {
    let min = if ctx.trace { 2 } else { 1 };
    let mut k = 0;
    while k < min || timed.elapsed() < ctx.seconds {
        pass(k, ctx.trace && k % 2 == 1);
        if k == 0 {
            timed.first_peak_mb = peak_rss_kb() / 1024.0;
        }
        k += 1;
    }
    k
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory the allocator keeps but no longer uses back to the kernel.
fn release_free_memory() {
    // SAFETY: malloc_trim takes no pointers and only walks the allocator's
    // own free lists under its locks; any argument is valid.
    unsafe {
        malloc_trim(0);
    }
}

/// Process CPU time (user + system, all threads), from `/proc/self/stat`.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-pass values without the first pass, which warms caches and the
/// allocator; all of them when there are fewer than three.
pub fn steady<T>(values: &[T]) -> &[T] {
    if values.len() >= 3 {
        &values[1..]
    } else {
        values
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile of sorted values.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
/// beyond it, as `(percentile, value)`; p50 when there are too few samples.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let pct = [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, percentile(sorted, pct))
}

/// `after - before` for a registered counter.
pub fn delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let get = |s: &Snapshot| s.counter(name).unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

/// A gauge's current value.
pub fn gauge(snap: &Snapshot, name: &str) -> f64 {
    snap.gauge(name).unwrap_or(0) as f64
}

/// `num / den`, or 0 when there is no base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Directory for run records and span files, inside the benchmark package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn spans_path(workload: &str, ctx: &Ctx) -> PathBuf {
    out_dir().join(format!("spans-{workload}-seed{}.jsonl", ctx.seed))
}

fn command_line(program: &str, args: &[&str]) -> String {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().map_or_else(|| manifest.clone(), PathBuf::from);
    let mut cmd = std::process::Command::new(program);
    cmd.args(args).current_dir(&root);
    // Never pick up the commit of a repository that encloses the checkout.
    if let Some(parent) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One JSON object describing the run: host, toolchain, commit, seed, sizes
/// and outcome.
pub fn run_record(workload: &str, ctx: &Ctx, report: &Report) -> String {
    let mut sizes = String::new();
    for (i, (name, v)) in report.sizes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(sizes, "{sep}\"{name}\": {v}");
    }
    let walls: Vec<String> = report.walls.iter().map(f64::to_string).collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"threads\": {}, \"commit\": \"{}\", \"rustc\": \"{}\", \"passes\": {}, \"attempted\": {}, \
         \"failed\": {}, \"sizes\": {{{sizes}}}, \"pass_walls_s\": [{}]}}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        nproc(),
        ctx.threads,
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        report.passes,
        report.attempted,
        report.failed,
        walls.join(", "),
    )
}

/// Writes the run record and the result next to the span files.
pub fn save(workload: &str, ctx: &Ctx, record: &str, report: &Report) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let set = if ctx.trace { LAYER } else { E2E };
    let body = format!("{{\"record\": {record}, \"result\": {}}}\n", report.result_json(set));
    std::fs::write(
        dir.join(format!(
            "record-{workload}-seed{}-trace{}.json",
            ctx.seed,
            u8::from(ctx.trace)
        )),
        body,
    )
}

/// Traced passes of one run: their walls, per-layer self times, and the
/// spans of the last one (written out when the run ends).
#[derive(Default)]
pub struct TraceLog {
    walls: Vec<f64>,
    self_times: Vec<BTreeMap<&'static str, f64>>,
    attributed: Vec<f64>,
    last: Vec<crate::spans::Span>,
}

impl TraceLog {
    /// Absorbs one traced pass that took `wall` seconds.
    pub fn record(&mut self, tracer: &crate::spans::Tracer, wall: f64) {
        let spans = tracer.take();
        let st = crate::spans::self_times(&spans);
        self.attributed.push(crate::spans::attributed_ratio(&st));
        self.self_times.push(st);
        self.walls.push(wall);
        self.last = spans;
    }

    /// Spans of the last traced pass.
    pub fn last_spans(&self) -> &[crate::spans::Span] {
        &self.last
    }

    /// Sets the trace-wide metrics and the per-layer self times named by
    /// `map` (span name → metric), then writes the spans out.
    /// `untraced_walls` are the walls of the same work run untraced.
    pub fn report(
        &self,
        report: &mut Report,
        untraced_walls: &[f64],
        map: &[(&'static str, &'static str)],
        workload: &str,
        ctx: &Ctx,
    ) {
        if self.walls.is_empty() {
            return;
        }
        report.set("trace_overhead", ratio(median(&self.walls), median(untraced_walls)));
        report.set("trace.attributed_ratio", median(&self.attributed));
        report.set("trace.spans_total", self.last.len() as f64);
        report.set_self_times(&self.self_times, map);
        let _ = std::fs::create_dir_all(out_dir());
        if let Err(e) = crate::spans::write_jsonl(&spans_path(workload, ctx), &self.last) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    }
}
