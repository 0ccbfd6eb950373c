//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, start and end (nanoseconds
//! since the tracer started), the span that caused it, and the id of the
//! unit of work it belongs to (a user, query, app or tick). Spans are
//! buffered per scope and appended to the tracer under one lock when the
//! scope closes, so worker threads never contend per call. With no tracer
//! (`None`) every helper simply runs its closure.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// Name prefix of the benchmark's own glue spans (phases, units of work).
/// Their self time is time no layer span accounts for.
pub const GLUE: &str = "bench.";

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn fresh_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn append(&self, buf: &mut Vec<Span>) {
        self.spans.lock().expect("span buffer lock poisoned").append(buf);
    }

    /// Every span recorded so far, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer lock poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open scope: a span whose children are recorded through it.
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    id: u32,
    unit: u64,
    buf: Vec<Span>,
}

impl<'a> Scope<'a> {
    /// The tracer this scope records into, for nested scopes on other threads.
    pub fn tracer(&self) -> Option<&'a Tracer> {
        self.tracer
    }

    /// This scope's span id, the parent of everything recorded through it.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Runs `f` as a leaf span named `name` under this scope.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(tracer) = self.tracer else { return f() };
        let start_ns = tracer.now();
        let out = f();
        let end_ns = tracer.now();
        self.buf.push(Span {
            name,
            id: tracer.fresh_id(),
            parent: self.id,
            unit: self.unit,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Runs `f` inside a new span named `name`, child of `parent`, for unit of
/// work `unit`. Leaf spans recorded through the scope become its children.
pub fn scope<T>(tracer: Option<&Tracer>, name: &'static str, parent: u32, unit: u64, f: impl FnOnce(&mut Scope<'_>) -> T) -> T {
    let Some(tr) = tracer else {
        let mut s = Scope {
            tracer: None,
            id: ROOT,
            unit,
            buf: Vec::new(),
        };
        return f(&mut s);
    };
    let id = tr.fresh_id();
    let start_ns = tr.now();
    let mut s = Scope {
        tracer: Some(tr),
        id,
        unit,
        buf: Vec::new(),
    };
    let out = f(&mut s);
    let end_ns = tr.now();
    s.buf.push(Span {
        name,
        id,
        parent,
        unit,
        start_ns,
        end_ns,
    });
    tr.append(&mut s.buf);
    out
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of its interval that its children cover (children on several
/// threads may overlap; their union is what counts).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Share of all self time that named layer spans (not glue) account for.
pub fn attributed_ratio(self_s: &BTreeMap<&'static str, f64>) -> f64 {
    let total: f64 = self_s.values().sum();
    let layers: f64 = self_s
        .iter()
        .filter(|(name, _)| !name.starts_with(GLUE))
        .map(|(_, v)| v)
        .sum();
    if total > 0.0 {
        layers / total
    } else {
        0.0
    }
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == ROOT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"unit\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, parent, s.unit, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, id, parent, start_ns, end_ns| Span {
            name,
            id,
            parent,
            unit: 0,
            start_ns,
            end_ns,
        };
        // parent 0..100; two overlapping children 10..50 and 30..60
        let spans = [
            span("bench.phase", 0, ROOT, 0, 100),
            span("a", 1, 0, 10, 50),
            span("a", 2, 0, 30, 60),
        ];
        let st = self_times(&spans);
        assert!((st["bench.phase"] - 50e-9).abs() < 1e-15);
        assert!((st["a"] - 70e-9).abs() < 1e-15);
        assert!((attributed_ratio(&st) - 70.0 / 120.0).abs() < 1e-12);
    }
}
