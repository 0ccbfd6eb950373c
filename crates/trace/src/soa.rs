//! Struct-of-arrays projected traces — the column-layout twin of
//! [`ProjectedTrace`].
//!
//! A [`SoaProjectedTrace`] stores each field as its own column — `x`, `y`,
//! `timestamp`, plus a geographic position column the refine fallback and
//! reported centroids need — and materializes [`ProjectedPoint`]s on the
//! fly for the extractor's `extract_*_soa` entry points. Positions stay as
//! whole [`LatLon`] values (never split into raw degrees and re-wrapped)
//! so materialized points are bit-verbatim.
//!
//! The layout is the only thing that changes: columns hold bit-verbatim
//! the same values [`ProjectedTrace`] holds ([`SoaProjectedTrace::project`]
//! and [`ProjectedTrace::project`] share one envelope analysis), the same
//! degenerate handling applies (polar anchor / antimeridian span ⇒
//! `slack_per_east_meter() == +inf`, all-zero planar columns), and the
//! view iterators ([`sampled`](SoaProjectedTrace::sampled),
//! [`rotated_from`](SoaProjectedTrace::rotated_from)) reproduce the
//! AoS views element-for-element. The equivalence tests in this module and
//! the workspace-level `tests/planar_equivalence.rs` pin that.

use crate::point::{Timestamp, TracePoint};
#[cfg(any(doc, test))]
use crate::projected::ProjectedTrace;
use crate::projected::{envelope, Envelope, ProjectedPoint};
use crate::trajectory::Trace;
use backwatch_geo::projection::LocalProjection;
use backwatch_geo::LatLon;

/// A trace projected once into flat planar meters, stored column-wise.
///
/// # Examples
///
/// ```
/// use backwatch_trace::{SoaProjectedTrace, Trace, TracePoint, Timestamp};
/// use backwatch_geo::LatLon;
///
/// let pts: Vec<TracePoint> = (0..60)
///     .map(|t| TracePoint::new(Timestamp::from_secs(t), LatLon::new(39.9, 116.4).unwrap()))
///     .collect();
/// let soa = SoaProjectedTrace::project(&Trace::from_points(pts));
/// assert_eq!(soa.len(), 60);
/// assert!(soa.point(0).x.abs() < 1e-9); // anchored at the first fix
/// ```
#[derive(Debug, Clone)]
pub struct SoaProjectedTrace {
    projection: LocalProjection,
    slack_per_east_meter: f64,
    times: Vec<i64>,
    pos: Vec<LatLon>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl SoaProjectedTrace {
    /// Projects `trace` onto a tangent plane anchored at its first fix,
    /// directly into columns. Values are bit-identical to
    /// [`ProjectedTrace::project`] on the same trace.
    #[must_use]
    pub fn project(trace: &Trace) -> Self {
        let pts = trace.points();
        let n = pts.len();
        let mut out = match envelope(pts) {
            Envelope::Planar {
                projection,
                slack_per_east_meter,
            } => Self::empty(projection, slack_per_east_meter, n),
            Envelope::Degenerate { projection } => Self::empty(projection, f64::INFINITY, n),
        };
        let planar = out.slack_per_east_meter.is_finite();
        for p in pts {
            let (x, y) = if planar { out.projection.project(p.pos) } else { (0.0, 0.0) };
            out.times.push(p.time.as_secs());
            out.pos.push(p.pos);
            out.xs.push(x);
            out.ys.push(y);
        }
        out
    }

    fn empty(projection: LocalProjection, slack_per_east_meter: f64, capacity: usize) -> Self {
        Self {
            projection,
            slack_per_east_meter,
            times: Vec::with_capacity(capacity),
            pos: Vec::with_capacity(capacity),
            xs: Vec::with_capacity(capacity),
            ys: Vec::with_capacity(capacity),
        }
    }

    /// The projection the columns were computed on.
    #[must_use]
    pub fn projection(&self) -> &LocalProjection {
        &self.projection
    }

    /// Certified planar-vs-equirectangular error per meter of planar east
    /// separation (`+inf` outside the fast path's envelope; see
    /// [`ProjectedTrace::slack_per_east_meter`]).
    #[must_use]
    pub fn slack_per_east_meter(&self) -> f64 {
        self.slack_per_east_meter
    }

    /// Number of fixes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Materializes the fix at `index` (all five columns re-joined).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn point(&self, index: usize) -> ProjectedPoint {
        ProjectedPoint {
            time: Timestamp::from_secs(self.times[index]),
            pos: self.pos[index],
            x: self.xs[index],
            y: self.ys[index],
        }
    }

    /// The fixes in trace order, materialized on the fly. Walks the four
    /// columns as zipped iterators rather than indexing [`point`] per fix,
    /// so the drive loop of a point-at-a-time consumer carries no bounds
    /// checks.
    ///
    /// [`point`]: SoaProjectedTrace::point
    pub fn iter(&self) -> impl Iterator<Item = ProjectedPoint> + '_ {
        self.times
            .iter()
            .zip(&self.pos)
            .zip(&self.xs)
            .zip(&self.ys)
            .map(|(((&t, &pos), &x), &y)| ProjectedPoint {
                time: Timestamp::from_secs(t),
                pos,
                x,
                y,
            })
    }

    /// Borrowed view of the fixes selected by `indices` (as produced by
    /// [`crate::sampling::downsample_indices`]) — element-for-element equal
    /// to [`ProjectedTrace::sampled`] on the AoS layout.
    pub fn sampled<'a>(&'a self, indices: &'a [u32]) -> impl Iterator<Item = ProjectedPoint> + 'a {
        indices.iter().map(|&i| self.point(i as usize))
    }

    /// Borrowed view of the trace rotated to begin at fix `start`, with the
    /// wrapped head's timestamps shifted exactly as
    /// [`ProjectedTrace::rotated_from`] does. `start == 0` (including on an
    /// empty trace) yields the trace unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `start > 0` and `start >= len`.
    pub fn rotated_from(&self, start: usize) -> impl Iterator<Item = ProjectedPoint> + '_ {
        assert!(
            start == 0 || start < self.len(),
            "start {start} out of range for {} points",
            self.len()
        );
        let (last_t, head_base) = if start == 0 {
            (0, 0)
        } else {
            (
                self.times.last().copied().unwrap_or(0),
                self.times.first().copied().unwrap_or(0),
            )
        };
        let seam = 1;
        let tail = (start..self.len()).map(|i| self.point(i));
        let head = (0..start).map(move |i| {
            let p = self.point(i);
            ProjectedPoint {
                time: Timestamp::from_secs(last_t + seam + (p.time.as_secs() - head_base)),
                ..p
            }
        });
        tail.chain(head)
    }

    /// Reconstructs the plain [`TracePoint`] at `index` (geographic
    /// position and timestamp only).
    #[must_use]
    pub fn trace_point(&self, index: usize) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(self.times[index]), self.pos[index])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling;
    use backwatch_geo::Seconds;

    fn pt(t: i64, lat: f64, lon: f64) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(t), LatLon::new(lat, lon).unwrap())
    }

    fn city_trace() -> Trace {
        Trace::from_points(
            (0..200)
                .map(|t| pt(t * 7, 39.9 + (t as f64) * 1e-4, 116.4 - (t as f64) * 2e-4))
                .collect(),
        )
    }

    fn assert_points_bitwise_eq(a: ProjectedPoint, b: ProjectedPoint, what: &str) {
        assert_eq!(a.time, b.time, "{what}: time");
        assert_eq!(a.pos.lat().to_bits(), b.pos.lat().to_bits(), "{what}: lat");
        assert_eq!(a.pos.lon().to_bits(), b.pos.lon().to_bits(), "{what}: lon");
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "{what}: x");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "{what}: y");
    }

    #[test]
    fn project_matches_aos_projection_bitwise() {
        let tr = city_trace();
        let aos = ProjectedTrace::project(&tr);
        let soa = SoaProjectedTrace::project(&tr);
        assert_eq!(aos.len(), soa.len());
        assert_eq!(
            aos.slack_per_east_meter().to_bits(),
            soa.slack_per_east_meter().to_bits(),
            "slack"
        );
        for (i, p) in aos.points().iter().enumerate() {
            assert_points_bitwise_eq(*p, soa.point(i), &format!("point {i}"));
        }
    }

    #[test]
    fn iter_matches_point_by_point_materialization() {
        let soa = SoaProjectedTrace::project(&city_trace());
        assert_eq!(soa.iter().count(), soa.len());
        for (i, p) in soa.iter().enumerate() {
            assert_points_bitwise_eq(p, soa.point(i), &format!("point {i}"));
        }
    }

    #[test]
    fn empty_trace_projects_to_empty() {
        let soa = SoaProjectedTrace::project(&Trace::new());
        assert!(soa.is_empty());
        assert_eq!(soa.iter().count(), 0);
        assert_eq!(soa.rotated_from(0).count(), 0);
    }

    #[test]
    fn degenerate_traces_match_aos_handling() {
        let polar = Trace::from_points(vec![pt(0, 89.5, 10.0), pt(1, 89.5, 11.0)]);
        let antimeridian = Trace::from_points(vec![pt(0, 0.0, -179.9), pt(1, 0.0, 179.9)]);
        for tr in [polar, antimeridian] {
            let aos = ProjectedTrace::project(&tr);
            let soa = SoaProjectedTrace::project(&tr);
            assert!(soa.slack_per_east_meter().is_infinite());
            assert_eq!(
                aos.projection().anchor(),
                soa.projection().anchor(),
                "degenerate anchor must match"
            );
            for (i, p) in aos.points().iter().enumerate() {
                assert_points_bitwise_eq(*p, soa.point(i), &format!("point {i}"));
            }
        }
    }

    #[test]
    fn sampled_view_matches_aos_view() {
        let tr = city_trace();
        let aos = ProjectedTrace::project(&tr);
        let soa = SoaProjectedTrace::project(&tr);
        for interval in [1, 60, 7200] {
            let indices = sampling::downsample_indices(&tr, Seconds::new(interval));
            let a: Vec<ProjectedPoint> = aos.sampled(&indices).collect();
            let s: Vec<ProjectedPoint> = soa.sampled(&indices).collect();
            assert_eq!(a.len(), s.len());
            for (x, y) in a.into_iter().zip(s) {
                assert_points_bitwise_eq(x, y, &format!("interval {interval}"));
            }
        }
    }

    #[test]
    fn rotated_view_matches_aos_view() {
        let tr = city_trace();
        let aos = ProjectedTrace::project(&tr);
        let soa = SoaProjectedTrace::project(&tr);
        for start in [0, 1, 57, 199] {
            let a: Vec<ProjectedPoint> = aos.rotated_from(start).collect();
            let s: Vec<ProjectedPoint> = soa.rotated_from(start).collect();
            assert_eq!(a.len(), s.len());
            for (x, y) in a.into_iter().zip(s) {
                assert_points_bitwise_eq(x, y, &format!("start {start}"));
            }
        }
    }

    #[test]
    fn trace_point_round_trips() {
        let tr = city_trace();
        let soa = SoaProjectedTrace::project(&tr);
        for (i, p) in tr.iter().enumerate() {
            assert_eq!(soa.trace_point(i), *p);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rotated_from_rejects_out_of_range_start() {
        let soa = SoaProjectedTrace::project(&city_trace());
        let _ = soa.rotated_from(10_000);
    }
}
