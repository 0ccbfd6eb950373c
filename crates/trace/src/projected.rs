//! A trace projected once into flat planar meters.
//!
//! The per-interval experiment sweep extracts PoIs from the same trace at
//! ten access frequencies, plus a rotated variant — and every extraction
//! used to re-derive geometry from raw lat/lon per distance. A
//! [`ProjectedTrace`] pays the trigonometry exactly once: each fix is
//! projected into (east, north) meters on a [`LocalProjection`] anchored at
//! the trace's first fix, and all downstream views (interval index views,
//! rotations) reuse those planar coordinates.
//!
//! Alongside the points, the projection records the trace's latitude band,
//! from which consumers obtain a *certified* bound on the planar-vs-
//! equirectangular distance error (see
//! [`LocalProjection::equirectangular_error_bound_m`]). Degenerate inputs —
//! an anchor within 1° of a pole, or a longitude extent that could straddle
//! the antimeridian — make [`ProjectedTrace::slack_per_east_meter`] return
//! `+inf`, which tells consumers to treat every planar decision as
//! ambiguous and fall back to exact spherical math.

use crate::point::{Timestamp, TracePoint};
use crate::trajectory::Trace;
use backwatch_geo::projection::LocalProjection;
use backwatch_geo::{Degrees, LatLon};

/// A fix with both its geographic position and its planar projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedPoint {
    /// When the fix was recorded.
    pub time: Timestamp,
    /// The geographic position (kept so exact-path computations and
    /// reported centroids stay bit-identical to the unprojected pipeline).
    pub pos: LatLon,
    /// East offset from the projection anchor, meters.
    pub x: f64,
    /// North offset from the projection anchor, meters.
    pub y: f64,
}

/// A trace plus its one-shot planar projection.
///
/// # Examples
///
/// ```
/// use backwatch_trace::{ProjectedTrace, Trace, TracePoint, Timestamp};
/// use backwatch_geo::LatLon;
///
/// let pts: Vec<TracePoint> = (0..60)
///     .map(|t| TracePoint::new(Timestamp::from_secs(t), LatLon::new(39.9, 116.4).unwrap()))
///     .collect();
/// let projected = ProjectedTrace::project(&Trace::from_points(pts));
/// assert_eq!(projected.len(), 60);
/// assert!(projected.points()[0].x.abs() < 1e-9); // anchored at the first fix
/// ```
#[derive(Debug, Clone)]
pub struct ProjectedTrace {
    projection: LocalProjection,
    points: Vec<ProjectedPoint>,
    slack_per_east_meter: f64,
}

/// The one-shot envelope analysis shared by [`ProjectedTrace::project`] and
/// [`crate::soa::SoaProjectedTrace::project`]: both layouts must make the
/// same degenerate-vs-planar call and carry bit-identical slack, so the
/// decision lives in one place.
pub(crate) enum Envelope {
    /// Inside the fast path's envelope: project on `projection` and certify
    /// with `slack_per_east_meter`.
    Planar {
        /// Tangent projection anchored at the trace's first fix.
        projection: LocalProjection,
        /// Certified |planar − equirectangular| error slope.
        slack_per_east_meter: f64,
    },
    /// Outside the envelope (polar anchor or antimeridian span): planar
    /// coordinates are all-zero and every decision must refine.
    Degenerate {
        /// Placeholder projection (polar anchors are clamped to the equator
        /// so the frame stays well-defined).
        projection: LocalProjection,
    },
}

/// Classifies `pts` against the fast path's envelope (see the module docs).
pub(crate) fn envelope(pts: &[TracePoint]) -> Envelope {
    let anchor = pts.first().map_or_else(|| LatLon::clamped(0.0, 0.0), |p| p.pos);

    // Near a pole the tangent frame degenerates; past 90° of longitude
    // from the anchor the unwrapped planar x no longer agrees with the
    // wrapped equirectangular distance. Both are far outside the
    // city-scale envelope this fast path serves, so mark the whole
    // trace ambiguous and let consumers take the exact spherical path.
    if anchor.lat().abs() >= 89.0 {
        return Envelope::Degenerate {
            projection: LocalProjection::new(LatLon::clamped(0.0, anchor.lon())),
        };
    }
    let mut lat_band_deg = 0.0f64;
    let mut lon_span_deg = 0.0f64;
    for p in pts {
        lat_band_deg = lat_band_deg.max((p.pos.lat() - anchor.lat()).abs());
        lon_span_deg = lon_span_deg.max((p.pos.lon() - anchor.lon()).abs());
    }
    if lon_span_deg > 90.0 {
        return Envelope::Degenerate {
            projection: LocalProjection::new(anchor),
        };
    }
    let projection = LocalProjection::new(anchor);
    Envelope::Planar {
        slack_per_east_meter: projection.error_per_east_meter(Degrees::new(lat_band_deg)),
        projection,
    }
}

impl ProjectedTrace {
    /// Projects `trace` onto a tangent plane anchored at its first fix.
    #[must_use]
    pub fn project(trace: &Trace) -> Self {
        let pts = trace.points();
        match envelope(pts) {
            Envelope::Planar {
                projection,
                slack_per_east_meter,
            } => {
                let points = pts
                    .iter()
                    .map(|p| {
                        let (x, y) = projection.project(p.pos);
                        ProjectedPoint {
                            time: p.time,
                            pos: p.pos,
                            x,
                            y,
                        }
                    })
                    .collect();
                Self {
                    projection,
                    slack_per_east_meter,
                    points,
                }
            }
            Envelope::Degenerate { projection } => Self {
                projection,
                points: pts
                    .iter()
                    .map(|p| ProjectedPoint {
                        time: p.time,
                        pos: p.pos,
                        x: 0.0,
                        y: 0.0,
                    })
                    .collect(),
                slack_per_east_meter: f64::INFINITY,
            },
        }
    }

    /// The projection the points were computed on.
    #[must_use]
    pub fn projection(&self) -> &LocalProjection {
        &self.projection
    }

    /// Certified planar-vs-equirectangular error per meter of planar east
    /// separation (`+inf` when the trace is outside the fast path's
    /// envelope; see the module docs).
    #[must_use]
    pub fn slack_per_east_meter(&self) -> f64 {
        self.slack_per_east_meter
    }

    /// The projected fixes, in trace order.
    #[must_use]
    pub fn points(&self) -> &[ProjectedPoint] {
        &self.points
    }

    /// Number of fixes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrowed view of the fixes selected by `indices` (as produced by
    /// [`crate::sampling::downsample_indices`]) — the zero-copy equivalent
    /// of extracting from a [`crate::sampling::downsample`]d trace.
    pub fn sampled<'a>(&'a self, indices: &'a [u32]) -> impl Iterator<Item = ProjectedPoint> + 'a {
        indices.iter().map(|&i| self.points[i as usize])
    }

    /// Borrowed view of the trace rotated to begin at fix `start`, with the
    /// wrapped head's timestamps shifted exactly as
    /// [`crate::sampling::rotate_to_start`] does. `start == 0` (including
    /// on an empty trace) yields the trace unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `start > 0` and `start >= len`.
    pub fn rotated_from(&self, start: usize) -> impl Iterator<Item = ProjectedPoint> + '_ {
        assert!(
            start == 0 || start < self.points.len(),
            "start {start} out of range for {} points",
            self.points.len()
        );
        let (last_t, head_base) = if start == 0 {
            (0, 0)
        } else {
            (
                self.points.last().map_or(0, |p| p.time.as_secs()),
                self.points.first().map_or(0, |p| p.time.as_secs()),
            )
        };
        let seam = 1;
        let (head, tail) = self.points.split_at(start);
        let tail = tail.iter().copied();
        let head = head.iter().map(move |p| ProjectedPoint {
            time: Timestamp::from_secs(last_t + seam + (p.time.as_secs() - head_base)),
            ..*p
        });
        tail.chain(head)
    }

    /// Reconstructs the plain [`TracePoint`] at `index` (geographic
    /// position and timestamp only).
    #[must_use]
    pub fn trace_point(&self, index: usize) -> TracePoint {
        let p = self.points[index];
        TracePoint::new(p.time, p.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling;
    use backwatch_geo::distance::equirectangular;

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

    #[test]
    fn planar_pairwise_distances_track_equirectangular() {
        let tr = city_trace();
        let proj = ProjectedTrace::project(&tr);
        let slack = proj.slack_per_east_meter();
        assert!(slack.is_finite());
        let pts = proj.points();
        for w in pts.windows(17) {
            let (a, b) = (w[0], w[16]);
            let planar = ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt();
            let exact = equirectangular(a.pos, b.pos);
            let bound = (a.x - b.x).abs() * slack + 1e-6;
            assert!((planar - exact).abs() <= bound, "planar {planar} exact {exact}");
        }
    }

    #[test]
    fn empty_trace_projects_to_empty() {
        let proj = ProjectedTrace::project(&Trace::new());
        assert!(proj.is_empty());
        assert_eq!(proj.rotated_from(0).count(), 0);
    }

    #[test]
    fn sampled_view_matches_owned_downsample() {
        let tr = city_trace();
        let proj = ProjectedTrace::project(&tr);
        for interval in [1, 60, 7200] {
            let owned = sampling::downsample(&tr, backwatch_geo::Seconds::new(interval));
            let indices = sampling::downsample_indices(&tr, backwatch_geo::Seconds::new(interval));
            let view: Vec<TracePoint> = proj.sampled(&indices).map(|p| TracePoint::new(p.time, p.pos)).collect();
            assert_eq!(view, owned.points().to_vec(), "interval {interval}");
        }
    }

    #[test]
    fn rotated_view_matches_owned_rotation() {
        let tr = city_trace();
        let proj = ProjectedTrace::project(&tr);
        for start in [0, 1, 57, 199] {
            let owned = sampling::rotate_to_start(&tr, start);
            let view: Vec<TracePoint> = proj.rotated_from(start).map(|p| TracePoint::new(p.time, p.pos)).collect();
            assert_eq!(view, owned.points().to_vec(), "start {start}");
        }
    }

    #[test]
    fn polar_anchor_is_degenerate_not_panicking() {
        let tr = Trace::from_points(vec![pt(0, 89.5, 10.0), pt(1, 89.5, 11.0)]);
        let proj = ProjectedTrace::project(&tr);
        assert_eq!(proj.len(), 2);
        assert!(proj.slack_per_east_meter().is_infinite());
    }

    #[test]
    fn antimeridian_span_is_degenerate() {
        let tr = Trace::from_points(vec![pt(0, 0.0, -179.9), pt(1, 0.0, 179.9)]);
        let proj = ProjectedTrace::project(&tr);
        assert!(proj.slack_per_east_meter().is_infinite());
    }

    #[test]
    fn trace_point_round_trips() {
        let tr = city_trace();
        let proj = ProjectedTrace::project(&tr);
        for (i, p) in tr.iter().enumerate() {
            assert_eq!(proj.trace_point(i), *p);
        }
    }
}
