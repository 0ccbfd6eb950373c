//! Incremental centroid buffers — the building block of the
//! Spatio-Temporal extractor's entry/PoI/exit windows.
//!
//! The buffers are generic over the point representation. The classic
//! representation is [`TracePoint`], where every radius decision pays the
//! full metric (a cosine and a square root per pair). The fast
//! representation is [`ProjectedPoint`], whose planar coordinates were
//! computed once per trace ([`ProjectedTrace`]): radius decisions become a
//! *filter-and-refine* — plain multiply/add planar arithmetic certifies
//! decisions that are farther than a proven error bound from the radius
//! threshold, and only the rare ambiguous pair (or any pair under
//! [`Metric::Haversine`], which has no certified bound) falls back to the
//! exact spherical formula. Both representations therefore produce
//! **bit-identical decisions**, and both report centroids from the same
//! incrementally-maintained lat/lon sums, so extracted stays are equal to
//! the last bit.

use backwatch_geo::distance::Metric;
use backwatch_geo::{LatLon, Meters, Seconds};
use backwatch_obs::LocalCounter;
use backwatch_trace::{ProjectedPoint, ProjectedTrace, SoaProjectedTrace, Timestamp, TracePoint};
use std::collections::VecDeque;

/// Absolute floating-point guard, in meters per buffered point, added to
/// the certified planar error bound. Generous against the few-ulp noise of
/// evaluating the n-scaled planar filter (analysed in
/// [`backwatch_geo::projection`]); still nine orders of magnitude below
/// the 50 m PoI radius.
const PLANAR_ABS_SLACK_M: f64 = 1e-6;

/// A point the centroid buffers can hold: a timestamp, a geographic
/// position, and a (possibly accelerated) radius decision against a
/// running centroid.
pub trait BufferPoint: Copy {
    /// Geometry context threaded through radius decisions — the bare
    /// [`Metric`] for raw trace points, a [`PlanarCtx`] for projected ones.
    type Ctx;

    /// When the fix was recorded.
    fn time(&self) -> Timestamp;

    /// The fix's geographic position.
    fn latlon(&self) -> LatLon;

    /// Decides `distance(self, centroid) <= radius`, where the centroid
    /// is the clamped average of `n` buffered points with the given lat/lon
    /// sums. Implementations may take an approximate path only where a
    /// certified error bound proves the decision equals the exact one.
    fn within_radius(&self, sum_lat: f64, sum_lon: f64, n: usize, radius: Meters, ctx: &Self::Ctx) -> bool;
}

impl BufferPoint for TracePoint {
    type Ctx = Metric;

    fn time(&self) -> Timestamp {
        self.time
    }

    fn latlon(&self) -> LatLon {
        self.pos
    }

    fn within_radius(&self, sum_lat: f64, sum_lon: f64, n: usize, radius: Meters, ctx: &Metric) -> bool {
        let c = LatLon::clamped(sum_lat / n as f64, sum_lon / n as f64);
        ctx.distance(self.pos, c) <= radius.get()
    }
}

/// Geometry context for [`ProjectedPoint`] buffers: the projection's
/// anchor and scale plus the trace's certified error slope, assembled once
/// per extraction via [`PlanarCtx::new`].
///
/// The context also carries the pass's filter/refine decision tallies as
/// single-threaded [`LocalCounter`]s — one add instruction per decision,
/// flushed into the shared `core.poi.planar_*` counters once per
/// extraction pass via [`PlanarCtx::flush_decision_counts`].
#[derive(Debug, Clone)]
pub struct PlanarCtx {
    metric: Metric,
    anchor_lat: f64,
    anchor_lon: f64,
    m_per_deg_lat: f64,
    m_per_deg_lon: f64,
    /// Certified |planar − equirectangular| error per meter of planar east
    /// separation; `+inf` routes every decision to the exact fallback
    /// (Haversine metric, or a trace outside the projection's envelope).
    slack_per_dx: f64,
    /// Decisions settled by the certified planar filter this pass.
    certified: LocalCounter,
    /// Decisions that fell back to the exact metric this pass.
    refined: LocalCounter,
}

impl PlanarCtx {
    /// Builds the context for extracting from `projected` under `metric`.
    #[must_use]
    pub fn new(projected: &ProjectedTrace, metric: Metric) -> Self {
        Self::from_projection(projected.projection(), projected.slack_per_east_meter(), metric)
    }

    /// Builds the context for extracting from a column-layout
    /// [`SoaProjectedTrace`] under `metric`. The context is value-identical
    /// to [`PlanarCtx::new`] on the AoS projection of the same trace (both
    /// layouts carry the same projection and slack).
    #[must_use]
    pub fn for_soa(soa: &SoaProjectedTrace, metric: Metric) -> Self {
        Self::from_projection(soa.projection(), soa.slack_per_east_meter(), metric)
    }

    fn from_projection(proj: &backwatch_geo::projection::LocalProjection, slack_per_east_meter: f64, metric: Metric) -> Self {
        let (m_per_deg_lat, m_per_deg_lon) = proj.frame().meters_per_deg();
        let slack_per_dx = match metric {
            // Only equirectangular has a certified planar bound; haversine
            // callers get exact spherical decisions on every pair.
            Metric::Equirectangular => slack_per_east_meter,
            Metric::Haversine => f64::INFINITY,
        };
        Self {
            metric,
            anchor_lat: proj.anchor().lat(),
            anchor_lon: proj.anchor().lon(),
            m_per_deg_lat,
            m_per_deg_lon,
            slack_per_dx,
            certified: LocalCounter::new(),
            refined: LocalCounter::new(),
        }
    }

    /// The pass's `(certified, refined)` decision tallies so far.
    #[must_use]
    pub fn decision_counts(&self) -> (u64, u64) {
        (self.certified.get(), self.refined.get())
    }

    /// Adds this pass's decision tallies to the shared
    /// `core.poi.planar_certified_total` / `core.poi.planar_refined_total`
    /// counters and zeroes the local cells. Called once per extraction
    /// pass.
    pub fn flush_decision_counts(&self) {
        self.certified.flush_into(&crate::obs::POI_PLANAR_CERTIFIED);
        self.refined.flush_into(&crate::obs::POI_PLANAR_REFINED);
    }
}

impl BufferPoint for ProjectedPoint {
    type Ctx = PlanarCtx;

    fn time(&self) -> Timestamp {
        self.time
    }

    fn latlon(&self) -> LatLon {
        self.pos
    }

    fn within_radius(&self, sum_lat: f64, sum_lon: f64, n: usize, radius: Meters, ctx: &PlanarCtx) -> bool {
        // Filter: everything is scaled by n so the hot path needs no
        // division — n·dx = n·x − k_lon·(Σlon − n·lon₀) is n times the
        // planar east separation from the centroid, using the same lat/lon
        // sums the exact path divides. A decision farther than the
        // certified bound from the threshold is already exact.
        let nf = n as f64;
        let ndx = nf * self.x - ctx.m_per_deg_lon * (sum_lon - nf * ctx.anchor_lon);
        let ndy = nf * self.y - ctx.m_per_deg_lat * (sum_lat - nf * ctx.anchor_lat);
        let nd2 = ndx * ndx + ndy * ndy;
        let neps = ndx.abs() * ctx.slack_per_dx + nf * PLANAR_ABS_SLACK_M;
        let nr = nf * radius.get();
        let nlo = nr - neps;
        if nlo > 0.0 && nd2 <= nlo * nlo {
            ctx.certified.inc();
            return true;
        }
        let nhi = nr + neps;
        if nd2 > nhi * nhi {
            ctx.certified.inc();
            return false;
        }
        // Refine: the ambiguous band (or an infinite slack, which lands
        // here on every pair) gets exactly the lat/lon path's computation.
        ctx.refined.inc();
        let c = LatLon::clamped(sum_lat / nf, sum_lon / nf);
        ctx.metric.distance(self.pos, c) <= radius.get()
    }
}

/// A FIFO buffer of trace points with an O(1) centroid.
///
/// The paper's algorithm (§IV-B) keeps three such buffers and reasons
/// about distances between their centroids. The centroid is the running
/// average of latitude and longitude — adequate at PoI scales.
///
/// # Examples
///
/// ```
/// use backwatch_core::poi::CentroidBuffer;
/// use backwatch_trace::{TracePoint, Timestamp};
/// use backwatch_geo::LatLon;
///
/// let mut buf = CentroidBuffer::new();
/// buf.push(TracePoint::new(Timestamp::from_secs(0), LatLon::new(39.90, 116.40)?));
/// buf.push(TracePoint::new(Timestamp::from_secs(1), LatLon::new(39.92, 116.42)?));
/// let c = buf.centroid().unwrap();
/// assert!((c.lat() - 39.91).abs() < 1e-9);
/// # Ok::<(), backwatch_geo::LatLonError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CentroidBuffer<P = TracePoint> {
    points: VecDeque<P>,
    sum_lat: f64,
    sum_lon: f64,
}

impl<P: BufferPoint> Default for CentroidBuffer<P> {
    fn default() -> Self {
        Self {
            points: VecDeque::new(),
            sum_lat: 0.0,
            sum_lon: 0.0,
        }
    }
}

impl<P: BufferPoint> CentroidBuffer<P> {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point.
    pub fn push(&mut self, p: P) {
        let pos = p.latlon();
        self.sum_lat += pos.lat();
        self.sum_lon += pos.lon();
        self.points.push_back(p);
    }

    /// Removes and returns the oldest point.
    pub fn pop_front(&mut self) -> Option<P> {
        let p = self.points.pop_front()?;
        let pos = p.latlon();
        self.sum_lat -= pos.lat();
        self.sum_lon -= pos.lon();
        Some(p)
    }

    /// Empties the buffer.
    pub fn clear(&mut self) {
        self.points.clear();
        self.sum_lat = 0.0;
        self.sum_lon = 0.0;
    }

    /// Number of buffered points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The buffered points, oldest first.
    #[must_use]
    pub fn points(&self) -> &VecDeque<P> {
        &self.points
    }

    /// The oldest point.
    #[must_use]
    pub fn front(&self) -> Option<&P> {
        self.points.front()
    }

    /// The newest point.
    #[must_use]
    pub fn back(&self) -> Option<&P> {
        self.points.back()
    }

    /// The raw running `(lat, lon)` sums. These are *not* in general equal
    /// to recomputing the sums from the buffered points: `pop_front`
    /// subtracts, so the values carry floating-point residue — which is
    /// exactly why checkpoints capture them verbatim (see
    /// [`super::streaming`]).
    #[must_use]
    pub fn sums(&self) -> (f64, f64) {
        (self.sum_lat, self.sum_lon)
    }

    /// Rebuilds a buffer from checkpointed parts, trusting `sum_lat`/
    /// `sum_lon` to be the captured running sums for `points` (including
    /// their rounding residue). Crate-internal: only checkpoint restore
    /// may bypass the incremental bookkeeping.
    pub(crate) fn from_raw_parts(points: Vec<P>, sum_lat: f64, sum_lon: f64) -> Self {
        Self {
            points: points.into(),
            sum_lat,
            sum_lon,
        }
    }

    /// Time span covered by the buffer, seconds (0 for < 2 points).
    #[must_use]
    pub fn span_secs(&self) -> i64 {
        match (self.points.front(), self.points.back()) {
            (Some(a), Some(b)) => b.time() - a.time(),
            _ => 0,
        }
    }

    /// The centroid (average lat/lon), or `None` when empty.
    #[must_use]
    pub fn centroid(&self) -> Option<LatLon> {
        if self.points.is_empty() {
            return None;
        }
        let n = self.points.len() as f64;
        Some(LatLon::clamped(self.sum_lat / n, self.sum_lon / n))
    }

    /// The largest distance from any buffered point to the centroid, in
    /// meters (0 when empty). This is the "spatial spread" the extractor
    /// compares to the PoI radius.
    #[must_use]
    pub fn spread_m(&self, metric: Metric) -> f64 {
        let Some(c) = self.centroid() else {
            return 0.0;
        };
        self.points.iter().map(|p| metric.distance(p.latlon(), c)).fold(0.0, f64::max)
    }

    /// Decides `spread_m(metric) <= radius` without necessarily touching
    /// every point: identical to comparing the exact spread (every point's
    /// decision is exact-or-certified), but short-circuits at the first
    /// point found outside the radius — on a moving trace that is usually
    /// the very first one checked.
    #[must_use]
    pub fn is_within_spread(&self, radius: Meters, ctx: &P::Ctx) -> bool {
        let n = self.points.len();
        self.points
            .iter()
            .all(|p| p.within_radius(self.sum_lat, self.sum_lon, n, radius, ctx))
    }

    /// Whether candidate point `p` lies within `radius` of this buffer's
    /// centroid.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty (there is no centroid).
    #[must_use]
    pub fn covers(&self, p: &P, radius: Meters, ctx: &P::Ctx) -> bool {
        assert!(!self.points.is_empty(), "covers() needs a non-empty buffer");
        p.within_radius(self.sum_lat, self.sum_lon, self.points.len(), radius, ctx)
    }

    /// Drops points from the front until the buffer spans at most
    /// `max_span`.
    pub fn trim_to_span(&mut self, max_span: Seconds) {
        while self.span_secs() > max_span.get() {
            self.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_trace::{Timestamp, Trace};

    fn pt(t: i64, lat: f64, lon: f64) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(t), LatLon::new(lat, lon).unwrap())
    }

    #[test]
    fn centroid_is_running_mean() {
        let mut b = CentroidBuffer::new();
        assert!(b.centroid().is_none());
        b.push(pt(0, 10.0, 20.0));
        b.push(pt(1, 20.0, 40.0));
        let c = b.centroid().unwrap();
        assert!((c.lat() - 15.0).abs() < 1e-12);
        assert!((c.lon() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn pop_front_updates_centroid() {
        let mut b = CentroidBuffer::new();
        b.push(pt(0, 10.0, 10.0));
        b.push(pt(1, 30.0, 30.0));
        b.pop_front();
        let c = b.centroid().unwrap();
        assert!((c.lat() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn span_and_trim() {
        let mut b = CentroidBuffer::new();
        for t in 0..10 {
            b.push(pt(t * 10, 39.9, 116.4));
        }
        assert_eq!(b.span_secs(), 90);
        b.trim_to_span(Seconds::new(30));
        assert!(b.span_secs() <= 30);
        assert_eq!(b.len(), 4);
        assert_eq!(b.front().unwrap().time.as_secs(), 60);
    }

    #[test]
    fn spread_of_tight_cluster_is_small() {
        let mut b = CentroidBuffer::new();
        for t in 0..5 {
            b.push(pt(t, 39.9 + t as f64 * 1e-6, 116.4));
        }
        assert!(b.spread_m(Metric::Equirectangular) < 1.0);
    }

    #[test]
    fn spread_grows_with_outlier() {
        let mut b = CentroidBuffer::new();
        b.push(pt(0, 39.9, 116.4));
        b.push(pt(1, 39.9, 116.4));
        let before = b.spread_m(Metric::Equirectangular);
        b.push(pt(2, 39.91, 116.4)); // ~1.1 km away
        assert!(b.spread_m(Metric::Equirectangular) > before + 500.0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = CentroidBuffer::new();
        b.push(pt(0, 1.0, 1.0));
        b.clear();
        assert!(b.is_empty());
        assert!(b.centroid().is_none());
        assert_eq!(b.span_secs(), 0);
    }

    #[test]
    fn repeated_push_pop_has_no_drift() {
        let mut b = CentroidBuffer::new();
        for t in 0..1000 {
            b.push(pt(t, 39.9 + (t % 7) as f64 * 1e-5, 116.4));
            if t % 2 == 0 {
                b.pop_front();
            }
        }
        // recompute exactly and compare
        let n = b.len() as f64;
        let lat: f64 = b.points().iter().map(|p| p.pos.lat()).sum::<f64>() / n;
        let c = b.centroid().unwrap();
        assert!((c.lat() - lat).abs() < 1e-9);
    }

    #[test]
    fn spread_decision_matches_exact_spread() {
        let mut b = CentroidBuffer::new();
        for t in 0..40 {
            b.push(pt(t, 39.9 + t as f64 * 2e-6, 116.4 + t as f64 * 3e-6));
        }
        let metric = Metric::Equirectangular;
        for radius in [0.5, 1.0, 5.0, 12.0, 50.0] {
            assert_eq!(
                b.is_within_spread(Meters::new(radius), &metric),
                b.spread_m(metric) <= radius,
                "radius {radius}"
            );
        }
    }

    #[test]
    fn planar_buffer_decisions_match_latlon_buffer() {
        // Same walk held in both representations: every covers/spread
        // decision must agree at radii straddling the actual distances.
        let pts: Vec<TracePoint> = (0..300)
            .map(|t| {
                pt(
                    t,
                    39.9 + (t as f64) * 3e-6 * ((t % 11) as f64 - 5.0),
                    116.4 + (t as f64) * 2e-6,
                )
            })
            .collect();
        let trace = Trace::from_points(pts.clone());
        let projected = ProjectedTrace::project(&trace);
        for metric in [Metric::Equirectangular, Metric::Haversine] {
            let ctx = PlanarCtx::new(&projected, metric);
            let mut latlon: CentroidBuffer<TracePoint> = CentroidBuffer::new();
            let mut planar: CentroidBuffer<ProjectedPoint> = CentroidBuffer::new();
            for (p, q) in pts.iter().zip(projected.points()) {
                if !latlon.is_empty() {
                    for radius in [1.0, 10.0, 50.0, 120.0] {
                        assert_eq!(
                            latlon.covers(p, Meters::new(radius), &metric),
                            planar.covers(q, Meters::new(radius), &ctx),
                            "covers at t={} radius {radius}",
                            p.time
                        );
                    }
                }
                latlon.push(*p);
                planar.push(*q);
                for radius in [1.0, 10.0, 50.0, 120.0] {
                    assert_eq!(
                        latlon.is_within_spread(Meters::new(radius), &metric),
                        planar.is_within_spread(Meters::new(radius), &ctx),
                        "spread at t={} radius {radius}",
                        p.time
                    );
                }
            }
            assert_eq!(latlon.centroid(), planar.centroid());
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn covers_on_empty_buffer_panics() {
        let b: CentroidBuffer<TracePoint> = CentroidBuffer::new();
        let _ = b.covers(&pt(0, 39.9, 116.4), Meters::new(50.0), &Metric::Equirectangular);
    }
}
