//! The Spatio-Temporal PoI extraction algorithm (paper §IV-B).
//!
//! The paper adopts the three-buffer algorithm of Bamis & Savvides: an
//! *entry* buffer detects that the user has settled (its points cluster
//! within the PoI radius), a *PoI* buffer accumulates the visit (the entry
//! buffer's tail seeds it — the overlap the paper describes), and an *exit*
//! buffer collects points that stray from the PoI centroid; once the user
//! has been away longer than the exit window, the visit is closed and kept
//! if its dwell meets the visiting-time threshold.
//!
//! The time-window formulation makes the same code work at every sampling
//! rate: at 1 Hz the entry window needs a genuinely tight dwell to trigger,
//! while at a 7,200 s polling interval a single fix trivially "clusters" —
//! and a visit is then only confirmed if a *later* fix lands inside the
//! radius, i.e. only hours-long stays survive, exactly the degradation the
//! paper measures in Figure 3.

use super::buffer::{BufferPoint, CentroidBuffer, PlanarCtx};
use super::streaming::StreamingExtractor;
use backwatch_geo::distance::Metric;
use backwatch_geo::{LatLon, Meters, Seconds};
use backwatch_trace::{ProjectedTrace, SoaProjectedTrace, Timestamp, Trace};

/// Parameters of the extractor. The paper's Table III sweeps `radius_m` ∈
/// {50, 100} meters and `min_visit_secs` ∈ {600, 1200, 1800} seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ExtractorParams {
    /// PoI radius.
    pub radius_m: Meters,
    /// Minimum dwell for a visit to count as a PoI.
    pub min_visit_secs: Seconds,
    /// Length of the entry detection window.
    pub entry_span_secs: Seconds,
    /// Time away from the centroid that confirms an exit.
    pub exit_span_secs: Seconds,
    /// Distance metric for centroid comparisons.
    pub metric: Metric,
}

impl ExtractorParams {
    /// Table III set 1 (radius 50 m, visiting time 10 min) — the setting
    /// the paper selects for all subsequent measurements.
    #[must_use]
    pub fn paper_set1() -> Self {
        Self::new(Meters::new(50.0), Seconds::new(10 * 60))
    }

    /// A parameter set with the given radius and visiting time and the
    /// default entry/exit windows (90 s each).
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive or `min_visit` is not positive.
    #[must_use]
    pub fn new(radius: Meters, min_visit: Seconds) -> Self {
        assert!(radius.get() > 0.0 && radius.is_finite(), "radius must be positive");
        assert!(min_visit.get() > 0, "visiting time must be positive");
        Self {
            radius_m: radius,
            min_visit_secs: min_visit,
            entry_span_secs: Seconds::new(90),
            exit_span_secs: Seconds::new(90),
            metric: Metric::Equirectangular,
        }
    }

    /// The paper's six Table III parameter sets, in order.
    #[must_use]
    pub fn table3_sets() -> [ExtractorParams; 6] {
        [
            Self::new(Meters::new(50.0), Seconds::new(600)),
            Self::new(Meters::new(50.0), Seconds::new(1200)),
            Self::new(Meters::new(50.0), Seconds::new(1800)),
            Self::new(Meters::new(100.0), Seconds::new(600)),
            Self::new(Meters::new(100.0), Seconds::new(1200)),
            Self::new(Meters::new(100.0), Seconds::new(1800)),
        ]
    }
}

impl Default for ExtractorParams {
    fn default() -> Self {
        Self::paper_set1()
    }
}

/// One extracted PoI visit: the user stayed within `radius_m` of
/// `centroid` from `enter` to `leave`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Stay {
    /// Centroid of the visit's fixes.
    pub centroid: LatLon,
    /// First fix of the visit.
    pub enter: Timestamp,
    /// Last fix of the visit.
    pub leave: Timestamp,
    /// Number of fixes contributing to the visit.
    pub n_points: usize,
    /// Index (into the extracted trace's points) of the visit's last fix —
    /// lets incremental detectors know when the visit became visible.
    pub end_index: usize,
}

impl Stay {
    /// Dwell duration in seconds.
    #[must_use]
    pub fn dwell_secs(&self) -> i64 {
        self.leave - self.enter
    }
}

/// The three-buffer Spatio-Temporal extractor.
///
/// # Examples
///
/// ```
/// use backwatch_core::poi::{ExtractorParams, SpatioTemporalExtractor};
/// use backwatch_trace::{Trace, TracePoint, Timestamp};
/// use backwatch_geo::LatLon;
///
/// // 20 minutes parked at one spot.
/// let pts: Vec<TracePoint> = (0..1200)
///     .map(|t| TracePoint::new(Timestamp::from_secs(t), LatLon::new(39.9, 116.4).unwrap()))
///     .collect();
/// let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1())
///     .extract(&Trace::from_points(pts));
/// assert_eq!(stays.len(), 1);
/// assert!(stays[0].dwell_secs() >= 600);
/// ```
#[derive(Debug, Clone)]
pub struct SpatioTemporalExtractor {
    params: ExtractorParams,
}

impl SpatioTemporalExtractor {
    /// Creates an extractor with the given parameters.
    #[must_use]
    pub fn new(params: ExtractorParams) -> Self {
        crate::obs::register();
        Self { params }
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> &ExtractorParams {
        &self.params
    }

    /// Extracts all PoI visits from `trace`, in chronological order.
    #[must_use]
    pub fn extract(&self, trace: &Trace) -> Vec<Stay> {
        self.run(trace.iter().copied(), &self.params.metric)
    }

    /// Planar fast path: extracts from a trace that was projected once
    /// with [`ProjectedTrace::project`]. Radius decisions run on planar
    /// coordinates behind a certified error bound (see
    /// [`super::buffer::PlanarCtx`]), so the result is **bit-identical** to
    /// [`SpatioTemporalExtractor::extract`] on the source trace — under
    /// [`Metric::Haversine`], which has no certified planar bound, every
    /// decision transparently takes the exact spherical path.
    #[must_use]
    pub fn extract_projected(&self, projected: &ProjectedTrace) -> Vec<Stay> {
        let ctx = PlanarCtx::new(projected, self.params.metric);
        let stays = self.run(projected.points().iter().copied(), &ctx);
        ctx.flush_decision_counts();
        stays
    }

    /// Planar fast path over a column-layout [`SoaProjectedTrace`]: the
    /// same engine and window as
    /// [`extract_projected`](Self::extract_projected), fed from the
    /// columns. **Bit-identical** to [`SpatioTemporalExtractor::extract`]
    /// on the same trace, including the certified/refined telemetry
    /// tallies — the differential suites in `tests/planar_equivalence.rs`
    /// pin both.
    #[must_use]
    pub fn extract_soa(&self, soa: &SoaProjectedTrace) -> Vec<Stay> {
        let ctx = PlanarCtx::for_soa(soa, self.params.metric);
        let stays = self.run(soa.iter(), &ctx);
        ctx.flush_decision_counts();
        stays
    }

    /// Column-layout twin of [`extract_sampled`](Self::extract_sampled).
    #[must_use]
    pub fn extract_sampled_soa(&self, soa: &SoaProjectedTrace, indices: &[u32]) -> Vec<Stay> {
        let ctx = PlanarCtx::for_soa(soa, self.params.metric);
        let stays = self.run(soa.sampled(indices), &ctx);
        ctx.flush_decision_counts();
        stays
    }

    /// Column-layout twin of [`extract_rotated`](Self::extract_rotated).
    #[must_use]
    pub fn extract_rotated_soa(&self, soa: &SoaProjectedTrace, start: usize) -> Vec<Stay> {
        let ctx = PlanarCtx::for_soa(soa, self.params.metric);
        let stays = self.run(soa.rotated_from(start), &ctx);
        ctx.flush_decision_counts();
        stays
    }

    /// Planar fast path over a downsampled *view*: equivalent to
    /// extracting from `sampling::downsample(trace, k)` when `indices`
    /// came from `sampling::downsample_indices(trace, k)`, without cloning
    /// the trace. `Stay::end_index` refers to positions in the view, as it
    /// would in the downsampled trace.
    #[must_use]
    pub fn extract_sampled(&self, projected: &ProjectedTrace, indices: &[u32]) -> Vec<Stay> {
        let ctx = PlanarCtx::new(projected, self.params.metric);
        let stays = self.run(projected.sampled(indices), &ctx);
        ctx.flush_decision_counts();
        stays
    }

    /// Planar fast path over a rotated *view*: equivalent to extracting
    /// from `sampling::rotate_to_start(trace, start)` without cloning.
    #[must_use]
    pub fn extract_rotated(&self, projected: &ProjectedTrace, start: usize) -> Vec<Stay> {
        let ctx = PlanarCtx::new(projected, self.params.metric);
        let stays = self.run(projected.rotated_from(start), &ctx);
        ctx.flush_decision_counts();
        stays
    }

    /// Batch extraction, generic over the point representation (raw
    /// lat/lon or projected planar): drives the streaming engine
    /// ([`StreamingExtractor`]) over the iterator and collects its
    /// incremental emissions. Delegating — rather than keeping a second
    /// copy of the three-buffer state machine — is what makes the
    /// streaming/batch differential guarantee hold by construction.
    fn run<P: BufferPoint>(&self, points: impl Iterator<Item = P>, ctx: &P::Ctx) -> Vec<Stay> {
        let mut engine: StreamingExtractor<P> = StreamingExtractor::new(self.params);
        let mut stays = Vec::new();
        for point in points {
            if let Some(stay) = engine.push_with(point, ctx) {
                stays.push(stay);
            }
        }
        let n_points = engine.stream_position() as u64;
        // Trace ended while inside a PoI: finish closes the open visit.
        stays.extend(engine.finish());
        if backwatch_obs::enabled() {
            crate::obs::POI_PASSES.inc();
            crate::obs::POI_POINTS.add(n_points);
            crate::obs::POI_STAYS.add(stays.len() as u64);
        }
        stays
    }
}

/// Ablation baseline: the classic anchor-based stay-point detector
/// (Li et al. 2008). For each anchor fix, scan forward while fixes remain
/// within `radius_m` of the anchor; if the in-radius span meets the
/// visiting time, emit a stay.
///
/// Less noise-robust than the three-buffer algorithm (a single GPS blip
/// terminates a visit) and quadratic in the worst case; it exists to
/// quantify what the paper's algorithm buys.
#[derive(Debug, Clone)]
pub struct NaiveDwellExtractor {
    params: ExtractorParams,
}

impl NaiveDwellExtractor {
    /// Creates the baseline extractor with the given parameters
    /// (entry/exit spans are ignored).
    #[must_use]
    pub fn new(params: ExtractorParams) -> Self {
        Self { params }
    }

    /// Extracts stays with anchor-based scanning.
    #[must_use]
    pub fn extract(&self, trace: &Trace) -> Vec<Stay> {
        let pts = trace.points();
        let mut stays = Vec::new();
        let mut i = 0;
        while i < pts.len() {
            let mut j = i + 1;
            while j < pts.len() && self.params.metric.distance(pts[j].pos, pts[i].pos) <= self.params.radius_m.get() {
                j += 1;
            }
            let dwell = pts[j - 1].time - pts[i].time;
            if dwell >= self.params.min_visit_secs.get() {
                let mut buf = CentroidBuffer::new();
                for q in &pts[i..j] {
                    buf.push(*q);
                }
                stays.push(Stay {
                    centroid: buf.centroid().expect("non-empty window"),
                    enter: pts[i].time,
                    leave: pts[j - 1].time,
                    n_points: j - i,
                    end_index: j - 1,
                });
                i = j;
            } else {
                i += 1;
            }
        }
        stays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_trace::TracePoint;

    fn pt(t: i64, lat: f64, lon: f64) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(t), LatLon::new(lat, lon).unwrap())
    }

    /// Dwell `secs` at (lat, lon) starting at `t0`, 1 Hz, tiny jitter.
    fn dwell(t0: i64, secs: i64, lat: f64, lon: f64) -> Vec<TracePoint> {
        (0..secs)
            .map(|i| {
                pt(
                    t0 + i,
                    lat + ((i % 5) as f64 - 2.0) * 1e-6,
                    lon + ((i % 3) as f64 - 1.0) * 1e-6,
                )
            })
            .collect()
    }

    /// Straight-line walk between two coordinates at ~1.4 m/s, 1 Hz.
    fn walk(t0: i64, from: (f64, f64), to: (f64, f64), secs: i64) -> Vec<TracePoint> {
        (0..secs)
            .map(|i| {
                let f = i as f64 / secs as f64;
                pt(t0 + i, from.0 + (to.0 - from.0) * f, from.1 + (to.1 - from.1) * f)
            })
            .collect()
    }

    #[test]
    fn single_long_dwell_is_one_stay() {
        let trace = Trace::from_points(dwell(0, 1200, 39.9, 116.4));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        assert_eq!(stays.len(), 1);
        let s = &stays[0];
        assert!(s.dwell_secs() >= 1100);
        assert!(
            ExtractorParams::paper_set1()
                .metric
                .distance(s.centroid, LatLon::new(39.9, 116.4).unwrap())
                < 5.0
        );
    }

    #[test]
    fn short_dwell_is_rejected() {
        let trace = Trace::from_points(dwell(0, 300, 39.9, 116.4)); // 5 min < 10 min
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        assert!(stays.is_empty());
    }

    #[test]
    fn continuous_motion_yields_no_stays() {
        // 30 minutes of steady walking covers ~2.5 km
        let trace = Trace::from_points(walk(0, (39.90, 116.40), (39.92, 116.42), 1800));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        assert!(stays.is_empty(), "got {stays:?}");
    }

    #[test]
    fn two_dwells_with_travel_are_two_stays() {
        let mut pts = dwell(0, 900, 39.90, 116.40);
        pts.extend(walk(900, (39.90, 116.40), (39.92, 116.42), 1500));
        pts.extend(dwell(2400, 900, 39.92, 116.42));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts));
        assert_eq!(stays.len(), 2);
        assert!(stays[0].leave < stays[1].enter);
    }

    #[test]
    fn noise_blip_does_not_split_a_visit() {
        let mut pts = dwell(0, 600, 39.9, 116.4);
        // a 20 s GPS excursion 300 m away in the middle
        for (k, p) in dwell(600, 20, 39.903, 116.4).into_iter().enumerate() {
            let _ = k;
            pts.push(p);
        }
        pts.extend(dwell(620, 600, 39.9, 116.4));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts));
        assert_eq!(stays.len(), 1, "blip must not end the visit: {stays:?}");
        assert!(stays[0].dwell_secs() > 1100);
    }

    #[test]
    fn sparse_sampling_still_finds_long_dwell() {
        // fixes every 1800 s at the same place for 4 hours
        let pts: Vec<TracePoint> = (0..9).map(|i| pt(i * 1800, 39.9, 116.4)).collect();
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts));
        assert_eq!(stays.len(), 1);
        assert_eq!(stays[0].dwell_secs(), 8 * 1800);
    }

    #[test]
    fn sparse_sampling_misses_short_dwell() {
        // a 30-minute visit observed by a 7200 s poller: at most one fix
        // lands inside, so no dwell can be established
        let pts = vec![pt(0, 39.90, 116.40), pt(7200, 39.95, 116.45), pt(14400, 39.99, 116.49)];
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts));
        assert!(stays.is_empty());
    }

    #[test]
    fn larger_radius_extracts_at_least_as_many() {
        let mut pts = dwell(0, 700, 39.90, 116.40);
        pts.extend(walk(700, (39.90, 116.40), (39.91, 116.41), 900));
        pts.extend(dwell(1600, 700, 39.91, 116.41));
        let trace = Trace::from_points(pts);
        let small = SpatioTemporalExtractor::new(ExtractorParams::new(Meters::new(50.0), Seconds::new(600))).extract(&trace);
        let large = SpatioTemporalExtractor::new(ExtractorParams::new(Meters::new(100.0), Seconds::new(600))).extract(&trace);
        assert!(large.len() >= small.len());
    }

    #[test]
    fn longer_visiting_time_extracts_fewer() {
        let mut pts = dwell(0, 700, 39.90, 116.40); // ~11.6 min
        pts.extend(walk(700, (39.90, 116.40), (39.93, 116.43), 2000));
        pts.extend(dwell(2700, 2000, 39.93, 116.43)); // ~33 min
        let trace = Trace::from_points(pts);
        let short = SpatioTemporalExtractor::new(ExtractorParams::new(Meters::new(50.0), Seconds::new(600))).extract(&trace);
        let long = SpatioTemporalExtractor::new(ExtractorParams::new(Meters::new(50.0), Seconds::new(1800))).extract(&trace);
        assert_eq!(short.len(), 2);
        assert_eq!(long.len(), 1);
    }

    #[test]
    fn end_index_is_within_trace_and_increasing() {
        let mut pts = dwell(0, 900, 39.90, 116.40);
        pts.extend(walk(900, (39.90, 116.40), (39.92, 116.42), 1500));
        pts.extend(dwell(2400, 900, 39.92, 116.42));
        let trace = Trace::from_points(pts);
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        for w in stays.windows(2) {
            assert!(w[0].end_index < w[1].end_index);
        }
        assert!(stays.iter().all(|s| s.end_index < trace.len()));
    }

    #[test]
    fn empty_trace_yields_nothing() {
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::new());
        assert!(stays.is_empty());
    }

    #[test]
    fn naive_extractor_agrees_on_clean_input() {
        let mut pts = dwell(0, 900, 39.90, 116.40);
        pts.extend(walk(900, (39.90, 116.40), (39.92, 116.42), 1500));
        pts.extend(dwell(2400, 900, 39.92, 116.42));
        let trace = Trace::from_points(pts);
        let st = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        let naive = NaiveDwellExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        assert_eq!(st.len(), naive.len());
    }

    #[test]
    fn naive_extractor_splits_on_blip_where_three_buffer_does_not() {
        let mut pts = dwell(0, 700, 39.9, 116.4);
        pts.extend(dwell(700, 20, 39.903, 116.4)); // blip 300 m away
        pts.extend(dwell(720, 700, 39.9, 116.4));
        let trace = Trace::from_points(pts);
        let st = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        let naive = NaiveDwellExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        assert_eq!(st.len(), 1);
        assert!(naive.len() >= 2, "the naive anchor scan fractures the visit");
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn invalid_radius_panics() {
        let _ = ExtractorParams::new(Meters::ZERO, Seconds::new(600));
    }

    #[test]
    fn empty_trace_yields_no_stays_on_every_path() {
        let params = ExtractorParams::paper_set1();
        let extractor = SpatioTemporalExtractor::new(params);
        let empty = Trace::new();
        assert!(extractor.extract(&empty).is_empty());
        let projected = ProjectedTrace::project(&empty);
        assert!(extractor.extract_projected(&projected).is_empty());
        assert!(extractor.extract_sampled(&projected, &[]).is_empty());
        assert!(extractor.extract_rotated(&projected, 0).is_empty());
        assert!(NaiveDwellExtractor::new(params).extract(&empty).is_empty());
    }

    #[test]
    fn one_point_trace_yields_no_stays_on_every_path() {
        let params = ExtractorParams::paper_set1();
        let extractor = SpatioTemporalExtractor::new(params);
        let one = Trace::from_points(vec![pt(0, 39.9, 116.4)]);
        assert!(extractor.extract(&one).is_empty());
        let projected = ProjectedTrace::project(&one);
        assert!(extractor.extract_projected(&projected).is_empty());
        assert!(extractor.extract_sampled(&projected, &[0]).is_empty());
        assert!(extractor.extract_rotated(&projected, 0).is_empty());
        assert!(NaiveDwellExtractor::new(params).extract(&one).is_empty());
    }
}
