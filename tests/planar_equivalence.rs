//! The planar fast path must be invisible: extracting stays through
//! [`ProjectedTrace`] — full rate, downsampled, or rotated — yields
//! *bit-identical* results to the lat/lon pipeline, under both metrics.
//!
//! This holds by construction, not by luck: the planar check only decides
//! a comparison when it is farther than a certified error bound from the
//! radius threshold, and falls back to the exact metric otherwise (see
//! `backwatch-core`'s `poi::buffer` docs). These tests pin the guarantee
//! end to end on synthetic users.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch::geo::distance::{equirectangular, haversine, Metric};
use backwatch::geo::enu::Frame;
use backwatch::geo::{bearing, Degrees, LatLon, Meters, Seconds};
use backwatch::model::poi::{Checkpoint, ExtractorParams, PlanarCtx, SpatioTemporalExtractor, Stay, StreamingExtractor};
use backwatch::trace::sampling;
use backwatch::trace::synth::{generate_user, SynthConfig};
use backwatch::trace::{ProjectedPoint, ProjectedTrace, SoaProjectedTrace, Timestamp, Trace, TracePoint};
use proptest::prelude::*;

fn params_with(metric: Metric) -> ExtractorParams {
    ExtractorParams {
        metric,
        ..ExtractorParams::paper_set1()
    }
}

const METRICS: [Metric; 2] = [Metric::Equirectangular, Metric::Haversine];

#[test]
fn projected_full_extraction_is_bit_identical() {
    let cfg = SynthConfig::small();
    for seed in 0..4 {
        let user = generate_user(&cfg, seed);
        let projected = ProjectedTrace::project(&user.trace);
        for metric in METRICS {
            let extractor = SpatioTemporalExtractor::new(params_with(metric));
            let exact = extractor.extract(&user.trace);
            let planar = extractor.extract_projected(&projected);
            assert_eq!(exact, planar, "metric {metric:?}, user {seed}");
            assert!(!exact.is_empty(), "user {seed} produced no stays");
        }
    }
}

#[test]
fn sampled_extraction_is_bit_identical_at_every_interval() {
    let cfg = SynthConfig::small();
    for seed in 0..3 {
        let user = generate_user(&cfg, seed);
        let projected = ProjectedTrace::project(&user.trace);
        for metric in METRICS {
            let extractor = SpatioTemporalExtractor::new(params_with(metric));
            for interval in [1, 60, 7200] {
                let owned = sampling::downsample(&user.trace, Seconds::new(interval));
                let exact = extractor.extract(&owned);
                let indices = sampling::downsample_indices(&user.trace, Seconds::new(interval));
                let planar = extractor.extract_sampled(&projected, &indices);
                assert_eq!(exact, planar, "metric {metric:?}, user {seed}, interval {interval}");
            }
        }
    }
}

/// Golden bit patterns for the geometric primitives. The unit-newtype
/// refactor promised *bit-identical* numerics; these constants were
/// recorded from the raw-scalar implementation and pin that promise
/// against any future "harmless" algebraic rewrite. If one of these
/// fails, the numbers in every figure just silently changed — do not
/// update the constant without understanding why.
#[test]
fn geometric_primitives_match_golden_bits() {
    let a = LatLon::new(39.9042, 116.4074).unwrap();
    let b = LatLon::new(39.95, 116.48).unwrap();
    assert_eq!(haversine(a, b).to_bits(), 0x40bf_5045_8709_b93d, "haversine drifted");
    assert_eq!(
        equirectangular(a, b).to_bits(),
        0x40bf_5045_a98b_0f4c,
        "equirectangular drifted"
    );
    let (x, y) = Frame::new(a).to_enu(b);
    assert_eq!(x.to_bits(), 0x40b8_30c3_4141_58a5, "ENU east drifted");
    assert_eq!(y.to_bits(), 0x40b3_e4bc_13a4_0f9d, "ENU north drifted");
    let d = bearing::destination(a, Degrees::new(45.0), Meters::new(1000.0));
    assert_eq!(d.lat().to_bits(), 0x4043_f48d_3156_a945, "destination lat drifted");
    assert_eq!(d.lon().to_bits(), 0x405d_1a9a_ac11_7fc0, "destination lon drifted");
}

/// Golden digest over a full extraction: every stay's centroid bits and
/// enter/leave seconds folded FNV-style. Pins the end-to-end PoI pipeline
/// (projection, certified planar filter, dwell logic) bit-for-bit — and
/// the streaming engine, driven push-at-a-time with a checkpoint/resume
/// split mid-trace, must land on the same digest.
#[test]
fn extractor_output_matches_golden_digest() {
    let user = generate_user(&SynthConfig::small(), 0);
    for metric in METRICS {
        let extractor = SpatioTemporalExtractor::new(params_with(metric));
        let stays = extractor.extract(&user.trace);
        assert_eq!(stays.len(), 7, "stay count drifted under {metric:?}");
        assert_eq!(
            fnv_digest(&stays),
            0x4a45_fe8a_af42_79f8,
            "extraction digest drifted under {metric:?}"
        );

        // The streaming path (with a serialized suspend/resume at the
        // midpoint) is pinned to the identical golden digest.
        let pts = user.trace.points();
        let split = pts.len() / 2;
        let mut engine = StreamingExtractor::new(params_with(metric));
        let mut streamed: Vec<_> = pts[..split].iter().filter_map(|p| engine.push(*p)).collect();
        let bytes = engine.checkpoint().to_bytes();
        let cp = Checkpoint::from_bytes(&bytes).expect("checkpoint bytes round-trip");
        let mut engine: StreamingExtractor = StreamingExtractor::resume(&cp).expect("checkpoint resumes");
        streamed.extend(pts[split..].iter().filter_map(|p| engine.push(*p)));
        streamed.extend(engine.finish());
        assert_eq!(streamed, stays, "streaming path diverged under {metric:?}");
        assert_eq!(
            fnv_digest(&streamed),
            0x4a45_fe8a_af42_79f8,
            "streaming digest drifted under {metric:?}"
        );
    }
}

fn fnv_digest(stays: &[backwatch::model::poi::Stay]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for s in stays {
        for bits in [
            s.centroid.lat().to_bits(),
            s.centroid.lon().to_bits(),
            s.enter.as_secs() as u64,
            s.leave.as_secs() as u64,
        ] {
            digest = (digest ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

#[test]
fn rotated_extraction_is_bit_identical() {
    let cfg = SynthConfig::small();
    let user = generate_user(&cfg, 3);
    let projected = ProjectedTrace::project(&user.trace);
    for metric in METRICS {
        let extractor = SpatioTemporalExtractor::new(params_with(metric));
        for start in [0, 1, user.trace.len() / 2, user.trace.len() - 1] {
            let owned = sampling::rotate_to_start(&user.trace, start);
            let exact = extractor.extract(&owned);
            let planar = extractor.extract_rotated(&projected, start);
            assert_eq!(exact, planar, "metric {metric:?}, start {start}");
        }
    }
}

/// The SoA column layout must be as invisible as the planar path itself:
/// full, sampled, and rotated extraction through [`SoaProjectedTrace`]
/// are bit-identical to the AoS planar pipeline (and hence, by the tests
/// above, to the lat/lon oracle), under both metrics.
#[test]
fn soa_extraction_is_bit_identical_everywhere() {
    let cfg = SynthConfig::small();
    for seed in 0..3 {
        let user = generate_user(&cfg, seed);
        let projected = ProjectedTrace::project(&user.trace);
        let soa = SoaProjectedTrace::project(&user.trace);
        for metric in METRICS {
            let extractor = SpatioTemporalExtractor::new(params_with(metric));
            assert_eq!(
                extractor.extract_projected(&projected),
                extractor.extract_soa(&soa),
                "full, metric {metric:?}, user {seed}"
            );
            for interval in [1, 60, 7200] {
                let indices = sampling::downsample_indices(&user.trace, Seconds::new(interval));
                assert_eq!(
                    extractor.extract_sampled(&projected, &indices),
                    extractor.extract_sampled_soa(&soa, &indices),
                    "interval {interval}, metric {metric:?}, user {seed}"
                );
            }
            for start in [0, user.trace.len() / 3, user.trace.len() - 1] {
                assert_eq!(
                    extractor.extract_rotated(&projected, start),
                    extractor.extract_rotated_soa(&soa, start),
                    "start {start}, metric {metric:?}, user {seed}"
                );
            }
        }
    }
}

/// Extraction over the column layout lands on the same golden digest as
/// the lat/lon pipeline — both through batch extraction and through the
/// streaming engine fed point-at-a-time from the columns.
#[test]
fn soa_extraction_matches_golden_digest() {
    let user = generate_user(&SynthConfig::small(), 0);
    let projected = ProjectedTrace::project(&user.trace);
    let soa = SoaProjectedTrace::project(&user.trace);
    for metric in METRICS {
        let extractor = SpatioTemporalExtractor::new(params_with(metric));
        let stays = extractor.extract_soa(&soa);
        assert_eq!(stays.len(), 7, "SoA stay count drifted under {metric:?}");
        assert_eq!(
            fnv_digest(&stays),
            0x4a45_fe8a_af42_79f8,
            "SoA extraction digest drifted under {metric:?}"
        );

        let ctx = PlanarCtx::for_soa(&soa, metric);
        let streamed = stream(params_with(metric), soa.iter(), &ctx);
        assert_eq!(
            fnv_digest(&streamed),
            0x4a45_fe8a_af42_79f8,
            "SoA streaming digest drifted under {metric:?}"
        );
        let (certified, refined) = ctx.decision_counts();
        assert!(certified + refined > 0, "no planar decisions recorded under {metric:?}");
        // The same stream read from the AoS layout takes the identical
        // certify-vs-refine branch on every decision.
        let aos_ctx = PlanarCtx::new(&projected, metric);
        let aos_stays = stream(params_with(metric), projected.points().iter().copied(), &aos_ctx);
        assert_eq!(fnv_digest(&aos_stays), 0x4a45_fe8a_af42_79f8);
        assert_eq!(
            aos_ctx.decision_counts(),
            (certified, refined),
            "decision tallies diverged between layouts under {metric:?}"
        );
    }
}

/// One movement step of an adversarially random synthetic trace (dwell /
/// move / session jump); mirrors `streaming_equivalence.rs`.
#[derive(Debug, Clone, Copy)]
enum Step {
    Pause {
        dt: i64,
        jlat: f64,
        jlon: f64,
    },
    Move {
        dt: i64,
        dlat: f64,
        dlon: f64,
    },
    /// A whole visit: `n` fixes `dt` seconds apart with GPS-noise-sized
    /// jitter — up to half an hour, so traces actually produce stays
    /// (runs of single `Pause` steps almost never reach the visiting
    /// time).
    Dwell {
        n: u32,
        dt: i64,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    // the vendored prop_oneof! is unweighted; repeating the Pause arm
    // biases toward dwells so traces actually produce stays
    prop_oneof![
        (1i64..=60, -2e-6f64..2e-6, -2e-6f64..2e-6).prop_map(|(dt, jlat, jlon)| Step::Pause { dt, jlat, jlon }),
        (1i64..=60, -2e-6f64..2e-6, -2e-6f64..2e-6).prop_map(|(dt, jlat, jlon)| Step::Pause { dt, jlat, jlon }),
        (1i64..=60, -2e-6f64..2e-6, -2e-6f64..2e-6).prop_map(|(dt, jlat, jlon)| Step::Pause { dt, jlat, jlon }),
        (1i64..=120, -3e-3f64..3e-3, -3e-3f64..3e-3).prop_map(|(dt, dlat, dlon)| Step::Move { dt, dlat, dlon }),
        (60i64..=7200, -0.05f64..0.05, -0.05f64..0.05).prop_map(|(dt, dlat, dlon)| Step::Move { dt, dlat, dlon }),
        (10u32..=60, 1i64..=30).prop_map(|(n, dt)| Step::Dwell { n, dt }),
    ]
}

fn build_trace(steps: &[Step]) -> Trace {
    let mut t = 0i64;
    let (mut lat, mut lon) = (39.9042f64, 116.4074f64);
    let mut pts = Vec::with_capacity(steps.len());
    for s in steps {
        match *s {
            Step::Pause { dt, jlat, jlon } => {
                t += dt;
                pts.push(TracePoint::new(
                    Timestamp::from_secs(t),
                    LatLon::new(lat + jlat, lon + jlon).unwrap(),
                ));
            }
            Step::Move { dt, dlat, dlon } => {
                t += dt;
                lat = (lat + dlat).clamp(39.5, 40.3);
                lon = (lon + dlon).clamp(116.0, 116.9);
                pts.push(TracePoint::new(Timestamp::from_secs(t), LatLon::new(lat, lon).unwrap()));
            }
            Step::Dwell { n, dt } => {
                for k in 0..n {
                    t += dt;
                    let jitter = f64::from(k % 5) * 1e-6 - 2e-6;
                    pts.push(TracePoint::new(
                        Timestamp::from_secs(t),
                        LatLon::new(lat + jitter, lon - jitter).unwrap(),
                    ));
                }
            }
        }
    }
    Trace::from_points(pts)
}

/// Drives a `ProjectedPoint` streaming engine over `points` against
/// `ctx` (whose decision tallies the caller reads afterwards) and returns
/// the stays, including the one `finish` flushes. The batch extractors
/// delegate to this same engine, so its tallies are theirs too.
fn stream(params: ExtractorParams, points: impl Iterator<Item = ProjectedPoint>, ctx: &PlanarCtx) -> Vec<Stay> {
    let mut engine: StreamingExtractor<ProjectedPoint> = StreamingExtractor::new(params);
    let mut stays: Vec<Stay> = points.filter_map(|p| engine.push_with(p, ctx)).collect();
    stays.extend(engine.finish());
    stays
}

/// One stream's stays and `(certified, refined)` decision tallies.
type Streamed = (Vec<Stay>, (u64, u64));

/// Streams one view of the trace from each layout (`aos_view` over the
/// AoS trace, `soa_view` over the columns), each against a fresh context,
/// and returns both streams' stays and `(certified, refined)` tallies.
fn stream_both_layouts<'a, A, S>(
    params: ExtractorParams,
    projected: &'a ProjectedTrace,
    soa: &'a SoaProjectedTrace,
    aos_view: impl FnOnce(&'a ProjectedTrace) -> A,
    soa_view: impl FnOnce(&'a SoaProjectedTrace) -> S,
) -> (Streamed, Streamed)
where
    A: Iterator<Item = ProjectedPoint>,
    S: Iterator<Item = ProjectedPoint>,
{
    let aos_ctx = PlanarCtx::new(projected, params.metric);
    let aos = stream(params, aos_view(projected), &aos_ctx);
    let soa_ctx = PlanarCtx::for_soa(soa, params.metric);
    let soa_stays = stream(params, soa_view(soa), &soa_ctx);
    ((aos, aos_ctx.decision_counts()), (soa_stays, soa_ctx.decision_counts()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential suite over the column layout: on adversarially random
    /// traces, for every Table III parameter set, the batch `extract_soa`,
    /// `extract_sampled_soa` and `extract_rotated_soa` entry points and a
    /// streaming engine fed from [`SoaProjectedTrace`] views produce the
    /// stays of the AoS `extract_projected` family and of the lat/lon
    /// `extract` oracle on the materialized trace — and the column-fed
    /// engine takes the identical certify-vs-refine branch on every
    /// decision as the AoS-fed one (equal certified/refined tallies).
    #[test]
    fn soa_differential_matches_scalar_oracle(steps in prop::collection::vec(arb_step(), 0..400)) {
        let trace = build_trace(&steps);
        let projected = ProjectedTrace::project(&trace);
        let soa = SoaProjectedTrace::project(&trace);
        let start = trace.len() / 2;
        for params in ExtractorParams::table3_sets() {
            let extractor = SpatioTemporalExtractor::new(params);

            let oracle = extractor.extract(&trace);
            prop_assert_eq!(&extractor.extract_projected(&projected), &oracle, "AoS full, params {:?}", params);
            prop_assert_eq!(&extractor.extract_soa(&soa), &oracle, "SoA full, params {:?}", params);
            let ((aos, aos_tally), (col, col_tally)) =
                stream_both_layouts(params, &projected, &soa, |p| p.points().iter().copied(), |s| s.iter());
            prop_assert_eq!(&aos, &oracle, "AoS stream, params {:?}", params);
            prop_assert_eq!(&col, &oracle, "SoA stream, params {:?}", params);
            prop_assert_eq!(aos_tally, col_tally, "full tallies diverged, params {:?}", params);

            for interval in [60, 600] {
                let indices = sampling::downsample_indices(&trace, Seconds::new(interval));
                let oracle = extractor.extract(&sampling::downsample(&trace, Seconds::new(interval)));
                let at = format!("interval {interval}, params {params:?}");
                prop_assert_eq!(&extractor.extract_sampled(&projected, &indices), &oracle, "AoS sampled, {}", at);
                prop_assert_eq!(&extractor.extract_sampled_soa(&soa, &indices), &oracle, "SoA sampled, {}", at);
                let ((aos, aos_tally), (col, col_tally)) =
                    stream_both_layouts(params, &projected, &soa, |p| p.sampled(&indices), |s| s.sampled(&indices));
                prop_assert_eq!(&aos, &oracle, "AoS sampled stream, {}", at);
                prop_assert_eq!(&col, &oracle, "SoA sampled stream, {}", at);
                prop_assert_eq!(aos_tally, col_tally, "sampled tallies diverged, {}", at);
            }

            let oracle = extractor.extract(&sampling::rotate_to_start(&trace, start));
            prop_assert_eq!(&extractor.extract_rotated(&projected, start), &oracle, "AoS rotated, params {:?}", params);
            prop_assert_eq!(&extractor.extract_rotated_soa(&soa, start), &oracle, "SoA rotated, params {:?}", params);
            let ((aos, aos_tally), (col, col_tally)) =
                stream_both_layouts(params, &projected, &soa, |p| p.rotated_from(start), |s| s.rotated_from(start));
            prop_assert_eq!(&aos, &oracle, "AoS rotated stream, params {:?}", params);
            prop_assert_eq!(&col, &oracle, "SoA rotated stream, params {:?}", params);
            prop_assert_eq!(aos_tally, col_tally, "rotated tallies diverged, params {:?}", params);
        }
    }
}
