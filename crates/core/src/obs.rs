//! Telemetry for the privacy-model pipeline.
//!
//! The statics here are bumped by the PoI extractor and the His_bin
//! matcher; [`register`] publishes them to the `backwatch-obs` registry so
//! report binaries can render them. The split between
//! [`POI_PLANAR_CERTIFIED`] and [`POI_PLANAR_REFINED`] is the measured form
//! of DESIGN.md §5d's claim that the certified planar filter "almost never"
//! falls back to the exact metric: integration tests assert the refined
//! fraction stays below 1 % on the synthetic city dataset.

use backwatch_obs::{register_counter, register_gauge, Counter, Gauge};
use std::sync::Once;

/// Extraction passes completed (one per `extract*` call).
pub static POI_PASSES: Counter = Counter::new();
/// Trace fixes consumed across all extraction passes.
pub static POI_POINTS: Counter = Counter::new();
/// PoI visits (stays) emitted across all extraction passes.
pub static POI_STAYS: Counter = Counter::new();
/// Planar radius decisions settled by the certified filter alone.
pub static POI_PLANAR_CERTIFIED: Counter = Counter::new();
/// Planar radius decisions that fell back to the exact spherical metric.
pub static POI_PLANAR_REFINED: Counter = Counter::new();
/// His_bin chi-square profile comparisons evaluated.
pub static HISBIN_COMPARES: Counter = Counter::new();
/// Chi-square critical values solved by the His_bin matcher (one per
/// per-thread memo miss).
pub static HISBIN_CRITICAL_SOLVES: Counter = Counter::new();
/// Fixes pushed through streaming extraction engines. Batch `extract*`
/// calls ride the same engine, so this also counts their fixes.
pub static STREAM_POINTS: Counter = Counter::new();
/// Stays emitted by streaming engines (incremental and finish-flushed).
pub static STREAM_STAYS: Counter = Counter::new();
/// Checkpoints serialized from streaming engines.
pub static STREAM_CHECKPOINTS: Counter = Counter::new();
/// Engines reconstructed from checkpoints.
pub static STREAM_RESUMES: Counter = Counter::new();
/// Checkpoint byte streams rejected by decode or resume (truncation, bad
/// magic, malformed layout, invalid points). A serving layer alerts on
/// this: a non-zero rate means stored shard state is corrupt.
pub static STREAM_DECODE_FAILURES: Counter = Counter::new();
/// Advisory high-water mark of fixes buffered by any single streaming
/// engine (entry/exit windows; the PoI accumulator is constant-size).
pub static STREAM_PEAK_BUFFER: Gauge = Gauge::new();
/// SDK pools merged by the cross-app adversary (one per shared-SDK group
/// with at least one collecting member).
pub static POOL_MERGES: Counter = Counter::new();
/// Per-app fix streams folded into pooled streams.
pub static POOL_STREAMS: Counter = Counter::new();
/// Fixes in merged pooled streams (after cross-app deduplication).
pub static POOL_FIXES: Counter = Counter::new();
/// Fixes observed by more than one pooled app and collapsed by the merge.
pub static POOL_DUPLICATES: Counter = Counter::new();
/// SDK-member apps that contributed no fixes (embedded but never ran).
pub static POOL_SILENT: Counter = Counter::new();
/// Pooled-stream replays in which His_bin fired against the target.
pub static POOL_DETECTIONS: Counter = Counter::new();
/// Traffic-leakage channel applications (one per observed trace).
pub static LEAK_OBSERVATIONS: Counter = Counter::new();
/// Fixes that crossed the leakage channel (sampled, then truncated).
pub static LEAK_FIXES: Counter = Counter::new();
/// Candidate-set queries answered by the containment adversary.
pub static LEAK_CANDIDATE_SETS: Counter = Counter::new();
/// Total candidates across all containment queries.
pub static LEAK_CANDIDATES: Counter = Counter::new();
/// Degenerate all-zero weight vectors in the anonymity posterior,
/// recovered with a uniform posterior instead of panicking.
pub static ANONYMITY_DEGENERATE: Counter = Counter::new();

/// Registers this crate's metrics with the global registry. Idempotent and
/// cheap (a `Once`); called from the extractor and matcher constructors so
/// any pipeline that runs them is observable without further wiring.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        register_counter("core.poi.passes_total", "PoI extraction passes completed", &POI_PASSES);
        register_counter("core.poi.points_total", "trace fixes consumed by PoI extraction", &POI_POINTS);
        register_counter("core.poi.stays_total", "PoI visits emitted", &POI_STAYS);
        register_counter(
            "core.poi.planar_certified_total",
            "planar radius decisions settled by the certified filter",
            &POI_PLANAR_CERTIFIED,
        );
        register_counter(
            "core.poi.planar_refined_total",
            "planar radius decisions refined via the exact metric",
            &POI_PLANAR_REFINED,
        );
        register_counter(
            "core.hisbin.compares_total",
            "His_bin chi-square comparisons",
            &HISBIN_COMPARES,
        );
        register_counter(
            "core.hisbin.critical_solves_total",
            "His_bin chi-square critical values solved (memo misses)",
            &HISBIN_CRITICAL_SOLVES,
        );
        register_counter(
            "core.stream.points_pushed_total",
            "fixes pushed through streaming extraction engines",
            &STREAM_POINTS,
        );
        register_counter(
            "core.stream.stays_emitted_total",
            "stays emitted by streaming engines",
            &STREAM_STAYS,
        );
        register_counter(
            "core.stream.checkpoints_total",
            "checkpoints serialized from streaming engines",
            &STREAM_CHECKPOINTS,
        );
        register_counter(
            "core.stream.resumes_total",
            "engines reconstructed from checkpoints",
            &STREAM_RESUMES,
        );
        register_counter(
            "core.stream.decode_failures_total",
            "checkpoint byte streams rejected by decode or resume",
            &STREAM_DECODE_FAILURES,
        );
        register_gauge(
            "core.stream.peak_buffer_current",
            "high-water mark of fixes buffered by a streaming engine",
            &STREAM_PEAK_BUFFER,
        );
        register_counter("core.pool_adversary.merges_total", "SDK pools merged", &POOL_MERGES);
        register_counter(
            "core.pool_adversary.pooled_streams_total",
            "per-app fix streams folded into pools",
            &POOL_STREAMS,
        );
        register_counter(
            "core.pool_adversary.pooled_fixes_total",
            "fixes in merged pooled streams",
            &POOL_FIXES,
        );
        register_counter(
            "core.pool_adversary.duplicate_fixes_total",
            "cross-app duplicate fixes collapsed by the merge",
            &POOL_DUPLICATES,
        );
        register_counter(
            "core.pool_adversary.silent_members_total",
            "SDK members that contributed no fixes",
            &POOL_SILENT,
        );
        register_counter(
            "core.pool_adversary.detections_total",
            "pooled replays in which His_bin fired",
            &POOL_DETECTIONS,
        );
        register_counter(
            "core.leakage.observations_total",
            "traffic-leakage channel applications",
            &LEAK_OBSERVATIONS,
        );
        register_counter(
            "core.leakage.fixes_leaked_total",
            "fixes that crossed the leakage channel",
            &LEAK_FIXES,
        );
        register_counter(
            "core.leakage.candidate_sets_total",
            "containment candidate-set queries",
            &LEAK_CANDIDATE_SETS,
        );
        register_counter(
            "core.leakage.candidates_total",
            "candidates across all containment queries",
            &LEAK_CANDIDATES,
        );
        register_counter(
            "core.anonymity.degenerate_weights_total",
            "all-zero weight vectors recovered with a uniform posterior",
            &ANONYMITY_DEGENERATE,
        );
    });
}

/// Fraction of planar radius decisions that needed the exact-metric
/// refinement, over everything recorded so far; `0.0` before any decision.
#[must_use]
pub fn planar_refined_fraction() -> f64 {
    let refined = POI_PLANAR_REFINED.get();
    let total = refined + POI_PLANAR_CERTIFIED.get();
    if total == 0 {
        0.0
    } else {
        refined as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        register();
        register();
        let snap = backwatch_obs::snapshot();
        // under backwatch-obs's `disabled` feature the registry stays empty
        if !snap.samples.is_empty() {
            assert!(snap.counter("core.poi.passes_total").is_some());
            assert!(snap.counter("core.hisbin.compares_total").is_some());
        }
    }

    #[test]
    fn refined_fraction_is_a_fraction() {
        let f = planar_refined_fraction();
        assert!((0.0..=1.0).contains(&f));
    }
}
