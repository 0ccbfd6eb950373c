//! End-to-end and per-layer benchmark for the backwatch workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <profile|reidentify|market|ingest|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, times its production
//! entry points for `--seconds`, checks the outputs outside the timed
//! phase, and prints one JSON object as its last line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! passes and reports the per-layer metrics (span self times from the
//! benchmark's own spans around calls into each layer, counter deltas from
//! `backwatch_obs`). METRICS.md maps each layer metric to the end-to-end
//! metric it should move.

mod harness;
mod ingest;
mod market;
mod profile;
mod reidentify;
mod spans;

use harness::{Ctx, Report};
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// the workload does not exercise reads 0.
pub const LAYER: &[(&str, &str)] = &[
    // every workload
    ("cpu_util", "ratio"),
    ("trace_overhead", "ratio"),
    ("trace.attributed_ratio", "ratio"),
    ("trace.spans_total", "count"),
    // profile (and the per-user stage of reidentify)
    ("trace.synth.generate_s", "s"),
    ("trace.synth.points_total", "count"),
    ("trace.project_s", "s"),
    ("trace.sampling.downsample_s", "s"),
    ("core.poi.extract_s", "s"),
    ("core.poi.passes_total", "count"),
    ("core.poi.points_total", "count"),
    ("core.poi.stays_total", "count"),
    ("core.poi.refine_ratio", "ratio"),
    ("core.poi.decisions_total", "count"),
    ("core.poi.simd_lanes_chunks_total", "count"),
    ("core.pattern.profile_s", "s"),
    ("core.metrics.impact_s", "s"),
    ("core.hisbin.detect_s", "s"),
    ("core.hisbin.compares_total", "count"),
    ("stats.chi2.evals_total", "count"),
    // reidentify
    ("core.leakage.candidates_s", "s"),
    ("core.leakage.candidates_p50_ms", "ms"),
    ("core.leakage.candidates_tail_ms", "ms"),
    ("core.leakage.candidates_tail_pct", "%"),
    ("core.leakage.candidates_samples", "count"),
    ("core.leakage.candidate_sets_total", "count"),
    ("core.leakage.candidates_total", "count"),
    ("core.leakage.candidates_per_query", "ratio"),
    ("core.leakage.observations_total", "count"),
    ("core.leakage.fixes_leaked_total", "count"),
    ("core.leakage.observe_s", "s"),
    ("core.leakage.coordset_s", "s"),
    ("core.adversary.infer_s", "s"),
    ("core.hisbin.compare_s", "s"),
    // market
    ("market.sweep.cold_s", "s"),
    ("market.sweep.incremental_s", "s"),
    ("market.corpus.app_at_s", "s"),
    ("market.summary.app_digest_s", "s"),
    ("market.summary.analyze_cached_s", "s"),
    ("market.reach.cache_hits_total", "count"),
    ("market.reach.cache_misses_total", "count"),
    ("market.summary.hit_rate", "ratio"),
    ("android.ir.apps_lowered_total", "count"),
    ("android.ir.programs_parsed_total", "count"),
    ("market.reach.apps_classified_total", "count"),
    ("market.taint.apps_classified_total", "count"),
    ("market.reach.apps_reanalyzed_total", "count"),
    ("market.sweep.version_changed_total", "count"),
    ("market.sweep.reanalyze_ratio", "ratio"),
    ("market.reach.oracle_s", "s"),
    ("market.taint.oracle_s", "s"),
    // ingest
    ("serve.ingest_s", "s"),
    ("serve.shard.fixes_total", "count"),
    ("serve.shard.stays_total", "count"),
    ("serve.shard.users_current", "count"),
    ("core.stream.points_pushed_total", "count"),
    ("core.stream.peak_buffer_current", "count"),
    ("serve.snapshot_p50_ms", "ms"),
    ("serve.snapshot_max_ms", "ms"),
    ("serve.snapshot_samples", "count"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.restore_ms", "ms"),
    ("serve.finish_ms", "ms"),
    ("ingest.pace_wait_s", "s"),
    ("ingest.p50_us_2m", "us"),
    ("ingest.p99_us_2m", "us"),
    ("ingest.samples_2m", "count"),
    ("ingest.p99_us_5m", "us"),
    ("ingest.samples_5m", "count"),
    ("ingest.gen_late_max_us_2m", "us"),
    ("ingest.gen_late_max_us_5m", "us"),
    ("ingest.backlog_max_fixes_2m", "count"),
    ("ingest.backlog_max_fixes_5m", "count"),
];

const WORKLOADS: [&str; 4] = ["profile", "reidentify", "market", "ingest"];

fn run_workload(name: &str, ctx: &Ctx) -> Report {
    match name {
        "profile" => profile::run(ctx),
        "reidentify" => reidentify::run(ctx),
        "market" => market::run(ctx),
        "ingest" => ingest::run(ctx),
        other => unreachable!("workload {other} was validated by the argument parser"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?} or all"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Runs every workload in a child process of its own and forwards their output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match out {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("perfbench: workload {w} failed to start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let report = run_workload(&args.workload, &ctx);
    let record = harness::run_record(&args.workload, &ctx, &report);
    println!("run_record {record}");
    for line in report.human_lines() {
        println!("{line}");
    }
    if let Err(e) = harness::save(&args.workload, &ctx, &record, &report) {
        eprintln!("perfbench: could not write the run record: {e}");
    }
    // A failed output check is reported through `correct` and `failed`,
    // not through the exit code.
    println!("{}", report.result_json(if ctx.trace { LAYER } else { E2E }));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool, corrupt: bool) -> Ctx {
        Ctx {
            tiny: true,
            corrupt,
            ..Ctx::new(7, 0.0, trace)
        }
    }

    #[test]
    fn every_metric_prints_with_its_unit_and_checks_pass() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let report = run_workload(w, &tiny(trace, false));
                assert!(report.attempted > 0, "{w}: no checked operations");
                assert_eq!(report.failed, 0, "{w} (trace {trace}): {:?}", report.human_lines());
                let set = if trace { LAYER } else { E2E };
                let json = report.result_json(set);
                assert!(json.starts_with("{\"correct\": true,"), "{w}: {json}");
                for (name, unit) in set {
                    let field = format!("\"{name}\": {{\"value\": ");
                    assert!(json.contains(&field), "{w}: {name} missing");
                    assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{w}: unit {unit} missing");
                }
                if !trace {
                    for (name, _) in E2E {
                        let v = report.value(name).unwrap_or(0.0);
                        assert!(v.is_finite() && v > 0.0, "{w}: end-to-end metric {name} = {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_corrupted_output_counts_as_a_failure() {
        for w in WORKLOADS {
            let report = run_workload(w, &tiny(false, true));
            assert!(report.failed > 0, "{w}: corrupted output passed the checks");
            assert!(report.result_json(E2E).starts_with("{\"correct\": false,"), "{w}");
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let declared = include_str!("../../BENCHMARK.json");
        for (name, unit) in E2E.iter().chain(LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            declared.matches("\"name\": ").count(),
            E2E.len() + LAYER.len() + WORKLOADS.len()
        );
    }
}
