//! End-to-end self-tests: the lint fires on the bad fixture, the real
//! workspace is clean under the allowlist, and the allowlist can only
//! shrink.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_lint::{load_allowlist, run, workspace_files};
use std::path::{Path, PathBuf};

fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    crate_dir().join("../..").canonicalize().expect("workspace root exists")
}

/// The fixture trips every rule id at least once, and nothing fires from
/// its comments, string literals, or `#[cfg(test)]` module.
#[test]
fn fixture_trips_every_rule() {
    let fixture = crate_dir().join("fixtures/bad.rs");
    let report = run(&crate_dir(), &[fixture], None, true).expect("fixture scan runs");
    let ids: Vec<&str> = report.violations.iter().map(|v| v.id).collect();
    for id in [
        "US001", "PF001", "PF002", "PF003", "PF004", "TM001", "TM002", "TM003", "TM004",
    ] {
        assert!(ids.contains(&id), "fixture did not trip {id}: {ids:?}");
    }
    // exactly two unit-safety hits (radius_m, interval) — `n: usize` is fine
    assert_eq!(ids.iter().filter(|&&i| i == "US001").count(), 2, "{ids:?}");
    // the decoy comment/string/test lines must not fire: exactly one of
    // each panic-freedom id
    for id in ["PF001", "PF002", "PF003", "PF004"] {
        assert_eq!(
            ids.iter().filter(|&&i| i == id).count(),
            1,
            "{id} fired more than once: {ids:?}"
        );
    }
    // diagnostics carry a location and a suggestion
    for v in &report.violations {
        assert!(v.line > 0);
        assert!(!v.suggestion.is_empty());
        assert!(v.file.ends_with("fixtures/bad.rs"));
    }
}

/// The shipped workspace passes `--deny-all`: no violations survive the
/// allowlist and no allowlist entry is stale.
#[test]
fn workspace_is_clean_under_the_allowlist() {
    let root = workspace_root();
    let files = workspace_files(&root).expect("workspace walk");
    assert!(files.len() > 60, "workspace walk found only {} files", files.len());
    let allowlist = load_allowlist(&root.join("lint-allow.toml")).expect("allowlist parses");
    let report = run(&root, &files, Some(&allowlist), false).expect("workspace scan runs");
    let rendered: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
    assert!(
        report.violations.is_empty(),
        "workspace has unallowlisted violations:\n{}",
        rendered.join("\n")
    );
    let stale: Vec<String> = report
        .unused_entries
        .iter()
        .map(|e| format!("lint-allow.toml:{} {} ({})", e.line, e.file, e.rule))
        .collect();
    assert!(stale.is_empty(), "stale allowlist entries:\n{}", stale.join("\n"));
}

/// The allowlist may only shrink. If you legitimately need a new entry,
/// lower this is not an option — fix the code instead, or make the case
/// in review and update the pin alongside the new justified entry.
#[test]
fn allowlist_count_is_pinned() {
    let root = workspace_root();
    let allowlist = load_allowlist(&root.join("lint-allow.toml")).expect("allowlist parses");
    const PINNED: usize = 25;
    assert!(
        allowlist.entries.len() <= PINNED,
        "lint-allow.toml grew to {} entries (pinned at {PINNED}); fix the code instead of suppressing",
        allowlist.entries.len()
    );
    // every entry names a file that still exists
    for e in &allowlist.entries {
        assert!(
            Path::new(&root).join(&e.file).is_file(),
            "lint-allow.toml:{} points at missing file {}",
            e.line,
            e.file
        );
    }
}

/// The newtype refactor holds: without any allowlist, the only raw
/// unit-named scalar left in a public API is `epsilon_per_m` (dimension
/// 1/m — there is no newtype for it, and wrapping it in `Meters` would
/// lie). Everything else takes `Meters`/`Seconds`/`Degrees`.
#[test]
fn unit_safety_violations_are_exactly_the_known_exception() {
    let root = workspace_root();
    let files = workspace_files(&root).expect("workspace walk");
    let report = run(&root, &files, None, false).expect("workspace scan runs");
    let unit: Vec<&backwatch_lint::Violation> = report.violations.iter().filter(|v| v.id == "US001").collect();
    for v in &unit {
        assert!(
            v.message.contains("epsilon_per_m"),
            "new raw unit-named scalar in a public API:\n{v}"
        );
    }
}

/// The lint stays fast enough to sit in the inner loop (`./ci` runs it
/// before the bench smokes; EXPERIMENTS.md records the budget).
#[test]
fn full_workspace_pass_stays_under_two_seconds() {
    let root = workspace_root();
    let started = std::time::Instant::now();
    let files = workspace_files(&root).expect("workspace walk");
    let _ = run(&root, &files, None, false).expect("workspace scan runs");
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs_f64() < 2.0, "lint pass took {elapsed:?}, budget is 2 s");
}
