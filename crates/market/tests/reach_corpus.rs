//! Classification half of the shared IR fixture corpus: fixtures under
//! `crates/android/tests/ir_corpus/` that carry a second `#class:`
//! directive are run through [`backwatch_market::reach::analyze_program`]
//! against a fixed standard manifest, and the assigned reachability class
//! must match the directive. The parse-side contract (parse-or-counted-
//! error, never panic) lives in the android crate's `ir_corpus` test;
//! this one pins the *semantics* — cycles terminate, dead sinks stay
//! non-accessor, sink-named app methods are not sinks, missing entry
//! classes are counted and skipped.
//!
//! The test lives here rather than in the android crate because reach
//! analysis is a market concern and android must not depend on market.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_android::app::{Component, ComponentKind, Manifest, ManifestBuilder, ACTION_BOOT_COMPLETED, ACTION_MAIN};
use backwatch_android::ir;
use backwatch_android::permission::Permission;
use backwatch_market::reach;
use std::fs;
use std::path::PathBuf;

/// The standard manifest every classification fixture is analyzed under:
/// full location claim plus one component of each kind, so fixtures can
/// exercise any entry bucket by defining (or omitting) the matching class.
fn standard_manifest() -> Manifest {
    let mut b = ManifestBuilder::new("com.fix.app");
    b.add_permission(Permission::AccessFineLocation);
    b.add_permission(Permission::AccessCoarseLocation);
    b.add_permission(Permission::ReceiveBootCompleted);
    b.add_component(Component::new(ComponentKind::Activity, ".MainActivity").with_action(ACTION_MAIN));
    b.add_component(Component::new(ComponentKind::Service, ".LocationService"));
    b.add_component(Component::new(ComponentKind::Receiver, ".BootReceiver").with_action(ACTION_BOOT_COMPLETED));
    b.build()
}

fn class_directive(text: &str) -> Option<&str> {
    text.lines().nth(1)?.strip_prefix("#class:").map(str::trim)
}

#[test]
fn fixture_classes_match_their_directives() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../android/tests/ir_corpus");
    let manifest = standard_manifest();
    let mut fixtures: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("shared ir_corpus directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir"))
        .collect();
    fixtures.sort();

    let mut classified = 0usize;
    for path in fixtures {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_owned();
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: unreadable fixture: {e}"));
        let Some(want) = class_directive(&text) else {
            continue;
        };
        let program = ir::parse(&text).unwrap_or_else(|e| panic!("{name}: #class fixture must parse: {e}"));
        let analysis = reach::analyze_program(&manifest, &program);
        assert_eq!(analysis.finding.class.name(), want, "{name}: wrong reachability class");
        classified += 1;

        // every declared component missing from the program is counted
        let present = |suffix: &str| program.classes.iter().any(|c| c.name == format!("com/fix/app/{suffix}"));
        let expected_missing = 3
            - usize::from(present("MainActivity"))
            - usize::from(present("LocationService"))
            - usize::from(present("BootReceiver"));
        assert_eq!(
            analysis.missing_components, expected_missing,
            "{name}: wrong missing-component count"
        );
    }
    assert!(
        classified >= 13,
        "only {classified} fixtures carry a #class: directive — expected the full classification set"
    );
}
