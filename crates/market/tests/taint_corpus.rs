//! Taint half of the shared IR fixture corpus: fixtures under
//! `crates/android/tests/ir_corpus/` carrying a `#taint:` directive are
//! run through [`backwatch_market::taint::analyze_program`] against the
//! same standard manifest `reach_corpus` uses, and the assigned taint
//! class label must match the directive. Fixtures that additionally
//! declare `#taint-sdk: shared` get the shared SDK fragment's classes
//! composed in first — the source→SDK-forwarder→network flow the ad-SDK
//! aggregation literature singles out.
//!
//! Every fixture is checked against the refinement contract too: the
//! taint class may narrow the reachability class, never contradict it.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_android::app::{Component, ComponentKind, Manifest, ManifestBuilder, ACTION_BOOT_COMPLETED, ACTION_MAIN};
use backwatch_android::ir;
use backwatch_android::permission::Permission;
use backwatch_market::{reach, taint};
use std::fs;
use std::path::PathBuf;

/// Mirror of `reach_corpus`'s standard manifest.
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

fn directive<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .take_while(|l| l.starts_with('#'))
        .find_map(|l| l.strip_prefix(key))
        .map(str::trim)
}

#[test]
fn fixture_taint_classes_match_their_directives() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../android/tests/ir_corpus");
    let manifest = standard_manifest();
    let mut fixtures: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("shared ir_corpus directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir"))
        .collect();
    fixtures.sort();

    let mut checked = 0usize;
    for path in fixtures {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_owned();
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: unreadable fixture: {e}"));
        let Some(want) = directive(&text, "#taint:") else {
            continue;
        };
        let mut program = ir::parse(&text).unwrap_or_else(|e| panic!("{name}: #taint fixture must parse: {e}"));
        if let Some(sdk) = directive(&text, "#taint-sdk:") {
            assert_eq!(sdk, "shared", "{name}: only the shared fragment is composable");
            let fragment = backwatch_market::sdk::shared();
            program.classes.extend(fragment.program().classes.iter().cloned());
        }
        let reach_class = reach::analyze_program(&manifest, &program).finding.class;
        let taint_class = taint::analyze_program(&manifest, &program, reach_class);
        assert_eq!(taint_class.label(), want, "{name}: wrong taint class");
        assert!(
            taint_class.refines(reach_class),
            "{name}: taint class {taint_class} contradicts reachability {reach_class}"
        );
        checked += 1;
    }
    assert!(
        checked >= 6,
        "only {checked} fixtures carry a #taint: directive — expected the full adversarial taint set"
    );
}
