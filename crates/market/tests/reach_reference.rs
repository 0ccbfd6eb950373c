//! Reference differential for the reachability classifier. The market
//! crate classifies every app in one place — the uncached path and the
//! cached sweep share it — so the two can no longer disagree with each
//! other; this suite keeps an *independent* oracle instead: a plain,
//! deliberately naive BFS straight over the IR instructions (no
//! summaries, no ids, no fragment folding) that states the classification
//! rules once more from scratch. It must agree with the analyzer on class,
//! provider set and missing-component count for:
//!
//! - random programs under random manifests (call cycles, dead sinks,
//!   app methods named like sinks, framework calls, missing component
//!   classes, every entry bucket, with and without the permission gate);
//! - every `#class:` fixture of the shared IR corpus;
//! - a scaled corpus with a 60 % SDK share plus a host linking the
//!   sink-bearing fragment, through both the uncached and cached paths.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_android::app::{Component, ComponentKind, Manifest, ManifestBuilder, ACTION_BOOT_COMPLETED, ACTION_MAIN};
use backwatch_android::ir::{self, IrClass, IrInstr, IrMethod, IrProgram};
use backwatch_android::permission::Permission;
use backwatch_android::provider::ProviderKind;
use backwatch_market::corpus::{generate, CorpusConfig};
use backwatch_market::reach::{self, ReachClass, ALL_CLASSES};
use backwatch_market::sdk;
use backwatch_market::summary::{analyze_entry_cached, SummaryCache};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::path::PathBuf;

// --- the reference ------------------------------------------------------

/// What the reference assigns one program under one manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    class: ReachClass,
    providers: BTreeSet<ProviderKind>,
    missing_components: usize,
}

/// The body of `(class, method)`, when the program defines it.
fn body<'p>(program: &'p IrProgram, class: &str, method: &str) -> Option<&'p [IrInstr]> {
    program.class(class)?.method(method).map(|m| m.instrs.as_slice())
}

/// Every defined `(class, method)` reachable from `entries`. Calls into
/// anything the program does not define (framework classes, the sinks
/// themselves, missing methods) are not followed.
fn reached(program: &IrProgram, entries: &[(String, String)]) -> BTreeSet<(String, String)> {
    let mut visited = BTreeSet::new();
    let mut queue: VecDeque<(String, String)> = entries.iter().cloned().collect();
    while let Some((class, method)) = queue.pop_front() {
        let Some(instrs) = body(program, &class, &method) else {
            continue;
        };
        if !visited.insert((class, method)) {
            continue;
        }
        for instr in instrs {
            if let IrInstr::Invoke { class, method } = instr {
                queue.push_back((class.clone(), method.clone()));
            }
        }
    }
    visited
}

/// Whether one method body invokes a sink, and the providers it
/// evidences: provider-named string constants next to a
/// `LocationManager` sink, the fused provider for a fused-client sink.
fn evidence(instrs: &[IrInstr]) -> (bool, BTreeSet<ProviderKind>) {
    let invokes_sink_on = |host: &str| {
        instrs
            .iter()
            .any(|i| matches!(i, IrInstr::Invoke { class, method } if class == host && ir::is_sink(class, method)))
    };
    let manager = invokes_sink_on(ir::LOCATION_MANAGER_CLASS);
    let fused = invokes_sink_on(ir::FUSED_CLIENT_CLASS);
    let mut providers = BTreeSet::new();
    if manager {
        for instr in instrs {
            if let IrInstr::ConstString(s) = instr {
                providers.extend(s.parse::<ProviderKind>().ok());
            }
        }
    }
    if fused {
        providers.insert(ProviderKind::Fused);
    }
    (manager || fused, providers)
}

/// The classification rules, stated from scratch: each declared
/// component whose class exists contributes its lifecycle entries to the
/// bucket of the class it would earn (boot receivers need the boot
/// permission; other receivers count as foreground); the strongest
/// bucket that reaches a sink decides, behind the permission gate.
fn reference(manifest: &Manifest, program: &IrProgram) -> Verdict {
    let boot_permitted = manifest.permissions().contains(&Permission::ReceiveBootCompleted);
    let mut buckets: BTreeMap<ReachClass, Vec<(String, String)>> = BTreeMap::new();
    let mut missing_components = 0;
    for component in manifest.components() {
        let class = component.class_path(manifest.package());
        if program.class(&class).is_none() {
            missing_components += 1;
            continue;
        }
        let earns = match component.kind {
            ComponentKind::Receiver if component.is_boot_receiver() && boot_permitted => ReachClass::AutoStart,
            ComponentKind::Service => ReachClass::BackgroundCapable,
            ComponentKind::Activity | ComponentKind::Receiver => ReachClass::ForegroundOnly,
        };
        let entries = buckets.entry(earns).or_default();
        for method in ir::entry_methods(component.kind) {
            entries.push((class.clone(), (*method).to_owned()));
        }
    }
    let mut class = ReachClass::NonAccessor;
    let mut providers = BTreeSet::new();
    if manifest.location_claim().declares_location() {
        for (earns, entries) in &buckets {
            for (c, m) in reached(program, entries) {
                let (sink, evidenced) = evidence(body(program, &c, &m).unwrap_or_default());
                if sink {
                    class = class.max(*earns);
                    providers.extend(evidenced);
                }
            }
        }
    }
    Verdict {
        class,
        providers,
        missing_components,
    }
}

/// The analyzer's verdict on the same input.
fn analyzed(manifest: &Manifest, program: &IrProgram) -> Verdict {
    let a = reach::analyze_program(manifest, program);
    Verdict {
        class: a.finding.class,
        providers: a.finding.providers,
        missing_components: a.missing_components,
    }
}

// --- random programs ----------------------------------------------------

/// Class pool: the four component classes the random manifests declare
/// (activity, service, boot receiver, plain receiver), then two helpers.
const CLASSES: [&str; 6] = [
    "com/t/app/Main",
    "com/t/app/Tracker",
    "com/t/app/Boot",
    "com/t/app/Inbox",
    "com/t/app/Helper",
    "com/t/app/Util",
];

/// Method pool: every lifecycle entry name, two helpers, and two app
/// methods that share a sink's name without being sinks.
const METHODS: [&str; 10] = [
    "onCreate",
    "onStart",
    "onResume",
    "onClick",
    "onStartCommand",
    "onReceive",
    "fetch",
    "retry",
    "requestLocationUpdates",
    "getLastKnownLocation",
];

const CONSTS: [&str; 5] = ["gps", "network", "passive", "fused", "hello"];

/// Framework calls that are not sinks, one on a sink's own class.
const FRAMEWORK: [(&str, &str); 2] = [("android/util/Log", "d"), (ir::LOCATION_MANAGER_CLASS, "getProvider")];

fn invoke(class: &str, method: &str) -> IrInstr {
    IrInstr::Invoke {
        class: class.to_owned(),
        method: method.to_owned(),
    }
}

fn instr((kind, c, m, k): (u8, usize, usize, usize)) -> IrInstr {
    match kind {
        // app calls: cycles, calls into absent methods and classes
        0..=4 => invoke(CLASSES[c], METHODS[m]),
        5 | 6 => {
            let (class, method) = ir::SINKS[m % ir::SINKS.len()];
            invoke(class, method)
        }
        7 => {
            let (class, method) = FRAMEWORK[m % FRAMEWORK.len()];
            invoke(class, method)
        }
        8 | 9 => IrInstr::ConstString(CONSTS[k].to_owned()),
        _ => IrInstr::MoveResult,
    }
}

type ClassDraw = (bool, Vec<(bool, Vec<(u8, usize, usize, usize)>)>);

fn program(draws: Vec<ClassDraw>) -> IrProgram {
    let classes = draws
        .into_iter()
        .zip(CLASSES)
        .filter(|((present, _), _)| *present)
        .map(|((_, methods), name)| {
            let methods = methods
                .into_iter()
                .zip(METHODS)
                .filter(|((present, _), _)| *present)
                .map(|((_, body), m)| IrMethod::new(m, body.into_iter().map(instr).collect()))
                .collect();
            IrClass::new(name, methods)
        })
        .collect();
    IrProgram { classes }
}

fn program_strategy() -> impl Strategy<Value = IrProgram> {
    let body = prop::collection::vec(
        (0u8..12, 0usize..CLASSES.len(), 0usize..METHODS.len(), 0usize..CONSTS.len()),
        0..5,
    );
    let class = (
        prop_oneof![Just(true), Just(true), Just(true), Just(false)],
        prop::collection::vec((any::<bool>(), body), METHODS.len()),
    );
    prop::collection::vec(class, CLASSES.len()).prop_map(program)
}

/// A manifest under package `com.t.app`: location claim 0 = none,
/// 1 = coarse, otherwise fine; `declared` picks the activity, service,
/// boot receiver and plain receiver.
fn manifest(claim: u8, boot_permitted: bool, declared: [bool; 4]) -> Manifest {
    let mut b = ManifestBuilder::new("com.t.app");
    b.add_permission(Permission::Internet);
    match claim {
        0 => {}
        1 => b.add_permission(Permission::AccessCoarseLocation),
        _ => b.add_permission(Permission::AccessFineLocation),
    }
    if boot_permitted {
        b.add_permission(Permission::ReceiveBootCompleted);
    }
    let components = [
        Component::new(ComponentKind::Activity, ".Main").with_action(ACTION_MAIN),
        Component::new(ComponentKind::Service, ".Tracker"),
        Component::new(ComponentKind::Receiver, ".Boot").with_action(ACTION_BOOT_COMPLETED),
        Component::new(ComponentKind::Receiver, ".Inbox"),
    ];
    for (component, declared) in components.into_iter().zip(declared) {
        if declared {
            b.add_component(component);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The analyzer agrees with the reference on random programs.
    #[test]
    fn analyzer_matches_the_reference_on_random_programs(
        program in program_strategy(),
        claim in 0u8..4,
        boot_permitted in prop_oneof![Just(true), Just(true), Just(false)],
        declared in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let manifest = manifest(claim, boot_permitted, [declared.0, declared.1, declared.2, declared.3]);
        let want = reference(&manifest, &program);
        prop_assert_eq!(analyzed(&manifest, &program), want, "{}", ir::render(&program));
    }
}

// --- fixtures and corpora -----------------------------------------------

/// The manifest the shared fixtures are written against (see
/// `reach_corpus.rs`).
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

#[test]
fn analyzer_matches_the_reference_on_every_class_fixture() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../android/tests/ir_corpus");
    let manifest = standard_manifest();
    let mut checked = 0usize;
    for entry in fs::read_dir(&dir).expect("shared ir_corpus directory exists") {
        let path = entry.expect("readable directory entry").path();
        let text = fs::read_to_string(&path).expect("readable fixture");
        let Some(want) = text.lines().nth(1).and_then(|l| l.strip_prefix("#class:")) else {
            continue;
        };
        let name = path.display();
        let program = ir::parse(&text).unwrap_or_else(|e| panic!("{name}: #class fixture must parse: {e}"));
        let verdict = reference(&manifest, &program);
        assert_eq!(
            verdict.class.name(),
            want.trim(),
            "{name}: the reference disagrees with the directive"
        );
        assert_eq!(analyzed(&manifest, &program), verdict, "{name}");
        checked += 1;
    }
    assert!(checked >= 13, "only {checked} #class: fixtures found");
}

#[test]
fn both_paths_match_the_reference_on_a_shared_sdk_corpus() {
    let mut corpus = generate(&CorpusConfig::scaled(6).with_sdk_share(60));
    // a declaring-but-inert host linking the sink-bearing fragment: only
    // fragment code can make it an accessor
    let inert = corpus
        .iter()
        .find(|e| e.truth.claim.declares_location() && !e.truth.functional)
        .expect("the corpus plants inert declaring apps");
    let mut doctored = inert.clone();
    doctored.sdk = Some(sdk::shared_with_sink());
    corpus.push(doctored);

    let cache = SummaryCache::new();
    let mut seen = BTreeSet::new();
    for entry in &corpus {
        let manifest = entry.app.manifest();
        let program = reach::compose(entry);
        let want = reference(manifest, &program);
        let package = manifest.package();
        assert_eq!(analyzed(manifest, &program), want, "{package}");
        let uncached = reach::analyze_entry(entry);
        let cached = analyze_entry_cached(entry, &cache).finding;
        for finding in [uncached, cached] {
            assert_eq!(finding.class, want.class, "{package}");
            assert_eq!(finding.providers, want.providers, "{package}");
        }
        seen.insert(want.class);
    }
    assert_eq!(seen, BTreeSet::from(ALL_CLASSES), "the corpus exercises every class");
    let sink_host = corpus.last().expect("non-empty corpus");
    let verdict = reference(sink_host.app.manifest(), &reach::compose(sink_host));
    assert_eq!(verdict.class, ReachClass::ForegroundOnly);
    assert_eq!(verdict.providers, BTreeSet::from([ProviderKind::Gps]));
}
