//! Content-hash summary cache: per-class reachability summaries keyed by
//! IR digest, so corpus sweeps compose cached facts instead of re-walking
//! shared code.
//!
//! The structural bet (from the ad-SDK tracking literature) is that
//! market code is massively shared: the same library classes appear in
//! thousands of apps, hash to the same [`ir::digest_class`] value, and
//! therefore need summarizing exactly once. A [`ClassSummary`] records,
//! per method, everything the reachability pass ever asks of a class —
//! its call edges, whether it invokes a `LocationManager` or fused-client
//! sink, and which provider string constants sit next to the manager
//! sinks. [`analyze_entry_cached`] builds the app's reachability view
//! from those cached summaries and hands it to the same classifier the
//! uncached path uses (`reach::classify`), and the linked SDK fragment
//! collapses further still: one [`FragmentSummary`] holds the
//! *transitive* sink/provider facts for every fragment method, so a
//! million apps embedding the fragment cost one fragment analysis total.
//!
//! Correctness contract: for every corpus entry, the finding returned
//! here is bit-identical to [`crate::reach::analyze_entry`], and the
//! `market.reach.*` telemetry advances identically. With one classifier
//! the walk itself cannot diverge; what the differential suites
//! (`tests/reach_cache.rs`, `tests/reach_reference.rs`) still pin is the
//! view: the cached summaries and the folded fragment must describe the
//! same program the uncached path parses. Soundness depends on content
//! digests being collision-free in practice; DESIGN.md §13 discusses the
//! FNV-vs-cryptographic-hash tradeoff.

use crate::corpus::MarketApp;
use crate::reach::{self, ReachFinding, ReachView};
use crate::sdk::SdkLib;
use crate::taint::{self, FragTaint, TaintClass, TaintOp};
use backwatch_android::ir::{self, IrClass, IrInstr};
use backwatch_android::provider::ProviderKind;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What the reachability pass needs to know about one method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSummary {
    /// Every `invoke` target, in program order (unresolvable targets —
    /// framework classes, including the sinks — simply never match).
    pub callees: Vec<(String, String)>,
    /// Whether the method invokes a `LocationManager` sink.
    pub manager_sink: bool,
    /// Whether the method invokes a fused-client sink.
    pub fused_sink: bool,
    /// Provider names among the method's string constants — the
    /// provider evidence if `manager_sink` is set.
    pub const_providers: Vec<ProviderKind>,
    /// The method's taint operations, pre-classified against the
    /// signature tables — what the cached taint engine replays instead
    /// of re-walking instructions.
    pub taint_ops: Vec<TaintOp>,
}

/// Digest-keyed summary of one class: the unit of cache reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSummary {
    /// Class path.
    pub name: String,
    /// [`ir::digest_class`] of the summarized IR.
    pub digest: u64,
    /// Per-method summaries, in declaration order.
    pub methods: Vec<(String, MethodSummary)>,
}

fn summarize_method(instrs: &[IrInstr]) -> MethodSummary {
    let mut callees = Vec::new();
    let mut manager_sink = false;
    let mut fused_sink = false;
    let mut const_providers = Vec::new();
    for instr in instrs {
        match instr {
            IrInstr::Invoke { class, method } => {
                if ir::is_sink(class, method) {
                    manager_sink |= class == ir::LOCATION_MANAGER_CLASS;
                    fused_sink |= class == ir::FUSED_CLIENT_CLASS;
                }
                callees.push((class.clone(), method.clone()));
            }
            IrInstr::ConstString(s) => {
                if let Ok(p) = s.parse::<ProviderKind>() {
                    if !const_providers.contains(&p) {
                        const_providers.push(p);
                    }
                }
            }
            // pure dataflow instructions: no call edges, no sink or
            // provider evidence — they matter only to the taint ops below
            IrInstr::MoveResult | IrInstr::ReturnValue | IrInstr::Sput { .. } | IrInstr::Sget { .. } => {}
        }
    }
    MethodSummary {
        callees,
        manager_sink,
        fused_sink,
        const_providers,
        taint_ops: taint::ops_for_instrs(instrs),
    }
}

/// Summarizes every method of one class, in declaration order.
pub(crate) fn summarize_methods(class: &IrClass) -> Vec<(String, MethodSummary)> {
    class
        .methods
        .iter()
        .map(|m| (m.name.clone(), summarize_method(&m.instrs)))
        .collect()
}

/// Summarizes one class (used on cache misses).
#[must_use]
pub fn summarize_class(class: &IrClass) -> ClassSummary {
    ClassSummary {
        name: class.name.clone(),
        digest: ir::digest_class(class),
        methods: summarize_methods(class),
    }
}

/// Transitive reachability facts for one fragment method: what entering
/// the fragment at this method can ever reach, precomputed so app
/// analyses fold a constant instead of traversing fragment code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragReach {
    /// A sink is reachable from this method within the fragment.
    pub sink: bool,
    /// Providers evidenced along those reachable fragment methods.
    pub providers: BTreeSet<ProviderKind>,
}

/// One shared library fragment, summarized transitively. Sound because
/// the call direction is one-way: apps call into the fragment, fragment
/// code never calls back into app code.
#[derive(Debug)]
pub struct FragmentSummary {
    /// The fragment's [`SdkLib::digest`].
    pub digest: u64,
    /// Classes in the fragment (the cache counts one hit per class when
    /// a composed program reuses the fragment wholesale).
    pub class_count: usize,
    /// Precomputed taint transfer table: the taint analogue of the
    /// reachability facts, solved once per fragment digest at every
    /// lattice input (sound for the same one-way-call reason, plus the
    /// statics-free/no-callback assertions [`FragTaint::build`] makes).
    pub taint: FragTaint,
    reach: HashMap<String, HashMap<String, FragReach>>,
}

impl FragmentSummary {
    fn build(sdk: &SdkLib) -> Self {
        let program = sdk.program();
        // local per-method facts
        let mut ids: HashMap<(String, String), usize> = HashMap::new();
        let mut facts: Vec<(String, String, MethodSummary)> = Vec::new();
        for class in &program.classes {
            for method in &class.methods {
                ids.insert((class.name.clone(), method.name.clone()), facts.len());
                facts.push((class.name.clone(), method.name.clone(), summarize_method(&method.instrs)));
            }
        }
        // transitive closure per method (the fragment is small; a BFS per
        // method is simpler than SCC condensation and runs once ever)
        let mut reach: HashMap<String, HashMap<String, FragReach>> = HashMap::new();
        for (start, (class, method, _)) in facts.iter().enumerate() {
            let mut sink = false;
            let mut providers = BTreeSet::new();
            let mut visited = vec![false; facts.len()];
            let mut queue = VecDeque::from([start]);
            if let Some(slot) = visited.get_mut(start) {
                *slot = true;
            }
            while let Some(id) = queue.pop_front() {
                let Some((_, _, ms)) = facts.get(id) else { continue };
                if ms.manager_sink {
                    sink = true;
                    providers.extend(ms.const_providers.iter().copied());
                }
                if ms.fused_sink {
                    sink = true;
                    providers.insert(ProviderKind::Fused);
                }
                for callee in &ms.callees {
                    if let Some(&next) = ids.get(callee) {
                        if let Some(slot) = visited.get_mut(next) {
                            if !*slot {
                                *slot = true;
                                queue.push_back(next);
                            }
                        }
                    }
                }
            }
            reach
                .entry(class.clone())
                .or_default()
                .insert(method.clone(), FragReach { sink, providers });
        }
        Self {
            digest: sdk.digest(),
            class_count: program.classes.len(),
            taint: FragTaint::build(program),
            reach,
        }
    }

    /// Whether the fragment defines `class`.
    #[must_use]
    pub fn defines_class(&self, class: &str) -> bool {
        self.reach.contains_key(class)
    }

    /// Transitive facts for entering the fragment at `(class, method)`.
    #[must_use]
    pub fn reach(&self, class: &str, method: &str) -> Option<&FragReach> {
        self.reach.get(class)?.get(method)
    }
}

/// Cache hit/miss tally for one analysis or one whole sweep, counted per
/// composed-program class (a fragment reuse scores one hit per fragment
/// class — that is what it saves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// Class summaries served from the cache.
    pub hits: u64,
    /// Class summaries computed fresh.
    pub misses: u64,
}

impl CacheTally {
    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const SHARDS: usize = 16;
/// Per-shard entry cap: 16 shards × 4,096 summaries bounds the cache to
/// ~65k classes however many million apps stream past it.
const DEFAULT_SHARD_CAPACITY: usize = 4096;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // a panicked holder cannot leave a summary map half-written: entries
    // are inserted whole, so recover the map rather than poison-cascade
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sharded, capacity-bounded map from class digest to summary, plus an
/// unbounded side map for whole-fragment summaries.
///
/// Eviction picks an arbitrary resident entry; because summaries are
/// content-addressed this only ever costs a recomputation, never
/// correctness. Fragment summaries are never evicted — they are the
/// high-leverage entries the hit rate lives on.
#[derive(Debug)]
pub struct SummaryCache {
    shards: [Mutex<HashMap<u64, Arc<ClassSummary>>>; SHARDS],
    fragments: Mutex<HashMap<u64, Arc<FragmentSummary>>>,
    shard_capacity: usize,
}

impl Default for SummaryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SummaryCache {
    /// A cache with the default capacity bound.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shard_capacity(DEFAULT_SHARD_CAPACITY)
    }

    /// A cache holding at most `capacity` class summaries per shard.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_shard_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity cache cannot make progress");
        Self {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            fragments: Mutex::new(HashMap::new()),
            shard_capacity: capacity,
        }
    }

    /// Class summaries currently resident (fragments not included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether no class summary is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The summary for `class`, from the cache when its digest is
    /// resident. Advances `market.reach.cache_{hits,misses}_total` and
    /// the caller's `tally` by one.
    pub fn class_summary(&self, class: &IrClass, tally: &mut CacheTally) -> Arc<ClassSummary> {
        let digest = ir::digest_class(class);
        let shard_idx = (digest % SHARDS as u64) as usize;
        let mut shard = lock(&self.shards[shard_idx]);
        if let Some(hit) = shard.get(&digest) {
            tally.hits += 1;
            crate::obs::REACH_CACHE_HITS.inc();
            return Arc::clone(hit);
        }
        tally.misses += 1;
        crate::obs::REACH_CACHE_MISSES.inc();
        let summary = Arc::new(summarize_class(class));
        if shard.len() >= self.shard_capacity {
            if let Some(victim) = shard.keys().next().copied() {
                shard.remove(&victim);
            }
        }
        shard.insert(digest, Arc::clone(&summary));
        summary
    }

    /// The transitive summary for a whole SDK fragment. A resident
    /// fragment counts `class_count` hits (that is how many class
    /// summaries the reuse saves); building it counts the same in
    /// misses. Fragment summaries are never evicted.
    pub fn fragment_summary(&self, sdk: &SdkLib, tally: &mut CacheTally) -> Arc<FragmentSummary> {
        let mut fragments = lock(&self.fragments);
        if let Some(hit) = fragments.get(&sdk.digest()) {
            tally.hits += hit.class_count as u64;
            crate::obs::REACH_CACHE_HITS.add(hit.class_count as u64);
            return Arc::clone(hit);
        }
        // build under the lock: concurrent first-users of a fragment then
        // tally deterministically (one build, the rest hit)
        let summary = Arc::new(FragmentSummary::build(sdk));
        tally.misses += summary.class_count as u64;
        crate::obs::REACH_CACHE_MISSES.add(summary.class_count as u64);
        fragments.insert(sdk.digest(), Arc::clone(&summary));
        summary
    }
}

/// Output of one cached per-app analysis.
#[derive(Debug, Clone)]
pub struct CachedAnalysis {
    /// The finding — bit-identical to [`crate::reach::analyze_entry`].
    pub finding: ReachFinding,
    /// The refining taint class — bit-identical to
    /// [`crate::taint::analyze_entry`].
    pub taint: TaintClass,
    /// Whether the own-code IR text round-trip failed.
    pub parse_failed: bool,
    /// Cache traffic this app generated.
    pub tally: CacheTally,
    /// App-level digest (own wired IR ⊕ fragment ⊕ manifest) — what
    /// incremental sweeps compare across snapshots.
    pub app_digest: u64,
}

fn digest_parts(own_wired: &ir::IrProgram, entry: &MarketApp) -> u64 {
    let mut buf = [0u8; 24];
    buf[..8].copy_from_slice(&ir::digest_program(own_wired).to_le_bytes());
    let fragment = entry.sdk.as_ref().map_or(0, |sdk| sdk.digest());
    buf[8..16].copy_from_slice(&fragment.to_le_bytes());
    // the manifest is part of the analyzed surface (permission gate,
    // components), so it is part of the change-detection surface too
    let manifest = ir::fnv1a(backwatch_android::manifest_xml::render(entry.app.manifest()).as_bytes());
    buf[16..].copy_from_slice(&manifest.to_le_bytes());
    ir::fnv1a(&buf)
}

/// App-level content digest of one corpus entry: its own wired IR, its
/// linked fragment, and its manifest. Two entries with equal digests
/// analyze identically; incremental sweeps reuse prior findings on
/// digest equality.
#[must_use]
pub fn app_digest(entry: &MarketApp) -> u64 {
    digest_parts(&crate::reach::lower_with_sdk(entry), entry)
}

/// Cached counterpart of [`crate::reach::analyze_entry`]: same serialized
/// own-code discipline (lower → render → parse), but the per-class walk
/// composes cached summaries and the fragment folds as one precomputed
/// summary. Returns the finding plus the app digest incremental sweeps
/// key on.
#[must_use]
pub fn analyze_entry_cached(entry: &MarketApp, cache: &SummaryCache) -> CachedAnalysis {
    crate::obs::register();
    let mut tally = CacheTally::default();
    let manifest = entry.app.manifest();
    let own_wired = crate::reach::lower_with_sdk(entry);
    let app_digest = digest_parts(&own_wired, entry);
    let fragment = entry.sdk.as_ref().map(|sdk| cache.fragment_summary(sdk, &mut tally));
    let text = ir::render(&own_wired);
    let Ok(own) = ir::parse(&text) else {
        return CachedAnalysis {
            finding: reach::unparsed(manifest),
            taint: taint::record(TaintClass::NoAccess),
            parse_failed: true,
            tally,
            app_digest,
        };
    };
    let summaries: Vec<Arc<ClassSummary>> = own.classes.iter().map(|c| cache.class_summary(c, &mut tally)).collect();
    let classes = summaries.iter().map(|cs| (cs.name.as_str(), cs.methods.as_slice()));
    let finding = reach::classify(manifest, &ReachView::new(classes, fragment.as_deref())).finding;
    // the taint pass replays the cached per-method op streams over the
    // same view shape, folding the fragment's precomputed transfer table
    let methods = summaries.iter().flat_map(|cs| {
        cs.methods
            .iter()
            .map(|(m, ms)| (cs.name.as_str(), m.as_str(), ms.taint_ops.as_slice()))
    });
    let view = taint::TaintView::new(methods, fragment.as_deref().map(|f| &f.taint));
    let taint = taint::classify_with_view(manifest, &view, finding.class);
    CachedAnalysis {
        finding,
        taint,
        parse_failed: false,
        tally,
        app_digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig};
    use crate::reach::analyze_entry;

    #[test]
    fn cached_analysis_matches_oracle_per_app() {
        let corpus = generate(&CorpusConfig::scaled(6).with_sdk_share(60));
        let cache = SummaryCache::new();
        for entry in &corpus {
            let oracle = analyze_entry(entry);
            let cached = analyze_entry_cached(entry, &cache);
            assert_eq!(cached.finding, oracle, "{}", oracle.package);
            assert!(!cached.parse_failed);
        }
    }

    #[test]
    fn second_pass_hits_for_every_own_class() {
        let corpus = generate(&CorpusConfig::scaled(3).with_sdk_share(100));
        let cache = SummaryCache::new();
        let mut cold = CacheTally::default();
        let mut warm = CacheTally::default();
        for entry in &corpus {
            cold.absorb(analyze_entry_cached(entry, &cache).tally);
        }
        for entry in &corpus {
            warm.absorb(analyze_entry_cached(entry, &cache).tally);
        }
        assert_eq!(warm.misses, 0, "everything is resident on the second pass");
        assert_eq!(warm.hits, cold.hits + cold.misses);
        assert!(cold.hits > 0, "fragment reuse hits within the first pass");
    }

    #[test]
    fn fragment_summary_folds_transitively_and_survives_cycles() {
        let sdk = crate::sdk::shared();
        let frag = FragmentSummary::build(&sdk);
        assert_eq!(frag.class_count, sdk.class_count());
        // the boot entry reaches deep fragment code but no sink
        let (class, method) = sdk.entry();
        let boot = frag.reach(class, method).expect("entry summarized");
        assert!(!boot.sink);
        assert!(boot.providers.is_empty());
        // the cyclic queue pair terminates and stays sink-free
        let push = frag.reach("com/adnet/metrics/Queue", "push").expect("cycle summarized");
        assert!(!push.sink);
        // the dead radar *is* a sink — just unreachable from boot
        let radar = frag.reach("com/adnet/radar/DeadRadar", "scan").expect("decoy summarized");
        assert!(radar.sink);
        assert_eq!(radar.providers, BTreeSet::from([ProviderKind::Gps]));
        // and the sink-bearing variant propagates it to the entry
        let dirty = FragmentSummary::build(&crate::sdk::shared_with_sink());
        let boot = dirty.reach(class, method).expect("entry summarized");
        assert!(boot.sink);
        assert_eq!(boot.providers, BTreeSet::from([ProviderKind::Gps]));
    }

    #[test]
    fn eviction_is_correctness_neutral() {
        // a cache too small to hold anything still produces oracle output
        let corpus = generate(&CorpusConfig::scaled(4).with_sdk_share(40));
        let tiny = SummaryCache::with_shard_capacity(1);
        for entry in &corpus {
            let oracle = analyze_entry(entry);
            assert_eq!(analyze_entry_cached(entry, &tiny).finding, oracle, "{}", oracle.package);
        }
        assert!(tiny.len() <= SHARDS, "capacity bound holds");
    }

    #[test]
    fn app_digest_tracks_content_not_identity() {
        let cfg = CorpusConfig::scaled(4).with_sdk_share(50);
        let a = generate(&cfg);
        let b = generate(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(app_digest(x), app_digest(y));
        }
        // digests separate apps from each other
        let mut seen = std::collections::HashSet::new();
        for e in &a {
            seen.insert(app_digest(e));
        }
        assert!(seen.len() > a.len() / 2, "app digests are overwhelmingly distinct");
        // and changing only the linked fragment changes the digest
        let mut doctored = a.first().expect("non-empty corpus").clone();
        let before = app_digest(&doctored);
        doctored.sdk = Some(crate::sdk::shared_with_sink());
        assert_ne!(app_digest(&doctored), before);
    }
}
