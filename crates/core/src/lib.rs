//! The paper's privacy model (§IV): what an adversary learns from the
//! location stream a background app collects.
//!
//! Pipeline, bottom to top:
//!
//! 1. **PoI extraction** ([`poi`]) — the Spatio-Temporal three-buffer
//!    algorithm turns a location trace into *stays* (PoI visit episodes),
//!    which cluster into *places* with visit counts; [`poi::sensitive`]
//!    classifies rarely-visited places as sensitive, and [`poi::matching`]
//!    scores recovered stays against ground truth.
//! 2. **Profiles** ([`pattern`]) — two histogram representations of a
//!    user's habits: *pattern 1* counts visits per region
//!    ⟨region, visited times⟩ (prior work), *pattern 2* counts movement
//!    transitions ⟨PoIᵢ → PoIⱼ, happen times⟩ (the paper's contribution).
//! 3. **His_bin matching** ([`hisbin`]) — a Pearson chi-square comparison
//!    decides whether the histogram built from collected data fits the
//!    profile; the incremental detector reports how much data an app needs
//!    before the fit succeeds (Figure 4).
//! 4. **Anonymity** ([`anonymity`], [`adversary`]) — the adversary matches
//!    collected data against a store of profiles; the entropy of the
//!    resulting posterior gives the degree of anonymity (Figure 5).
//!
//! Two further metrics from the paper's related work round out the
//! toolbox: [`timeconfusion`] (Hoh et al.'s time-to-confusion) and
//! [`reident`] (Zang & Bolot's top-N location anonymity sets).
//!
//! Two richer adversary channels extend the single-app threat model:
//! [`pooling`] merges per-app fix streams across apps that embed the same
//! tracking SDK (ad-network aggregation), and [`leakage`] models network
//! traffic that exfiltrates coordinates truncated to d decimal digits at
//! interval i, with a containment adversary whose candidate sets are
//! provably monotone in both knobs.
//!
//! # Examples
//!
//! ```
//! use backwatch_core::poi::{ExtractorParams, SpatioTemporalExtractor};
//! use backwatch_trace::synth::{generate_user, SynthConfig};
//!
//! let user = generate_user(&SynthConfig::small(), 0);
//! let extractor = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
//! let stays = extractor.extract(&user.trace);
//! assert!(!stays.is_empty(), "a daily routine yields PoI visits");
//! ```

pub mod adversary;
pub mod anonymity;
pub mod diary;
pub mod hisbin;
pub mod leakage;
pub mod metrics;
pub mod obs;
pub mod pattern;
pub mod poi;
pub mod pooling;
pub mod reident;
pub mod report;
pub mod similarity;
pub mod timeconfusion;

pub use hisbin::{HisBin, MatchRule, Matcher};
pub use pattern::{PatternKind, Profile};
pub use poi::{ExtractorParams, SpatioTemporalExtractor, Stay};
