//! Points of Interest: extraction, clustering, sensitivity, matching.

pub mod buffer;
pub mod extractor;
pub mod matching;
pub mod places;
pub mod sensitive;
pub mod streaming;

pub use buffer::{BufferPoint, CentroidBuffer, PlanarCtx};
pub use extractor::{ExtractorParams, NaiveDwellExtractor, SpatioTemporalExtractor, Stay};
pub use matching::{match_against_truth, RecoveryReport};
pub use places::{cluster_stays, Place, PlaceSet};
pub use sensitive::{sensitive_counts, sensitive_places, SensitivityThreshold};
pub use streaming::{Checkpoint, CheckpointError, StreamPoint, StreamingExtractor};
