//! The multi-tenant ingestion service: router + shards + snapshot
//! framing + serve-side telemetry.
//!
//! [`IngestService`] is the lat/lon deployment of the sharded engine
//! pool: fixes arrive tagged with a user id, the [`ShardRouter`] picks
//! the owning [`Shard`], and the shard's per-user [`StreamingExtractor`]
//! advances one step — emitting a completed [`Stay`] the moment its exit
//! is confirmed, exactly as the paper's online adversary would observe
//! it. The whole service serializes to one byte stream built from the
//! existing engine [`Checkpoint`] wire format, so a crashed process can
//! be restored and replayed bit-identically (pinned by
//! `tests/crash_resume.rs`).
//!
//! [`StreamingExtractor`]: backwatch_core::poi::StreamingExtractor
//! [`Checkpoint`]: backwatch_core::poi::Checkpoint

use crate::obs as serve_obs;
use crate::router::ShardRouter;
use crate::shard::{RestoreError, Shard};
use backwatch_core::poi::{ExtractorParams, Stay};
use backwatch_trace::TracePoint;

/// Magic-plus-version word opening every serialized service snapshot
/// (`b"BWSRV"` folded into the high bytes, format version 1 in the low).
const SERVICE_MAGIC: u64 = 0x4257_5352_5600_0001;

/// Aggregate service state for periodic reporting: one row per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Users with a live engine, per shard (index = shard index).
    pub users_per_shard: Vec<usize>,
    /// Fixes ingested since construction/restore.
    pub fixes: u64,
    /// Stays emitted since construction/restore (mid-stream and finish).
    pub stays: u64,
}

impl ServiceStats {
    /// Users with a live engine across all shards.
    #[must_use]
    pub fn users(&self) -> usize {
        self.users_per_shard.iter().sum()
    }
}

/// Sharded multi-tenant ingestion over raw lat/lon fixes.
#[derive(Debug)]
pub struct IngestService {
    router: ShardRouter,
    shards: Vec<Shard>,
    params: ExtractorParams,
    fixes: u64,
    stays: u64,
    /// Stream time (seconds) of the most recent ingested fix.
    latest_fix_secs: Option<i64>,
    /// Stream time of the previous snapshot, for the cadence histogram.
    last_snapshot_secs: Option<i64>,
}

impl IngestService {
    /// A service of `n_shards` empty shards, all engines using `params`.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero (see [`ShardRouter::new`]).
    #[must_use]
    pub fn new(n_shards: usize, params: ExtractorParams) -> Self {
        serve_obs::register();
        Self {
            router: ShardRouter::new(n_shards),
            shards: (0..n_shards).map(|_| Shard::new(params)).collect(),
            params,
            fixes: 0,
            stays: 0,
            latest_fix_secs: None,
            last_snapshot_secs: None,
        }
    }

    /// The router (exposed so callers can pre-compute shard placement).
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The extraction parameters engines run with.
    #[must_use]
    pub fn params(&self) -> &ExtractorParams {
        &self.params
    }

    /// Routes one fix to its user's engine and returns the stay it
    /// completed, if any. Creating a first-contact user is implicit.
    pub fn ingest(&mut self, user_id: u64, fix: TracePoint) -> Option<Stay> {
        self.latest_fix_secs = Some(fix.time.as_secs());
        let idx = self.router.shard_of(user_id);
        self.fixes += 1;
        let stay = self.shards[idx].ingest(user_id, fix);
        self.stays += u64::from(stay.is_some());
        stay
    }

    /// Ends every stream, emitting final in-progress stays in (shard
    /// index, user id) order — deterministic for a deterministic load.
    /// Flushes serve-side telemetry.
    pub fn finish(&mut self) -> Vec<(u64, Stay)> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.extend(shard.finish());
        }
        self.stays += out.len() as u64;
        self.flush_telemetry();
        out
    }

    /// Current per-shard population and cumulative tallies.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            users_per_shard: self.shards.iter().map(Shard::n_users).collect(),
            fixes: self.fixes,
            stays: self.stays,
        }
    }

    /// Serializes the whole service: the service magic word, the shard
    /// count, then each shard's [`Shard::snapshot`] bytes length-prefixed,
    /// in shard-index order. Deterministic for a deterministic load.
    ///
    /// Also the service's telemetry heartbeat: serve-side tallies are
    /// flushed, `serve.shard.snapshots_total` advances, and the
    /// stream-time gap since the previous snapshot lands on
    /// `serve.shard.checkpoint_interval_seconds`.
    pub fn snapshot_bytes(&mut self) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SERVICE_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        for shard in &self.shards {
            let sb = shard.snapshot();
            bytes.extend_from_slice(&(sb.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&sb);
        }
        self.flush_telemetry();
        if backwatch_obs::enabled() {
            serve_obs::SHARD_SNAPSHOTS.inc();
            if let (Some(prev), Some(now)) = (self.last_snapshot_secs, self.latest_fix_secs) {
                serve_obs::SHARD_CHECKPOINT_INTERVAL.record(now.saturating_sub(prev).max(0) as u64);
            }
        }
        self.last_snapshot_secs = self.latest_fix_secs;
        bytes
    }

    /// Rebuilds a service from [`snapshot_bytes`](Self::snapshot_bytes)
    /// so that replaying the post-snapshot fixes continues every user's
    /// stream bit-identically. `params` seeds engines for users who first
    /// appear after the restore and must match the snapshotting service's.
    ///
    /// # Errors
    ///
    /// A [`RestoreError`] naming the framing problem or the first
    /// rejected user checkpoint; `serve.shard.restore_failures_total`
    /// advances on every rejection. Never panics, whatever the bytes.
    pub fn restore(params: ExtractorParams, bytes: &[u8]) -> Result<Self, RestoreError> {
        serve_obs::register();
        Self::restore_inner(params, bytes).inspect_err(|_| {
            if backwatch_obs::enabled() {
                serve_obs::SHARD_RESTORE_FAILURES.inc();
            }
        })
    }

    /// [`restore`](Self::restore) minus the failure accounting.
    fn restore_inner(params: ExtractorParams, bytes: &[u8]) -> Result<Self, RestoreError> {
        let word = |at: usize| -> Result<u64, RestoreError> {
            let chunk = bytes.get(at..at + 8).ok_or(RestoreError::Truncated)?;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(chunk);
            Ok(u64::from_le_bytes(raw))
        };
        if word(0)? != SERVICE_MAGIC {
            return Err(RestoreError::BadMagic);
        }
        let n_shards = usize::try_from(word(8)?).map_err(|_| RestoreError::BadFraming("shard count overflows usize"))?;
        if n_shards == 0 {
            return Err(RestoreError::BadFraming("service snapshot declares zero shards"));
        }
        let mut shards = Vec::with_capacity(n_shards.min(1 << 16));
        let mut at = 16;
        for _ in 0..n_shards {
            let len = usize::try_from(word(at)?).map_err(|_| RestoreError::BadFraming("shard length overflows usize"))?;
            at += 8;
            let end = at
                .checked_add(len)
                .ok_or(RestoreError::BadFraming("shard length overflows the stream"))?;
            let sb = bytes.get(at..end).ok_or(RestoreError::Truncated)?;
            shards.push(Shard::restore(params, sb)?);
            at = end;
        }
        if at != bytes.len() {
            return Err(RestoreError::BadFraming("trailing bytes after the declared shards"));
        }
        if backwatch_obs::enabled() {
            serve_obs::SHARD_RESTORES.inc();
        }
        Ok(Self {
            router: ShardRouter::new(n_shards),
            shards,
            params,
            fixes: 0,
            stays: 0,
            latest_fix_secs: None,
            last_snapshot_secs: None,
        })
    }

    /// Whether `user_id` currently has a live engine, and on which shard.
    #[must_use]
    pub fn shard_holding(&self, user_id: u64) -> Option<usize> {
        let idx = self.router.shard_of(user_id);
        self.shards.get(idx).filter(|s| s.contains_user(user_id)).map(|_| idx)
    }

    /// Flushes every shard's tallies and refreshes the population gauge.
    fn flush_telemetry(&mut self) {
        for shard in &mut self.shards {
            shard.flush_telemetry();
        }
        if backwatch_obs::enabled() {
            let users: usize = self.shards.iter().map(Shard::n_users).sum();
            serve_obs::SHARD_USERS.set(users as i64);
        }
    }
}

impl Drop for IngestService {
    /// Tallies accumulated since the last flush still reach telemetry
    /// when the service is dropped mid-stream.
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

/// Order-sensitive FNV-1a digest of emitted stays — the same fold the
/// equivalence suites use, extended with the user id so cross-user
/// attribution errors change the digest too.
#[must_use]
pub fn stays_digest(stays: &[(u64, Stay)]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (user_id, s) in stays {
        for bits in [
            *user_id,
            s.centroid.lat().to_bits(),
            s.centroid.lon().to_bits(),
            s.enter.as_secs() as u64,
            s.leave.as_secs() as u64,
            s.n_points as u64,
            s.end_index as u64,
        ] {
            digest = (digest ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_geo::LatLon;
    use backwatch_trace::Timestamp;

    fn fix(secs: i64, lat: f64, lon: f64) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(secs), LatLon::clamped(lat, lon))
    }

    #[test]
    fn fixes_route_to_exactly_one_shard() {
        let mut svc = IngestService::new(4, ExtractorParams::paper_set1());
        for uid in 0..32u64 {
            svc.ingest(uid, fix(0, 39.9, 116.3));
        }
        let stats = svc.stats();
        assert_eq!(stats.users(), 32, "every user must land on exactly one shard");
        assert_eq!(stats.fixes, 32);
        for uid in 0..32u64 {
            assert_eq!(svc.shard_holding(uid), Some(svc.router().shard_of(uid)));
        }
    }

    #[test]
    fn service_snapshot_restore_round_trips() {
        let params = ExtractorParams::paper_set1();
        let mut svc = IngestService::new(3, params);
        for s in 0..200 {
            for uid in [1u64, 5, 9] {
                svc.ingest(uid, fix(s, 39.9 + uid as f64 * 1e-3, 116.3));
            }
        }
        let bytes = svc.snapshot_bytes();
        let restored = IngestService::restore(params, &bytes).expect("round trip");
        assert_eq!(restored.stats().users(), 3);
        for uid in [1u64, 5, 9] {
            assert_eq!(restored.shard_holding(uid), Some(restored.router().shard_of(uid)));
        }
    }

    #[test]
    fn restore_rejects_corrupted_service_framing() {
        let params = ExtractorParams::paper_set1();
        let mut svc = IngestService::new(2, params);
        svc.ingest(1, fix(0, 39.9, 116.3));
        let good = svc.snapshot_bytes();
        assert!(IngestService::restore(params, &[]).is_err());
        let mut bad_magic = good.clone();
        bad_magic[7] ^= 0x40;
        assert!(matches!(
            IngestService::restore(params, &bad_magic),
            Err(RestoreError::BadMagic)
        ));
        for cut in (0..good.len()).step_by(8) {
            assert!(IngestService::restore(params, &good[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = good;
        padded.push(0);
        assert!(IngestService::restore(params, &padded).is_err());
    }

    #[test]
    fn digest_is_sensitive_to_user_attribution() {
        let stay = Stay {
            centroid: LatLon::clamped(39.9, 116.3),
            enter: Timestamp::from_secs(0),
            leave: Timestamp::from_secs(700),
            n_points: 700,
            end_index: 699,
        };
        let a = stays_digest(&[(1, stay)]);
        let b = stays_digest(&[(2, stay)]);
        assert_ne!(a, b, "same stay under a different user must change the digest");
    }
}
