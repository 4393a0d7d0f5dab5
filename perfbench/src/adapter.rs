//! The one place the benchmark reads the program's own summary structs
//! (`StreamSummary`, `ShardedSummary`, `StoreStats`, `RelayStats`,
//! `CompactionStats`, the PDS and AppView counters). Everything else the
//! benchmark reports it counts itself. When the program's counters move to
//! a registry, only this file changes.

use bsky_atproto::repo::CompactionStats;
use bsky_study::report::FaultImpact;
use bsky_study::{RunSpec, ShardedSummary, StreamSummary};
use bsky_workload::World;

/// Counters of one collection run, as the program summarised them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Firehose events that reached the analyzers.
    pub firehose_events: u64,
    /// Commits lost to injected cursor gaps.
    pub cursor_gap_drops: u64,
    /// Full `getRepo` fetches that succeeded.
    pub full_fetches: u64,
    /// `getRepo(since)` delta fetches that succeeded.
    pub delta_fetches: u64,
    /// Bytes fetched by repository syncs.
    pub bytes_fetched: u64,
    /// Retries issued (every timeout class).
    pub retries: u64,
    /// Repository fetches abandoned after the retry budget.
    pub fetch_giveups: u64,
    /// Bytes reclaimed by the weekly compaction passes.
    pub reclaimed_bytes: u64,
    /// Block bytes resident at the end of the run.
    pub resident_bytes: u64,
    /// Block bytes spilled to disk at the end of the run.
    pub spilled_bytes: u64,
    /// Spilled blocks that failed their CID check on read-back.
    pub corrupt_reads: u64,
    /// AppView counter writes coalesced into already-dirty entities.
    pub counter_coalesced_writes: u64,
    /// AppView write-back cache hits.
    pub writeback_hits: u64,
    /// AppView write-back cache misses.
    pub writeback_misses: u64,
    /// Frames the super-relay accepted from the regional tier.
    pub frames_forwarded: u64,
    /// Frames the super-relay dropped as cross-relay duplicates.
    pub duplicates_dropped: u64,
}

impl RunCounts {
    /// Read one producer's summary.
    pub fn from_stream(summary: &StreamSummary) -> RunCounts {
        RunCounts {
            firehose_events: summary.firehose_events,
            cursor_gap_drops: summary.cursor_gap_drops,
            full_fetches: summary.repo_full_fetches,
            delta_fetches: summary.repo_delta_fetches,
            bytes_fetched: summary.snapshot_bytes_fetched,
            retries: summary.retry_attempts,
            fetch_giveups: summary.fetch_retry_giveups,
            reclaimed_bytes: summary.store_bytes_reclaimed,
            resident_bytes: summary.resident_block_bytes,
            spilled_bytes: summary.spilled_block_bytes,
            corrupt_reads: summary.store_corrupt_reads,
            counter_coalesced_writes: summary.counter_coalesced_writes,
            writeback_hits: summary.writeback_hits,
            writeback_misses: summary.writeback_misses,
            frames_forwarded: summary.relay_events_forwarded,
            duplicates_dropped: summary.relay_duplicates_dropped,
        }
    }

    /// Read a (possibly sharded) run's merged summary.
    pub fn from_run(summary: &ShardedSummary) -> RunCounts {
        RunCounts::from_stream(&summary.merged)
    }

    /// Repository fetches attempted: the ones that succeeded plus the ones
    /// abandoned after the retry budget.
    pub fn fetch_attempts(&self) -> u64 {
        self.full_fetches + self.delta_fetches + self.fetch_giveups
    }
}

/// The scenario-impact section a non-quiet run attaches to its report,
/// exactly as `StudyReport::run` builds it.
pub fn fault_impact(spec: &RunSpec, summary: &ShardedSummary) -> Option<FaultImpact> {
    (!spec.faults.is_quiet()).then(|| {
        FaultImpact::from_summary(
            spec.scenario.as_deref().unwrap_or("custom"),
            &summary.merged,
        )
    })
}

/// Counters read from a world once its run has ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldCounts {
    /// `getRepo` / `getRepo(since)` requests the PDS fleet served.
    pub pds_sync_requests: u64,
    /// AppView entity bytes resident.
    pub appview_resident_bytes: u64,
    /// AppView entity bytes spilled to disk.
    pub appview_spilled_bytes: u64,
}

impl WorldCounts {
    /// Read the counters of one (shard) world.
    pub fn of(world: &World) -> WorldCounts {
        let appview = world.appview_store_stats();
        WorldCounts {
            pds_sync_requests: world.fleet.servers().map(|pds| pds.sync_requests()).sum(),
            appview_resident_bytes: appview.resident_bytes as u64,
            appview_spilled_bytes: appview.spilled_bytes as u64,
        }
    }

    /// Add another shard's counters.
    pub fn absorb(&mut self, other: WorldCounts) {
        self.pds_sync_requests += other.pds_sync_requests;
        self.appview_resident_bytes += other.appview_resident_bytes;
        self.appview_spilled_bytes += other.appview_spilled_bytes;
    }
}

/// Bytes one compaction pass reclaimed.
pub fn bytes_reclaimed(stats: &CompactionStats) -> u64 {
    stats.bytes_reclaimed as u64
}
