//! `memstream_shard` — multi-process sharded exploration of the scenario
//! grid, merged by cache-file union.
//!
//! One process already explores a grid on every core with byte-stable
//! output; the next scale step is **many processes** (and eventually many
//! hosts). This crate adds exactly that, without inventing a new wire
//! format: the v2 records of the [`memstream_grid::ResultCache`] file —
//! until now a warm-start convenience — *are* the distribution protocol
//! (spec: `docs/CACHE_FORMAT.md`).
//!
//! The model is coordinator/worker with a leased work queue
//! (spec: `docs/SHARD_PROTOCOL.md`):
//!
//! 1. **Chunk** — the grid's canonical deduplicated cell range
//!    ([`memstream_grid::ScenarioGrid::unique_cells`]) is split into
//!    small contiguous lease chunks ([`lease_chunks`], roughly
//!    [`LEASE_CHUNKS_PER_WORKER`] per worker) owned by a coordinator-side
//!    [`LeaseQueue`]; the chunk layout depends on the grid alone, never
//!    on cache temperature.
//! 2. **Fan out** — workers are spawned processes (a re-exec of the
//!    harness: `harness shard-worker --shard i/N --cache PATH ...`). Each worker asks for work over its **stderr** side-channel
//!    (`lease-request`), receives grants over **stdin**
//!    (`lease-grant a..b`), evaluates the granted cells and **flushes
//!    completed records incrementally** to its per-worker scratch file
//!    ([`memstream_grid::CacheAppender`]) before announcing
//!    `lease-done` ([`run_worker`]).
//! 3. **Collect & reclaim** — a per-worker collector thread tails the
//!    flush stream ([`memstream_grid::FlushReader`]) as leases complete,
//!    and a watchdog reclaims leases held by workers that die or stop
//!    heartbeating past a deadline, re-issuing them to live workers.
//!    Failures land in a per-shard error ledger ([`ShardRun::failures`])
//!    without poisoning the healthy shards' entries.
//! 4. **Union & assemble** — collected records merge by
//!    [`memstream_grid::ResultCache::merge`]: duplicate entries (a
//!    reclaimed lease finished twice) must be byte-equal or the merge is
//!    a hard, attributed error. The merged cache replays through the
//!    ordinary single-process path
//!    ([`memstream_grid::GridExecutor::explore_cached`], pure hits), so
//!    sharded stdout is **byte-identical** to the single-process run for
//!    any worker count, lease size or failure pattern that leaves at
//!    least one live worker.
//!
//! A deterministic fault-injection seam ([`FaultPlan`], the hidden
//! `--fault-plan` flag and the [`FAULT_PLAN_ENV`] environment variable)
//! lets the test suites make workers die, stall or damage their flush
//! streams at exact points, and assert the recovery machinery holds the
//! byte-identity guarantee.
//!
//! The refinement loop consumes the same machinery through
//! [`ShardedRoundExplorer`]: each round fans only the rates new to that
//! round out to workers and proceeds warm from the merged cache.
//!
//! # Quick start
//!
//! In-process sharding of any grid (the spawned-process path needs a
//! worker binary; the harness provides it):
//!
//! ```
//! use memstream_grid::{GridExecutor, ResultCache};
//! use memstream_shard::{shard_ranges, GridRecipe};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridRecipe::baseline(6).build();
//! let unique = grid.unique_cells();
//!
//! // Evaluate three contiguous shards independently...
//! let mut shards = Vec::new();
//! for range in shard_ranges(unique.len(), 3) {
//!     let mut shard = ResultCache::new();
//!     GridExecutor::serial().resolve_cells(&grid, &unique[range], &mut shard);
//!     shards.push(shard);
//! }
//!
//! // ...union them, and the merged cache replays the whole grid warm.
//! let mut merged = ResultCache::new();
//! for shard in &shards {
//!     merged.merge(shard)?;
//! }
//! let results = GridExecutor::serial().explore_cached(&grid, &mut merged)?;
//! assert_eq!(merged.misses(), 0, "the union covers every unique cell");
//! assert_eq!(results.unique_evaluations(), unique.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod fault;
mod lease;
mod protocol;
mod recipe;
mod round;
mod worker;

pub use coordinator::{
    explore_sharded, shard_range, shard_ranges, ShardError, ShardFailure, ShardFailureKind,
    ShardOptions, ShardRun, WorkerReport,
};
pub use fault::{FaultPlan, FAULT_PLAN_ENV};
pub use lease::{lease_chunks, LeaseQueue, LeaseResponse, LEASE_CHUNKS_PER_WORKER};
pub use protocol::{
    format_lease_done, format_lease_reply, format_lease_request, format_progress, parse_lease_done,
    parse_lease_reply, parse_lease_request, parse_progress, LeaseReply, ProtocolError, WorkerSpec,
};
pub use recipe::GridRecipe;
pub use round::ShardedRoundExplorer;
pub use worker::{run_worker, run_worker_with_metrics, WorkerSummary};

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn public_types_are_send_sync() {
        assert_send_sync::<GridRecipe>();
        assert_send_sync::<WorkerSpec>();
        assert_send_sync::<ShardOptions>();
        assert_send_sync::<ShardRun>();
        assert_send_sync::<ShardFailure>();
        assert_send_sync::<ShardError>();
        assert_send_sync::<ShardedRoundExplorer>();
        assert_send_sync::<WorkerSummary>();
        assert_send_sync::<LeaseQueue>();
        assert_send_sync::<FaultPlan>();
        assert_send_sync::<LeaseReply>();
    }
}
