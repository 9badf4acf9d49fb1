//! The worker side: evaluate cells of a grid's canonical deduplicated
//! cell range and emit them as cache records.
//!
//! A worker is deliberately dumb; all scheduling, merging and failure
//! policy live in the coordinator. It repeatedly asks the coordinator
//! for a cell-range lease over the stderr/stdin line protocol, resolves
//! the granted cells, **flushes** the freshly evaluated records to the
//! output path incrementally ([`CacheAppender`]) and announces
//! `lease-done` — so a worker that dies mid-run has still delivered
//! every lease it completed.
//!
//! A [`FaultPlan`] makes a worker misbehave at a deterministic point; the fault-injection suite drives it to prove the
//! coordinator's recovery machinery preserves byte-identity.

use std::io::{self, BufRead, Write};
use std::time::Duration;

use memstream_grid::{CacheAppender, CellOutcome, GridExecutor, KeyInterner, Metrics, ResultCache};

use crate::fault::FaultPlan;
use crate::protocol::{
    format_lease_done, format_lease_request, format_progress, parse_lease_reply, LeaseReply,
    WorkerSpec,
};

/// How many flush batches a worker splits each lease into, one
/// heartbeat each. Each batch is one `resolve_cells` pass, so more chunks mean
/// finer-grained liveness at the cost of re-planning series across chunk
/// boundaries; four keeps that overhead marginal while a stuck worker is
/// still spotted within a quarter of its work.
const PROGRESS_CHUNKS: usize = 4;

/// The exit code of a worker killed by its own [`FaultPlan`] — distinct
/// from real failure codes so a fault test that fails for an unplanned
/// reason is distinguishable in the ledger.
const FAULT_EXIT: i32 = 86;

/// What one worker run did (the numbers the harness prints to stderr).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Cells assigned to this worker: the union of its completed leases.
    pub assigned: usize,
    /// Cells resolved from the warm cache without evaluation.
    pub warm_hits: usize,
    /// Cells freshly evaluated by this worker.
    pub evaluated: usize,
}

/// Runs one shard worker to completion (see module docs), talking to the
/// coordinator over this process's real stdin/stderr.
///
/// # Errors
///
/// I/O errors from the cache files, or a coordinator reply that is not
/// part of the protocol.
pub fn run_worker(spec: &WorkerSpec) -> io::Result<WorkerSummary> {
    run_worker_with_metrics(spec, &Metrics::disabled())
}

/// [`run_worker`] reporting into `metrics`: the worker's evaluation and
/// cache traffic land in the `grid.*`/`cache.*` catalogues (the harness's
/// `shard-worker --stats` path). Telemetry never changes the records a
/// worker writes.
///
/// The worker emits machine-parseable heartbeat lines on **stderr** (`shard-progress i/N: cells_done/cells_total`, see
/// [`format_progress`]). The coordinator consumes these lines into its
/// aggregated progress display instead of forwarding them; stdout is
/// untouched, so the byte-identity contract holds.
///
/// # Errors
///
/// As [`run_worker`].
pub fn run_worker_with_metrics(spec: &WorkerSpec, metrics: &Metrics) -> io::Result<WorkerSummary> {
    let stdin = io::stdin();
    let mut replies = stdin.lock();
    let mut control = io::stderr().lock();
    run_lease_worker(spec, metrics, &mut replies, &mut control)
}

/// The lease loop, factored over abstract reply/control streams so the
/// protocol state machine is unit-testable with scripted replies.
/// `control` is the worker's stderr (requests, `lease-done`, heartbeats);
/// `replies` is its stdin (grants, retire).
fn run_lease_worker(
    spec: &WorkerSpec,
    metrics: &Metrics,
    replies: &mut dyn BufRead,
    control: &mut dyn Write,
) -> io::Result<WorkerSummary> {
    let grid = spec.recipe.build();
    let unique = grid.unique_cells();
    let interner = KeyInterner::new(&grid);

    let mut working = load_warm(spec)?;
    working.set_metrics(metrics);
    let executor = GridExecutor::parallel(spec.threads).with_metrics(metrics);
    // The header goes out immediately, so the coordinator's flush reader
    // can distinguish "no results yet" from "wrong file".
    let mut appender = CacheAppender::create(&spec.cache)?;

    let mut evaluated = 0usize; // fresh cells so far — the fault trigger
    let mut completed = 0usize; // cells of fully completed leases
    let mut granted = 0usize; // cells ever granted
    let mut flushed_any = false;

    loop {
        writeln!(
            control,
            "{}",
            format_lease_request(spec.shard, spec.shard_count)
        )?;
        control.flush()?;
        let mut line = String::new();
        if replies.read_line(&mut line)? == 0 {
            // Coordinator hung up (it may have died); delivered leases are
            // already flushed, so just stop asking.
            break;
        }
        let range = match parse_lease_reply(line.trim_end()) {
            Some(LeaseReply::Retire) => break,
            Some(LeaseReply::Grant(range)) => range,
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("coordinator reply is not a lease line: {line:?}"),
                ));
            }
        };
        if range.end > unique.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "lease grant {}..{} overruns the {}-cell range",
                    range.start,
                    range.end,
                    unique.len()
                ),
            ));
        }
        granted += range.len();

        let cells = &unique[range.clone()];
        let batch_size = cells.len().div_ceil(PROGRESS_CHUNKS).max(1);
        let mut done_in_lease = 0usize;
        for batch in cells.chunks(batch_size) {
            let fresh: Vec<String> = batch
                .iter()
                .map(|cell| interner.resolve(interner.key(cell)))
                .filter(|key| !working.contains_key(key))
                .collect();
            executor.resolve_cells(&grid, batch, &mut working);
            evaluated += fresh.len();
            done_in_lease += batch.len();

            match spec.fault {
                Some(FaultPlan::DieAfterCells(k)) if evaluated >= k => {
                    // Abrupt death: nothing flushed for this batch, no
                    // lease-done — the coordinator must reclaim.
                    std::process::exit(FAULT_EXIT);
                }
                Some(FaultPlan::StallAfterCells(k)) if evaluated >= k => loop {
                    // Hold the lease forever without a single further
                    // line; only the coordinator's deadline can end this.
                    std::thread::sleep(Duration::from_secs(60));
                },
                _ => {}
            }

            let outcomes: Vec<CellOutcome> = fresh
                .iter()
                .map(|key| {
                    working
                        .get(key)
                        .expect("resolve_cells covered every granted cell")
                })
                .collect();
            let records: Vec<(&str, &CellOutcome)> = fresh
                .iter()
                .map(String::as_str)
                .zip(outcomes.iter())
                .collect();
            let first_flush = !flushed_any && !records.is_empty();
            flushed_any = flushed_any || !records.is_empty();
            match spec.fault {
                Some(FaultPlan::TruncateFlush) if first_flush => {
                    // Commit half the batch, tear the stream mid-record,
                    // die. The committed prefix must survive recovery.
                    appender.append(records[..records.len() / 2].iter().copied())?;
                    append_raw(spec, &{
                        let mut torn = 64u32.to_le_bytes().to_vec();
                        torn.extend_from_slice(&[0xAB; 7]);
                        torn
                    })?;
                    std::process::exit(FAULT_EXIT);
                }
                Some(FaultPlan::CorruptFlush) if first_flush => {
                    // A complete-but-undecodable record instead of the
                    // batch; then carry on lying (`lease-done` below for
                    // work that was never delivered).
                    append_raw(spec, &{
                        let mut junk = 8u32.to_le_bytes().to_vec();
                        junk.extend_from_slice(&[0xAB; 8]);
                        junk
                    })?;
                }
                _ => {
                    appender.append(records)?;
                }
            }
            writeln!(
                control,
                "{}",
                format_progress(
                    spec.shard,
                    spec.shard_count,
                    completed + done_in_lease,
                    granted
                )
            )?;
        }

        completed += cells.len();
        writeln!(
            control,
            "{}",
            format_lease_done(spec.shard, spec.shard_count, &range)
        )?;
        control.flush()?;
    }

    Ok(WorkerSummary {
        assigned: completed,
        warm_hits: working.hits(),
        evaluated: working.misses(),
    })
}

/// Lenient warm load: a stale or truncated warm file costs
/// re-evaluation, never correctness. (The coordinator reads *our*
/// output with the flush reader — that is the wire format.) Lazy: a v2 warm file is indexed, not decoded — warm
/// planning probes the index and only the cells this worker actually
/// touches are ever decoded.
fn load_warm(spec: &WorkerSpec) -> io::Result<ResultCache> {
    match &spec.warm {
        Some(path) => ResultCache::load_lazy(path),
        None => Ok(ResultCache::new()),
    }
}

/// Appends raw bytes to the flush stream behind the appender's back —
/// the fault plans' way of producing torn or undecodable tails.
fn append_raw(spec: &WorkerSpec, bytes: &[u8]) -> io::Result<()> {
    use std::fs::OpenOptions;
    let mut file = OpenOptions::new().append(true).open(&spec.cache)?;
    file.write_all(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::shard_range;
    use crate::protocol::{format_lease_reply, parse_lease_done, parse_lease_request};
    use crate::recipe::GridRecipe;
    use memstream_grid::FlushReader;
    use std::io::Cursor;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "memstream-shard-worker-tests-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn lease_spec(cache: PathBuf, recipe: GridRecipe) -> WorkerSpec {
        WorkerSpec {
            shard: 0,
            shard_count: 1,
            cache,
            warm: None,
            threads: 1,
            stats: false,
            stats_json: None,
            trace: None,
            fault: None,
            recipe,
        }
    }

    #[test]
    fn worker_emits_exactly_its_slice() {
        // A worker flushes exactly the cells it was granted: none outside
        // the grant, none missing inside it.
        let recipe = GridRecipe::classic(4);
        let grid = recipe.build();
        let unique = grid.unique_cells();
        let range = shard_range(unique.len(), 1, 3);
        let path = temp_path("slice.cache");
        let script = [
            format_lease_reply(&LeaseReply::Grant(range.clone())),
            format_lease_reply(&LeaseReply::Retire),
        ]
        .join("\n")
            + "\n";
        let mut replies = Cursor::new(script.into_bytes());
        let mut control = Vec::new();
        let spec = lease_spec(path.clone(), recipe);
        let summary =
            run_lease_worker(&spec, &Metrics::disabled(), &mut replies, &mut control).unwrap();
        assert_eq!(summary.assigned, range.len());
        assert_eq!(summary.evaluated, range.len());
        assert_eq!(summary.warm_hits, 0);

        let poll = FlushReader::new(path.clone()).poll().unwrap();
        assert!(!poll.damaged);
        assert_eq!(poll.records.len(), range.len());
        for cell in &unique[range] {
            let key = grid.dedup_key(cell);
            assert!(poll.records.iter().any(|(k, _)| *k == key), "{key} missing");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn warm_cells_are_not_re_evaluated() {
        let recipe = GridRecipe::classic(4);
        let grid = recipe.build();
        let len = grid.unique_cells().len();
        let warm_path = temp_path("warm.cache");
        let mut warm = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut warm)
            .unwrap();
        warm.save(&warm_path).unwrap();

        let out = temp_path("warm-slice.cache");
        let script = [
            format_lease_reply(&LeaseReply::Grant(shard_range(len, 0, 2))),
            format_lease_reply(&LeaseReply::Retire),
        ]
        .join("\n")
            + "\n";
        let mut replies = Cursor::new(script.into_bytes());
        let mut control = Vec::new();
        let mut spec = lease_spec(out.clone(), recipe);
        spec.warm = Some(warm_path.clone());
        let summary =
            run_lease_worker(&spec, &Metrics::disabled(), &mut replies, &mut control).unwrap();
        assert_eq!(summary.assigned, shard_range(len, 0, 2).len());
        assert_eq!(summary.evaluated, 0);
        assert_eq!(summary.warm_hits, summary.assigned);
        for p in [warm_path, out] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn lease_loop_flushes_each_grant_before_announcing_done() {
        let recipe = GridRecipe::classic(4);
        let grid = recipe.build();
        let unique = grid.unique_cells();
        let len = unique.len();
        assert!(len >= 4, "classic(4) grid is big enough to split");
        let split = len / 2;
        let path = temp_path("lease-flush.cache");

        let script = [
            format_lease_reply(&LeaseReply::Grant(0..split)),
            format_lease_reply(&LeaseReply::Grant(split..len)),
            format_lease_reply(&LeaseReply::Retire),
        ]
        .join("\n")
            + "\n";
        let mut replies = Cursor::new(script.into_bytes());
        let mut control = Vec::new();

        let spec = lease_spec(path.clone(), recipe);
        let summary =
            run_lease_worker(&spec, &Metrics::disabled(), &mut replies, &mut control).unwrap();
        assert_eq!(summary.assigned, len);
        assert_eq!(summary.evaluated, len);

        let control = String::from_utf8(control).unwrap();
        let lines: Vec<&str> = control.lines().collect();
        assert_eq!(
            lines
                .iter()
                .filter(|l| parse_lease_request(l).is_some())
                .count(),
            3,
            "one request per reply: {control}"
        );
        let done: Vec<_> = lines
            .iter()
            .filter_map(|l| parse_lease_done(l))
            .map(|(_, _, range)| range)
            .collect();
        assert_eq!(done, vec![0..split, split..len]);
        assert!(
            lines.iter().any(|l| l.starts_with("shard-progress ")),
            "heartbeats interleave: {control}"
        );

        // Every cell reached the flush stream, incrementally readable.
        let mut reader = FlushReader::new(path.clone());
        let poll = reader.poll().unwrap();
        assert!(!poll.damaged);
        assert_eq!(poll.records.len(), len);
        for cell in &unique {
            let key = grid.dedup_key(cell);
            assert!(poll.records.iter().any(|(k, _)| *k == key), "{key} missing");
        }
        // The flush stream is also a lenient-loadable cache.
        let loaded = ResultCache::load_lazy(&path).unwrap();
        assert_eq!(loaded.len(), len);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn lease_loop_stops_cleanly_when_the_coordinator_hangs_up() {
        let recipe = GridRecipe::classic(4);
        let len = recipe.build().unique_cells().len();
        let path = temp_path("lease-eof.cache");
        let script = format_lease_reply(&LeaseReply::Grant(0..2)) + "\n"; // then EOF
        let mut replies = Cursor::new(script.into_bytes());
        let mut control = Vec::new();
        let spec = lease_spec(path.clone(), recipe);
        let summary =
            run_lease_worker(&spec, &Metrics::disabled(), &mut replies, &mut control).unwrap();
        assert_eq!(summary.assigned, 2);
        assert!(2 <= len);
        let poll = FlushReader::new(path.clone()).poll().unwrap();
        assert_eq!(poll.records.len(), 2, "the completed lease was flushed");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn out_of_range_grants_and_junk_replies_are_protocol_errors() {
        let recipe = GridRecipe::classic(4);
        let len = recipe.build().unique_cells().len();
        for bad in [
            format_lease_reply(&LeaseReply::Grant(0..len + 1)),
            "who goes there".to_owned(),
        ] {
            let path = temp_path("lease-bad.cache");
            let mut replies = Cursor::new((bad.clone() + "\n").into_bytes());
            let mut control = Vec::new();
            let spec = lease_spec(path.clone(), recipe.clone());
            let err = run_lease_worker(&spec, &Metrics::disabled(), &mut replies, &mut control)
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn warm_cells_are_not_flushed_in_lease_mode() {
        // The coordinator already holds warm records; re-flushing them
        // would be wasted bytes (and a dedup hazard). Only fresh cells
        // may appear in the stream.
        let recipe = GridRecipe::classic(4);
        let grid = recipe.build();
        let unique = grid.unique_cells();
        let len = unique.len();
        let warm_path = temp_path("lease-warm.cache");
        let mut warm = ResultCache::new();
        GridExecutor::serial().resolve_cells(&grid, &unique[0..2], &mut warm);
        warm.save(&warm_path).unwrap();

        let path = temp_path("lease-warm-out.cache");
        let script = [
            format_lease_reply(&LeaseReply::Grant(0..len)),
            format_lease_reply(&LeaseReply::Retire),
        ]
        .join("\n")
            + "\n";
        let mut replies = Cursor::new(script.into_bytes());
        let mut control = Vec::new();
        let mut spec = lease_spec(path.clone(), recipe);
        spec.warm = Some(warm_path.clone());
        let summary =
            run_lease_worker(&spec, &Metrics::disabled(), &mut replies, &mut control).unwrap();
        assert_eq!(summary.assigned, len);
        assert_eq!(summary.evaluated, len - 2);
        assert_eq!(summary.warm_hits, 2);

        let poll = FlushReader::new(path.clone()).poll().unwrap();
        assert_eq!(poll.records.len(), len - 2, "warm cells stay out");
        for p in [warm_path, path] {
            std::fs::remove_file(p).unwrap();
        }
    }
}
