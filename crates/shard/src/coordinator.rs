//! The coordinator: chunk, spawn, grant, collect, reclaim, union.
//!
//! [`explore_sharded`] is one fan-out. The grid's canonical deduplicated
//! cell range is split into small lease chunks owned by a
//! [`LeaseQueue`]; one worker process per shard is spawned (a re-exec of
//! the current binary's `shard-worker` subcommand, stdin/stdout/stderr
//! all piped), and a per-child **collector thread**
//! speaks the lease protocol with it: `lease-request` lines on the
//! worker's stderr are answered with `lease-grant`/`lease-retire` lines
//! on its stdin, `lease-done` lines trigger a poll of the worker's
//! incremental flush stream ([`FlushReader`]), and `shard-progress`
//! heartbeats feed the aggregated progress display. A watchdog thread
//! reclaims leases from workers that stop heartbeating past
//! [`ShardOptions::lease_deadline`] (killing the stragglers), so their
//! chunks are re-issued to live workers.
//!
//! Every anomaly — a worker that failed to spawn, died or stalled
//! mid-lease, damaged its flush stream, announced a lease it never
//! flushed, or disagreed byte-wise with an existing entry — lands in a
//! per-shard **error ledger** instead of poisoning the merged cache.
//! The run is *complete* when the union of collected records covers the
//! whole range conflict-free, which holds for any worker count, lease
//! size or failure pattern that leaves at least one live worker.

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::io::BufRead as _;
use std::io::Write as _;
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use memstream_grid::telemetry::{parse_histograms, Histogram, TraceSnapshot};
use memstream_grid::{FlushReader, GridError, MergeStats, Metrics, ResultCache};

use crate::fault::FaultPlan;
use crate::lease::{LeaseQueue, LeaseResponse, LEASE_CHUNKS_PER_WORKER};
use crate::protocol::{
    format_lease_reply, parse_lease_done, parse_lease_request, parse_progress, LeaseReply,
    WorkerSpec,
};
use crate::recipe::GridRecipe;

/// The contiguous slice of a `len`-element canonical cell range owned by
/// shard `index` of `count`: `len*i/N .. len*(i+1)/N`. Slices partition
/// the range (no gaps, no overlap) and differ in length by at most one.
/// (The lease scheduler, not this partition, decides which worker
/// evaluates which cells; this stays as the reference partition shape
/// the lease properties are checked against.)
///
/// # Panics
///
/// Panics if `count` is zero or `index >= count`.
#[must_use]
pub fn shard_range(len: usize, index: usize, count: usize) -> Range<usize> {
    assert!(count > 0, "shard count must be positive");
    assert!(index < count, "shard index {index} out of range 0..{count}");
    (len * index / count)..(len * (index + 1) / count)
}

/// All `count` shard slices of a `len`-element range, in order.
///
/// # Panics
///
/// Panics if `count` is zero.
#[must_use]
pub fn shard_ranges(len: usize, count: usize) -> Vec<Range<usize>> {
    (0..count).map(|i| shard_range(len, i, count)).collect()
}

/// How a shard failed (the ledger's classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFailureKind {
    /// The worker process could not be spawned at all.
    Spawn,
    /// The worker exited abnormally (non-zero status, killed by a
    /// signal) or exited cleanly while the lease queue was undrained.
    Died,
    /// The worker stopped heartbeating past the lease deadline; the
    /// watchdog killed it and reclaimed its leases.
    Stalled,
    /// The worker's incremental flush stream was damaged (bad magic or
    /// an undecodable record).
    FlushCorrupt,
    /// The worker announced a lease it never delivered, flushed keys
    /// outside the planned grid, or the final merge left cells
    /// uncovered — it evaluated a different grid than the coordinator
    /// planned.
    Incompatible,
    /// An entry of the worker's flush stream conflicts byte-wise with
    /// one the coordinator already holds.
    Conflict,
}

impl fmt::Display for ShardFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardFailureKind::Spawn => "spawn failed",
            ShardFailureKind::Died => "worker died",
            ShardFailureKind::Stalled => "worker stalled",
            ShardFailureKind::FlushCorrupt => "flush corrupt",
            ShardFailureKind::Incompatible => "coverage mismatch",
            ShardFailureKind::Conflict => "cache conflict",
        })
    }
}

/// One entry of the per-shard error ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// 0-based index of the failing shard.
    pub shard: usize,
    /// The failure class.
    pub kind: ShardFailureKind,
    /// Human-readable attribution (exit status, offending key, leases
    /// reclaimed, ...).
    pub detail: String,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {}: {}: {}", self.shard, self.kind, self.detail)
    }
}

/// Per-worker accounting of one fan-out.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// 0-based shard index.
    pub shard: usize,
    /// Leases this worker completed (`lease-done` accepted by the queue).
    pub leases: usize,
    /// Cells of those completed leases (warm cells inside the chunks
    /// included).
    pub cells: usize,
    /// Records collected from this worker's incremental flush stream —
    /// including the committed prefix of a worker that later died.
    pub flushed: usize,
    /// What the union merge of this worker's collected records did.
    /// `None` when the worker never spawned or its records conflicted.
    pub merged: Option<MergeStats>,
    /// The worker's captured stderr (its own accounting lines; forwarded
    /// to the coordinator's stderr by the harness, never to stdout).
    /// Protocol lines (heartbeats, lease traffic) are consumed, not kept,
    /// and a partial trailing line from a worker that died mid-write is
    /// dropped.
    pub stderr: String,
    /// Wall-clock seconds from spawn to exit (also recorded into the
    /// `shard.worker_wall` histogram when metrics are enabled). Zero for
    /// a worker that never spawned.
    pub wall_seconds: f64,
    /// `shard-progress` heartbeat lines the coordinator consumed from
    /// this worker's stderr.
    pub heartbeats: usize,
    /// The worker's timeline-trace fragment, when the fan-out ran with
    /// tracing ([`ShardOptions::with_trace`]) and the worker wrote one.
    pub trace: Option<TraceSnapshot>,
}

/// The outcome of one [`explore_sharded`] fan-out.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRun {
    /// Size of the grid's canonical deduplicated cell range.
    pub unique_cells: usize,
    /// Cells already in the coordinator's cache before fan-out (the
    /// run's hits).
    pub cached: usize,
    /// Cells that needed evaluation somewhere (the run's misses). Zero
    /// means the cache was fully warm and **no worker was spawned**.
    pub fanned_out: usize,
    /// Worker count actually used (0 on a fully warm run).
    pub workers_spawned: usize,
    /// Lease chunks the canonical range was split into (0 on a fully
    /// warm run).
    pub lease_chunks: usize,
    /// Leases granted over the run (re-issues after reclaim count
    /// again).
    pub leases_issued: u64,
    /// Leases reclaimed from dead, stalled or lying workers and
    /// re-issued to live ones.
    pub leases_reclaimed: u64,
    /// Per-worker accounting, in shard order (empty on a fully warm run).
    pub workers: Vec<WorkerReport>,
    /// The per-shard error ledger. With lease reclaim a run can be
    /// complete *and* carry ledger entries (a worker died, its chunks
    /// were re-issued); the ledger attributes what happened.
    pub failures: Vec<ShardFailure>,
    /// Whether the merged cache covers the whole canonical range
    /// conflict-free — the property [`ShardRun::is_complete`] reports.
    pub complete: bool,
    /// The scratch directory holding flush/warm files; kept (for a
    /// post-mortem) exactly when the run is incomplete.
    pub scratch: Option<PathBuf>,
}

impl ShardRun {
    /// Whether the merged cache covers every unique cell conflict-free
    /// (individual workers may still have failed — see
    /// [`ShardRun::failures`]).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
    }
}

/// A sharded exploration failed before any per-shard ledger could be
/// built, or a caller promoted an incomplete run's ledger to a hard
/// error.
#[derive(Debug)]
pub enum ShardError {
    /// The grid itself is unexplorable.
    Grid(GridError),
    /// Coordinator-side I/O failed (scratch dir, warm-file write).
    Scratch(io::Error),
    /// The run was incomplete; the ledger is attached.
    Workers(Vec<ShardFailure>),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Grid(e) => write!(f, "sharded exploration: {e}"),
            ShardError::Scratch(e) => write!(f, "shard scratch I/O: {e}"),
            ShardError::Workers(ledger) => {
                write!(f, "{} shard(s) failed", ledger.len())?;
                for failure in ledger {
                    write!(f, "; {failure}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Grid(e) => Some(e),
            ShardError::Scratch(e) => Some(e),
            ShardError::Workers(_) => None,
        }
    }
}

impl From<GridError> for ShardError {
    fn from(e: GridError) -> Self {
        ShardError::Grid(e)
    }
}

/// How to fan a grid out across worker processes.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Requested worker count (clamped to the number of missing cells).
    pub shards: usize,
    /// `--threads` forwarded to each worker (`0` = machine width — only
    /// sensible when workers land on different hosts).
    pub worker_threads: usize,
    /// The program to spawn — normally the current binary
    /// (`std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments placed before the encoded [`WorkerSpec`] — normally
    /// `["shard-worker"]`, the harness subcommand. Tests substitute a
    /// shell here to simulate dying, stalling or lying workers.
    pub leading_args: Vec<String>,
    /// Where the coordinator reports the `shard.*` telemetry catalogue
    /// (spawn/wait/merge wall time, cell/lease/failure counts, the
    /// `shard.lease_wait` histogram — see `docs/OBSERVABILITY.md`).
    /// Disabled by default.
    pub metrics: Metrics,
    /// Whether workers are asked to record a timeline trace. Each worker
    /// writes a Chrome-trace fragment into the scratch directory; the
    /// coordinator reads the fragments back into
    /// [`WorkerReport::trace`] for the harness to merge with its own
    /// timeline. Disabled by default.
    pub trace: bool,
    /// Cells per lease chunk; `0` (the default) sizes chunks so each
    /// worker gets roughly [`LEASE_CHUNKS_PER_WORKER`] of them.
    pub lease_cells: usize,
    /// How long a worker may go without writing a single stderr line
    /// while holding a lease before the watchdog declares it stalled,
    /// kills it and reclaims its leases.
    pub lease_deadline: Duration,
    /// Deterministic misbehaviours injected into specific workers
    /// (`(shard index, plan)`), threaded through the hidden
    /// `--fault-plan` worker flag. Test-suite surface.
    pub fault_plans: Vec<(usize, FaultPlan)>,
}

impl ShardOptions {
    /// Options spawning `program shard-worker ...` with `shards` workers.
    ///
    /// Workers are assumed local, so the default per-worker thread count
    /// *divides* the machine width across them — `N` workers each at
    /// full width would oversubscribe the host `N`-fold. Override with
    /// [`ShardOptions::with_worker_threads`] (e.g. `0` = full width per
    /// worker, for remote launchers).
    #[must_use]
    pub fn new(program: PathBuf, shards: usize) -> Self {
        let machine = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ShardOptions {
            worker_threads: machine.div_ceil(shards.max(1)),
            shards,
            program,
            leading_args: vec!["shard-worker".to_owned()],
            metrics: Metrics::disabled(),
            trace: false,
            lease_cells: 0,
            lease_deadline: Duration::from_secs(30),
            fault_plans: Vec::new(),
        }
    }

    /// Sets the per-worker thread count (`0` = machine width per worker).
    #[must_use]
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }

    /// Makes coordinated fan-outs report into `metrics`.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.metrics = metrics.clone();
        self
    }

    /// Asks workers to record timeline-trace fragments (collected into
    /// [`WorkerReport::trace`]).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the lease chunk size in cells (`0` = auto).
    #[must_use]
    pub fn with_lease_cells(mut self, cells: usize) -> Self {
        self.lease_cells = cells;
        self
    }

    /// Sets the stall deadline after which a silent lease holder is
    /// killed and its leases reclaimed.
    #[must_use]
    pub fn with_lease_deadline(mut self, deadline: Duration) -> Self {
        self.lease_deadline = deadline;
        self
    }

    /// Injects a deterministic fault into worker `shard`.
    #[must_use]
    pub fn with_fault_plan(mut self, shard: usize, plan: FaultPlan) -> Self {
        self.fault_plans.push((shard, plan));
        self
    }
}

/// How often the aggregated `shard progress:` line is re-printed at most.
const PROGRESS_THROTTLE: Duration = Duration::from_millis(200);

/// How often a collector waiting for lease-queue work re-checks the
/// queue (a condvar wakeup normally arrives much sooner).
const GRANT_POLL: Duration = Duration::from_millis(50);

/// The throttled `shard progress: done/total cells` stderr line, shared
/// by every collector thread. Never touches stdout.
#[derive(Default)]
struct ProgressPrinter {
    last: Mutex<Option<Instant>>,
}

impl ProgressPrinter {
    fn update(&self, done: usize, total: usize, force: bool) {
        let Ok(mut last) = self.last.lock() else {
            return;
        };
        if force || last.is_none_or(|at| at.elapsed() >= PROGRESS_THROTTLE) {
            *last = Some(Instant::now());
            eprintln!("shard progress: {done}/{total} cells");
        }
    }
}

/// The immutable work map every collector verifies against: the
/// canonical dedup keys, which cells the coordinator already held, and
/// the key universe (for spotting a worker that evaluated a different
/// grid).
struct WorkPlan {
    keys: Vec<String>,
    covered: Vec<bool>,
    key_set: HashSet<String>,
}

/// The mutable scheduler state shared by collectors and the watchdog.
struct LeaseState {
    queue: LeaseQueue,
    /// Per worker: when its last stderr line (of any kind) arrived.
    last_activity: Vec<Instant>,
    /// Per worker: the watchdog's stall attribution, once declared.
    stalled: Vec<Option<String>>,
}

/// [`LeaseState`] plus the condvar that wakes collectors blocked waiting
/// for reclaimed or newly completed work.
struct LeaseShared {
    state: Mutex<LeaseState>,
    wakeup: Condvar,
}

impl LeaseShared {
    fn touch(&self, worker: usize) {
        if let Ok(mut state) = self.state.lock() {
            state.last_activity[worker] = Instant::now();
        }
    }

    fn progress(&self) -> (usize, usize) {
        let state = self.state.lock().expect("lease state");
        (state.queue.done_cells(), state.queue.total_cells())
    }

    /// Blocks until the queue has a decisive answer for `worker` — a
    /// grant or a retirement, never `Wait`. Waiters hold no lock while
    /// parked; completions, reclaims and worker deaths all notify.
    fn await_grant(&self, worker: usize) -> LeaseResponse {
        let mut state = self.state.lock().expect("lease state");
        loop {
            match state.queue.request(worker) {
                LeaseResponse::Wait => {
                    state = self
                        .wakeup
                        .wait_timeout(state, GRANT_POLL)
                        .expect("lease state")
                        .0;
                }
                decisive => return decisive,
            }
        }
    }

    fn holds(&self, worker: usize, range: &Range<usize>) -> bool {
        self.state
            .lock()
            .expect("lease state")
            .queue
            .holds(worker, range)
    }

    fn complete(&self, worker: usize, range: &Range<usize>) -> bool {
        let done = self
            .state
            .lock()
            .expect("lease state")
            .queue
            .complete(worker, range);
        if done {
            self.wakeup.notify_all();
        }
        done
    }

    fn reclaim(&self, worker: usize) -> usize {
        let count = self
            .state
            .lock()
            .expect("lease state")
            .queue
            .reclaim(worker);
        self.wakeup.notify_all();
        count
    }

    /// Bookkeeping when a worker's stderr hits EOF: any leases it still
    /// holds go back to the queue. Returns `(reclaimed, drained)` at
    /// that moment — a worker that exited cleanly *after* retirement
    /// sees `(0, true)`.
    fn on_eof(&self, worker: usize) -> (usize, bool) {
        let mut state = self.state.lock().expect("lease state");
        let reclaimed = state.queue.reclaim(worker);
        let drained = state.queue.is_drained();
        drop(state);
        self.wakeup.notify_all();
        (reclaimed, drained)
    }

    fn stalled_detail(&self, worker: usize) -> Option<String> {
        self.state.lock().expect("lease state").stalled[worker].clone()
    }

    fn totals(&self) -> (usize, u64, u64) {
        let state = self.state.lock().expect("lease state");
        (
            state.queue.chunk_count(),
            state.queue.issued(),
            state.queue.reclaimed(),
        )
    }
}

type SharedChild = Arc<Mutex<Child>>;

/// Everything one collector thread needs, moved in at spawn.
struct CollectorCtx {
    worker: usize,
    shared: Arc<LeaseShared>,
    plan: Arc<WorkPlan>,
    printer: Arc<ProgressPrinter>,
    child: SharedChild,
    stdin: Option<ChildStdin>,
    stdout: Option<std::process::ChildStdout>,
    stderr: Option<std::process::ChildStderr>,
    flush_path: PathBuf,
    lease_wait: Histogram,
    started: Instant,
}

/// What one collector thread hands back when its worker is gone.
struct CollectedWorker {
    status: io::Result<ExitStatus>,
    stderr: String,
    heartbeats: usize,
    wall: Duration,
    /// Records collected from the worker's flush stream.
    local: ResultCache,
    flushed: usize,
    leases: usize,
    cells: usize,
    /// Leases still held at EOF (reclaimed and re-issued).
    eof_reclaimed: usize,
    /// Whether the queue was drained when this worker EOF'd.
    drained_at_eof: bool,
    /// A protocol violation the collector attributed mid-stream.
    failure: Option<(ShardFailureKind, String)>,
}

/// Polls the flush stream into `local`, verifying every record's key is
/// part of the planned grid. Records decoded before any damage are kept
/// — a dead worker's committed prefix still merges.
fn absorb_flush(
    reader: &mut FlushReader,
    plan: &WorkPlan,
    local: &mut ResultCache,
) -> Result<usize, (ShardFailureKind, String)> {
    let poll = reader
        .poll()
        .map_err(|e| (ShardFailureKind::FlushCorrupt, format!("flush stream: {e}")))?;
    let count = poll.records.len();
    for (key, outcome) in poll.records {
        if !plan.key_set.contains(&key) {
            return Err((
                ShardFailureKind::Incompatible,
                format!("flushed key `{key}` is not in the planned grid"),
            ));
        }
        local.insert(key, outcome);
    }
    if poll.damaged {
        return Err((
            ShardFailureKind::FlushCorrupt,
            "flush stream damaged (bad magic or undecodable record)".to_owned(),
        ));
    }
    Ok(count)
}

/// The first cell of `range` the coordinator needed and `local` does not
/// deliver, if any.
fn uncovered_cell(plan: &WorkPlan, range: &Range<usize>, local: &ResultCache) -> Option<usize> {
    range
        .clone()
        .find(|&idx| !plan.covered[idx] && !local.contains_key(&plan.keys[idx]))
}

/// Best-effort kill that never blocks: if the child's mutex is held, its
/// collector is already in `wait()` — the process is on its way out.
fn kill_child(child: &SharedChild) {
    if let Ok(mut child) = child.try_lock() {
        let _ = child.kill();
    }
}

/// One worker's collector: drains the child's pipes as they fill (a
/// worker blocked on a full pipe against a coordinator waiting on a
/// sibling would deadlock), answering lease traffic and tailing the
/// flush stream along the way.
fn collect_streaming(ctx: CollectorCtx) -> CollectedWorker {
    let CollectorCtx {
        worker,
        shared,
        plan,
        printer,
        child,
        mut stdin,
        stdout,
        stderr: stderr_pipe,
        flush_path,
        lease_wait,
        started,
    } = ctx;
    // Workers write nothing to stdout, but drain it anyway: an unexpected
    // chatty worker must never wedge the run on a full pipe.
    let drain = stdout.map(|mut out| {
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = io::Read::read_to_end(&mut out, &mut sink);
        })
    });

    let mut flush = FlushReader::new(flush_path);
    let mut local = ResultCache::new();
    let mut stderr = String::new();
    let mut heartbeats = 0usize;
    let mut flushed = 0usize;
    let mut leases = 0usize;
    let mut cells = 0usize;
    let mut failure: Option<(ShardFailureKind, String)> = None;

    if let Some(pipe) = stderr_pipe {
        let mut reader = io::BufReader::new(pipe);
        let mut line = Vec::new();
        'lines: loop {
            line.clear();
            match reader.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            // A worker that dies mid-write leaves a partial trailing
            // line (`read_until` without its delimiter means the pipe
            // closed). It is not a complete protocol line and must not
            // pollute the kept stderr — drop it and fall through to the
            // EOF path.
            if line.last() != Some(&b'\n') {
                break;
            }
            shared.touch(worker);
            let text = String::from_utf8_lossy(&line);
            let trimmed = text.trim_end();
            if parse_progress(trimmed).is_some() {
                heartbeats += 1;
                let (done, total) = shared.progress();
                printer.update(done, total, false);
            } else if parse_lease_request(trimmed).is_some() {
                let asked = Instant::now();
                let response = shared.await_grant(worker);
                lease_wait.record(asked.elapsed());
                let reply = match response {
                    LeaseResponse::Grant(range) => LeaseReply::Grant(range),
                    LeaseResponse::Wait | LeaseResponse::Retire => LeaseReply::Retire,
                };
                let delivered = stdin.as_mut().is_some_and(|pipe| {
                    writeln!(pipe, "{}", format_lease_reply(&reply))
                        .and_then(|()| pipe.flush())
                        .is_ok()
                });
                if !delivered {
                    // The grant channel is gone (the worker is dying):
                    // put any grant straight back and keep draining.
                    shared.reclaim(worker);
                    stdin = None;
                }
            } else if let Some((_, _, range)) = parse_lease_done(trimmed) {
                // Only a lease this worker actually holds counts; a
                // stale `lease-done` (its leases were reclaimed) or a
                // bogus range is ignored — the final coverage check
                // still guards correctness.
                if !shared.holds(worker, &range) {
                    continue;
                }
                match absorb_flush(&mut flush, &plan, &mut local) {
                    Ok(count) => flushed += count,
                    Err(why) => {
                        failure = Some(why);
                        shared.reclaim(worker);
                        kill_child(&child);
                        break 'lines;
                    }
                }
                if let Some(idx) = uncovered_cell(&plan, &range, &local) {
                    failure = Some((
                        ShardFailureKind::Incompatible,
                        format!(
                            "lease-done {}..{} lacks a flushed record for key `{}`",
                            range.start, range.end, plan.keys[idx]
                        ),
                    ));
                    shared.reclaim(worker);
                    kill_child(&child);
                    break 'lines;
                }
                if shared.complete(worker, &range) {
                    leases += 1;
                    cells += range.len();
                    let (done, total) = shared.progress();
                    printer.update(done, total, done == total);
                }
            } else {
                stderr.push_str(&text);
            }
        }
    }

    // Straggler records flushed after the last `lease-done` — notably
    // the committed prefix of a worker that died mid-lease.
    if failure.is_none() {
        match absorb_flush(&mut flush, &plan, &mut local) {
            Ok(count) => flushed += count,
            Err(why) => failure = Some(why),
        }
    }
    drop(stdin); // EOF the grant channel, in case the worker still reads
    let status = child.lock().expect("child handle").wait();
    if let Some(drain) = drain {
        let _ = drain.join();
    }
    let (eof_reclaimed, drained_at_eof) = shared.on_eof(worker);
    CollectedWorker {
        status,
        stderr,
        heartbeats,
        wall: started.elapsed(),
        local,
        flushed,
        leases,
        cells,
        eof_reclaimed,
        drained_at_eof,
        failure,
    }
}

/// Tells the watchdog to exit: a flag plus the condition variable its
/// tick waits on, so raising the flag ends the wait at once instead of
/// after the rest of a tick.
#[derive(Default)]
struct StopSignal {
    stopped: Mutex<bool>,
    raised: Condvar,
}

// A poisoned lock is recovered: a lone `bool` is valid at every step.
impl StopSignal {
    fn raise(&self) {
        *self.stopped.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.raised.notify_all();
    }

    /// Waits out one `tick`; returns whether the signal was raised.
    fn wait(&self, tick: Duration) -> bool {
        let stopped = self.stopped.lock().unwrap_or_else(PoisonError::into_inner);
        let (stopped, _) = self
            .raised
            .wait_timeout_while(stopped, tick, |stopped| !*stopped)
            .unwrap_or_else(PoisonError::into_inner);
        *stopped
    }
}

/// The stall watchdog: ticks until stopped, reclaiming (and killing)
/// workers that hold leases but have written nothing for the deadline.
/// Once the queue is drained it also kills any unresponsive straggler so
/// the run can end.
fn run_watchdog(
    shared: &Arc<LeaseShared>,
    children: &[Option<SharedChild>],
    deadline: Duration,
    stop: &StopSignal,
) {
    let tick = (deadline / 4).clamp(Duration::from_millis(10), Duration::from_millis(200));
    while !stop.wait(tick) {
        let Ok(mut state) = shared.state.lock() else {
            return;
        };
        let now = Instant::now();
        let mut kill_list = Vec::new();
        for (worker, child) in children.iter().enumerate() {
            if state.stalled[worker].is_some() || child.is_none() {
                continue;
            }
            let idle = now.saturating_duration_since(state.last_activity[worker]);
            if idle < deadline {
                continue;
            }
            if state.queue.outstanding(worker) > 0 {
                let reclaimed = state.queue.reclaim(worker);
                state.stalled[worker] = Some(format!(
                    "no heartbeat for {:.1}s; killed, {reclaimed} lease(s) reclaimed",
                    idle.as_secs_f64()
                ));
                shared.wakeup.notify_all();
                kill_list.push(worker);
            } else if state.queue.is_drained() {
                kill_list.push(worker);
            }
        }
        drop(state);
        for worker in kill_list {
            if let Some(child) = &children[worker] {
                kill_child(child);
            }
        }
    }
}

/// A process-unique scratch directory for one fan-out's cache files.
fn scratch_dir() -> io::Result<PathBuf> {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "memstream-shard-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One coordinated fan-out: resolve every unique cell of the recipe's
/// grid into `cache`, evaluating missing cells on spawned worker
/// processes under the lease scheduler and merging their incrementally
/// flushed records by strict union.
///
/// A fully warm cache short-circuits: no scratch files, no processes.
/// Otherwise the **full** canonical range is chunked (workers skip warm
/// cells via the shipped warm file), so the chunk layout is a function
/// of the grid alone, not of cache temperature.
///
/// Failures of individual workers land in [`ShardRun::failures`]; their
/// leases are reclaimed and re-issued, so the run still completes —
/// byte-identically — as long as one worker survives. Everything that
/// was flushed is merged regardless, so even an incomplete run leaves
/// the cache warmer for a retry.
///
/// # Errors
///
/// [`ShardError::Scratch`] when coordinator-side I/O (scratch directory,
/// warm-file write) fails — per-worker problems are *not* errors here.
pub fn explore_sharded(
    recipe: &GridRecipe,
    cache: &mut ResultCache,
    opts: &ShardOptions,
) -> Result<ShardRun, ShardError> {
    let grid = recipe.build();
    let unique = grid.unique_cells();
    let keys: Vec<String> = unique.iter().map(|c| grid.dedup_key(c)).collect();
    let covered: Vec<bool> = keys.iter().map(|k| cache.contains_key(k)).collect();
    let cached = covered.iter().filter(|&&warm| warm).count();
    let missing = unique.len() - cached;

    let metrics = &opts.metrics;
    metrics.counter("shard.runs").incr();
    metrics
        .counter("shard.unique_cells")
        .add(unique.len() as u64);
    metrics.counter("shard.cached").add(cached as u64);
    metrics.counter("shard.fanned_out").add(missing as u64);

    if missing == 0 {
        return Ok(ShardRun {
            unique_cells: unique.len(),
            cached,
            fanned_out: 0,
            workers_spawned: 0,
            lease_chunks: 0,
            leases_issued: 0,
            leases_reclaimed: 0,
            workers: Vec::new(),
            failures: Vec::new(),
            complete: true,
            scratch: None,
        });
    }

    let shards = opts.shards.clamp(1, missing);
    let chunk_cells = if opts.lease_cells > 0 {
        opts.lease_cells
    } else {
        unique
            .len()
            .div_ceil(shards * LEASE_CHUNKS_PER_WORKER)
            .max(1)
    };
    let scratch = scratch_dir().map_err(ShardError::Scratch)?;
    // Ship a warm file only when this grid can actually hit it. A
    // refinement round's sub-grid (new rates only) shares no keys with
    // the accumulated cache — writing it out for N workers to parse
    // would be pure waste, and it grows every round.
    let warm = if cached == 0 {
        None
    } else {
        let path = scratch.join("warm.cache");
        cache.save(&path).map_err(ShardError::Scratch)?;
        Some(path)
    };

    let key_set: HashSet<String> = keys.iter().cloned().collect();
    let plan = Arc::new(WorkPlan {
        keys,
        covered,
        key_set,
    });
    let shared = Arc::new(LeaseShared {
        state: Mutex::new(LeaseState {
            queue: LeaseQueue::new(unique.len(), chunk_cells, shards, &plan.covered),
            last_activity: vec![Instant::now(); shards],
            stalled: vec![None; shards],
        }),
        wakeup: Condvar::new(),
    });
    let printer = Arc::new(ProgressPrinter::default());
    let lease_wait = metrics.histogram("shard.lease_wait");

    // Spawn every worker before waiting on any: they run concurrently,
    // each parallel inside itself on its own threads, and each child
    // gets a collector thread draining its pipes immediately.
    let spawn_timer = metrics.span("shard.spawn").start();
    metrics.counter("shard.workers_spawned").add(shards as u64);
    let mut handles = Vec::with_capacity(shards);
    let mut children: Vec<Option<SharedChild>> = vec![None; shards];
    let mut failures: Vec<ShardFailure> = Vec::new();
    for (index, child_slot) in children.iter_mut().enumerate() {
        let spec = WorkerSpec {
            shard: index,
            shard_count: shards,
            cache: scratch.join(format!("shard-{index}.cache")),
            warm: warm.clone(),
            threads: opts.worker_threads,
            stats: false,
            // Workers with live telemetry write their registry (and its
            // latency histograms) into scratch; the coordinator merges
            // the histograms back so eval/cache latency distributions
            // survive the process boundary.
            stats_json: metrics
                .is_enabled()
                .then(|| scratch.join(format!("shard-{index}.stats.json"))),
            trace: opts
                .trace
                .then(|| scratch.join(format!("shard-{index}.trace.json"))),
            fault: opts
                .fault_plans
                .iter()
                .find(|(shard, _)| *shard == index)
                .map(|(_, plan)| *plan),
            recipe: recipe.clone(),
        };
        let child = Command::new(&opts.program)
            .args(&opts.leading_args)
            .args(spec.to_args())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn();
        match child {
            Ok(mut child) => {
                let started = Instant::now();
                let stdin = child.stdin.take();
                let stdout = child.stdout.take();
                let stderr = child.stderr.take();
                let handle: SharedChild = Arc::new(Mutex::new(child));
                *child_slot = Some(Arc::clone(&handle));
                let ctx = CollectorCtx {
                    worker: index,
                    shared: Arc::clone(&shared),
                    plan: Arc::clone(&plan),
                    printer: Arc::clone(&printer),
                    child: handle,
                    stdin,
                    stdout,
                    stderr,
                    flush_path: spec.cache.clone(),
                    lease_wait: lease_wait.clone(),
                    started,
                };
                handles.push((spec, Some(std::thread::spawn(|| collect_streaming(ctx)))));
            }
            Err(e) => {
                failures.push(ShardFailure {
                    shard: index,
                    kind: ShardFailureKind::Spawn,
                    detail: format!("{}: {e}", opts.program.display()),
                });
                handles.push((spec, None));
            }
        }
    }
    drop(spawn_timer);

    // The watchdog lives as long as the collectors do: joins below rely
    // on it to unstick stalled workers.
    let stop = Arc::new(StopSignal::default());
    let watchdog = children.iter().any(Option::is_some).then(|| {
        let shared = Arc::clone(&shared);
        let children = children.clone();
        let stop = Arc::clone(&stop);
        let deadline = opts.lease_deadline;
        std::thread::spawn(move || run_watchdog(&shared, &children, deadline, &stop))
    });

    let wait_span = metrics.span("shard.wait");
    let merge_span = metrics.span("shard.merge");
    let merge_bytes = metrics.counter("shard.merge_bytes");
    let wall_histogram = metrics.histogram("shard.worker_wall");
    let mut workers = Vec::with_capacity(shards);
    let mut conflicted = false;
    for (spec, handle) in handles {
        let mut report = WorkerReport {
            shard: spec.shard,
            leases: 0,
            cells: 0,
            flushed: 0,
            merged: None,
            stderr: String::new(),
            wall_seconds: 0.0,
            heartbeats: 0,
            trace: None,
        };
        if let Some(handle) = handle {
            let wait_timer = wait_span.start();
            let collected = handle.join().expect("worker collector thread");
            drop(wait_timer);
            report.stderr = collected.stderr;
            report.heartbeats = collected.heartbeats;
            report.wall_seconds = collected.wall.as_secs_f64();
            report.leases = collected.leases;
            report.cells = collected.cells;
            report.flushed = collected.flushed;
            wall_histogram.record(collected.wall);
            // The worker's latency histograms and trace fragment are
            // best-effort observability: read them whatever its fate (a
            // worker that later fails still measured real evaluations).
            // Counters and spans are *not* merged — the coordinator's
            // own registry already accounts for the run, and
            // double-counting would corrupt the hit/miss totals.
            if let Some(path) = &spec.stats_json {
                if let Ok(text) = std::fs::read_to_string(path) {
                    if let Ok(samples) = parse_histograms(&text) {
                        for sample in &samples {
                            metrics.histogram(&sample.name).merge_sample(sample);
                        }
                    }
                }
            }
            if let Some(path) = &spec.trace {
                if let Ok(text) = std::fs::read_to_string(path) {
                    report.trace = TraceSnapshot::from_chrome_json(&text).ok();
                }
            }
            // Merge whatever the worker delivered — a dead worker's
            // committed prefix included. Duplicates from a reclaimed
            // lease finished twice must be byte-equal or the merge is a
            // hard conflict.
            let merge_timer = merge_span.start();
            match cache.merge(&collected.local) {
                Ok(stats) => {
                    report.merged = Some(stats);
                    if merge_bytes.is_live() {
                        if let Ok(meta) = std::fs::metadata(&spec.cache) {
                            merge_bytes.add(meta.len());
                        }
                    }
                }
                Err(conflict) => {
                    conflicted = true;
                    failures.push(ShardFailure {
                        shard: spec.shard,
                        kind: ShardFailureKind::Conflict,
                        detail: conflict.to_string(),
                    });
                }
            }
            drop(merge_timer);
            // Fate: an attributed protocol violation wins, then a
            // watchdog stall, then the exit status and queue state.
            let fate = if let Some((kind, detail)) = collected.failure {
                Some((kind, detail))
            } else if let Some(detail) = shared.stalled_detail(spec.shard) {
                Some((ShardFailureKind::Stalled, detail))
            } else {
                match collected.status {
                    Err(e) => Some((ShardFailureKind::Died, format!("wait failed: {e}"))),
                    Ok(status) if !status.success() => Some((
                        ShardFailureKind::Died,
                        format!(
                            "exited abnormally ({status}); {} lease(s) reclaimed",
                            collected.eof_reclaimed
                        ),
                    )),
                    Ok(_) if !collected.drained_at_eof || collected.eof_reclaimed > 0 => Some((
                        ShardFailureKind::Died,
                        format!(
                            "exited before the lease queue drained ({} lease(s) reclaimed)",
                            collected.eof_reclaimed
                        ),
                    )),
                    Ok(_) => None,
                }
            };
            if let Some((kind, detail)) = fate {
                failures.push(ShardFailure {
                    shard: spec.shard,
                    kind,
                    detail,
                });
            }
        }
        workers.push(report);
    }
    stop.raise();
    if let Some(watchdog) = watchdog {
        let _ = watchdog.join();
    }

    // The run's real verdict: does the merged cache cover the canonical
    // range, conflict-free?
    let uncovered = plan
        .keys
        .iter()
        .filter(|key| !cache.contains_key(key))
        .count();
    if uncovered > 0 && failures.is_empty() {
        failures.push(ShardFailure {
            shard: 0,
            kind: ShardFailureKind::Incompatible,
            detail: format!("{uncovered} cell(s) uncovered after the merge"),
        });
    }
    let complete = uncovered == 0 && !conflicted;
    failures.sort_by_key(|failure| failure.shard);

    let (lease_chunks, leases_issued, leases_reclaimed) = shared.totals();
    metrics
        .counter("shard.lease_chunks")
        .add(lease_chunks as u64);
    metrics.counter("shard.leases_issued").add(leases_issued);
    metrics
        .counter("shard.leases_reclaimed")
        .add(leases_reclaimed);
    metrics.counter("shard.failures").add(failures.len() as u64);

    if complete {
        // Complete runs leave nothing behind; an incomplete run keeps
        // its scratch files for a post-mortem.
        let _ = std::fs::remove_dir_all(&scratch);
    }
    Ok(ShardRun {
        unique_cells: unique.len(),
        cached,
        fanned_out: missing,
        workers_spawned: shards,
        lease_chunks,
        leases_issued,
        leases_reclaimed,
        workers,
        failures,
        complete,
        scratch: (!complete).then_some(scratch),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raising_the_stop_signal_ends_a_watchdog_wait_at_once() {
        // The waiter may start before or after the raise; either way it
        // must return long before its hour-long tick.
        let signal = Arc::new(StopSignal::default());
        let started = Instant::now();
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || signal.wait(Duration::from_secs(3600)))
        };
        signal.raise();
        assert!(waiter.join().expect("waiter thread"));
        assert!(signal.wait(Duration::from_secs(3600)), "stays raised");
        assert!(started.elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn shard_ranges_partition_without_gaps_or_overlap() {
        for (len, count) in [(0, 1), (1, 3), (10, 3), (17, 4), (8, 8), (5, 7)] {
            let ranges = shard_ranges(len, count);
            assert_eq!(ranges.len(), count);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_are_rejected() {
        let _ = shard_range(10, 0, 0);
    }

    /// A fake worker: any shell script stands in for the spawned
    /// process. `$1 $2 ...` receive the encoded [`WorkerSpec`]; the
    /// script can speak the lease protocol over stderr/stdin.
    #[cfg(unix)]
    fn sh_options(script: &str, shards: usize) -> ShardOptions {
        ShardOptions {
            shards,
            worker_threads: 1,
            program: PathBuf::from("/bin/sh"),
            leading_args: vec!["-c".to_owned(), script.to_owned(), "fake-worker".to_owned()],
            metrics: Metrics::disabled(),
            trace: false,
            lease_cells: 0,
            lease_deadline: Duration::from_secs(30),
            fault_plans: Vec::new(),
        }
    }

    #[cfg(unix)]
    fn cleanup(run: &ShardRun) {
        if let Some(dir) = &run.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[cfg(unix)]
    #[test]
    fn worker_exiting_before_the_queue_drains_is_died_in_the_ledger() {
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let run = explore_sharded(&recipe, &mut cache, &sh_options("exit 0", 1)).expect("run");
        assert_eq!(run.failures.len(), 1, "ledger: {:?}", run.failures);
        assert_eq!(run.failures[0].kind, ShardFailureKind::Died);
        assert!(
            run.failures[0]
                .detail
                .contains("before the lease queue drained"),
            "detail: {}",
            run.failures[0].detail
        );
        assert!(!run.is_complete());
        assert!(cache.is_empty());
        assert!(run.scratch.is_some(), "incomplete runs keep their scratch");
        cleanup(&run);
    }

    #[cfg(unix)]
    #[test]
    fn lease_done_without_a_flush_is_a_coverage_mismatch() {
        // The fake worker speaks the protocol far enough to be granted a
        // lease, then announces completion without flushing a single
        // record. The coordinator must catch the lie, attribute it, and
        // kill the worker.
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let script = r#"
            while [ "$#" -gt 0 ]; do case "$1" in
                --shard) S="$2"; shift 2;;
                *) shift;;
            esac; done
            echo "lease-request $S" >&2
            read -r reply range
            case "$reply" in
                lease-grant) echo "lease-done $S: $range" >&2; exec sleep 5;;
            esac
        "#;
        let run = explore_sharded(&recipe, &mut cache, &sh_options(script, 1)).expect("run");
        assert_eq!(run.failures.len(), 1, "ledger: {:?}", run.failures);
        assert_eq!(run.failures[0].kind, ShardFailureKind::Incompatible);
        assert!(
            run.failures[0].detail.contains("lacks a flushed record"),
            "detail: {}",
            run.failures[0].detail
        );
        assert!(!run.is_complete());
        assert!(cache.is_empty());
        assert!(run.leases_issued >= 1);
        cleanup(&run);
    }

    #[cfg(unix)]
    #[test]
    fn damaged_flush_stream_is_attributed_as_flush_corrupt() {
        // The fake worker writes garbage where its flush stream should
        // be, then announces a lease completion: the poll must flag the
        // stream, not merge nonsense.
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let script = r#"
            while [ "$#" -gt 0 ]; do case "$1" in
                --shard) S="$2"; shift 2;;
                --cache) C="$2"; shift 2;;
                *) shift;;
            esac; done
            printf 'memstream-grid-cache v99\nXXXXXXXXXXXXXXXX' > "$C"
            echo "lease-request $S" >&2
            read -r reply range
            case "$reply" in
                lease-grant) echo "lease-done $S: $range" >&2; exec sleep 5;;
            esac
        "#;
        let run = explore_sharded(&recipe, &mut cache, &sh_options(script, 1)).expect("run");
        assert_eq!(run.failures.len(), 1, "ledger: {:?}", run.failures);
        assert_eq!(run.failures[0].kind, ShardFailureKind::FlushCorrupt);
        assert!(!run.is_complete());
        assert!(cache.is_empty());
        cleanup(&run);
    }

    #[cfg(unix)]
    #[test]
    fn silent_lease_holder_is_reclaimed_by_the_watchdog() {
        // The fake worker takes a lease and goes silent; the watchdog
        // must declare it stalled, kill it and reclaim the lease.
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let script = r#"
            while [ "$#" -gt 0 ]; do case "$1" in
                --shard) S="$2"; shift 2;;
                *) shift;;
            esac; done
            echo "lease-request $S" >&2
            read -r reply range
            exec sleep 60
        "#;
        let mut opts = sh_options(script, 1);
        opts.lease_deadline = Duration::from_millis(150);
        let started = Instant::now();
        let run = explore_sharded(&recipe, &mut cache, &opts).expect("run");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the watchdog, not the 60s sleep, must end the run"
        );
        assert_eq!(run.failures.len(), 1, "ledger: {:?}", run.failures);
        assert_eq!(run.failures[0].kind, ShardFailureKind::Stalled);
        assert!(
            run.failures[0].detail.contains("lease(s) reclaimed"),
            "detail: {}",
            run.failures[0].detail
        );
        assert!(run.leases_reclaimed >= 1);
        assert!(!run.is_complete(), "nobody was left to take the lease");
        cleanup(&run);
    }

    #[cfg(unix)]
    #[test]
    fn heartbeat_lines_are_consumed_not_kept_as_worker_stderr() {
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let script = r#"
            echo 'shard-progress 0/1: 3/6' >&2
            echo 'ordinary accounting line' >&2
            echo 'shard-progress 0/1: 6/6' >&2
        "#;
        let run = explore_sharded(&recipe, &mut cache, &sh_options(script, 1)).expect("run");
        assert_eq!(run.workers[0].heartbeats, 2);
        assert!(run.workers[0].stderr.contains("ordinary accounting line"));
        assert!(
            !run.workers[0].stderr.contains("shard-progress"),
            "heartbeats must be consumed, kept stderr was {:?}",
            run.workers[0].stderr
        );
        assert!(run.workers[0].wall_seconds > 0.0);
        assert!(run.workers[0].trace.is_none(), "tracing was off");
        cleanup(&run);
    }

    #[cfg(unix)]
    #[test]
    fn partial_trailing_line_from_a_dying_worker_is_dropped() {
        // The worker dies mid-heartbeat: one complete line, then a
        // newline-less fragment. The fragment is neither a heartbeat nor
        // ordinary stderr — it must vanish instead of polluting the
        // aggregated progress or the kept stderr.
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let script = r#"
            echo 'shard-progress 0/1: 3/6' >&2
            printf 'shard-progress 0/1: 6' >&2
        "#;
        let run = explore_sharded(&recipe, &mut cache, &sh_options(script, 1)).expect("run");
        assert_eq!(run.workers[0].heartbeats, 1, "only the complete line");
        assert_eq!(
            run.workers[0].stderr, "",
            "the partial fragment must be dropped, not kept"
        );
        cleanup(&run);
    }

    #[test]
    fn fully_warm_cache_spawns_no_workers() {
        use memstream_grid::GridExecutor;
        let recipe = GridRecipe::classic(3);
        let grid = recipe.build();
        let mut cache = ResultCache::new();
        GridExecutor::serial()
            .explore_cached(&grid, &mut cache)
            .unwrap();
        // A bogus program proves nothing was spawned.
        let opts = ShardOptions::new(PathBuf::from("/nonexistent/worker"), 4);
        let run = explore_sharded(&recipe, &mut cache, &opts).expect("warm run");
        assert_eq!(run.workers_spawned, 0);
        assert_eq!(run.fanned_out, 0);
        assert_eq!(run.lease_chunks, 0);
        assert_eq!(run.cached, run.unique_cells);
        assert!(run.is_complete());
        assert!(run.scratch.is_none());
    }

    #[test]
    fn unspawnable_program_fills_the_ledger() {
        let recipe = GridRecipe::classic(3);
        let mut cache = ResultCache::new();
        let opts = ShardOptions::new(PathBuf::from("/nonexistent/worker"), 2);
        let run = explore_sharded(&recipe, &mut cache, &opts).expect("run");
        assert_eq!(run.failures.len(), 2);
        assert!(run
            .failures
            .iter()
            .all(|f| f.kind == ShardFailureKind::Spawn));
        assert!(!run.is_complete());
        if let Some(dir) = run.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
