//! The resident compile service. Warm requests are answered on the
//! submitting thread; only misses go asynchronous, through a solve stage
//! (CXLMemUring's lesson: offload only what really takes long):
//!
//! ```text
//!  submit ──► probe the warm tiers ──miss──► solve ring ──► solve workers
//!             (local program pool,            (bounded,      (catch_unwind
//!              then shared segment)            priority)      compile, then
//!                    │ hit                                    deliver to every
//!                    ▼                                        waiter)
//!               the ticket holds its result
//! ```
//!
//! [`Service::submit_compile`] probes the local program pool and then the
//! shared segment without ever synthesizing or solving (DAXFS's
//! reader-never-blocks-writer discipline). A **warm hit is delivered at
//! submission**: the returned [`Ticket`] already holds its result, and it
//! takes no admission slot, creates no in-flight entry and never touches
//! the solve stage, so a warm response can never queue behind a cold
//! solve. Only misses enter the solve ring, where the expensive workers
//! run the pipeline (filling the synthesis pool that makes the *next*
//! miss of the same blocks cheaper) and deliver each result to its
//! waiters themselves. The thread that delivers a result takes its
//! `done_seq` from one global counter and counts it `completed` or
//! `failed`, so sequence numbers stay unique and 1-based, and a warm hit
//! delivered while a cold job stalls gets the lower number.
//!
//! ## Admission
//!
//! Only misses (and debug ops) are admitted, and the solve ring's
//! capacity is the admission bound: a job that finds the ring full — or
//! closed, while the service drains — is rejected with [`QueueFull`].
//! `queue_depth` is the ring's depth: jobs admitted but not yet claimed
//! by a solve worker or cancelled. Warm hits and coalesced duplicates
//! take no slot, so a full solve ring never turns a warm request away.
//!
//! ## Coalescing
//!
//! Misses are keyed by `(circuit content hash, pipeline, options
//! fingerprint)` — exactly the whole-program cache key — so N identical
//! concurrent misses occupy **one** admission slot: the first submission
//! enqueues and registers the in-flight entry, the rest attach to it and
//! all N receive the one result. A request arriving *after* the job
//! completed is not coalesced; the probe answers it as a plain warm hit.
//! A hit registers nothing, so nothing ever coalesces onto one. A
//! duplicate hotter than the queued original boosts the queued job, so
//! coalescing never inverts the priority contract.
//!
//! ## Cancellation
//!
//! Every miss's ticket carries a waiter guard: dropping the last ticket
//! attached to a job still in the solve ring removes the job (freeing its
//! admission slot) and counts it under `cancelled`. The inflight lock is
//! held across the push-and-register of a submission, across the guard's
//! removal and across the solve worker's collection of the waiters, so
//! under that lock a job is either in the ring with its waiters
//! registered or gone from both, and its worker always finds every
//! waiter. A job already claimed by a solve worker is past cancellation
//! and completes with nobody waiting; a warm hit is answered at
//! submission and has nothing to cancel.
//!
//! ## Failure isolation
//!
//! A panicking pipeline (or the gated debug `panic` op) is caught per
//! job in the solve worker: the worker delivers an error to every
//! attached waiter, the `failed` counter ticks, and the worker survives
//! to take the next job.
//!
//! ## Persistence
//!
//! The shared segment (`shm_path`) is the one durable tier. Solve workers
//! publish each compiled program as it completes; a bulk pass
//! ([`sharing::publish_all`]) on every snapshot tick, `snapshot` op and
//! shutdown carries the synthesis pool across, and each pass is one
//! generation of the segment's GC clock. A restarted service seeds its
//! synthesis pool from the segment and answers whole programs through the
//! submission probe. GC is offline: `reqiscd --compact-now`.

use crate::protocol::{
    CompileSource, RingCounters, ServiceCounters, SharedCounters, StageCounters, StatsSnapshot,
};
use crate::queue::{JobQueue, Priority, QueueFull, RingStats};
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{Condvar, LockRecover, Mutex};
use reqisc_compiler::{
    sharing, CompileCache, Compiler, Pipeline, Program, ShareStats, STORE_FORMAT_VERSION,
};
use reqisc_shmem::Segment;
use reqisc_qcircuit::{parse_bounded, Circuit, ParseLimits};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Service construction options.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Solve-stage worker-pool size; `0` = the available hardware
    /// parallelism (the same resolution rule as
    /// [`Compiler::block_threads`]).
    pub workers: usize,
    /// Bounded admission capacity: misses and debug ops waiting in the
    /// solve ring; submissions beyond it reject immediately (warm hits
    /// never need a slot).
    pub queue_capacity: usize,
    /// Period of the bulk pass into the shared segment (`None` = on
    /// shutdown and `snapshot` requests only). Each pass is one
    /// generation of the segment's GC clock.
    pub snapshot_interval: Option<Duration>,
    /// Memo-pool shape override `(shards, per-shard capacity)` — the LRU
    /// eviction knob. `None` = the default generous shape (effectively
    /// unbounded; evictions stay 0).
    pub pool_shape: Option<(usize, usize)>,
    /// Accept the debug `sleep`/`panic` ops (tests and drills only).
    pub debug_ops: bool,
    /// Bounds on QASM accepted at the service boundary.
    pub parse_limits: ParseLimits,
    /// Ignored. The warm tiers are probed on the submitting thread, so
    /// there is no lookup stage to size; the field stays only while the
    /// benchmark harness still sets it.
    #[deprecated(note = "ignored: the warm tiers are probed at submission, there is no lookup stage")]
    pub lookup_workers: usize,
    /// Artificial delay (milliseconds) a solve worker sleeps before each
    /// *cold compile* it claims — the deterministic stall the
    /// stall-isolation tests inject; debug ops are unaffected. `None`
    /// means no delay.
    pub solve_delay_ms: Option<u64>,
    /// Shared-memory cache segment to attach (`None` = in-memory only).
    /// It is the durable tier: submission probes it between the local
    /// pool and a cold solve; solve workers publish every finished
    /// program into it, so every daemon attached to the same file — and
    /// every later run — hits instantly.
    pub shm_path: Option<PathBuf>,
    /// Capacity used if the segment file does not exist yet (an
    /// existing valid segment keeps its own).
    pub shm_capacity_bytes: u64,
}

/// Default [`ServiceConfig::shm_capacity_bytes`]: 64 MiB.
pub const DEFAULT_SHM_CAPACITY_BYTES: u64 = 64 << 20;

// Names the deprecated `lookup_workers` to give it its old default.
#[allow(deprecated)]
impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
            snapshot_interval: None,
            pool_shape: None,
            debug_ops: false,
            parse_limits: ParseLimits::default(),
            lookup_workers: 1,
            solve_delay_ms: None,
            shm_path: None,
            shm_capacity_bytes: DEFAULT_SHM_CAPACITY_BYTES,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The system is at admission capacity (or the service is draining).
    QueueFull(QueueFull),
    /// The request itself is unusable (unknown bench name, QASM parse
    /// failure, over-limit input, gated debug op).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(q) => write!(f, "{q}"),
            SubmitError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A finished job's payload: the program pool's entry for the compiled
/// circuit (compile jobs; `None` for debug ops) plus a global completion
/// sequence number (unique — the queue-semantics tests assert ordering
/// through it). The thread that delivers the result takes it from one
/// counter just before delivery: the submitting thread for a warm hit,
/// the solve worker otherwise.
#[derive(Debug, Clone)]
pub struct JobDone {
    /// The compiled circuit's pool entry (`None` for debug ops). It
    /// derefs to the circuit and carries the reply record.
    pub circuit: Option<Arc<Program>>,
    /// Global completion order (1-based).
    pub done_seq: u64,
}

/// What a waiter receives: the result or the failure message.
pub type JobResult = Result<JobDone, String>;

/// A claim on one submitted job's result. A warm hit's ticket holds its
/// result from the start. Dropping a miss's ticket without waiting
/// detaches its waiter; when the *last* waiter of a job still in the
/// solve ring detaches, the job is cancelled (see the module docs).
#[derive(Debug)]
pub struct Ticket {
    claim: Claim,
    /// True when this submission attached to an already-in-flight
    /// identical job instead of occupying an admission slot.
    pub coalesced: bool,
    /// Detaches this waiter on drop (compile misses only).
    _guard: Option<WaiterGuard>,
}

/// Where a ticket's result comes from.
#[derive(Debug)]
enum Claim {
    /// Delivered at submission (a warm hit).
    Done(JobResult),
    /// Delivered later by a solve worker.
    Waiting(mpsc::Receiver<JobResult>),
}

const TERMINATED: &str = "service terminated before the job ran";

impl Ticket {
    /// True when the result is already here: the job was answered at
    /// submission, so [`Ticket::wait`] returns without blocking.
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.claim, Claim::Done(_))
    }

    /// Blocks until the job finishes.
    pub fn wait(self) -> JobResult {
        match self.claim {
            Claim::Done(result) => result,
            Claim::Waiting(rx) => rx.recv().unwrap_or_else(|_| Err(TERMINATED.into())),
        }
    }

    /// Blocks until the job finishes, then reports how many *further*
    /// responses were (erroneously) delivered to this same ticket — the
    /// double-respond detector the pipeline property tests assert stays
    /// zero. Only meaningful once no more completions can arrive (after
    /// [`Service::shutdown`]).
    pub fn wait_counting_duplicates(self) -> (JobResult, usize) {
        match self.claim {
            Claim::Done(result) => (result, 0),
            Claim::Waiting(rx) => {
                let first = rx.recv().unwrap_or_else(|_| Err(TERMINATED.into()));
                (first, rx.try_iter().count())
            }
        }
    }
}

/// Removes one waiter from its job's coalesced waiter set on drop; the
/// last waiter out cancels the job if it still sits in the solve ring.
/// Waiter ids are globally unique, so a guard outliving its job (or
/// racing a same-key resubmission) can never detach someone else's
/// waiter.
struct WaiterGuard {
    inner: Arc<Inner>,
    key: JobKey,
    id: u64,
}

impl std::fmt::Debug for WaiterGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaiterGuard").field("key", &self.key).field("id", &self.id).finish()
    }
}

impl Drop for WaiterGuard {
    fn drop(&mut self) {
        let mut inflight = self.inner.inflight.lock_recover();
        let Some(waiters) = inflight.get_mut(&self.key) else {
            return; // job already delivered (or cancelled by a peer)
        };
        waiters.retain(|(id, _)| *id != self.id);
        if !waiters.is_empty() {
            return; // other waiters still want the result
        }
        inflight.remove(&self.key);
        // Last waiter gone: pull the job out of the solve ring. (A job
        // already claimed by a solve worker is past cancellation and
        // completes normally with nobody listening; that window is
        // unavoidable and harmless.) The inflight lock is deliberately
        // held across both removals — the same inflight→ring order
        // `submit_compile` uses — so a racing same-key resubmission
        // cannot slip into the gap.
        if self.inner.solve.remove_first(is_job(self.key)) {
            self.inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        drop(inflight);
    }
}

/// In-flight dedup key: identical keys ⇒ identical results, by the same
/// argument that makes the whole-program cache key sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct JobKey {
    circuit: u128,
    pipeline: Pipeline,
    options: u128,
}

enum Job {
    Compile { key: JobKey, circuit: Arc<Circuit>, pipeline: Pipeline },
    Sleep { ms: u64, tx: mpsc::Sender<JobResult> },
    Panic { tx: mpsc::Sender<JobResult> },
}

/// Matches the compile job of `key` in the solve ring.
fn is_job(key: JobKey) -> impl Fn(&Job) -> bool {
    move |job| matches!(job, Job::Compile { key: k, .. } if *k == key)
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    coalesced: AtomicU64,
    rejected_queue_full: AtomicU64,
    cancelled: AtomicU64,
    snapshots: AtomicU64,
}

/// Service-side tallies of shared-segment traffic. Separate from the
/// segment's own [`reqisc_shmem::SegStats`] on purpose: these count what
/// *this daemon's pipeline* did (deterministic per process, what CI
/// asserts), not every probe any attached process ever made.
#[derive(Default)]
struct SharedAtomics {
    hits: AtomicU64,
    published: AtomicU64,
    duplicates: AtomicU64,
    full_rejects: AtomicU64,
    seeded: AtomicU64,
}

impl SharedAtomics {
    fn absorb(&self, outcome: reqisc_shmem::PublishOutcome) {
        use reqisc_shmem::PublishOutcome::*;
        match outcome {
            Published => self.published.fetch_add(1, Ordering::Relaxed),
            Duplicate => self.duplicates.fetch_add(1, Ordering::Relaxed),
            SegmentFull => self.full_rejects.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Per-stage transit counters (the scalar half of the `stages` member of
/// the `stats` JSON; the rings report their own enqueue/dequeue/wait).
#[derive(Default)]
struct StageAtomics {
    /// Compile submissions answered at submission by a warm tier.
    lookup_hits: AtomicU64,
    /// Compile submissions admitted to the solve ring.
    lookup_misses: AtomicU64,
    /// Jobs (of any kind) claimed by a solve worker.
    solve_claimed: AtomicU64,
    /// Results delivered, at submission or by a solve worker
    /// (== completed + failed).
    delivered: AtomicU64,
}

struct Inner {
    compiler: Compiler,
    /// [`Compiler::options_fingerprint`] computed once at startup — it
    /// hashes a `Debug` rendering, too hot to redo per submission.
    options_fp: u128,
    /// Misses and debug ops waiting for a solve worker; its capacity is
    /// the admission bound and its depth is `queue_depth`.
    solve: JobQueue<Job>,
    inflight: Mutex<HashMap<JobKey, Vec<(u64, mpsc::Sender<JobResult>)>>>,
    /// The shared-memory cache segment (`None` = no shared tier).
    shared: Option<Segment>,
    shared_stats: SharedAtomics,
    counters: Counters,
    stage: StageAtomics,
    done_seq: AtomicU64,
    waiter_seq: AtomicU64,
    debug_ops: bool,
    solve_delay: Option<Duration>,
    parse_limits: ParseLimits,
    benches: OnceLock<HashMap<String, Arc<Circuit>>>,
    /// Set by a protocol `shutdown` request; transport accept loops poll it.
    shutdown_requested: AtomicBool,
    timer_stop: (Mutex<bool>, Condvar),
}

impl Inner {
    /// Counts a rejected submission and builds its error.
    fn reject(&self, full: QueueFull) -> SubmitError {
        self.counters.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
        SubmitError::QueueFull(full)
    }

    /// Probes the two warm tiers for a compile key: the local program
    /// pool first, then the shared segment (seeding the local pool on a
    /// segment hit, so the *next* probe of this key never leaves the
    /// process). A segment hit counts under both `lookup_hits` (it is a
    /// warm hit like any other) and `shared.hits` (which tier answered);
    /// `shared.hits <= lookup_hits` always.
    fn probe_tiers(&self, key: &JobKey) -> Option<Arc<Program>> {
        if let Some(hit) = self.compiler.lookup_program(key.circuit, key.pipeline, key.options) {
            return Some(hit);
        }
        let seg = self.shared.as_ref()?;
        let hit = sharing::probe_shared_program(
            seg,
            self.compiler.cache(),
            key.circuit,
            key.pipeline,
            key.options,
        )?;
        self.shared_stats.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Stamps a result on its way to its waiters: the next global
    /// `done_seq` and the `completed`/`failed` and `delivered` counts.
    /// Every result passes here once, before any waiter can see it.
    fn finish(&self, outcome: Result<Option<Arc<Program>>, String>) -> JobResult {
        let done_seq = self.done_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.stage.delivered.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(circuit) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                Ok(JobDone { circuit, done_seq })
            }
            Err(msg) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                Err(msg)
            }
        }
    }

    /// A solve worker: claims admitted jobs, runs the expensive compile
    /// under `catch_unwind`, and delivers the outcome to every waiter.
    fn solve_loop(&self) {
        while let Some(job) = self.solve.pop() {
            self.stage.solve_claimed.fetch_add(1, Ordering::Relaxed);
            match job {
                Job::Compile { key, circuit, pipeline } => {
                    if let Some(delay) = self.solve_delay {
                        // The deterministic cold-solve stall the
                        // stall-isolation tests inject (debug ops and
                        // warm hits are unaffected by design).
                        std::thread::sleep(delay);
                    }
                    // The entry's reply record is priced here, inside the
                    // panic isolation, once per entry: the reply and the
                    // segment record below both read it.
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        let program = self.compiler.compile_program(&circuit, pipeline);
                        program.reply();
                        program
                    }));
                    let result = self.finish(match out {
                        Ok(c) => {
                            // Publish at completion: every daemon on the
                            // box sees this solve as a warm hit from now
                            // on, and replies from the record without
                            // pricing. A `Duplicate` means a peer solved
                            // the same key concurrently — their entry is
                            // byte-identical, so losing the race is free.
                            if let Some(seg) = &self.shared {
                                self.shared_stats.absorb(sharing::publish_program_entry(
                                    seg,
                                    key.circuit,
                                    key.pipeline,
                                    key.options,
                                    &c,
                                ));
                            }
                            Ok(Some(c))
                        }
                        Err(p) => Err(format!("compile panicked: {}", panic_message(&p))),
                    });
                    // The waiters are taken under the inflight lock (so
                    // none registers after) and sent to after it is
                    // released. One that dropped its ticket is not an
                    // error.
                    let waiters = self.inflight.lock_recover().remove(&key).unwrap_or_default();
                    for (_, tx) in waiters {
                        let _ = tx.send(result.clone());
                    }
                }
                Job::Sleep { ms, tx } => {
                    std::thread::sleep(Duration::from_millis(ms));
                    let _ = tx.send(self.finish(Ok(None)));
                }
                Job::Panic { tx } => {
                    // A *real* panic through the same isolation path real
                    // pipeline panics take — the poisoned-job drill.
                    let out = catch_unwind(|| panic!("debug panic op"));
                    debug_assert!(out.is_err());
                    let _ = tx.send(self.finish(Err("compile panicked: debug panic op".into())));
                }
            }
        }
    }

    /// One bulk pass into the shared segment (see the module docs):
    /// publishes what solve workers did not — sub-program entries — and
    /// re-stamps what this process referenced. `None` without a segment.
    /// Passes need no lock: the segment's publish and touch are lock-free.
    fn snapshot(&self) -> Option<ShareStats> {
        let seg = self.shared.as_ref()?;
        let s = sharing::publish_all(seg, self.compiler.cache());
        self.shared_stats.published.fetch_add(s.published, Ordering::Relaxed);
        self.shared_stats.duplicates.fetch_add(s.duplicates, Ordering::Relaxed);
        self.shared_stats.full_rejects.fetch_add(s.full_rejects, Ordering::Relaxed);
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        Some(s)
    }
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".into()
    }
}

/// The running service (see module docs). Dropping it shuts down
/// gracefully: drain every stage in order, join the threads, run the
/// last bulk pass into the segment.
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<reqisc_sched::thread::JoinHandle<()>>>,
    timer: Mutex<Option<reqisc_sched::thread::JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl Service {
    /// Starts a service with a freshly built compiler (pre-synthesizing
    /// the template library — the one-time resident cost interactive
    /// callers no longer pay per request).
    pub fn start(config: ServiceConfig) -> Self {
        let compiler = match config.pool_shape {
            Some((shards, cap)) => Compiler::new_with_library_and_cache(
                Compiler::builtin_library(),
                CompileCache::with_shape(shards, cap),
            ),
            None => Compiler::new(),
        };
        Self::start_with_compiler(compiler, config)
    }

    /// Starts a service around an existing compiler — the constructor for
    /// tests (cheap search budgets, shared template libraries) and for
    /// embedders that pre-tune [`Compiler::hs`].
    pub fn start_with_compiler(mut compiler: Compiler, config: ServiceConfig) -> Self {
        // Solve workers are the parallelism; per-job block batching
        // inside a worker would oversubscribe the pool.
        compiler.block_threads = 1;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.workers
        };
        let solve_delay = config.solve_delay_ms.map(Duration::from_millis);
        // The shared segment attaches under the store format version, so
        // a codec bump retires stale segments. Attach failure degrades to
        // running in memory only — a cache must never stop the service.
        let shared = config.shm_path.as_ref().and_then(|p| {
            match Segment::attach(p, config.shm_capacity_bytes, STORE_FORMAT_VERSION) {
                Ok(seg) => Some(seg),
                Err(e) => {
                    eprintln!(
                        "# reqisc-service: shared segment {} unusable ({e}); \
                         continuing without the shared tier",
                        p.display()
                    );
                    None
                }
            }
        });
        let shared_stats = SharedAtomics::default();
        if let Some(seg) = &shared {
            // Only the synthesis pool seeds eagerly: its entries are
            // consulted deep inside a cold solve (no segment probe
            // there), while whole-program entries stay in the segment for
            // the submission probe to answer.
            let seeded = sharing::seed_subprogram_pools(seg, compiler.cache());
            shared_stats.seeded.store(seeded as u64, Ordering::Relaxed);
        }
        let options_fp = compiler.options_fingerprint();
        let inner = Arc::new(Inner {
            compiler,
            options_fp,
            solve: JobQueue::new(config.queue_capacity),
            inflight: Mutex::new(HashMap::new()),
            shared,
            shared_stats,
            counters: Counters::default(),
            stage: StageAtomics::default(),
            done_seq: AtomicU64::new(0),
            waiter_seq: AtomicU64::new(0),
            debug_ops: config.debug_ops,
            solve_delay,
            parse_limits: config.parse_limits,
            benches: OnceLock::new(),
            shutdown_requested: AtomicBool::new(false),
            timer_stop: (Mutex::new(false), Condvar::new()),
        });
        let solve_handles = (0..workers)
            .map(|_| {
                let inner = inner.clone();
                reqisc_sched::thread::spawn(move || inner.solve_loop())
            })
            .collect();
        let timer = config.snapshot_interval.map(|interval| {
            let inner = inner.clone();
            reqisc_sched::thread::spawn(move || {
                let (lock, cv) = &inner.timer_stop;
                let mut stopped = lock.lock_recover();
                loop {
                    let (guard, timeout) =
                        crate::sync::wait_timeout_recover(cv, stopped, interval);
                    stopped = guard;
                    if *stopped {
                        break;
                    }
                    if timeout.timed_out() {
                        inner.snapshot();
                    }
                }
            })
        });
        Self {
            inner,
            workers: Mutex::new(solve_handles),
            timer: Mutex::new(timer),
            stopped: AtomicBool::new(false),
        }
    }

    /// Resolves a protocol compile source into a circuit: QASM parses
    /// under the configured [`ParseLimits`]; bench names resolve against
    /// the demo-scale benchsuite.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] with a description.
    pub fn resolve_source(&self, source: &CompileSource) -> Result<Arc<Circuit>, SubmitError> {
        match source {
            CompileSource::Qasm(text) => parse_bounded(text, &self.inner.parse_limits)
                .map(Arc::new)
                .map_err(|e| SubmitError::Invalid(format!("qasm: {e}"))),
            CompileSource::Bench(name) => {
                let benches = self.inner.benches.get_or_init(|| {
                    reqisc_benchsuite::suite(reqisc_benchsuite::Scale::Demo)
                        .into_iter()
                        .map(|b| (b.name, Arc::new(b.circuit)))
                        .collect()
                });
                benches
                    .get(name)
                    .cloned()
                    .ok_or_else(|| SubmitError::Invalid(format!("unknown bench program '{name}'")))
            }
        }
    }

    /// Submits one compile job: a warm hit is answered here, a miss
    /// coalesces onto its in-flight twin or is admitted to the solve ring
    /// (see the module docs).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when admission control rejects a miss,
    /// or when the service is draining.
    pub fn submit_compile(
        &self,
        circuit: Arc<Circuit>,
        pipeline: Pipeline,
        priority: Priority,
    ) -> Result<Ticket, SubmitError> {
        let inner = &self.inner;
        let key = JobKey { circuit: circuit.content_hash(), pipeline, options: inner.options_fp };
        // The probe never blocks, so a hit needs no other thread: it is
        // delivered here, into the ticket. The inflight lock is not held.
        if let Some(hit) = inner.probe_tiers(&key) {
            inner.stage.lookup_hits.fetch_add(1, Ordering::Relaxed);
            inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
            let claim = Claim::Done(inner.finish(Ok(Some(hit))));
            return Ok(Ticket { claim, coalesced: false, _guard: None });
        }
        let (tx, rx) = mpsc::channel();
        let claim = Claim::Waiting(rx);
        let waiter_id = inner.waiter_seq.fetch_add(1, Ordering::Relaxed);
        let guard = Some(WaiterGuard { inner: inner.clone(), key, id: waiter_id });
        // The inflight lock spans the ring push and the waiter's
        // registration, so neither the solve worker's waiter collection
        // nor a cancellation can interleave between "ringed" and
        // "registered".
        let mut inflight = inner.inflight.lock_recover();
        if let Some(waiters) = inflight.get_mut(&key) {
            waiters.push((waiter_id, tx));
            // A more urgent duplicate must not wait at the original
            // submission's priority: raise the ringed job to match (a
            // no-op if the job already runs or was ringed hotter).
            inner.solve.boost(is_job(key), priority);
            inner.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Ticket { claim, coalesced: true, _guard: guard });
        }
        inner
            .solve
            .try_push(Job::Compile { key, circuit, pipeline }, priority)
            .map_err(|full| inner.reject(full))?;
        inflight.insert(key, vec![(waiter_id, tx)]);
        inner.stage.lookup_misses.fetch_add(1, Ordering::Relaxed);
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(Ticket { claim, coalesced: false, _guard: guard })
    }

    /// Submits a gated debug op (`sleep`/`panic`).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] unless the service was started with
    /// `debug_ops`; [`SubmitError::QueueFull`] on admission rejection.
    pub fn submit_debug(&self, op: DebugOp, priority: Priority) -> Result<Ticket, SubmitError> {
        if !self.inner.debug_ops {
            return Err(SubmitError::Invalid("debug ops are disabled".into()));
        }
        let (tx, rx) = mpsc::channel();
        let job = match op {
            DebugOp::Sleep { ms } => Job::Sleep { ms, tx },
            DebugOp::Panic => Job::Panic { tx },
        };
        self.inner.solve.try_push(job, priority).map_err(|full| self.inner.reject(full))?;
        self.inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(Ticket { claim: Claim::Waiting(rx), coalesced: false, _guard: None })
    }

    /// Metrics of a compiled circuit under the reply coupling
    /// ([`reqisc_compiler::reply_coupling`]), recomputed on every call.
    /// Compile responses read the same numbers from the pool entry's
    /// reply record ([`Program::reply`]), priced once per entry; this is
    /// the reference they are checked against.
    pub fn metrics(&self, c: &Circuit) -> reqisc_compiler::Metrics {
        reqisc_compiler::metrics(c, &reqisc_compiler::reply_coupling())
    }

    /// Snapshot of every counter the `stats` op reports.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let c = &self.inner.counters;
        let st = &self.inner.stage;
        StatsSnapshot {
            service: ServiceCounters {
                submitted: c.submitted.load(Ordering::Relaxed),
                completed: c.completed.load(Ordering::Relaxed),
                failed: c.failed.load(Ordering::Relaxed),
                coalesced: c.coalesced.load(Ordering::Relaxed),
                rejected_queue_full: c.rejected_queue_full.load(Ordering::Relaxed),
                cancelled: c.cancelled.load(Ordering::Relaxed),
                snapshots: c.snapshots.load(Ordering::Relaxed),
                queue_depth: self.inner.solve.len() as u64,
            },
            stages: StageCounters {
                solve: ring_counters(self.inner.solve.ring_stats(), self.inner.solve.len()),
                lookup_hits: st.lookup_hits.load(Ordering::Relaxed),
                lookup_misses: st.lookup_misses.load(Ordering::Relaxed),
                solve_claimed: st.solve_claimed.load(Ordering::Relaxed),
                delivered: st.delivered.load(Ordering::Relaxed),
                ..StageCounters::default()
            },
            cache: self.inner.compiler.cache_stats(),
            shared: self.inner.shared.as_ref().map(|seg| {
                let sh = &self.inner.shared_stats;
                SharedCounters {
                    hits: sh.hits.load(Ordering::Relaxed),
                    published: sh.published.load(Ordering::Relaxed),
                    duplicates: sh.duplicates.load(Ordering::Relaxed),
                    full_rejects: sh.full_rejects.load(Ordering::Relaxed),
                    seeded: sh.seeded.load(Ordering::Relaxed),
                    entries: seg.entries(),
                    generation: seg.generation(),
                }
            }),
        }
    }

    /// Jobs admitted right now: in the solve ring, not yet claimed by a
    /// solve worker or cancelled (the same meaning the pre-pipeline
    /// single queue's depth had). Warm hits never count.
    pub fn queue_depth(&self) -> usize {
        self.inner.solve.len()
    }

    /// Runs one bulk pass into the shared segment now (the `snapshot`
    /// op); `None` when the service has no segment.
    pub fn snapshot_now(&self) -> Option<ShareStats> {
        self.inner.snapshot()
    }

    /// True once a protocol `shutdown` request has been accepted (the
    /// transport accept loops poll this).
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::Acquire)
    }

    /// Marks shutdown as requested (called by the protocol layer).
    pub fn request_shutdown(&self) {
        self.inner.shutdown_requested.store(true, Ordering::Release);
    }

    /// Graceful shutdown: stop admitting, drain the solve ring through
    /// the workers (each delivers what it finishes), join the snapshot
    /// timer, then run the last bulk pass into the segment. So an
    /// admitted job is either delivered or (if every waiter already left)
    /// cleanly cancelled — never stranded. A warm hit needs no stage and
    /// is answered even while the service drains. Idempotent.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        self.request_shutdown();
        self.inner.solve.close();
        for h in self.workers.lock_recover().drain(..) {
            let _ = h.join();
        }
        let (lock, cv) = &self.inner.timer_stop;
        *lock.lock_recover() = true;
        cv.notify_all();
        if let Some(h) = self.timer.lock_recover().take() {
            let _ = h.join();
        }
        self.inner.snapshot();
    }
}

fn ring_counters(rs: RingStats, depth: usize) -> RingCounters {
    RingCounters {
        enqueued: rs.enqueued,
        dequeued: rs.dequeued,
        depth: depth as u64,
        wait_us: rs.wait_us,
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The gated debug operations (see [`Service::submit_debug`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DebugOp {
    /// Hold a worker for `ms` milliseconds.
    Sleep {
        /// Hold duration in milliseconds.
        ms: u64,
    },
    /// Panic inside the worker (exercises per-job isolation).
    Panic,
}
