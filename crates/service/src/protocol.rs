//! The wire protocol: line-delimited JSON requests and responses.
//!
//! ## Requests
//!
//! One JSON object per line. `id` is an arbitrary caller-chosen u64
//! echoed back in the response; `op` selects the operation:
//!
//! ```text
//! {"id":1,"op":"compile","pipeline":"reqisc-eff","qasm":"qubits 2\ncx 0 1\n","priority":7}
//! {"id":2,"op":"compile","pipeline":"reqisc-full","bench":"alu_v0"}
//! {"id":3,"op":"stats"}
//! {"id":4,"op":"snapshot"}
//! {"id":5,"op":"shutdown"}
//! ```
//!
//! `compile` takes exactly one of `qasm` (QASM-lite source, see
//! `reqisc_qcircuit::qasm`) or `bench` (a demo-suite program name);
//! `priority` is optional (0–9, default 5, higher first). `snapshot` runs
//! one bulk pass into the shared segment (one generation of its GC
//! clock); garbage collection itself is offline (`reqiscd
//! --compact-now`). Two debug ops,
//! `sleep` (`{"ms":N}`) and `panic`, exist behind the daemon's
//! `--debug-ops` flag so tests can pin queue semantics deterministically.
//!
//! ## Responses
//!
//! One JSON object per line, in request order per connection:
//!
//! ```text
//! {"id":1,"ok":true,"op":"compile","fingerprint":"6b86…","count_2q":1,"depth_2q":1,"duration_g":2.22,"coalesced":false,"done_seq":1}
//! {"id":3,"ok":true,"op":"stats","stats":{…}}
//! {"id":4,"ok":true,"op":"snapshot","published":12,"duplicates":140,"full_rejects":0}
//! {"id":9,"ok":false,"error":"queue_full","detail":"queue full (capacity 256)"}
//! ```
//!
//! Error `error` codes are machine-matchable: `queue_full`, `bad_request`,
//! `parse_error`, `compile_failed`, `no_store` (a `snapshot` on a service
//! without a shared segment). A `parse_error`
//! echoes the line's `id` whenever the line is a JSON object with a valid
//! one; only a line that is not JSON (or carries no usable id) is
//! answered with id 0. `queue_full` only ever answers a compile that
//! missed every warm tier (or a debug op): warm hits take no admission
//! slot.
//!
//! A compile reply's `done_seq` numbers results across the whole service:
//! unique and 1-based, taken when the result is delivered — at submission
//! for a warm hit, by the solve worker for a miss. So a warm hit
//! answered while a cold job still runs carries the lower number, even
//! when its reply is written after the cold one on the same connection.

use crate::json::Json;
use crate::queue::{Priority, DEFAULT_PRIORITY, MAX_PRIORITY};
use reqisc_compiler::{CacheStats, CompileCacheStats, Metrics, Pipeline};

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The program source of a compile request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileSource {
    /// Inline QASM-lite source text.
    Qasm(String),
    /// A benchsuite demo-scale program name (e.g. `alu_v0`).
    Bench(String),
}

/// A request's operation.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Compile a program through a pipeline.
    Compile {
        /// Where the program comes from.
        source: CompileSource,
        /// The pipeline to run.
        pipeline: Pipeline,
        /// Queue priority (0–9, higher first).
        priority: Priority,
    },
    /// Counter snapshot (service + cache + segment) as JSON.
    Stats,
    /// Run one bulk pass of the cache pools into the shared segment now.
    Snapshot,
    /// Graceful shutdown: drain the queue, run the last bulk pass, exit.
    Shutdown,
    /// Debug (gated): hold a worker for `ms` milliseconds.
    DebugSleep {
        /// Hold duration in milliseconds.
        ms: u64,
    },
    /// Debug (gated): panic inside a worker (poisoned-job drill).
    DebugPanic,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable description; the caller wraps it in a `parse_error`
/// response carrying the line's `id` (0 when none can be read).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let id = v.get("id").and_then(Json::as_u64).ok_or("missing or invalid 'id'")?;
    let op = v.get("op").and_then(Json::as_str).ok_or("missing 'op'")?;
    let body = match op {
        "compile" => {
            let pipeline_name =
                v.get("pipeline").and_then(Json::as_str).ok_or("compile: missing 'pipeline'")?;
            let pipeline = Pipeline::from_name(pipeline_name).ok_or_else(|| {
                format!(
                    "compile: unknown pipeline '{pipeline_name}' (expected one of {})",
                    Pipeline::ALL.map(|p| p.name()).join(", ")
                )
            })?;
            let priority = match v.get("priority") {
                None => DEFAULT_PRIORITY,
                Some(p) => {
                    let p = p.as_u64().ok_or("compile: 'priority' must be an integer")?;
                    if p > MAX_PRIORITY as u64 {
                        return Err(format!("compile: priority {p} out of range 0–{MAX_PRIORITY}"));
                    }
                    p as Priority
                }
            };
            let source = match (v.get("qasm"), v.get("bench")) {
                (Some(q), None) => CompileSource::Qasm(
                    q.as_str().ok_or("compile: 'qasm' must be a string")?.to_string(),
                ),
                (None, Some(b)) => CompileSource::Bench(
                    b.as_str().ok_or("compile: 'bench' must be a string")?.to_string(),
                ),
                _ => return Err("compile: exactly one of 'qasm' or 'bench' required".into()),
            };
            RequestBody::Compile { source, pipeline, priority }
        }
        "stats" => RequestBody::Stats,
        "snapshot" => RequestBody::Snapshot,
        "shutdown" => RequestBody::Shutdown,
        "sleep" => RequestBody::DebugSleep {
            ms: v.get("ms").and_then(Json::as_u64).ok_or("sleep: missing 'ms'")?,
        },
        "panic" => RequestBody::DebugPanic,
        other => return Err(format!("unknown op '{other}'")),
    };
    Ok(Request { id, body })
}

/// The `id` of a request line that may have failed [`parse_request`]:
/// the line's `id` when it is a JSON object with a valid one, else 0.
pub(crate) fn request_id(line: &str) -> u64 {
    Json::parse(line).ok().and_then(|v| v.get("id").and_then(Json::as_u64)).unwrap_or(0)
}

/// Builds a successful compile response. `done_seq` is the service's
/// global completion sequence number (see the module docs) — the order
/// handle the stall-isolation tests assert with (warm hits must get
/// lower numbers than the cold solves they overtook).
pub fn compile_response(
    id: u64,
    fingerprint: u128,
    metrics: &Metrics,
    coalesced: bool,
    done_seq: u64,
) -> Json {
    Json::obj(vec![
        ("id", Json::num_u64(id)),
        ("ok", Json::Bool(true)),
        ("op", Json::str("compile")),
        ("fingerprint", Json::str(format!("{fingerprint:032x}"))),
        ("count_2q", Json::num_u64(metrics.count_2q as u64)),
        ("depth_2q", Json::num_u64(metrics.depth_2q as u64)),
        ("duration_g", Json::Num(metrics.duration)),
        ("coalesced", Json::Bool(coalesced)),
        ("done_seq", Json::num_u64(done_seq)),
    ])
}

/// Builds a plain success acknowledgement for `op`.
pub fn ok_response(id: u64, op: &str) -> Json {
    Json::obj(vec![
        ("id", Json::num_u64(id)),
        ("ok", Json::Bool(true)),
        ("op", Json::str(op)),
    ])
}

/// Builds an error response. `code` is machine-matchable (see module
/// docs); `detail` is free text.
pub fn error_response(id: u64, code: &str, detail: impl Into<String>) -> Json {
    Json::obj(vec![
        ("id", Json::num_u64(id)),
        ("ok", Json::Bool(false)),
        ("error", Json::str(code)),
        ("detail", Json::str(detail.into())),
    ])
}

/// Point-in-time service-level counters (the queue/coalescing half of a
/// [`StatsSnapshot`]; cache and segment counters ride alongside).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Jobs admitted (queued or coalesced).
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed (panicking pipeline, failing debug op).
    pub failed: u64,
    /// Requests answered by joining an in-flight identical job.
    pub coalesced: u64,
    /// Requests rejected because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Queued jobs dropped because every waiter disconnected before a
    /// worker claimed them (the compile never ran).
    pub cancelled: u64,
    /// Bulk passes into the shared segment (snapshot ticks, `snapshot`
    /// requests, shutdown).
    pub snapshots: u64,
    /// Jobs queued right now (gauge, not a counter).
    pub queue_depth: u64,
}

/// Transit counters of one pipeline ring, as reported in the `stages`
/// member of the `stats` JSON. `dequeued` counts every entry that left
/// the ring — claimed by a stage worker or removed by cancellation — so
/// `enqueued == dequeued + depth` always holds at a quiescent snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingCounters {
    /// Entries accepted into the ring.
    pub enqueued: u64,
    /// Entries that left the ring (claimed or cancelled).
    pub dequeued: u64,
    /// Entries resident right now (gauge).
    pub depth: u64,
    /// Total in-ring residence of claimed entries, microseconds
    /// (informational wall-clock — never CI-asserted).
    pub wait_us: u64,
}

/// Per-stage counters of the service core: the rings' transit counters
/// plus the stage-transition scalars. The deterministic laws the tests
/// assert: every non-coalesced compile submission counts once, under
/// `lookup_hits` (answered at submission by a warm tier) or
/// `lookup_misses` (admitted to the solve ring), and every miss ends
/// either claimed by a solve worker or cancelled. So a warm workload
/// moves `lookup_hits` and **not** `solve_claimed`, and
/// `delivered == completed + failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Always zero: submissions no longer pass through a ring. Still on
    /// the wire because the benchmark harness reads it.
    #[deprecated(note = "always zero: there is no submission ring")]
    pub submission: RingCounters,
    /// The solve ring (misses and debug ops only).
    pub solve: RingCounters,
    /// Always zero: results are delivered by the thread that has them,
    /// through no ring. Still on the wire because the benchmark harness
    /// reads it.
    #[deprecated(note = "always zero: there is no completion ring")]
    pub completion: RingCounters,
    /// Compile submissions answered at submission by a warm tier (these
    /// never entered the solve stage).
    pub lookup_hits: u64,
    /// Compile submissions admitted to the solve ring.
    pub lookup_misses: u64,
    /// Jobs (of any kind) claimed by a solve worker.
    pub solve_claimed: u64,
    /// Results delivered to their waiters, at submission or by a solve
    /// worker.
    pub delivered: u64,
}

/// Counters of the shared-memory cache tier (the cross-daemon segment).
/// The CI-asserted invariant: a daemon whose whole workload was solved
/// by a peer on the same segment shows `hits > 0` and `solve_claimed ==
/// 0` — warm across processes with zero duplicate solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCounters {
    /// Submission probes answered by the shared segment (each is also a
    /// `lookup_hits` warm hit; `hits <= lookup_hits`).
    pub hits: u64,
    /// Entries this daemon newly appended to the segment.
    pub published: u64,
    /// Publishes that found the entry already present (a peer — or an
    /// earlier pass — won the race; the common case for a warm pool).
    pub duplicates: u64,
    /// Publishes rejected because the segment was full.
    pub full_rejects: u64,
    /// Entries seeded into the local pools from the segment at startup.
    pub seeded: u64,
    /// Entries resident in the segment right now (gauge).
    pub entries: u64,
    /// The segment's GC generation clock (gauge).
    pub generation: u64,
}

/// Everything the `stats` op reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Service-level queue/coalescing counters.
    pub service: ServiceCounters,
    /// Per-stage pipeline counters.
    pub stages: StageCounters,
    /// Compile-cache pool counters.
    pub cache: CompileCacheStats,
    /// Shared-segment counters (`None` when no segment is attached).
    pub shared: Option<SharedCounters>,
}

fn ring_counters_json(r: &RingCounters) -> Json {
    Json::obj(vec![
        ("enqueued", Json::num_u64(r.enqueued)),
        ("dequeued", Json::num_u64(r.dequeued)),
        ("depth", Json::num_u64(r.depth)),
        ("wait_us", Json::num_u64(r.wait_us)),
    ])
}

fn ring_counters_from(v: &Json) -> Result<RingCounters, String> {
    let f = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"));
    Ok(RingCounters {
        enqueued: f("enqueued")?,
        dequeued: f("dequeued")?,
        depth: f("depth")?,
        wait_us: f("wait_us")?,
    })
}

// The deprecated `submission` and `completion` rings stay on the wire,
// as zeros.
#[allow(deprecated)]
fn stage_counters_json(s: &StageCounters) -> Json {
    Json::obj(vec![
        ("submission", ring_counters_json(&s.submission)),
        ("solve", ring_counters_json(&s.solve)),
        ("completion", ring_counters_json(&s.completion)),
        ("lookup_hits", Json::num_u64(s.lookup_hits)),
        ("lookup_misses", Json::num_u64(s.lookup_misses)),
        ("solve_claimed", Json::num_u64(s.solve_claimed)),
        ("delivered", Json::num_u64(s.delivered)),
    ])
}

#[allow(deprecated)]
fn stage_counters_from(v: &Json) -> Result<StageCounters, String> {
    let f = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"));
    Ok(StageCounters {
        submission: ring_counters_from(v.get("submission").ok_or("missing 'submission'")?)?,
        solve: ring_counters_from(v.get("solve").ok_or("missing 'solve'")?)?,
        completion: ring_counters_from(v.get("completion").ok_or("missing 'completion'")?)?,
        lookup_hits: f("lookup_hits")?,
        lookup_misses: f("lookup_misses")?,
        solve_claimed: f("solve_claimed")?,
        delivered: f("delivered")?,
    })
}

fn cache_stats_json(s: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::num_u64(s.hits)),
        ("misses", Json::num_u64(s.misses)),
        ("inserts", Json::num_u64(s.inserts)),
        ("evictions", Json::num_u64(s.evictions)),
    ])
}

fn cache_stats_from(v: &Json) -> Result<CacheStats, String> {
    let f = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"));
    Ok(CacheStats {
        hits: f("hits")?,
        misses: f("misses")?,
        inserts: f("inserts")?,
        evictions: f("evictions")?,
    })
}

impl StatsSnapshot {
    /// Serializes every counter (the `stats` member of a stats response).
    pub fn to_json(&self) -> Json {
        let sc = &self.service;
        let mut members = vec![
            (
                "service",
                Json::obj(vec![
                    ("submitted", Json::num_u64(sc.submitted)),
                    ("completed", Json::num_u64(sc.completed)),
                    ("failed", Json::num_u64(sc.failed)),
                    ("coalesced", Json::num_u64(sc.coalesced)),
                    ("rejected_queue_full", Json::num_u64(sc.rejected_queue_full)),
                    ("cancelled", Json::num_u64(sc.cancelled)),
                    ("snapshots", Json::num_u64(sc.snapshots)),
                    ("queue_depth", Json::num_u64(sc.queue_depth)),
                ]),
            ),
            ("stages", stage_counters_json(&self.stages)),
            (
                "cache",
                Json::obj(vec![
                    ("programs", cache_stats_json(&self.cache.programs)),
                    ("synthesis", cache_stats_json(&self.cache.synthesis)),
                ]),
            ),
        ];
        if let Some(sh) = &self.shared {
            members.push((
                "shared",
                Json::obj(vec![
                    ("hits", Json::num_u64(sh.hits)),
                    ("published", Json::num_u64(sh.published)),
                    ("duplicates", Json::num_u64(sh.duplicates)),
                    ("full_rejects", Json::num_u64(sh.full_rejects)),
                    ("seeded", Json::num_u64(sh.seeded)),
                    ("entries", Json::num_u64(sh.entries)),
                    ("generation", Json::num_u64(sh.generation)),
                ]),
            ));
        }
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parses a stats JSON back into counters — the inverse of
    /// [`StatsSnapshot::to_json`], used by the client's assertion flags
    /// and pinned by the round-trip test.
    ///
    /// # Errors
    ///
    /// A description of the first missing/invalid member.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let sv = v.get("service").ok_or("missing 'service'")?;
        let f = |k: &str| sv.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"));
        let service = ServiceCounters {
            submitted: f("submitted")?,
            completed: f("completed")?,
            failed: f("failed")?,
            coalesced: f("coalesced")?,
            rejected_queue_full: f("rejected_queue_full")?,
            cancelled: f("cancelled")?,
            snapshots: f("snapshots")?,
            queue_depth: f("queue_depth")?,
        };
        let stages = stage_counters_from(v.get("stages").ok_or("missing 'stages'")?)?;
        let cv = v.get("cache").ok_or("missing 'cache'")?;
        let cache = CompileCacheStats {
            programs: cache_stats_from(cv.get("programs").ok_or("missing 'programs'")?)?,
            synthesis: cache_stats_from(cv.get("synthesis").ok_or("missing 'synthesis'")?)?,
        };
        let shared = match v.get("shared") {
            None => None,
            Some(sh) => {
                let f = |k: &str| {
                    sh.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"))
                };
                Some(SharedCounters {
                    hits: f("hits")?,
                    published: f("published")?,
                    duplicates: f("duplicates")?,
                    full_rejects: f("full_rejects")?,
                    seeded: f("seeded")?,
                    entries: f("entries")?,
                    generation: f("generation")?,
                })
            }
        };
        Ok(StatsSnapshot { service, stages, cache, shared })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_compile_requests() {
        let r = parse_request(
            r#"{"id":3,"op":"compile","pipeline":"reqisc-eff","qasm":"qubits 1\nh 0\n"}"#,
        )
        .expect("parse");
        assert_eq!(r.id, 3);
        match r.body {
            RequestBody::Compile { source: CompileSource::Qasm(q), pipeline, priority } => {
                assert_eq!(q, "qubits 1\nh 0\n");
                assert_eq!(pipeline, Pipeline::ReqiscEff);
                assert_eq!(priority, DEFAULT_PRIORITY);
            }
            other => panic!("wrong body {other:?}"),
        }
        let r = parse_request(
            r#"{"id":4,"op":"compile","pipeline":"qiskit","bench":"alu_v0","priority":9}"#,
        )
        .expect("parse");
        assert!(matches!(
            r.body,
            RequestBody::Compile { source: CompileSource::Bench(_), priority: 9, .. }
        ));
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            "not json",
            r#"{"op":"stats"}"#,                                        // no id
            r#"{"id":1}"#,                                              // no op
            r#"{"id":1,"op":"noop"}"#,                                  // unknown op
            r#"{"id":1,"op":"compact","max_idle_gens":2}"#,             // GC is offline
            r#"{"id":1,"op":"compile","pipeline":"nope","bench":"x"}"#, // bad pipeline
            r#"{"id":1,"op":"compile","pipeline":"qiskit"}"#,           // no source
            r#"{"id":1,"op":"compile","pipeline":"qiskit","bench":"x","qasm":"y"}"#, // both
            r#"{"id":1,"op":"compile","pipeline":"qiskit","bench":"x","priority":12}"#, // range
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    // The deprecated rings still round-trip: the wire keeps them.
    #[allow(deprecated)]
    #[test]
    fn stats_snapshot_roundtrips_all_counters() {
        let snap = StatsSnapshot {
            service: ServiceCounters {
                submitted: 10,
                completed: 8,
                failed: 1,
                coalesced: 3,
                rejected_queue_full: 2,
                cancelled: 5,
                snapshots: 4,
                queue_depth: 1,
            },
            stages: StageCounters {
                solve: RingCounters { enqueued: 6, dequeued: 6, depth: 0, wait_us: 90 },
                completion: RingCounters { enqueued: 9, dequeued: 9, depth: 0, wait_us: 15 },
                lookup_hits: 3,
                lookup_misses: 6,
                solve_claimed: 6,
                delivered: 9,
                ..StageCounters::default()
            },
            cache: CompileCacheStats {
                programs: CacheStats { hits: 5, misses: 3, inserts: 3, evictions: 1 },
                synthesis: CacheStats { hits: 50, misses: 30, inserts: 30, evictions: 0 },
            },
            shared: Some(SharedCounters {
                hits: 11,
                published: 6,
                duplicates: 4,
                full_rejects: 1,
                seeded: 9,
                entries: 15,
                generation: 3,
            }),
        };
        let j = snap.to_json();
        let back = StatsSnapshot::from_json(&Json::parse(&j.emit()).expect("emit parses"))
            .expect("from_json");
        assert_eq!(back, snap, "every counter must survive the wire");
        // Segment-less snapshots round-trip too.
        let no_segment = StatsSnapshot { shared: None, ..snap };
        let back = StatsSnapshot::from_json(&no_segment.to_json()).expect("from_json");
        assert_eq!(back, no_segment);
    }
}
