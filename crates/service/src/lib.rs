#![warn(missing_docs)]
//! # reqisc-service
//!
//! The long-running compile-service subsystem: a resident daemon
//! (`reqiscd`) that accepts jobs over a line-delimited JSON protocol on a
//! Unix domain socket (or stdio), parses QASM / resolves benchsuite
//! program names, and drives everything through the shared
//! content-addressed [`reqisc_compiler::CompileCache`] engine — so the
//! ~1000× warm-cache wins reach interactive callers without paying
//! process startup and template-library synthesis per invocation.
//!
//! The subsystem owns:
//!
//! * a **two-path core** ([`service`]): submission probes the warm tiers
//!   (local program pool, then shared segment) and delivers a hit into
//!   its ticket on the submitting thread; only a miss enters the solve
//!   ring, whose workers deliver each result to its waiters, so a warm
//!   hit never queues behind a cold solve — and a connection's reader
//!   writes a warm reply itself whenever no earlier reply is owed
//!   ([`server`]);
//! * a **bounded priority solve ring** with non-blocking admission
//!   control ([`queue`]) — overload rejects misses with `queue_full`,
//!   never stalls the accept loop;
//! * **in-flight request coalescing** keyed by `(circuit content hash,
//!   pipeline, options fingerprint)` — N identical concurrent requests
//!   cost one compile and N responses ([`service`]);
//! * a **solve worker pool** sized like [`reqisc_compiler::Compiler`]'s
//!   `block_threads` (0 = hardware parallelism);
//! * **one durable tier**: the crash-safe shared segment
//!   ([`reqisc_shmem`]), which solve workers publish into, periodic and
//!   on-shutdown bulk passes re-stamp (one generation each), and an
//!   offline `reqiscd --compact-now` garbage-collects;
//! * a **stats** endpoint returning every cache/segment/queue counter as
//!   JSON ([`protocol::StatsSnapshot`]).
//!
//! ## Quick start (in-process, stdio transport)
//!
//! ```no_run
//! use reqisc_service::{serve_lines, Service, ServiceConfig};
//!
//! let service = Service::start(ServiceConfig::default());
//! let requests = "{\"id\":1,\"op\":\"compile\",\"pipeline\":\"reqisc-eff\",\"qasm\":\"qubits 2\\ncx 0 1\\n\"}\n{\"id\":2,\"op\":\"stats\"}\n";
//! let mut out = Vec::new();
//! serve_lines(&service, requests.as_bytes(), &mut out).unwrap();
//! service.shutdown();
//! println!("{}", String::from_utf8(out).unwrap());
//! ```

pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;
pub mod sync;

pub use json::{Json, JsonError};
pub use protocol::{
    parse_request, CompileSource, Request, RequestBody, RingCounters as StageRingCounters,
    ServiceCounters, SharedCounters, StageCounters, StatsSnapshot,
};
pub use queue::{JobQueue, Priority, QueueFull, RingStats, DEFAULT_PRIORITY, MAX_PRIORITY};
pub use server::{serve_lines, ServeOutcome};
#[cfg(unix)]
pub use server::serve_unix;
pub use service::{
    DebugOp, JobDone, JobResult, Service, ServiceConfig, SubmitError, Ticket,
    DEFAULT_SHM_CAPACITY_BYTES,
};
