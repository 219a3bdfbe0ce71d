//! Transports: a generic line-stream server (the `--stdio` mode and the
//! per-connection loop of the socket server) and the Unix-domain-socket
//! accept loop.
//!
//! ## Ordering model
//!
//! Responses are written **in request order** per connection. The reader
//! (caller's thread) parses and *submits* each line without waiting —
//! this is what lets identical pipelined requests coalesce. A reply that
//! is complete at submission (a warm hit, an error, an ack) is written by
//! the reader itself whenever every earlier reply on the connection has
//! been written, so a warm request is a one-thread round trip. Anything
//! else — a miss, a debug op, a deferred op, and every reply queued
//! behind one — goes to a scoped responder thread, which resolves the
//! pending replies in order. A per-connection [`WriteGate`] counts the
//! replies the responder still owes and only lets the reader write when
//! that count is zero. Deferred ops (`stats`, `snapshot`) are evaluated
//! by the responder *when their turn comes*, i.e. after every earlier
//! request on the connection has completed — which makes `…compiles,
//! stats` scripts read deterministic counters.

use crate::protocol::{
    compile_response, error_response, ok_response, parse_request, request_id, RequestBody,
};
use crate::json::Json;
use crate::queue::DEFAULT_PRIORITY;
use crate::service::{DebugOp, JobDone, Service, SubmitError, Ticket};
use crate::sync::{LockRecover, Mutex};
use std::io::{BufRead, Write};
use std::sync::mpsc;

/// What one connection's request stream did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Request lines processed (well-formed or not).
    pub requests: u64,
    /// True when the stream ended on a `shutdown` request (already
    /// recorded on the service via [`Service::request_shutdown`], after
    /// every reply on the stream, the ack included, was written).
    pub shutdown: bool,
}

/// One connection's writer, shared by its reader and its responder: the
/// reader may write only while the responder owes nothing, and the
/// responder gives its place up only once its write has finished — so
/// replies leave in request order whichever thread writes them.
pub struct WriteGate<W> {
    gate: Mutex<Gated<W>>,
}

struct Gated<W> {
    writer: W,
    /// Replies handed to the responder and not yet written.
    owed: usize,
}

impl<W: Write> WriteGate<W> {
    /// A gate around `writer` that owes nothing yet.
    pub fn new(writer: W) -> Self {
        Self { gate: Mutex::new(Gated { writer, owed: 0 }) }
    }

    /// The reader's path for a complete reply: writes `line` now if
    /// every earlier reply has been written (`Ok(true)`); otherwise
    /// takes a place behind them (`Ok(false)`), and the caller hands
    /// the reply to the responder.
    pub fn write_or_owe(&self, line: &[u8]) -> std::io::Result<bool> {
        let mut g = self.gate.lock_recover();
        if g.owed > 0 {
            g.owed += 1;
            return Ok(false);
        }
        write_line(&mut g.writer, line)?;
        Ok(true)
    }

    /// The reader's path for a reply that is not complete yet: takes a
    /// place behind every earlier reply; the responder will write it.
    pub fn owe(&self) {
        self.gate.lock_recover().owed += 1;
    }

    /// The responder's path: writes an owed reply, then gives up its
    /// place — in one critical section, so the reader can never write a
    /// later reply before this one is out.
    pub fn write_owed(&self, line: &[u8]) -> std::io::Result<()> {
        let mut g = self.gate.lock_recover();
        write_line(&mut g.writer, line)?;
        g.owed = g.owed.saturating_sub(1);
        Ok(())
    }
}

/// One reply and its newline in a single write, then a flush.
fn write_line(w: &mut impl Write, line: &[u8]) -> std::io::Result<()> {
    w.write_all(line)?;
    w.flush()
}

/// One reply slot, written in request order.
enum Pending {
    /// Already-built response (errors, acks).
    Ready(Json),
    /// The `shutdown` ack: the last reply of its stream.
    Shutdown { id: u64 },
    /// A compile job's claim; resolved when the job finishes.
    Compile { id: u64, ticket: Ticket },
    /// A debug job's claim.
    Debug { id: u64, op: &'static str, ticket: Ticket },
    /// Deferred stats evaluation.
    Stats { id: u64 },
    /// Deferred bulk pass into the segment.
    Snapshot { id: u64 },
}

/// Hard cap on one request line. Bounds what an untrusted client can
/// make the daemon buffer *before* any protocol-level limit (e.g.
/// `ParseLimits`) gets a say — an oversized line is discarded as it
/// streams past, never accumulated.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 << 20;

/// Reads one `\n`-terminated line of at most `cap` bytes.
/// `Ok(None)` = EOF; `Ok(Some(Err(())))` = the line exceeded `cap` and
/// was consumed/discarded; `Ok(Some(Ok(line)))` otherwise (invalid UTF-8
/// is replaced lossily — the JSON parse will reject it with a real
/// response).
fn read_line_bounded(
    r: &mut impl BufRead,
    cap: usize,
) -> std::io::Result<Option<Result<String, ()>>> {
    let mut line: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() && !overflow {
                return Ok(None);
            }
            break;
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if !overflow {
                    // lint:allow(panic-path, i comes from position() over this very buffer)
                    line.extend_from_slice(&buf[..i]);
                }
                r.consume(i + 1);
                break;
            }
            None => {
                if !overflow {
                    line.extend_from_slice(buf);
                }
                let n = buf.len();
                r.consume(n);
                if line.len() > cap {
                    overflow = true;
                    line = Vec::new();
                }
            }
        }
    }
    if overflow || line.len() > cap {
        return Ok(Some(Err(())));
    }
    // A valid line is kept as is, without a copy.
    Ok(Some(Ok(String::from_utf8(line)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))))
}

/// Serves one line-delimited request stream until EOF or `shutdown`.
/// The caller's thread reads, submits and writes the replies that are
/// complete at once; a scoped responder thread writes the rest, all in
/// request order (see module docs).
///
/// # Errors
///
/// I/O errors from the reader or writer. Protocol-level problems are
/// *responses*, never errors.
pub fn serve_lines(
    service: &Service,
    mut reader: impl BufRead,
    writer: impl Write + Send,
) -> std::io::Result<ServeOutcome> {
    let (tx, rx) = mpsc::channel::<Pending>();
    let gate = WriteGate::new(writer);
    let mut outcome = ServeOutcome { requests: 0, shutdown: false };
    let (reader_result, write_result) = std::thread::scope(|scope| {
        let gate = &gate;
        let responder = scope.spawn(move || respond_loop(service, rx, gate));
        let mut reader_result = Ok(());
        loop {
            let pending = match read_line_bounded(&mut reader, MAX_REQUEST_LINE_BYTES) {
                Ok(None) => break,
                Ok(Some(Ok(line))) if line.trim().is_empty() => continue,
                Ok(Some(Ok(line))) => handle_line(service, &line),
                Ok(Some(Err(()))) => Pending::Ready(error_response(
                    0,
                    "parse_error",
                    format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                )),
                Err(e) => {
                    reader_result = Err(e);
                    break;
                }
            };
            outcome.requests += 1;
            outcome.shutdown = matches!(pending, Pending::Shutdown { .. });
            // Stop reading after `shutdown`, or once the writer failed
            // (on this thread, or on the responder's, which then exits).
            match post(gate, &tx, pending) {
                Ok(true) if !outcome.shutdown => {}
                Ok(_) => break,
                Err(e) => {
                    reader_result = Err(e);
                    break;
                }
            }
        }
        drop(tx);
        // A panicked responder must not take the reader down with it:
        // surface it as an I/O error on this connection instead.
        let write_result = responder.join().unwrap_or_else(|_| {
            Err(std::io::Error::other("responder thread panicked"))
        });
        // Only now, with every reply on this stream written (or the
        // writer gone), may the accept loop close connections.
        if outcome.shutdown {
            service.request_shutdown();
        }
        (reader_result, write_result)
    });
    reader_result?;
    write_result?;
    Ok(outcome)
}

/// Writes `pending`'s reply on the reader's thread when it is complete
/// and nothing earlier is owed; otherwise hands it to the responder.
/// `Ok(false)` once the responder is gone (it hit a write error).
fn post<W: Write>(
    gate: &WriteGate<W>,
    tx: &mpsc::Sender<Pending>,
    pending: Pending,
) -> std::io::Result<bool> {
    let pending = match pending.complete() {
        Ok(reply) => {
            let line = reply_line(&reply);
            if gate.write_or_owe(&line)? {
                return Ok(true);
            }
            Pending::Ready(reply)
        }
        Err(pending) => {
            gate.owe();
            pending
        }
    };
    Ok(tx.send(pending).is_ok())
}

/// A reply's wire bytes: the JSON and its newline.
fn reply_line(reply: &Json) -> Vec<u8> {
    let mut line = reply.emit().into_bytes();
    line.push(b'\n');
    line
}

impl Pending {
    /// The reply, when it needs no running job and no turn in the
    /// stream: errors, acks, and compiles answered at submission.
    fn complete(self) -> Result<Json, Pending> {
        match self {
            Pending::Ready(j) => Ok(j),
            Pending::Shutdown { id } => Ok(ok_response(id, "shutdown")),
            Pending::Compile { id, ticket } if ticket.is_done() => Ok(compile_reply(id, ticket)),
            other => Err(other),
        }
    }
}

/// A compile job's reply, waiting for the job if it still runs.
fn compile_reply(id: u64, ticket: Ticket) -> Json {
    let coalesced = ticket.coalesced;
    match ticket.wait() {
        Ok(JobDone { circuit: Some(program), done_seq }) => {
            let reply = program.reply();
            compile_response(id, reply.fingerprint, &reply.metrics, coalesced, done_seq)
        }
        // A compile job always carries a circuit; answering `internal`
        // beats panicking the connection if that invariant ever breaks.
        Ok(JobDone { circuit: None, .. }) => {
            error_response(id, "internal", "compile job returned no circuit")
        }
        Err(e) => error_response(id, "compile_failed", e),
    }
}

/// Parses and submits one request line, producing its pending reply.
fn handle_line(service: &Service, line: &str) -> Pending {
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return Pending::Ready(error_response(request_id(line), "parse_error", e)),
    };
    let id = req.id;
    match req.body {
        RequestBody::Compile { source, pipeline, priority } => {
            let circuit = match service.resolve_source(&source) {
                Ok(c) => c,
                Err(e) => return Pending::Ready(error_response(id, "bad_request", e.to_string())),
            };
            match service.submit_compile(circuit, pipeline, priority) {
                Ok(ticket) => Pending::Compile { id, ticket },
                Err(SubmitError::QueueFull(q)) => {
                    Pending::Ready(error_response(id, "queue_full", q.to_string()))
                }
                Err(SubmitError::Invalid(m)) => {
                    Pending::Ready(error_response(id, "bad_request", m))
                }
            }
        }
        RequestBody::Stats => Pending::Stats { id },
        RequestBody::Snapshot => Pending::Snapshot { id },
        RequestBody::Shutdown => Pending::Shutdown { id },
        RequestBody::DebugSleep { ms } => {
            match service.submit_debug(DebugOp::Sleep { ms }, DEFAULT_PRIORITY) {
                Ok(ticket) => Pending::Debug { id, op: "sleep", ticket },
                Err(e) => Pending::Ready(submit_error_response(id, e)),
            }
        }
        RequestBody::DebugPanic => {
            match service.submit_debug(DebugOp::Panic, DEFAULT_PRIORITY) {
                Ok(ticket) => Pending::Debug { id, op: "panic", ticket },
                Err(e) => Pending::Ready(submit_error_response(id, e)),
            }
        }
    }
}

fn submit_error_response(id: u64, e: SubmitError) -> Json {
    match e {
        SubmitError::QueueFull(q) => error_response(id, "queue_full", q.to_string()),
        SubmitError::Invalid(m) => error_response(id, "bad_request", m),
    }
}

fn snapshot_response(id: u64, pass: Option<reqisc_compiler::ShareStats>) -> Json {
    let Some(s) = pass else {
        return error_response(id, "no_store", "service is running without a shared segment");
    };
    let mut j = ok_response(id, "snapshot");
    if let Json::Obj(members) = &mut j {
        members.push(("published".into(), Json::num_u64(s.published)));
        members.push(("duplicates".into(), Json::num_u64(s.duplicates)));
        members.push(("full_rejects".into(), Json::num_u64(s.full_rejects)));
    }
    j
}

/// The responder: resolves every reply the reader handed over, in
/// order, and writes each through the gate.
fn respond_loop<W: Write>(
    service: &Service,
    rx: mpsc::Receiver<Pending>,
    gate: &WriteGate<W>,
) -> std::io::Result<()> {
    for pending in rx {
        let response = match pending {
            Pending::Ready(j) => j,
            Pending::Shutdown { id } => ok_response(id, "shutdown"),
            Pending::Compile { id, ticket } => compile_reply(id, ticket),
            Pending::Debug { id, op, ticket } => match ticket.wait() {
                Ok(_) => ok_response(id, op),
                Err(e) => error_response(id, "compile_failed", e),
            },
            Pending::Stats { id } => {
                let mut j = ok_response(id, "stats");
                if let Json::Obj(members) = &mut j {
                    members.push(("stats".into(), service.stats_snapshot().to_json()));
                }
                j
            }
            Pending::Snapshot { id } => snapshot_response(id, service.snapshot_now()),
        };
        gate.write_owed(&reply_line(&response))?;
    }
    Ok(())
}

/// Runs the Unix-domain-socket accept loop until a `shutdown` request
/// arrives on any connection. Each connection gets its own thread running
/// [`serve_lines`]. A socket file already at `socket_path` (a killed
/// daemon's) is replaced on entry; any other file there fails the bind
/// and is left as it is. The socket file is removed on exit.
///
/// The loop blocks in `accept` and checks [`Service::shutdown_requested`]
/// after every accept. The first connection to end once shutdown is
/// requested (the one that served `shutdown`) closes every connection,
/// its own descriptors first, then connects once to the socket to wake
/// the loop.
///
/// # Errors
///
/// Socket bind errors, and `accept` errors other than those that fail
/// only the connection being accepted (descriptors, buffers or memory
/// ran out, the peer aborted, a signal interrupted): those are logged,
/// and the loop backs off for 10 ms and keeps accepting. Per-connection
/// I/O errors only end that connection.
#[cfg(unix)]
pub fn serve_unix(service: &Service, socket_path: &std::path::Path) -> std::io::Result<()> {
    use std::collections::HashMap;
    use std::os::unix::fs::FileTypeExt;
    use std::os::unix::net::{UnixListener, UnixStream};
    if std::fs::symlink_metadata(socket_path).is_ok_and(|m| m.file_type().is_socket()) {
        let _ = std::fs::remove_file(socket_path);
    }
    if let Some(dir) = socket_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let listener = UnixListener::bind(socket_path)?;
    // Cloned handles of the open connections, keyed by accept order: on
    // shutdown they are force-closed so a connection thread parked in a
    // blocking read wakes with EOF — otherwise one idle client would keep
    // the scope join (and the final bulk pass) waiting forever. Each
    // connection removes its own handle when it ends, so a long-lived
    // daemon holds one descriptor per open connection only.
    let conns: Mutex<HashMap<u64, UnixStream>> = Mutex::new(HashMap::new());
    let conns = &conns;
    let close_all = |open: &mut HashMap<u64, UnixStream>| {
        for (_, s) in open.drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    };
    let mut next_id = 0u64;
    let result = std::thread::scope(|scope| loop {
        // A connection whose handle cannot be cloned could not be closed
        // at shutdown, so it fails like one whose accept failed.
        let accepted = listener.accept().and_then(|(s, _)| s.try_clone().map(|h| (s, h)));
        if service.shutdown_requested() {
            close_all(&mut conns.lock_recover());
            return Ok(());
        }
        let (stream, handle) = match accepted {
            Ok(pair) => pair,
            Err(e) if fails_one_connection(&e) => {
                eprintln!("# reqiscd: accept failed ({e}); retrying in 10 ms");
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
            Err(e) => return Err(e),
        };
        let id = next_id;
        next_id += 1;
        conns.lock_recover().insert(id, handle);
        scope.spawn(move || {
            let _ = serve_lines(service, std::io::BufReader::new(&stream), &stream);
            drop(stream);
            // Once shutdown closed this connection it is gone from
            // `conns`; otherwise the first connection to end after a
            // shutdown request (its own handle leaves with the removal)
            // closes the rest and wakes the accept.
            let mut open = conns.lock_recover();
            if open.remove(&id).is_some() && service.shutdown_requested() {
                close_all(&mut open);
                drop(open);
                let _ = UnixStream::connect(socket_path);
            }
        });
    });
    let _ = std::fs::remove_file(socket_path);
    result
}

/// Whether a failed `accept` failed only the connection it was
/// accepting: descriptors (EMFILE, ENFILE), buffers (ENOBUFS) or memory
/// (ENOMEM) ran out, the peer aborted (ECONNABORTED), or a signal
/// interrupted the call (EINTR).
#[cfg(unix)]
fn fails_one_connection(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{ConnectionAborted, Interrupted, OutOfMemory};
    // std names no kind for these three: EMFILE and ENFILE are 24 and 23
    // on every Unix, ENOBUFS is 105 on Linux and 55 on the BSDs.
    const EMFILE: i32 = 24;
    const ENFILE: i32 = 23;
    const ENOBUFS: i32 = if cfg!(target_os = "linux") { 105 } else { 55 };
    matches!(e.kind(), ConnectionAborted | Interrupted | OutOfMemory)
        || matches!(e.raw_os_error(), Some(EMFILE | ENFILE | ENOBUFS))
}
