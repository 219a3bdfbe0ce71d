//! Transports: a generic line-stream server (the `--stdio` mode and the
//! per-connection loop of the socket server) and the Unix-domain-socket
//! accept loop.
//!
//! ## Ordering model
//!
//! Responses are written **in request order** per connection. The reader
//! (caller's thread) parses and *submits* each line without waiting —
//! this is what lets identical pipelined requests coalesce — while a
//! scoped responder thread resolves the pending replies in order.
//! Deferred ops (`stats`, `snapshot`) are evaluated by the
//! responder *when their turn comes*, i.e. after every earlier request
//! on the connection has completed — which makes `…compiles, stats`
//! scripts read deterministic counters.

use crate::protocol::{
    compile_response, error_response, ok_response, parse_request, request_id, RequestBody,
};
use crate::json::Json;
use crate::queue::DEFAULT_PRIORITY;
use crate::service::{DebugOp, JobDone, Service, SubmitError, Ticket};
use crate::sync::LockRecover;
use std::io::{BufRead, Write};

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

/// One queued reply slot, resolved by the responder in request order.
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
    Ok(Some(Ok(String::from_utf8_lossy(&line).into_owned())))
}

/// Serves one line-delimited request stream until EOF or `shutdown`.
/// The caller's thread reads and submits; a scoped responder thread
/// writes responses in request order (see module docs).
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
    let (tx, rx) = std::sync::mpsc::channel::<Pending>();
    let mut outcome = ServeOutcome { requests: 0, shutdown: false };
    let (read_result, write_result) = std::thread::scope(|scope| {
        let responder = scope.spawn(move || respond_loop(service, rx, writer));
        let mut read_result = Ok(());
        loop {
            let line = match read_line_bounded(&mut reader, MAX_REQUEST_LINE_BYTES) {
                Ok(None) => break,
                Ok(Some(Ok(l))) => l,
                Ok(Some(Err(()))) => {
                    outcome.requests += 1;
                    let resp = error_response(
                        0,
                        "parse_error",
                        format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                    );
                    if tx.send(Pending::Ready(resp)).is_err() {
                        break;
                    }
                    continue;
                }
                Err(e) => {
                    read_result = Err(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            outcome.requests += 1;
            let pending = handle_line(service, &line);
            outcome.shutdown = matches!(pending, Pending::Shutdown { .. });
            // Stop reading after `shutdown`, or once the responder died
            // (writer error).
            if tx.send(pending).is_err() || outcome.shutdown {
                break;
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
        (read_result, write_result)
    });
    read_result?;
    write_result?;
    Ok(outcome)
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

fn respond_loop(
    service: &Service,
    rx: std::sync::mpsc::Receiver<Pending>,
    mut writer: impl Write,
) -> std::io::Result<()> {
    for pending in rx {
        let response = match pending {
            Pending::Ready(j) => j,
            Pending::Shutdown { id } => ok_response(id, "shutdown"),
            Pending::Compile { id, ticket } => {
                let coalesced = ticket.coalesced;
                match ticket.wait() {
                    Ok(JobDone { circuit: Some(program), done_seq }) => {
                        let reply = program.reply();
                        compile_response(id, reply.fingerprint, &reply.metrics, coalesced, done_seq)
                    }
                    // A compile job always carries a circuit; answering
                    // `internal` beats panicking the responder if that
                    // invariant ever breaks.
                    Ok(JobDone { circuit: None, .. }) => {
                        error_response(id, "internal", "compile job returned no circuit")
                    }
                    Err(e) => error_response(id, "compile_failed", e),
                }
            }
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
        writeln!(writer, "{}", response.emit())?;
        writer.flush()?;
    }
    Ok(())
}

/// Runs the Unix-domain-socket accept loop until a `shutdown` request
/// arrives on any connection. Each connection gets its own thread running
/// [`serve_lines`]. The socket file is (re)created on entry and removed
/// on exit.
///
/// # Errors
///
/// Socket bind/accept errors. Per-connection I/O errors only end that
/// connection.
#[cfg(unix)]
pub fn serve_unix(service: &Service, socket_path: &std::path::Path) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(socket_path);
    if let Some(dir) = socket_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let listener = UnixListener::bind(socket_path)?;
    // Nonblocking accept + poll: std has no way to interrupt a blocking
    // accept when a connection thread flips the shutdown flag.
    listener.set_nonblocking(true)?;
    // Cloned handles of every accepted connection: on shutdown the
    // accept loop force-closes them so a connection thread parked in a
    // blocking read wakes with EOF — otherwise one idle client would
    // keep the scope join (and the final bulk pass) waiting forever.
    let conns: crate::sync::Mutex<Vec<std::os::unix::net::UnixStream>> =
        crate::sync::Mutex::new(Vec::new());
    let result = std::thread::scope(|scope| loop {
        if service.shutdown_requested() {
            for s in conns.lock_recover().iter() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if let Ok(clone) = stream.try_clone() {
                    conns.lock_recover().push(clone);
                }
                scope.spawn(move || {
                    if stream.set_nonblocking(false).is_err() {
                        return;
                    }
                    let reader = std::io::BufReader::new(&stream);
                    let _ = serve_lines(service, reader, &stream);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    });
    let _ = std::fs::remove_file(socket_path);
    result
}
