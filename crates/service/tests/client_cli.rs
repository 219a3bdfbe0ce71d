//! The command-line tools' exit codes, driven through the built binaries.
//! `reqisc-client` against an in-process daemon: an unknown argument or
//! a `--priority` that does not parse is a usage error (exit 2) instead
//! of a silently ignored typo, and a connection the daemon drops is a
//! failure (exit 1), not a panic. `reqiscd`: a zero queue capacity or too
//! many workers is a usage error (exit 2), not a panic at startup;
//! `--compact-now` on a missing segment fails (exit 1) without creating
//! one; and a file at `--socket` that is not a socket fails the bind
//! (exit 1) and is kept.

#![cfg(unix)]

use reqisc_compiler::Compiler;
use reqisc_service::{serve_unix, Service, ServiceConfig, ServiceCounters};
use std::io::BufRead;
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Requests shutdown and wakes the accept loop with one connect when
/// dropped, so a failing assertion inside the server's scope ends the
/// accept loop instead of hanging the test.
struct StopOnDrop<'a>(&'a Service, &'a Path);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
        let _ = UnixStream::connect(self.1);
    }
}

/// Runs the client on `sock` and returns its exit code.
fn client(sock: &Path, args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_reqisc-client"))
        .arg("--socket")
        .arg(sock)
        .args(args)
        .output()
        .expect("run reqisc-client");
    out.status.code().expect("client exited normally")
}

/// Serves an in-process daemon on a fresh socket while `drive` runs
/// clients against it, shuts it down with a client `shutdown`, and
/// returns its service counters.
fn against_daemon(tag: &str, drive: impl FnOnce(&Path)) -> ServiceCounters {
    let sock =
        std::env::temp_dir().join(format!("reqisc-client-{tag}-{}.sock", std::process::id()));
    let service = Service::start_with_compiler(
        Compiler::new_with_library(Default::default()),
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
    );
    std::thread::scope(|scope| {
        let service = &service;
        let _stop = StopOnDrop(service, &sock);
        let server = scope.spawn(|| serve_unix(service, &sock));
        drive(&sock);
        assert_eq!(client(&sock, &["shutdown"]), 0);
        server.join().expect("server thread").expect("serve_unix");
    });
    let stats = service.stats_snapshot().service;
    service.shutdown();
    stats
}

#[test]
fn malformed_numeric_flags_are_usage_errors() {
    let stats = against_daemon("cli", |sock| {
        // A parsed priority reaches the daemon, which range-checks it.
        let submit = ["submit", "--pipeline", "qiskit", "--bench", "alu_v0"];
        assert_eq!(client(sock, &[&submit[..], &["--priority", "7"]].concat()), 0);
        assert_eq!(client(sock, &[&submit[..], &["--priority", "12"]].concat()), 1, "range");
        // A malformed one never does.
        for args in [
            &[&submit[..], &["--priority", "high"]].concat(),
            &[&submit[..], &["--priority", "1,\"x\":2"]].concat(),
        ] {
            assert_eq!(client(sock, args), 2, "{args:?}");
        }
    });
    assert_eq!(stats.submitted, 1, "only the well-formed submit reached the queue");
}

#[test]
fn unknown_arguments_are_usage_errors() {
    let stats = against_daemon("unknown", |sock| {
        let submit = ["submit", "--pipeline", "qiskit", "--bench", "alu_v0"];
        for args in [
            // Typos: neither may run its command without the argument.
            &["stats", "--require-shared-hit", "1"][..],
            &[&submit[..], &["--prio", "7"]].concat(),
            // Flags the client does not have.
            &["stats", "--require-program-hit-pct", "95"],
            &["suite", "--take", "3"],
            &["--connect-timeout-secs", "5", "stats"],
            // A stray word, an unknown command, a repeated flag and a
            // flag without its value.
            &["stats", "now"],
            &["frobnicate"],
            &[&submit[..], &["--bench", "alu_v0"]].concat(),
            &["submit", "--bench", "alu_v0", "--pipeline"],
        ] {
            assert_eq!(client(sock, args), 2, "{args:?}");
        }
    });
    assert_eq!(stats.submitted, 0, "no request reached the daemon");
}

#[test]
fn a_dropped_connection_is_a_failure_not_a_panic() {
    let sock = std::env::temp_dir().join(format!("reqisc-client-drop-{}.sock", std::process::id()));
    for _ in 0..3 {
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock).expect("bind");
        // A peer that reads one request of the suite and hangs up with
        // the rest unread.
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut line = String::new();
            std::io::BufReader::new(&stream).read_line(&mut line).expect("read one request");
            assert!(line.contains("\"op\":\"compile\""), "{line}");
        });
        let out = Command::new(env!("CARGO_BIN_EXE_reqisc-client"))
            .arg("--socket")
            .arg(&sock)
            .arg("suite")
            .output()
            .expect("run reqisc-client");
        peer.join().expect("peer thread");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("missing responses"), "{stderr}");
    }
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn zero_queue_capacity_and_excess_workers_are_usage_errors() {
    let reqiscd = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_reqiscd"))
            .arg("--stdio")
            .args(args)
            .env_remove(reqisc_env::SHM_PATH.name)
            .stdin(Stdio::null())
            .output()
            .expect("run reqiscd");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    for (args, flag) in [
        (&["--queue-capacity", "0"][..], "--queue-capacity"),
        // Over the ceiling: rejected before any thread exists.
        (&["--workers", "257"], "--workers"),
        (&["--workers", "18446744073709551615"], "--workers"),
    ] {
        let (code, stderr) = reqiscd(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} names its flag: {stderr}");
    }
    // The smallest accepted queue serves its (empty) session.
    let (code, stderr) = reqiscd(&["--queue-capacity", "1"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn compact_now_on_a_missing_segment_fails_without_creating_it() {
    let seg = std::env::temp_dir().join(format!("reqisc-cli-missing-{}.seg", std::process::id()));
    let _ = std::fs::remove_file(&seg);
    let reqiscd = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_reqiscd"))
            .args(args)
            .env_remove(reqisc_env::SHM_PATH.name)
            .stdin(Stdio::null())
            .output()
            .expect("run reqiscd");
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (out.status.code(), text(&out.stdout), text(&out.stderr))
    };
    let path = seg.to_str().expect("utf-8 temp path");
    let (code, _, stderr) = reqiscd(&["--compact-now", "--shm-path", path]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(path), "the message names the path: {stderr}");
    assert!(!seg.exists(), "a missing segment must not be created");

    // An existing segment compacts offline.
    drop(reqisc_shmem::Segment::attach(&seg, 1 << 20, reqisc_compiler::STORE_FORMAT_VERSION));
    let (code, stdout, stderr) = reqiscd(&["--compact-now", "--shm-path", path]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("kept 0, dropped 0"), "{stdout}");
    let _ = std::fs::remove_file(&seg);
}

#[test]
fn a_file_at_the_socket_path_is_kept_and_fails_the_bind() {
    let path = std::env::temp_dir().join(format!("reqiscd-not-a-socket-{}.txt", std::process::id()));
    std::fs::write(&path, "notes\n").expect("write the file");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_reqiscd"))
        .arg("--socket")
        .arg(&path)
        .args(["--workers", "1"])
        .env_remove(reqisc_env::SHM_PATH.name)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start reqiscd");
    // The daemon must exit on its own, well within its 30 s snapshot
    // interval; one that serves in the file's place (the path turned into
    // a socket) or outlives the deadline is stopped here, so the test
    // fails instead of hanging.
    let deadline = Instant::now() + Duration::from_secs(20);
    let exited = loop {
        if let Some(status) = daemon.try_wait().expect("poll reqiscd") {
            break Some(status);
        }
        let is_socket = std::fs::symlink_metadata(&path).is_ok_and(|m| m.file_type().is_socket());
        if is_socket || Instant::now() > deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    if exited.is_none() {
        let _ = daemon.kill();
    }
    let out = daemon.wait_with_output().expect("reap reqiscd");
    let content = std::fs::read_to_string(&path).ok();
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(exited.is_some(), "reqiscd replaced the file and served: {stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("socket server failed"), "{stderr}");
    assert_eq!(content.as_deref(), Some("notes\n"), "the file must be left as it was");
}
