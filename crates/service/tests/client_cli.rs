//! The command-line tools' exit codes, driven through the built binaries.
//! `reqisc-client` against an in-process daemon: a numeric flag whose
//! value does not parse or is out of range is a usage error (exit 2)
//! instead of a silently skipped assertion or a panic, and a connection
//! the daemon drops is a failure (exit 1), not a panic. `reqiscd`: a zero
//! queue or pool size is a usage error (exit 2), not a panic at startup,
//! and `--compact-now` on a missing segment fails (exit 1) without
//! creating one.

#![cfg(unix)]

use reqisc_compiler::Compiler;
use reqisc_service::{serve_unix, Service, ServiceConfig};
use std::io::BufRead;
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::process::{Command, Stdio};

/// Requests shutdown when dropped, so a failing assertion inside the
/// server's scope ends the accept loop instead of hanging the test.
struct StopOnDrop<'a>(&'a Service);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
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

#[test]
fn malformed_numeric_flags_are_usage_errors() {
    let sock = std::env::temp_dir().join(format!("reqisc-client-cli-{}.sock", std::process::id()));
    let service = Service::start_with_compiler(
        Compiler::new_with_library(Default::default()),
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
    );
    std::thread::scope(|scope| {
        let service = &service;
        let _stop = StopOnDrop(service);
        let server = scope.spawn(|| serve_unix(service, &sock));
        // Well-formed flags reach the daemon: against an empty daemon the
        // hit-rate assertion runs and fails, and a parsed priority is
        // accepted.
        assert_eq!(client(&sock, &["stats", "--require-program-hit-pct", "95"]), 1);
        assert_eq!(client(&sock, &["stats", "--require-shared-hits", "0"]), 1, "no segment");
        let submit = ["submit", "--pipeline", "qiskit", "--bench", "alu_v0"];
        assert_eq!(client(&sock, &[&submit[..], &["--priority", "7"]].concat()), 0);
        assert_eq!(client(&sock, &[&submit[..], &["--priority", "12"]].concat()), 1, "range");
        // Malformed ones never do.
        for args in [
            &["stats", "--require-program-hit-pct", "abc"][..],
            &["stats", "--require-program-hit-pct", "nan"],
            &["stats", "--require-shared-hits", "lots"],
            &["stats", "--require-shared-hits", "-1"],
            &["suite", "--take", "ten"],
            &["--connect-timeout-secs", "18446744073709551615", "stats"],
            &[&submit[..], &["--priority", "high"]].concat(),
            &[&submit[..], &["--priority", "1,\"x\":2"]].concat(),
        ] {
            assert_eq!(client(&sock, args), 2, "{args:?}");
        }
        assert_eq!(client(&sock, &["shutdown"]), 0);
        server.join().expect("server thread").expect("serve_unix");
    });
    let stats = service.stats_snapshot().service;
    service.shutdown();
    assert_eq!(stats.submitted, 1, "only the well-formed submit reached the queue");
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
fn zero_queue_and_pool_sizes_are_usage_errors() {
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
        (&["--pool-capacity", "0"], "--pool-capacity"),
        (&["--pool-shards", "0", "--pool-capacity", "4"], "--pool-shards"),
        // Over the ceilings: rejected before any thread or map exists.
        (&["--workers", "257"], "--workers"),
        (&["--workers", "18446744073709551615"], "--workers"),
        (&["--pool-shards", "65537", "--pool-capacity", "4"], "--pool-shards"),
        (&["--pool-shards", "65537"], "--pool-shards"),
    ] {
        let (code, stderr) = reqiscd(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} names its flag: {stderr}");
    }
    // The smallest accepted shape serves its (empty) session.
    let (code, stderr) = reqiscd(&["--queue-capacity", "1", "--pool-shards", "1", "--pool-capacity", "1"]);
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
    let (code, stdout, stderr) = reqiscd(&["--compact-now", "--shm-path", path, "--gc-idle-gens", "0"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("kept 0, dropped 0"), "{stdout}");
    // GC is offline only: its threshold means nothing to a serving daemon.
    let (code, _, stderr) = reqiscd(&["--stdio", "--gc-idle-gens", "2"]);
    assert_eq!(code, Some(2), "{stderr}");
    let _ = std::fs::remove_file(&seg);
}
