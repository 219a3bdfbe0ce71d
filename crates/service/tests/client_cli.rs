//! `reqisc-client`'s exit codes, driven through the built binary against
//! an in-process daemon: a numeric flag whose value does not parse is a
//! usage error (exit 2) instead of a silently skipped assertion.

#![cfg(unix)]

use reqisc_compiler::Compiler;
use reqisc_service::{serve_unix, Service, ServiceConfig};
use std::path::Path;
use std::process::Command;

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
            &["compact", "--max-idle-gens", "2.5"],
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
