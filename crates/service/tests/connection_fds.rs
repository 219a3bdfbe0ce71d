//! A long-lived daemon holds descriptors only for its open connections:
//! under a 64-descriptor limit, `reqiscd` answers far more sequential
//! connections than it could if each one left a descriptor behind, and
//! then shuts down cleanly. Running out of descriptors fails only the
//! connections it cannot accept: once held connections close, the daemon
//! answers again.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// A `reqiscd` serving a socket, killed if the test fails first.
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Exit status and stderr once the daemon has exited, polling for up
    /// to `wait`.
    fn exited(&mut self, wait: Duration) -> Option<(ExitStatus, String)> {
        let deadline = Instant::now() + wait;
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("poll reqiscd") {
                break status;
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        if let Some(mut e) = self.child.stderr.take() {
            let _ = e.read_to_string(&mut stderr);
        }
        Some((status, stderr))
    }

    /// Sends one request line on a fresh connection and returns the reply
    /// line, waiting up to a minute for the daemon to bind its socket.
    fn request(&mut self, line: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut stream = loop {
            match UnixStream::connect(&self.sock) {
                Ok(s) => break s,
                Err(e) => {
                    if let Some((status, stderr)) = self.exited(Duration::ZERO) {
                        panic!("reqiscd exited ({status}) before {line}: {stderr}");
                    }
                    assert!(Instant::now() < deadline, "cannot connect for {line}: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        let mut reply = String::new();
        let sent = writeln!(stream, "{line}");
        if let Err(e) = sent.and_then(|()| BufReader::new(&stream).read_line(&mut reply)) {
            panic!("no reply to {line} ({e}); reqiscd: {:?}", self.exited(Duration::from_secs(5)));
        }
        reply
    }

    /// Sends `shutdown` and requires a clean exit: status 0, socket gone.
    fn shut_down(mut self) {
        let reply = self.request("{\"id\":0,\"op\":\"shutdown\"}");
        assert!(reply.contains("\"ok\":true"), "shutdown: {reply:?}");
        let (status, stderr) =
            self.exited(Duration::from_secs(60)).expect("reqiscd exits after shutdown");
        assert_eq!(status.code(), Some(0), "{stderr}");
        assert!(!self.sock.exists(), "the daemon removes its socket on exit");
    }
}

/// Starts `reqiscd` on a fresh socket named after `tag`, limited to 64
/// descriptors.
fn daemon_under_64_fds(tag: &str) -> Daemon {
    let sock = std::env::temp_dir().join(format!("reqisc-fds-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 64 && exec "$0" --socket "$1" --workers 1 --snapshot-secs 0"#)
        .arg(env!("CARGO_BIN_EXE_reqiscd"))
        .arg(&sock)
        .env_remove(reqisc_env::SHM_PATH.name)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn reqiscd");
    Daemon { child, sock }
}

#[test]
fn sequential_connections_do_not_exhaust_descriptors() {
    let mut daemon = daemon_under_64_fds("seq");
    for i in 0..200 {
        let reply = daemon.request(&format!("{{\"id\":{i},\"op\":\"stats\"}}"));
        assert!(reply.contains("\"op\":\"stats\""), "connection {i}: {reply:?}");
    }
    daemon.shut_down();
}

/// Forty open connections need more descriptors than the daemon has, so
/// `accept` fails while they are held; that fails the connections it
/// could not take, never the daemon.
#[test]
fn exhausted_descriptors_fail_connections_not_the_daemon() {
    let mut daemon = daemon_under_64_fds("held");
    daemon.request("{\"id\":0,\"op\":\"stats\"}");
    let held: Vec<UnixStream> = (0..40)
        .map(|i| {
            let mut s = UnixStream::connect(&daemon.sock).expect("connect");
            writeln!(s, "{{\"id\":{i},\"op\":\"stats\"}}").expect("send stats");
            s
        })
        .collect();
    // Accepted connections answer in accept order; the first that does
    // not answer within 2 s is one the daemon could not accept.
    let answered = held
        .iter()
        .take_while(|s| {
            s.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
            let mut reply = String::new();
            BufReader::new(*s).read_line(&mut reply).is_ok_and(|n| n > 0)
        })
        .count();
    assert!(answered < held.len(), "40 connections must exhaust 64 descriptors");
    drop(held);
    let reply = daemon.request("{\"id\":40,\"op\":\"stats\"}");
    assert!(reply.contains("\"op\":\"stats\""), "after {answered} answered: {reply:?}");
    daemon.shut_down();
}
