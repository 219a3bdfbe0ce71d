//! The `reqiscd` child process and line-protocol connections to it.

use crate::cpu;
use reqisc_compiler::{Metrics, STORE_FORMAT_VERSION};
use reqisc_service::{Json, StatsSnapshot, DEFAULT_SHM_CAPACITY_BYTES};
use reqisc_shmem::Segment;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Socket and segment file names inside a run directory. They are
/// relative: the daemon runs with the run directory as its working
/// directory, which keeps the socket path short whatever the checkout's
/// location.
const SOCKET: &str = "d.sock";
const SEGMENT: &str = "d.seg";
/// Socket of a peer daemon sharing the run directory's segment.
const PEER_SOCKET: &str = "p.sock";

/// How long a daemon may take to accept its first connection.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long one response may take (a cold compile included).
const READ_TIMEOUT: Duration = Duration::from_secs(150);

/// A fresh, empty per-run directory for sockets and segments; deleted
/// again on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `perfbench/.run/<pid>-<tag>`, removing any leftover.
    pub fn fresh(tag: &str) -> io::Result<RunDir> {
        let dir = PathBuf::from("perfbench/.run").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    /// The directory, relative to the checkout root.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// The shared segment file of this run.
    pub fn segment(&self) -> PathBuf {
        self.0.join(SEGMENT)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `reqiscd`, killed and reaped on drop unless shut down first.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `bin` on the run directory's socket and segment with one
    /// solve worker. Every `REQISC_*` variable is removed from its
    /// environment, so no stray knob (a cache directory, say) changes
    /// what it does.
    pub fn spawn(bin: &Path, dir: &RunDir) -> io::Result<Daemon> {
        Daemon::spawn_on(bin, dir, SOCKET)
    }

    /// Starts a peer of the run directory's daemon: the same segment, its
    /// own socket. Both may run at once.
    pub fn spawn_peer(bin: &Path, dir: &RunDir) -> io::Result<Daemon> {
        Daemon::spawn_on(bin, dir, PEER_SOCKET)
    }

    fn spawn_on(bin: &Path, dir: &RunDir, socket: &str) -> io::Result<Daemon> {
        let mut cmd = Command::new(bin.canonicalize()?);
        cmd.current_dir(dir.path())
            .args(["--socket", socket, "--shm-path", SEGMENT, "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("REQISC_") {
                cmd.env_remove(k);
            }
        }
        let child = cmd.spawn()?;
        Ok(Daemon {
            child,
            socket: dir.path().join(socket),
        })
    }

    /// Connects once the daemon listens, and waits for one answered
    /// request, so the connection is accepted and served when this
    /// returns.
    pub fn connect(&mut self) -> io::Result<Conn> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!("reqiscd exited early: {status}")));
            }
            match UnixStream::connect(&self.socket) {
                Ok(stream) => {
                    let mut conn = Conn::new(stream)?;
                    conn.stats()?;
                    return Ok(conn);
                }
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// CPU seconds the daemon has run so far, over all its threads.
    pub fn cpu_s(&self) -> io::Result<f64> {
        Ok(cpu::process(&self.child.id().to_string())?.own_s)
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to shut down over `conn` and waits for it to exit
    /// with success.
    pub fn shutdown(mut self, mut conn: Conn) -> io::Result<()> {
        conn.send(&["{\"id\":0,\"op\":\"shutdown\"}"])?;
        // The reply may never come: once a shutdown is requested, the
        // daemon's accept loop closes every connection, which can beat
        // the responder's write. The exit status is the confirmation.
        let _ = conn.recv();
        drop(conn);
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("reqiscd exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("reqiscd did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// One client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    out: Vec<u8>,
    line: Vec<u8>,
}

impl Conn {
    fn new(stream: UnixStream) -> io::Result<Conn> {
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            out: Vec::new(),
            line: Vec::new(),
        })
    }

    /// Makes this connection busy-poll its socket instead of blocking on
    /// it, so the client's own wake-up latency stays out of the round
    /// trips it measures.
    pub fn busy_poll(&mut self) -> io::Result<()> {
        // Both handles share one socket description.
        self.writer.set_nonblocking(true)
    }

    /// Writes request lines in one write, without waiting for replies.
    pub fn send(&mut self, lines: &[&str]) -> io::Result<()> {
        self.out.clear();
        for l in lines {
            self.out.extend_from_slice(l.as_bytes());
            self.out.push(b'\n');
        }
        let deadline = Instant::now() + READ_TIMEOUT;
        let mut rest = &self.out[..];
        while !rest.is_empty() {
            match self.writer.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if would_block(&e) && Instant::now() < deadline => std::hint::spin_loop(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads the next response line (without its newline).
    pub fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        let deadline = Instant::now() + READ_TIMEOUT;
        loop {
            // `read_until` keeps the bytes it got when a busy-polled read
            // would block mid-line; the next call appends the rest.
            match self.reader.read_until(b'\n', &mut self.line) {
                Ok(_) if self.line.last() == Some(&b'\n') => break,
                Ok(_) => return Err(io::Error::other("reqiscd closed the connection")),
                Err(e) if would_block(&e) && Instant::now() < deadline => std::hint::spin_loop(),
                Err(e) => return Err(e),
            }
        }
        std::str::from_utf8(&self.line)
            .map(str::trim_end)
            .map_err(io::Error::other)
    }

    /// Sends one request and waits for its response; the time covers the
    /// write through the last byte of the reply.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<(&str, Duration)> {
        let t0 = Instant::now();
        self.send(&[line])?;
        let reply = self.recv()?;
        Ok((reply, t0.elapsed()))
    }

    /// The daemon's counters, evaluated after every earlier request on
    /// this connection has been answered.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        let (reply, _) = self.roundtrip("{\"id\":0,\"op\":\"stats\"}")?;
        Json::parse(reply)
            .ok()
            .and_then(|j| j.get("stats").map(StatsSnapshot::from_json))
            .and_then(Result::ok)
            .ok_or_else(|| io::Error::other(format!("bad stats reply: {reply}")))
    }
}

fn would_block(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::WouldBlock
}

/// The output fingerprint of an `ok` compile reply, or `None` for any
/// other reply. A plain scan rather than a JSON parse, so checking a
/// reply inside a measured loop allocates nothing.
pub fn reply_fingerprint(reply: &str) -> Option<u128> {
    const FIELD: &str = "\"fingerprint\":\"";
    if !reply.contains("\"ok\":true") {
        return None;
    }
    let start = reply.find(FIELD)? + FIELD.len();
    u128::from_str_radix(reply.get(start..start + 32)?, 16).ok()
}

/// The quality metrics an `ok` compile reply carries (`count_2q`,
/// `depth_2q`, `duration_g`), or `None` for any other reply.
pub fn reply_metrics(reply: &str) -> Option<Metrics> {
    let j = Json::parse(reply).ok()?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    Some(Metrics {
        count_2q: j.get("count_2q")?.as_u64()? as usize,
        depth_2q: j.get("depth_2q")?.as_u64()? as usize,
        duration: j.get("duration_g")?.as_f64()?,
    })
}

/// Attaches (creating it if absent) the shared segment at `path`, with
/// the daemon's capacity and format.
pub fn attach_segment(path: &Path) -> io::Result<Segment> {
    Segment::attach(path, DEFAULT_SHM_CAPACITY_BYTES, STORE_FORMAT_VERSION)
        .map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fingerprints_of_ok_replies_only() {
        let fp = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        let m = reqisc_compiler::Metrics {
            count_2q: 3,
            depth_2q: 2,
            duration: 2.5,
        };
        let ok = reqisc_service::protocol::compile_response(1, fp, &m, false, 1).emit();
        assert_eq!(reply_fingerprint(&ok), Some(fp));
        assert_eq!(reply_metrics(&ok), Some(m));
        let err = reqisc_service::protocol::error_response(1, "queue_full", "full").emit();
        assert_eq!(reply_fingerprint(&err), None);
        assert_eq!(reply_metrics(&err), None);
        assert_eq!(reply_fingerprint(r#"{"ok":true,"fingerprint":"12"}"#), None);
        assert_eq!(reply_fingerprint("not json"), None);
    }

    #[test]
    fn reads_peak_rss_of_this_process() {
        let mb = peak_rss_mb("/proc/self/status").expect("VmHWM");
        assert!(mb > 0.0);
    }
}
