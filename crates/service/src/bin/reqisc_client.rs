//! `reqisc-client` — a small line-protocol client for `reqiscd`.
//!
//! ```text
//! reqisc-client [--socket PATH] [--connect-timeout-secs S] <command>
//!
//! commands:
//!   submit --pipeline P (--bench NAME | --qasm-file FILE) [--priority N]
//!   suite [--take N] [--pipelines a,b,...]      submit demo-suite programs
//!   stats [--require-program-hit-pct X] [--require-shared-hits N]
//!         [--require-zero-solves]
//!   snapshot
//!   shutdown
//! ```
//!
//! Prints every response line to stdout; exits 1 when any response is
//! not ok or an assertion flag fails, and 2 on a usage error — including
//! a numeric flag whose value does not parse or is out of range, so a
//! typo can never turn an assertion off. The connect loop retries for
//! `--connect-timeout-secs` (default 10) so a just-spawned daemon can
//! finish binding its socket.

#[cfg(unix)]
fn main() {
    use reqisc_service::{Json, StatsSnapshot};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;

    fn usage() -> ! {
        eprintln!(
            "usage: reqisc-client [--socket PATH] [--connect-timeout-secs S] \
             (submit --pipeline P (--bench NAME | --qasm-file F) [--priority N] \
             | suite [--take N] [--pipelines a,b] \
             | stats [--require-program-hit-pct X] [--require-shared-hits N] \
             [--require-zero-solves] | snapshot | shutdown)"
        );
        std::process::exit(2);
    }

    // A numeric flag's value; one that does not parse is a usage error.
    fn number<T: std::str::FromStr>(name: &str, value: String) -> T {
        value.parse().unwrap_or_else(|_| {
            eprintln!("{name} needs a number, got '{value}'");
            usage()
        })
    }

    let mut socket = PathBuf::from("/tmp/reqiscd.sock");
    let mut connect_timeout = std::time::Duration::from_secs(10);
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--connect-timeout-secs" => {
                let s = number(&a, it.next().unwrap_or_else(|| usage()));
                connect_timeout = std::time::Duration::from_secs(s);
            }
            _ => {
                rest.push(a);
                rest.extend(it.by_ref());
            }
        }
    }
    if rest.is_empty() {
        usage();
    }
    let command = rest.remove(0);
    let flag = |name: &str| -> Option<String> {
        rest.iter().position(|a| a == name).map(|i| {
            rest.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        })
    };
    let has = |name: &str| rest.iter().any(|a| a == name);
    let int_flag = |name: &str| flag(name).map(|v| number::<u64>(name, v));

    // Build the request lines.
    let mut require_hit_pct: Option<f64> = None;
    let mut require_shared_hits: Option<u64> = None;
    let mut require_zero_solves = false;
    let mut lines: Vec<String> = Vec::new();
    let mut next_id = 1u64;
    let mut id = || {
        let v = next_id;
        next_id += 1;
        v
    };
    match command.as_str() {
        "submit" => {
            let pipeline = flag("--pipeline").unwrap_or_else(|| usage());
            let priority =
                int_flag("--priority").map(|p| format!(",\"priority\":{p}")).unwrap_or_default();
            let source = match (flag("--bench"), flag("--qasm-file")) {
                (Some(b), None) => format!("\"bench\":{}", Json::str(b).emit()),
                (None, Some(f)) => {
                    let text = std::fs::read_to_string(&f).unwrap_or_else(|e| {
                        eprintln!("cannot read {f}: {e}");
                        std::process::exit(1);
                    });
                    format!("\"qasm\":{}", Json::str(text).emit())
                }
                _ => usage(),
            };
            lines.push(format!(
                "{{\"id\":{},\"op\":\"compile\",\"pipeline\":{},{}{}}}",
                id(),
                Json::str(pipeline).emit(),
                source,
                priority
            ));
        }
        "suite" => {
            let take = flag("--take").map(|v| number::<usize>("--take", v)).unwrap_or(usize::MAX);
            let pipelines = flag("--pipelines").unwrap_or_else(|| "reqisc-eff".into());
            let names: Vec<String> = reqisc_benchsuite::suite(reqisc_benchsuite::Scale::Demo)
                .into_iter()
                .map(|b| b.name)
                .take(take)
                .collect();
            for p in pipelines.split(',') {
                for n in &names {
                    lines.push(format!(
                        "{{\"id\":{},\"op\":\"compile\",\"pipeline\":{},\"bench\":{}}}",
                        id(),
                        Json::str(p).emit(),
                        Json::str(n.clone()).emit()
                    ));
                }
            }
        }
        "stats" => {
            require_hit_pct = flag("--require-program-hit-pct").map(|v| {
                let pct: f64 = number("--require-program-hit-pct", v);
                if !pct.is_finite() {
                    eprintln!("--require-program-hit-pct needs a finite percentage");
                    usage();
                }
                pct
            });
            require_shared_hits = int_flag("--require-shared-hits");
            require_zero_solves = has("--require-zero-solves");
            lines.push(format!("{{\"id\":{},\"op\":\"stats\"}}", id()));
        }
        "snapshot" => lines.push(format!("{{\"id\":{},\"op\":\"snapshot\"}}", id())),
        "shutdown" => lines.push(format!("{{\"id\":{},\"op\":\"shutdown\"}}", id())),
        _ => usage(),
    }

    // Connect (with retry — the daemon may still be binding). A timeout
    // whose deadline the clock cannot represent is a usage error.
    let deadline = std::time::Instant::now().checked_add(connect_timeout).unwrap_or_else(|| {
        eprintln!("--connect-timeout-secs {} is out of range", connect_timeout.as_secs());
        usage()
    });
    let stream = loop {
        match UnixStream::connect(&socket) {
            Ok(s) => break s,
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    eprintln!("cannot connect to {}: {e}", socket.display());
                    std::process::exit(1);
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        }
    };

    // Send in bounded windows and read each window's (in-order)
    // responses before sending the next: a large `suite` must not
    // outrun the daemon's bounded queue (default capacity 256) — that
    // would turn the bulk path into guaranteed queue_full rejections.
    // A socket error ends the session like an early EOF: the responses
    // that did arrive are reported and the rest count as missing.
    const WINDOW: usize = 128;
    let mut reader = BufReader::new(&stream);
    let mut collected: Vec<String> = Vec::new();
    let mut sent = 0;
    for chunk in lines.chunks(WINDOW) {
        let mut w = &stream;
        let written = chunk.iter().try_for_each(|l| writeln!(w, "{l}")).and_then(|()| w.flush());
        if let Err(e) = &written {
            eprintln!("connection lost while sending: {e}");
        }
        sent += chunk.len();
        // Read the window's responses even after a failed send: the
        // daemon may have answered some lines before it went away.
        while collected.len() < sent {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => collected.push(line.trim_end().to_string()),
                Err(e) => {
                    eprintln!("connection lost while receiving: {e}");
                    break;
                }
            }
        }
        if written.is_err() || collected.len() < sent {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let mut failures = 0u64;
    let mut responses = 0u64;
    for line in collected {
        if line.trim().is_empty() {
            continue;
        }
        println!("{line}");
        responses += 1;
        let v = match Json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("unparseable response: {e}");
                failures += 1;
                continue;
            }
        };
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            failures += 1;
            continue;
        }
        if let Some(stats) = v.get("stats") {
            match StatsSnapshot::from_json(stats) {
                Ok(s) => {
                    if let Some(pct) = require_hit_pct {
                        let p = &s.cache.programs;
                        let rate = 100.0 * p.hit_rate();
                        if p.lookups() == 0 || rate < pct {
                            eprintln!(
                                "ASSERTION FAILED: program-pool hit rate {rate:.1}% < {pct}% \
                                 ({} hits / {} lookups)",
                                p.hits,
                                p.lookups()
                            );
                            failures += 1;
                        } else {
                            eprintln!("# assertion passed: program-pool hit rate {rate:.1}% >= {pct}%");
                        }
                    }
                    if let Some(min) = require_shared_hits {
                        match s.shared {
                            Some(sh) if sh.hits >= min => {
                                eprintln!(
                                    "# assertion passed: {} shared-segment hits >= {min}",
                                    sh.hits
                                );
                            }
                            Some(sh) => {
                                eprintln!(
                                    "ASSERTION FAILED: {} shared-segment hits < {min}",
                                    sh.hits
                                );
                                failures += 1;
                            }
                            None => {
                                eprintln!("ASSERTION FAILED: service has no shared segment");
                                failures += 1;
                            }
                        }
                    }
                    if require_zero_solves {
                        let claimed = s.stages.solve_claimed;
                        if claimed == 0 {
                            eprintln!("# assertion passed: zero solve claims (fully warm)");
                        } else {
                            eprintln!(
                                "ASSERTION FAILED: {claimed} solve claim(s) — a warm \
                                 workload duplicated a peer's solve"
                            );
                            failures += 1;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("bad stats payload: {e}");
                    failures += 1;
                }
            }
        }
    }
    if responses < lines.len() as u64 {
        eprintln!("missing responses: sent {}, got {responses}", lines.len());
        failures += 1;
    }
    if failures > 0 {
        eprintln!("{failures} failure(s)");
        std::process::exit(1);
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("reqisc-client needs unix domain sockets");
    std::process::exit(2);
}
