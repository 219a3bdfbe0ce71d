//! `reqisc-client` — a small line-protocol client for `reqiscd`.
//!
//! ```text
//! reqisc-client [--socket PATH] <command>
//!
//! commands:
//!   submit --pipeline P (--bench NAME | --qasm-file FILE) [--priority N]
//!   suite [--pipelines a,b,...]      submit every demo-suite program
//!   stats
//!   snapshot
//!   shutdown
//! ```
//!
//! Prints every response line to stdout; exits 1 when any response is
//! not ok or missing, and 2 on a usage error — an unknown command or
//! argument, a flag given twice or without its value, or a `--priority`
//! that does not parse — so a typo is never silently ignored. The
//! connect loop retries for `CONNECT_TIMEOUT` (10 s) so a just-spawned
//! daemon can finish binding its socket.

#[cfg(unix)]
fn main() {
    use reqisc_service::Json;
    use std::collections::HashMap;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    /// How long the connect loop retries while the daemon binds.
    const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

    fn usage() -> ! {
        eprintln!(
            "usage: reqisc-client [--socket PATH] \
             (submit --pipeline P (--bench NAME | --qasm-file F) [--priority N] \
             | suite [--pipelines a,b] | stats | snapshot | shutdown)"
        );
        std::process::exit(2);
    }

    let mut socket = PathBuf::from("/tmp/reqiscd.sock");
    let mut args = std::env::args().skip(1);
    let command = loop {
        match args.next() {
            Some(a) if a == "--socket" => {
                socket = PathBuf::from(args.next().unwrap_or_else(|| usage()))
            }
            Some(a) => break a,
            None => usage(),
        }
    };
    let allowed: &[&str] = match command.as_str() {
        "submit" => &["--pipeline", "--bench", "--qasm-file", "--priority"],
        "suite" => &["--pipelines"],
        "stats" | "snapshot" | "shutdown" => &[],
        _ => usage(),
    };
    // Every argument after the command is one of its flags with a value,
    // each given at most once.
    let mut flags: HashMap<&str, String> = HashMap::new();
    while let Some(arg) = args.next() {
        let Some(&name) = allowed.iter().find(|f| **f == arg) else {
            eprintln!("{command}: unknown argument '{arg}'");
            usage()
        };
        let value = args.next().unwrap_or_else(|| {
            eprintln!("{name} needs a value");
            usage()
        });
        if flags.insert(name, value).is_some() {
            eprintln!("{name} given twice");
            usage()
        }
    }
    let flag = |name: &str| flags.get(name).cloned();

    // Build the request lines.
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
            let priority = flag("--priority")
                .map(|v| {
                    let p: u64 = v.parse().unwrap_or_else(|_| {
                        eprintln!("--priority needs a number, got '{v}'");
                        usage()
                    });
                    format!(",\"priority\":{p}")
                })
                .unwrap_or_default();
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
            let pipelines = flag("--pipelines").unwrap_or_else(|| "reqisc-eff".into());
            let names: Vec<String> = reqisc_benchsuite::suite(reqisc_benchsuite::Scale::Demo)
                .into_iter()
                .map(|b| b.name)
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
        op => lines.push(format!("{{\"id\":{},\"op\":\"{op}\"}}", id())),
    }

    // Connect (with retry — the daemon may still be binding).
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let stream = loop {
        match UnixStream::connect(&socket) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    eprintln!("cannot connect to {}: {e}", socket.display());
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_millis(100));
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
