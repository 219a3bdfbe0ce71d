//! `reqiscd` — the resident compile-service daemon.
//!
//! ```text
//! reqiscd --socket /tmp/reqiscd.sock --shm-path /dev/shm/reqisc.seg
//! reqiscd --stdio                       # serve one stdin/stdout session
//! reqiscd --compact-now --shm-path SEG  # one offline GC pass, then exit
//! ```
//!
//! Flags (all optional):
//!
//! * `--socket PATH` — serve a Unix domain socket (default when neither
//!   `--stdio` nor `--compact-now` is given; default path
//!   `/tmp/reqiscd.sock`);
//! * `--stdio` — serve exactly one session on stdin/stdout (tests, CI,
//!   `socat`-style supervision);
//! * `--workers N` — solve worker pool size (0 = hardware parallelism;
//!   at most 256, `MAX_WORKERS`);
//! * `--queue-capacity N` — bounded solve-ring size (N ≥ 1): cold
//!   compiles beyond it are answered `queue_full`; warm hits never need
//!   a slot (default 256);
//! * `--snapshot-secs S` — period of the bulk pass into the segment, one
//!   generation of its GC clock each (default 30; 0 disables the timer —
//!   shutdown still runs a last pass);
//! * `--shm-path PATH` — attach the shared-memory cache segment at PATH,
//!   the durable tier (default: the `REQISC_SHM_PATH` environment knob;
//!   in memory only when both unset);
//! * `--shm-capacity-bytes N` — capacity if the segment does not exist
//!   yet (default: `REQISC_SHM_CAPACITY_BYTES`, else 64 MiB);
//! * `--compact-now` — compact the `--shm-path` segment offline (every
//!   daemon detached), dropping entries idle for more than
//!   `GC_IDLE_GENS` (2) generations, then exit; a missing segment is an
//!   error (exit 1) and is not created;
//! * `--debug-ops` — accept the `sleep`/`panic` debug ops.
//!
//! The in-memory pools keep the default shape of
//! `reqisc_compiler::CompileCache::new`, and QASM is parsed under
//! `reqisc_qcircuit::ParseLimits::default()`.

use reqisc_service::{serve_lines, Service, ServiceConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Most solve workers `--workers` may start: each is an OS thread.
const MAX_WORKERS: usize = 256;

/// `--compact-now` keeps the entries referenced in the last this-many
/// bulk passes (generations) and drops the rest.
const GC_IDLE_GENS: u64 = 2;

struct Args {
    socket: PathBuf,
    stdio: bool,
    compact_now: bool,
    config: ServiceConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: reqiscd [--socket PATH | --stdio | --compact-now] [--workers N] \
         [--queue-capacity N] [--snapshot-secs S] [--shm-path PATH] \
         [--shm-capacity-bytes N] [--debug-ops]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        socket: PathBuf::from("/tmp/reqiscd.sock"),
        stdio: false,
        compact_now: false,
        config: ServiceConfig {
            snapshot_interval: Some(Duration::from_secs(30)),
            shm_path: reqisc_env::SHM_PATH.path(),
            shm_capacity_bytes: reqisc_env::SHM_CAPACITY_BYTES
                .u64_or(reqisc_service::DEFAULT_SHM_CAPACITY_BYTES),
            ..ServiceConfig::default()
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--socket" => args.socket = PathBuf::from(val("--socket")),
            "--stdio" => args.stdio = true,
            "--compact-now" => args.compact_now = true,
            "--workers" => {
                let n: usize = parse_num(&val("--workers"), "--workers");
                if n > MAX_WORKERS {
                    eprintln!("--workers: must be at most {MAX_WORKERS}");
                    usage()
                }
                args.config.workers = n;
            }
            "--queue-capacity" => {
                let n: usize = parse_num(&val("--queue-capacity"), "--queue-capacity");
                if n == 0 {
                    eprintln!("--queue-capacity: must be at least 1");
                    usage()
                }
                args.config.queue_capacity = n;
            }
            "--snapshot-secs" => {
                let s: u64 = parse_num(&val("--snapshot-secs"), "--snapshot-secs");
                args.config.snapshot_interval =
                    (s > 0).then(|| Duration::from_secs(s));
            }
            "--shm-path" => args.config.shm_path = Some(PathBuf::from(val("--shm-path"))),
            "--shm-capacity-bytes" => {
                args.config.shm_capacity_bytes =
                    parse_num(&val("--shm-capacity-bytes"), "--shm-capacity-bytes")
            }
            "--debug-ops" => args.config.debug_ops = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: invalid value '{s}'");
        usage()
    })
}

fn main() {
    let args = parse_args();

    if args.compact_now {
        let Some(shm) = args.config.shm_path.clone() else {
            eprintln!("--compact-now needs --shm-path (or REQISC_SHM_PATH)");
            std::process::exit(2);
        };
        // One offline GC pass: it needs every daemon detached (Busy
        // otherwise), and only the idle-generation threshold decides what
        // survives.
        match reqisc_shmem::compact_file(
            &shm,
            args.config.shm_capacity_bytes,
            reqisc_compiler::STORE_FORMAT_VERSION,
            GC_IDLE_GENS,
        ) {
            Ok(r) => {
                println!(
                    "compacted segment {}: kept {}, dropped {}",
                    shm.display(),
                    r.kept,
                    r.dropped
                );
            }
            Err(e) => {
                eprintln!("segment compaction of {} failed: {e}", shm.display());
                std::process::exit(1);
            }
        }
        return;
    }

    let service = Service::start(args.config.clone());
    if args.stdio {
        let stdin = std::io::stdin();
        // `StdoutLock` is not `Send` (the responder thread owns the
        // writer); the unlocked handle locks per write instead.
        if let Err(e) = serve_lines(&service, stdin.lock(), std::io::stdout()) {
            eprintln!("# reqiscd: stdio session failed: {e}");
        }
    } else {
        eprintln!("# reqiscd: serving {}", args.socket.display());
        #[cfg(unix)]
        if let Err(e) = reqisc_service::serve_unix(&service, &args.socket) {
            eprintln!("# reqiscd: socket server failed: {e}");
            service.shutdown();
            std::process::exit(1);
        }
        #[cfg(not(unix))]
        {
            eprintln!("# reqiscd: unix sockets unavailable on this platform; use --stdio");
            service.shutdown();
            std::process::exit(2);
        }
    }
    service.shutdown();
    let s = service.stats_snapshot();
    eprintln!(
        "# reqiscd: exiting after {} submitted / {} completed / {} coalesced / {} rejected",
        s.service.submitted, s.service.completed, s.service.coalesced,
        s.service.rejected_queue_full
    );
}
