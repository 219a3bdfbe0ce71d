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
//! * `--solve-delay-ms MS` — park every solve worker for MS before each
//!   cold compile it claims (stall-isolation drills; default off);
//! * `--queue-capacity N` — bounded solve-ring size (N ≥ 1): cold
//!   compiles beyond it are answered `queue_full`; warm hits never need
//!   a slot (default 256);
//! * `--snapshot-secs S` — period of the bulk pass into the segment, one
//!   generation of its GC clock each (default 30; 0 disables the timer —
//!   shutdown still runs a last pass);
//! * `--pool-shards N` / `--pool-capacity N` — bound the in-memory memo
//!   pools (N ≥ 1, and at most 65 536 shards, `MAX_POOL_SHARDS`; LRU
//!   eviction; default generous/off);
//! * `--shm-path PATH` — attach the shared-memory cache segment at PATH,
//!   the durable tier (default: the `REQISC_SHM_PATH` environment knob;
//!   in memory only when both unset);
//! * `--shm-capacity-bytes N` — capacity if the segment does not exist
//!   yet (default: `REQISC_SHM_CAPACITY_BYTES`, else 64 MiB);
//! * `--compact-now` — compact the `--shm-path` segment offline (every
//!   daemon detached), dropping entries idle for more than
//!   `--gc-idle-gens N` generations (default 2), then exit; a missing
//!   segment is an error (exit 1) and is not created;
//! * `--debug-ops` — accept the `sleep`/`panic` debug ops.

use reqisc_service::{serve_lines, Service, ServiceConfig};
use std::path::PathBuf;
use std::time::Duration;

/// Most solve workers `--workers` may start: each is an OS thread.
const MAX_WORKERS: usize = 256;

/// Most shards `--pool-shards` may ask for: both memo pools allocate
/// that many maps up front.
const MAX_POOL_SHARDS: usize = 65_536;

struct Args {
    socket: PathBuf,
    stdio: bool,
    compact_now: bool,
    gc_idle_gens: Option<u64>,
    config: ServiceConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: reqiscd [--socket PATH | --stdio | --compact-now [--gc-idle-gens N]] \
         [--workers N] [--solve-delay-ms MS] [--queue-capacity N] \
         [--snapshot-secs S] [--pool-shards N] [--pool-capacity N] \
         [--shm-path PATH] [--shm-capacity-bytes N] [--debug-ops]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        socket: PathBuf::from("/tmp/reqiscd.sock"),
        stdio: false,
        compact_now: false,
        gc_idle_gens: None,
        config: ServiceConfig {
            snapshot_interval: Some(Duration::from_secs(30)),
            shm_path: reqisc_env::SHM_PATH.path(),
            shm_capacity_bytes: reqisc_env::SHM_CAPACITY_BYTES
                .u64_or(reqisc_service::DEFAULT_SHM_CAPACITY_BYTES),
            ..ServiceConfig::default()
        },
    };
    let mut pool_shards: usize = 16;
    let mut pool_capacity: Option<usize> = None;
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
                args.config.workers =
                    at_most(parse_num(&val("--workers"), "--workers"), MAX_WORKERS, "--workers")
            }
            "--solve-delay-ms" => {
                args.config.solve_delay_ms =
                    Some(parse_num(&val("--solve-delay-ms"), "--solve-delay-ms"))
            }
            "--queue-capacity" => {
                args.config.queue_capacity = parse_size(&val("--queue-capacity"), "--queue-capacity")
            }
            "--snapshot-secs" => {
                let s: u64 = parse_num(&val("--snapshot-secs"), "--snapshot-secs");
                args.config.snapshot_interval =
                    (s > 0).then(|| Duration::from_secs(s));
            }
            "--gc-idle-gens" => {
                args.gc_idle_gens = Some(parse_num(&val("--gc-idle-gens"), "--gc-idle-gens"));
            }
            "--shm-path" => args.config.shm_path = Some(PathBuf::from(val("--shm-path"))),
            "--shm-capacity-bytes" => {
                args.config.shm_capacity_bytes =
                    parse_num(&val("--shm-capacity-bytes"), "--shm-capacity-bytes")
            }
            "--pool-shards" => {
                pool_shards = at_most(
                    parse_size(&val("--pool-shards"), "--pool-shards"),
                    MAX_POOL_SHARDS,
                    "--pool-shards",
                )
            }
            "--pool-capacity" => {
                pool_capacity = Some(parse_size(&val("--pool-capacity"), "--pool-capacity"))
            }
            "--debug-ops" => args.config.debug_ops = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args.config.pool_shape = pool_capacity.map(|cap| (pool_shards, cap));
    if args.gc_idle_gens.is_some() && !args.compact_now {
        eprintln!("--gc-idle-gens only sets --compact-now's threshold: GC is offline");
        usage()
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: invalid value '{s}'");
        usage()
    })
}

/// A queue or pool dimension: zero is a usage error, not a shape.
fn parse_size(s: &str, flag: &str) -> usize {
    match parse_num(s, flag) {
        0 => {
            eprintln!("{flag}: must be at least 1");
            usage()
        }
        n => n,
    }
}

/// A thread or allocation count: above `max` is a usage error, caught
/// before the service starts anything.
fn at_most(n: usize, max: usize, flag: &str) -> usize {
    if n > max {
        eprintln!("{flag}: must be at most {max}");
        usage()
    }
    n
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
        // survives. The default of 2 keeps everything referenced in the
        // last two bulk passes; --gc-idle-gens 0 keeps only the last.
        match reqisc_shmem::compact_file(
            &shm,
            args.config.shm_capacity_bytes,
            reqisc_compiler::STORE_FORMAT_VERSION,
            args.gc_idle_gens.unwrap_or(2),
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
