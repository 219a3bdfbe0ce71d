//! `reqiscd` — the resident compile-service daemon.
//!
//! ```text
//! reqiscd --socket /tmp/reqiscd.sock --cache-dir ~/.cache/reqisc
//! reqiscd --stdio                      # serve one stdin/stdout session
//! reqiscd --compact-now --cache-dir D  # one GC pass over D, then exit
//! ```
//!
//! Flags (all optional):
//!
//! * `--socket PATH` — serve a Unix domain socket (default when neither
//!   `--stdio` nor `--compact-now` is given; default path
//!   `/tmp/reqiscd.sock`);
//! * `--stdio` — serve exactly one session on stdin/stdout (tests, CI,
//!   `socat`-style supervision);
//! * `--cache-dir DIR` — persistent store directory (default: the
//!   `REQISC_CACHE_DIR` environment variable; no store when both unset);
//! * `--workers N` — solve worker pool size (0 = hardware parallelism);
//! * `--solve-delay-ms MS` — park every solve worker for MS before each
//!   cold compile it claims (stall-isolation drills; default: the
//!   `REQISC_DEBUG_SOLVE_DELAY_MS` environment knob, else off);
//! * `--queue-capacity N` — bounded solve-ring size (N ≥ 1): cold
//!   compiles beyond it are answered `queue_full`; warm hits never need
//!   a slot (default 256);
//! * `--snapshot-secs S` — periodic store snapshot interval (default 30;
//!   0 disables the timer — the store still flushes on shutdown);
//! * `--gc-idle-gens N` — snapshots become compacting: entries idle for
//!   more than N store generations are dropped (default: GC off);
//! * `--pool-shards N` / `--pool-capacity N` — bound the in-memory memo
//!   pools (N ≥ 1; LRU eviction; default generous/off);
//! * `--shm-path PATH` — attach the shared-memory cache segment at PATH
//!   (default: the `REQISC_SHM_PATH` environment knob; no shared tier
//!   when both unset);
//! * `--shm-capacity-bytes N` — capacity if the segment does not exist
//!   yet (default: `REQISC_SHM_CAPACITY_BYTES`, else 64 MiB);
//! * `--compact-now` — run one compaction over `--cache-dir` with
//!   `--gc-idle-gens` (default 2 in this mode) — and over the
//!   `--shm-path` segment, if one is configured and no daemon is
//!   attached — then exit;
//! * `--debug-ops` — accept the `sleep`/`panic` debug ops.

use reqisc_service::{cache_dir_from_env, serve_lines, Service, ServiceConfig};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    socket: PathBuf,
    stdio: bool,
    compact_now: bool,
    config: ServiceConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: reqiscd [--socket PATH | --stdio | --compact-now] [--cache-dir DIR] \
         [--workers N] [--solve-delay-ms MS] [--queue-capacity N] \
         [--snapshot-secs S] [--gc-idle-gens N] [--pool-shards N] [--pool-capacity N] \
         [--shm-path PATH] [--shm-capacity-bytes N] [--debug-ops]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        socket: PathBuf::from("/tmp/reqiscd.sock"),
        stdio: false,
        compact_now: false,
        config: ServiceConfig {
            cache_dir: cache_dir_from_env(),
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
            "--cache-dir" => args.config.cache_dir = Some(PathBuf::from(val("--cache-dir"))),
            "--workers" => args.config.workers = parse_num(&val("--workers"), "--workers"),
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
                args.config.gc_max_idle_gens =
                    Some(parse_num(&val("--gc-idle-gens"), "--gc-idle-gens"));
            }
            "--shm-path" => args.config.shm_path = Some(PathBuf::from(val("--shm-path"))),
            "--shm-capacity-bytes" => {
                args.config.shm_capacity_bytes =
                    parse_num(&val("--shm-capacity-bytes"), "--shm-capacity-bytes")
            }
            "--pool-shards" => pool_shards = parse_size(&val("--pool-shards"), "--pool-shards"),
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

fn main() {
    let args = parse_args();

    if args.compact_now {
        if args.config.cache_dir.is_none() && args.config.shm_path.is_none() {
            eprintln!(
                "--compact-now needs --cache-dir (or REQISC_CACHE_DIR) \
                 and/or --shm-path (or REQISC_SHM_PATH)"
            );
            std::process::exit(2);
        }
        // One offline GC pass: nothing is live (no resident cache), so
        // only the idle-generation threshold decides what survives. The
        // default of 2 keeps everything referenced in the last two
        // saves — pass --gc-idle-gens 0 to keep nothing.
        let max_idle = args.config.gc_max_idle_gens.unwrap_or(2);
        if let Some(dir) = args.config.cache_dir.clone() {
            let store = reqisc_compiler::CacheStore::new(&dir);
            let cache = reqisc_compiler::CompileCache::new();
            match store.compact(&cache, max_idle) {
                Ok(o) => {
                    println!(
                        "compacted {} (generation {}): kept {}, dropped {}",
                        store.path().display(),
                        o.generation,
                        o.kept,
                        o.dropped
                    );
                }
                Err(e) => {
                    eprintln!("compaction failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        // The shared segment compacts under the same idle-generation
        // threshold; it requires exclusive access (every daemon
        // detached) and reports Busy otherwise.
        if let Some(shm) = args.config.shm_path.clone() {
            match reqisc_shmem::compact_file(
                &shm,
                args.config.shm_capacity_bytes,
                reqisc_compiler::STORE_FORMAT_VERSION,
                max_idle,
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
                    eprintln!("segment compaction failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    let service = Service::start(args.config.clone());
    if let Some(outcome) = service.startup_load() {
        eprintln!("# reqiscd: store load: {outcome:?}");
    }
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
