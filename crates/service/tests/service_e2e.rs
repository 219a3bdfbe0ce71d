//! The end-to-end service acceptance test (stdio transport, everything
//! in-process): ≥8 jobs including duplicates through a first service
//! instance, disk-warm answers from a second instance sharing the cache
//! dir, stats JSON round-tripping, and GC/compaction shrinking a store
//! full of dead entries without changing any response fingerprint.

use reqisc_compiler::Compiler;
use reqisc_service::{serve_lines, Json, Service, ServiceConfig, StatsSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

fn small_compiler() -> Compiler {
    use std::sync::OnceLock;
    static LIB: OnceLock<reqisc_synthesis::TemplateLibrary> = OnceLock::new();
    let mut c = Compiler::new_with_library(
        LIB.get_or_init(|| {
            let mut search = reqisc_synthesis::SearchOptions::default();
            search.sweep.restarts = 3;
            reqisc_synthesis::TemplateLibrary::builtin(&search)
        })
        .clone(),
    );
    c.hs.search.sweep.restarts = 2;
    c.hs.search.sweep.max_sweeps = 150;
    c
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "reqisc-e2e-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const P1: &str = "qubits 3\\nccx 0 1 2\\nh 0\\n";
const P2: &str = "qubits 2\\ncx 0 1\\nrz 1 7.0e-1\\ncx 0 1\\n";
const P3: &str = "qubits 3\\ncx 0 1\\ncx 1 2\\nh 2\\ncx 0 2\\n";

/// The ≥8-job script: 8 compiles, two of them duplicates (ids 3 and 8
/// duplicate ids 2 and 4). A leading debug sleep parks the single worker
/// so the duplicates are *guaranteed* still in flight when they arrive.
fn compile_script(with_park: bool) -> String {
    let mut s = String::new();
    if with_park {
        s.push_str("{\"id\":1,\"op\":\"sleep\",\"ms\":150}\n");
    }
    s.push_str(&format!("{{\"id\":2,\"op\":\"compile\",\"pipeline\":\"reqisc-eff\",\"qasm\":\"{P1}\"}}\n"));
    s.push_str(&format!("{{\"id\":3,\"op\":\"compile\",\"pipeline\":\"reqisc-eff\",\"qasm\":\"{P1}\"}}\n"));
    s.push_str("{\"id\":4,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"bench\":\"alu_v0\"}\n");
    s.push_str(&format!("{{\"id\":5,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"{P2}\"}}\n"));
    s.push_str(&format!("{{\"id\":6,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"{P1}\"}}\n"));
    s.push_str(&format!("{{\"id\":7,\"op\":\"compile\",\"pipeline\":\"qiskit-su4\",\"qasm\":\"{P3}\"}}\n"));
    s.push_str("{\"id\":8,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"bench\":\"alu_v0\"}\n");
    s.push_str(&format!("{{\"id\":9,\"op\":\"compile\",\"pipeline\":\"tket\",\"qasm\":\"{P2}\"}}\n"));
    s.push_str("{\"id\":10,\"op\":\"stats\"}\n");
    s
}

/// Runs a script through one in-process service instance and returns the
/// responses by id (plus the raw stats member, if requested).
fn run_instance(config: ServiceConfig, script: &str) -> BTreeMap<u64, Json> {
    let service = Service::start_with_compiler(small_compiler(), config);
    let mut out: Vec<u8> = Vec::new();
    let outcome = serve_lines(&service, script.as_bytes(), &mut out).expect("serve");
    assert_eq!(outcome.requests, script.lines().count() as u64);
    service.shutdown();
    String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| {
            let v = Json::parse(l).expect("response parses");
            (v.get("id").and_then(Json::as_u64).expect("id"), v)
        })
        .collect()
}

fn fingerprint(v: &Json) -> &str {
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "not ok: {}", v.emit());
    v.get("fingerprint").and_then(Json::as_str).expect("fingerprint")
}

#[test]
fn service_end_to_end_coalesce_diskwarm_stats_and_gc() {
    let dir = scratch_dir("e2e");
    let compile_ids: Vec<u64> = (2..=9).collect();

    // ---- Instance 1: cold, with the park so duplicates coalesce. ----
    let first = run_instance(
        ServiceConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
            debug_ops: true,
            ..ServiceConfig::default()
        },
        &compile_script(true),
    );
    // (a) coalesced duplicates: ids 3/8 joined in-flight ids 2/4 and
    // carry identical fingerprints.
    for (dup, orig) in [(3u64, 2u64), (8, 4)] {
        assert_eq!(first[&dup].get("coalesced").and_then(Json::as_bool), Some(true), "id {dup}");
        assert_eq!(fingerprint(&first[&dup]), fingerprint(&first[&orig]));
    }
    let stats1 = StatsSnapshot::from_json(first[&10].get("stats").expect("stats member"))
        .expect("stats parse");
    assert_eq!(stats1.service.coalesced, 2);
    assert_eq!(stats1.service.submitted, 9, "8 compiles + the park");
    assert_eq!(stats1.service.completed, 7, "6 distinct compiles + the park");
    assert_eq!(stats1.service.failed, 0);
    assert_eq!(stats1.cache.programs.misses, 6, "one miss per distinct job");

    // (c) the stats JSON round-trips every counter bit-for-bit.
    let reparsed = StatsSnapshot::from_json(
        &Json::parse(&stats1.to_json().emit()).expect("emit parses"),
    )
    .expect("round-trip");
    assert_eq!(reparsed, stats1);

    // ---- Instance 2: same cache dir, disk-warm. ----
    let size_after_first = std::fs::metadata(dir.join("reqisc-cache.bin")).expect("store").len();
    let second = run_instance(
        ServiceConfig { workers: 1, cache_dir: Some(dir.clone()), ..ServiceConfig::default() },
        &compile_script(false),
    );
    // (b) identical answers, ≥95% program-pool hits, zero rejected loads.
    for &id in &compile_ids {
        assert_eq!(fingerprint(&second[&id]), fingerprint(&first[&id]), "id {id} diverged");
    }
    let stats2 = StatsSnapshot::from_json(second[&10].get("stats").expect("stats member"))
        .expect("stats parse");
    let p = &stats2.cache.programs;
    assert!(p.lookups() > 0, "second instance must consult the program pool");
    assert!(
        p.hit_rate() >= 0.95,
        "disk-warm hit rate {:.1}% < 95% ({} hits / {} lookups)",
        100.0 * p.hit_rate(),
        p.hits,
        p.lookups()
    );
    let store2 = stats2.store.expect("instance 2 has a store");
    assert_eq!(store2.rejected, 0, "no rejected store loads");
    assert!(store2.loaded_entries > 0, "instance 2 warm-started from disk");

    // ---- Instance 3: touch only a subset, then GC. Everything the
    // subset does not reference is dead weight and must be dropped. ----
    let mut subset = String::new();
    subset.push_str(&format!(
        "{{\"id\":2,\"op\":\"compile\",\"pipeline\":\"reqisc-eff\",\"qasm\":\"{P1}\"}}\n"
    ));
    subset.push_str("{\"id\":4,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"bench\":\"alu_v0\"}\n");
    subset.push_str("{\"id\":11,\"op\":\"compact\",\"max_idle_gens\":0}\n");
    let third = run_instance(
        ServiceConfig { workers: 1, cache_dir: Some(dir.clone()), ..ServiceConfig::default() },
        &subset,
    );
    for id in [2u64, 4] {
        assert_eq!(fingerprint(&third[&id]), fingerprint(&first[&id]), "id {id} diverged");
    }
    let compacted = &third[&11];
    assert_eq!(compacted.get("ok").and_then(Json::as_bool), Some(true), "{}", compacted.emit());
    let dropped = compacted.get("dropped").and_then(Json::as_u64).expect("dropped");
    let kept = compacted.get("kept").and_then(Json::as_u64).expect("kept");
    assert!(dropped > 0, "the untouched entries were dead and must drop");
    assert!(kept >= 2, "the referenced subset survives");
    // (d) the file physically shrank…
    let size_after_gc = std::fs::metadata(dir.join("reqisc-cache.bin")).expect("store").len();
    assert!(
        size_after_gc < size_after_first,
        "compaction must shrink the store: {size_after_first} -> {size_after_gc}"
    );

    // …and no response fingerprint changes: a fourth instance re-answers
    // the full set (dropped entries recompile deterministically, kept
    // ones serve from disk).
    let fourth = run_instance(
        ServiceConfig { workers: 1, cache_dir: Some(dir.clone()), ..ServiceConfig::default() },
        &compile_script(false),
    );
    for &id in &compile_ids {
        assert_eq!(
            fingerprint(&fourth[&id]),
            fingerprint(&first[&id]),
            "id {id} changed after GC"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn socket_shutdown_completes_despite_an_idle_connection() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let sock = std::env::temp_dir().join(format!("reqisc-e2e-idle-{}.sock", std::process::id()));
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
    );
    let served = std::thread::scope(|scope| {
        let service = &service;
        let sock_path = sock.clone();
        let server = scope.spawn(move || reqisc_service::serve_unix(service, &sock_path));
        // Wait for the socket to exist, then park an IDLE client on it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let idle = loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(10))
                }
                Err(e) => panic!("socket never came up: {e}"),
            }
        };
        // A second client asks for shutdown; the accept loop must return
        // even though the idle connection never speaks or hangs up.
        let active = UnixStream::connect(&sock).expect("connect");
        writeln!(&active, "{{\"id\":1,\"op\":\"shutdown\"}}").expect("write");
        let mut resp = String::new();
        BufReader::new(&active).read_line(&mut resp).expect("ack");
        assert!(resp.contains("\"ok\":true"), "shutdown ack: {resp}");
        let served = server.join().expect("server thread");
        drop(idle);
        served
    });
    served.expect("serve_unix must return cleanly");
    service.shutdown();
}

/// A `shutdown` queued behind slower work on the same connection: the
/// ack comes after every earlier reply, and the accept loop closes
/// connections only once it has been written.
#[cfg(unix)]
#[test]
fn shutdown_ack_is_delivered_after_earlier_replies() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let sock = std::env::temp_dir().join(format!("reqisc-e2e-ack-{}.sock", std::process::id()));
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
    );
    let (replies, served) = std::thread::scope(|scope| {
        let service = &service;
        let sock_path = sock.clone();
        let server = scope.spawn(move || reqisc_service::serve_unix(service, &sock_path));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let conn = loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(10))
                }
                Err(e) => panic!("socket never came up: {e}"),
            }
        };
        writeln!(&conn, "{{\"id\":1,\"op\":\"sleep\",\"ms\":200}}").expect("write");
        writeln!(&conn, "{{\"id\":2,\"op\":\"shutdown\"}}").expect("write");
        let replies: Vec<Json> = BufReader::new(&conn)
            .lines()
            .map(|l| Json::parse(&l.expect("read")).expect("reply parses"))
            .collect();
        (replies, server.join().expect("server thread"))
    });
    served.expect("serve_unix must return cleanly");
    service.shutdown();
    assert_eq!(replies.len(), 2, "both replies delivered: {replies:?}");
    for (reply, (id, op)) in replies.iter().zip([(1, "sleep"), (2, "shutdown")]) {
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id), "{}", reply.emit());
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{}", reply.emit());
        assert_eq!(reply.get("op").and_then(Json::as_str), Some(op), "{}", reply.emit());
    }
}

/// A non-finite angle, a repeated qubit and a non-unitary `su4` matrix
/// are malformed programs: every pipeline must get a `bad_request` at the
/// QASM boundary instead of a reader-thread or solve-worker panic, or a
/// reply that prices the matrix as the identity class.
#[test]
fn non_finite_angles_are_bad_requests() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
    );
    let mut script = String::new();
    let zero_su4 = format!("qubits 2\\nsu4 0 1{}\\n", " 0".repeat(32));
    let bad = [
        ("qubits 2\\ncx 0 1\\nrz 1 nan\\n", "bad float operand"),
        ("qubits 3\\nccx 0 1 2\\nrx 2 -inf\\n", "bad float operand"),
        ("qubits 2\\ncx 0 0\\n", "gate cx repeats qubit 0"),
        (zero_su4.as_str(), "su4 matrix is not unitary"),
    ];
    let pipelines = ["reqisc-full", "reqisc-eff", "qiskit"];
    let mut id = 0;
    let mut expected = Vec::new();
    for (qasm, detail) in bad {
        for pipeline in pipelines {
            expected.push(detail);
            id += 1;
            script.push_str(&format!(
                "{{\"id\":{id},\"op\":\"compile\",\"pipeline\":\"{pipeline}\",\"qasm\":\"{qasm}\"}}\n"
            ));
        }
    }
    script.push_str(&format!(
        "{{\"id\":99,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"{P2}\"}}\n"
    ));
    let mut out: Vec<u8> = Vec::new();
    serve_lines(&service, script.as_bytes(), &mut out).expect("serve");
    let stats = service.stats_snapshot();
    service.shutdown();
    let replies: Vec<Json> =
        String::from_utf8(out).unwrap().lines().map(|l| Json::parse(l).expect("parses")).collect();
    assert_eq!(replies.len(), id as usize + 1, "every line gets a response");
    for (r, want) in replies[..id as usize].iter().zip(expected) {
        assert_eq!(r.get("error").and_then(Json::as_str), Some("bad_request"), "{}", r.emit());
        let detail = r.get("detail").and_then(Json::as_str).unwrap_or("");
        assert!(detail.contains(want), "{}", r.emit());
    }
    assert_eq!(replies[id as usize].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(stats.service.failed, 0, "no job reached a solve worker and failed");
    assert_eq!(stats.service.submitted, 1, "only the well-formed program was admitted");
}

/// A request line nested a megabyte deep is a `parse_error`, not a stack
/// overflow that takes the daemon down: the same connection still
/// answers a `stats` after it, and a second connection still compiles.
#[cfg(unix)]
#[test]
fn a_deeply_nested_line_is_a_parse_error() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let sock = std::env::temp_dir().join(format!("reqisc-e2e-deep-{}.sock", std::process::id()));
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
    );
    let (deep, other) = std::thread::scope(|scope| {
        let service = &service;
        // A failed read below must end the accept loop, not hang the
        // scope's join.
        struct StopOnDrop<'a>(&'a Service);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.request_shutdown();
            }
        }
        let _stop = StopOnDrop(service);
        let sock_path = sock.clone();
        let server = scope.spawn(move || reqisc_service::serve_unix(service, &sock_path));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let connect = || loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(10))
                }
                Err(e) => panic!("socket never came up: {e}"),
            }
        };
        let read_replies = |conn: &UnixStream, n: usize| -> Vec<Json> {
            let mut reader = BufReader::new(conn);
            (0..n)
                .map(|_| {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read reply");
                    Json::parse(&line).expect("reply parses")
                })
                .collect()
        };
        let first = connect();
        let mut bomb = "[".repeat(1 << 20);
        bomb.push('\n');
        (&first).write_all(bomb.as_bytes()).expect("write");
        writeln!(&first, "{{\"id\":1,\"op\":\"stats\"}}").expect("write");
        let deep = read_replies(&first, 2);
        let second = connect();
        writeln!(
            &second,
            "{{\"id\":2,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"{P2}\"}}"
        )
        .expect("write");
        writeln!(&second, "{{\"id\":3,\"op\":\"shutdown\"}}").expect("write");
        let other = read_replies(&second, 2);
        server.join().expect("server thread").expect("serve_unix must return cleanly");
        (deep, other)
    });
    service.shutdown();
    let error = deep[0].get("error").and_then(Json::as_str);
    assert_eq!(error, Some("parse_error"), "{}", deep[0].emit());
    let detail = deep[0].get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(detail.contains("nesting deeper than 64 levels"), "{detail}");
    assert_eq!(deep[1].get("op").and_then(Json::as_str), Some("stats"), "{}", deep[1].emit());
    assert!(deep[1].get("stats").is_some());
    assert_eq!(other[0].get("ok").and_then(Json::as_bool), Some(true), "{}", other[0].emit());
    assert!(other[0].get("fingerprint").is_some());
    assert_eq!(other[1].get("op").and_then(Json::as_str), Some("shutdown"));
}

#[test]
fn protocol_errors_are_responses_not_failures() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
    );
    let script = concat!(
        "not json at all\n",
        "{\"id\":1,\"op\":\"compile\",\"pipeline\":\"nope\",\"bench\":\"alu_v0\"}\n",
        "{\"id\":2,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"bench\":\"no_such_program\"}\n",
        "{\"id\":3,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"qubits 99\\ncx 0 1\\n\"}\n",
        "{\"id\":4,\"op\":\"sleep\",\"ms\":1}\n", // debug ops disabled here
        "{\"id\":5,\"op\":\"snapshot\"}\n",       // no store configured
        "{\"id\":6,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"qubits 2\\ncx 0 1\\n\"}\n",
        "{\"id\":7,\"op\":\"bogus\"}\n",
        "{\"id\":8,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"bench\":\"alu_v0\",\"priority\":12}\n",
        "[9]\n",                          // JSON, but not an object
        "{\"id\":-10,\"op\":\"stats\"}\n", // an object without a valid id
    );
    let mut out: Vec<u8> = Vec::new();
    serve_lines(&service, script.as_bytes(), &mut out).expect("serve");
    service.shutdown();
    let lines: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).expect("parses"))
        .collect();
    assert_eq!(lines.len(), 11, "every line gets a response");
    let code = |i: usize| lines[i].get("error").and_then(Json::as_str).unwrap_or("").to_string();
    assert_eq!(code(0), "parse_error");
    assert_eq!(code(1), "parse_error", "unknown pipeline is caught at parse");
    assert_eq!(code(2), "bad_request");
    assert_eq!(code(3), "bad_request", "over-limit qasm rejected at the boundary");
    assert_eq!(code(4), "bad_request", "debug ops gated off");
    assert_eq!(code(5), "no_store");
    // The good request still went through on the same connection.
    assert_eq!(lines[6].get("ok").and_then(Json::as_bool), Some(true));
    assert!(lines[6].get("fingerprint").is_some());
    assert_eq!(code(7), "parse_error", "unknown op");
    assert_eq!(code(8), "parse_error", "priority out of range");
    assert_eq!(code(9), "parse_error");
    assert_eq!(code(10), "parse_error");
    // Every reply echoes its request's id, parse errors included; only a
    // line without a usable id is answered with id 0.
    let ids: Vec<Option<u64>> = lines.iter().map(|l| l.get("id").and_then(Json::as_u64)).collect();
    let want: Vec<Option<u64>> = [0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0].map(Some).to_vec();
    assert_eq!(ids, want);
}

/// The cross-daemon shared-cache acceptance: instance A (no store, no
/// peers) solves a workload and publishes into the shared segment;
/// instance B — a *different* service on the same segment, still no
/// store — answers the identical workload entirely from the segment:
/// every response fingerprint matches, `shared.hits` covers every
/// distinct program, and **zero** solve claims happen (no duplicate
/// solves for keys a peer already solved).
#[test]
fn shared_segment_makes_a_second_service_warm_without_a_store() {
    let shm = std::env::temp_dir().join(format!(
        "reqisc-e2e-shm-{}-{}.seg",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0)
    ));
    let _ = std::fs::remove_file(&shm);
    let compile_ids: Vec<u64> = (2..=9).collect();
    let config = |cap: u64| ServiceConfig {
        workers: 1,
        shm_path: Some(shm.clone()),
        shm_capacity_bytes: cap,
        ..ServiceConfig::default()
    };

    let first = run_instance(config(4 << 20), &compile_script(false));
    let stats1 = StatsSnapshot::from_json(first[&10].get("stats").expect("stats member"))
        .expect("stats parse");
    let sh1 = stats1.shared.expect("instance 1 attached the segment");
    assert_eq!(sh1.hits, 0, "a cold segment answers nothing");
    assert!(sh1.published >= 6, "every distinct solve publishes: {sh1:?}");
    assert_eq!(sh1.full_rejects, 0);

    let second = run_instance(config(4 << 20), &compile_script(false));
    for &id in &compile_ids {
        assert_eq!(fingerprint(&second[&id]), fingerprint(&first[&id]), "id {id} diverged");
    }
    let stats2 = StatsSnapshot::from_json(second[&10].get("stats").expect("stats member"))
        .expect("stats parse");
    let sh2 = stats2.shared.expect("instance 2 attached the segment");
    assert_eq!(sh2.hits, 6, "every distinct program answered by the segment: {sh2:?}");
    assert_eq!(
        stats2.stages.solve_claimed, 0,
        "a segment-warm workload must never duplicate a peer's solve"
    );
    // Every compile is a warm hit (nothing coalesces onto a hit); either
    // way no compile goes cold.
    assert_eq!(
        stats2.stages.lookup_hits + stats2.service.coalesced,
        8,
        "all 8 compiles are warm hits or join a warm in-flight job"
    );
    assert!(
        sh2.hits <= stats2.stages.lookup_hits,
        "shared hits are a subset of lookup hits"
    );
    // Coalesced duplicates share their original's single completion.
    assert_eq!(stats2.service.completed + stats2.service.coalesced, 8);
    assert_eq!(stats2.service.failed, 0);
    let _ = std::fs::remove_file(&shm);
}
