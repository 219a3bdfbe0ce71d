//! `serve_warm` and `serve_mixed`: request traffic through the real
//! `reqiscd` over its Unix socket, and the traced replay of the request
//! path on an in-process `Service`.

use crate::compile_cold::{replay, report_passes};
use crate::cpu;
use crate::daemon::{attach_segment, reply_fingerprint, reply_metrics, Conn, Daemon, RunDir};
use crate::inputs::{
    cold_angles, cold_variant, demo_suite, distinct_keys, salt, shuffled_order, suite_lines,
    uniform_draw, Line, Rng,
};
use crate::oracle::QualityTotals;
use crate::report::Report;
use crate::stats::{mean, median, median_per_key, pct};
use reqisc_compiler::{
    probe_shared_program, publish_program, seed_subprogram_pools, CompileCache, Compiler, Metrics,
    Pipeline,
};
use reqisc_qcircuit::Circuit;
use reqisc_service::protocol::compile_response;
use reqisc_service::{
    parse_request, CompileSource, Request, RequestBody, Service, ServiceConfig, StatsSnapshot,
};
use reqisc_shmem::Segment;
use reqisc_synthesis::TemplateLibrary;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `serve_warm` set-up repetitions (population, restart, first touches).
const WARM_SETUP_REPS: usize = 5;
/// `serve_mixed` set-up repetitions.
const MIXED_SETUP_REPS: usize = 3;
/// `serve_mixed` peers: daemons started on the serving daemon's segment
/// at evenly spaced points of the cold stream, each touching every warm
/// key once; a key's first-touch time is its median over them.
const MIXED_PEERS: usize = 5;
/// Host-speed probes taken before each set-up repetition, while no
/// daemon runs.
const SETUP_PROBES: usize = 11;
/// `serve_warm` warm-phase requests per second of `--seconds`: the count
/// is fixed for a given `--seconds`, so every run does the same work.
const WARM_REQUESTS_PER_SECOND: u64 = 4000;
/// A request the daemon's reader answers at once with a `parse_error`
/// (an unknown op): no QASM, no stage. Its round trip is the socket and
/// the reader → responder handoff.
const TRIVIAL: &str = "{\"id\":0,\"op\":\"perfbench-noop\"}";
/// Trivial round trips a traced `serve_warm` run times.
const SOCKET_PROBES: usize = 5000;
/// A first touch slower than this is counted as a stall.
const STALL: Duration = Duration::from_millis(1);
/// `serve_mixed` warm-connection think time between requests.
const THINK: Duration = Duration::from_millis(1);
/// How often a paused warm load, or a cold load waiting for the pause,
/// looks again.
const QUIET_POLL: Duration = Duration::from_micros(50);
/// Room reserved for `serve_mixed` warm samples (a cold stream of two
/// minutes at the think time is under 120 000 requests).
const MIXED_WARM_CAPACITY: usize = 200_000;
/// Warm requests the `serve_mixed` replay times.
const MIXED_REPLAY_REQUESTS: usize = 2000;
/// The daemon's own snapshot period (`reqiscd` default), mirrored by the
/// in-process replay service.
const SNAPSHOT_INTERVAL: Duration = Duration::from_secs(30);

type Key = (u128, Pipeline);

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Client-side checks: every reply `ok`, and one fingerprint per key
/// across every phase of a run.
#[derive(Default)]
struct Checker {
    fingerprints: HashMap<Key, u128>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Checks the fingerprint of one reply to a request for `key`.
    fn reply(&mut self, key: Key, fingerprint: Option<u128>) {
        self.attempted += 1;
        let Some(fp) = fingerprint else {
            self.failed += 1;
            return;
        };
        if *self.fingerprints.entry(key).or_insert(fp) != fp {
            self.failed += 1;
        }
    }
}

/// Sends every line once, one outstanding, checking each reply; returns
/// each line's round trip and the quality metrics its reply carries.
fn populate(
    conn: &mut Conn,
    lines: &[Line],
    check: &mut Checker,
) -> io::Result<Vec<(Duration, Option<Metrics>)>> {
    let mut answered = Vec::with_capacity(lines.len());
    for l in lines {
        let (reply, rtt) = conn.roundtrip(&l.text)?;
        let fp = reply_fingerprint(reply);
        if fp.is_none() {
            eprintln!("# serve: failed reply: {reply}");
        }
        check.reply(l.key, fp);
        answered.push((rtt, reply_metrics(reply)));
    }
    Ok(answered)
}

/// Sums the quality metrics of the replies to `lines[i]` for each `i` in
/// `idx`; a reply without them counts as a failure in `check`.
fn quality(answered: &[(Duration, Option<Metrics>)], idx: &[usize], check: &mut Checker) -> QualityTotals {
    let mut totals = QualityTotals::default();
    for &i in idx {
        match &answered[i].1 {
            Some(m) => totals.add(m),
            None => check.failed += 1,
        }
    }
    totals
}

/// Records the quality totals as end-to-end metrics.
fn report_quality(r: &mut Report, totals: &QualityTotals) {
    r.metric("su4_count", totals.count_2q as f64, "count");
    r.metric("su4_depth", totals.depth_2q as f64, "count");
    r.metric("duration_g", totals.duration, "1/g");
}

/// Round-trip times and reply fingerprints of a measured loop, in
/// buffers allocated (and touched) before it starts, so the loop itself
/// neither allocates nor page-faults on the client side.
struct Samples {
    rtt_us: Vec<f64>,
    fingerprints: Vec<Option<u128>>,
    len: usize,
}

impl Samples {
    fn with_capacity(n: usize) -> Samples {
        Samples {
            rtt_us: vec![0.0; n],
            fingerprints: vec![None; n],
            len: 0,
        }
    }

    /// Records one round trip; `false` once the buffers are full.
    fn push(&mut self, rtt: Duration, reply: &str) -> bool {
        if self.len == self.rtt_us.len() {
            return false;
        }
        self.rtt_us[self.len] = us(rtt);
        self.fingerprints[self.len] = reply_fingerprint(reply);
        self.len += 1;
        true
    }

    fn rtt_us(&self) -> &[f64] {
        &self.rtt_us[..self.len]
    }

    fn fingerprints(&self) -> &[Option<u128>] {
        &self.fingerprints[..self.len]
    }
}

/// Counter deltas over a measured phase, as per-layer metrics.
fn stats_metrics(r: &mut Report, before: &StatsSnapshot, after: &StatsSnapshot) {
    let (b, a) = (&before.stages, &after.stages);
    let per =
        |wait: u64, wait0: u64, n: u64, n0: u64| (wait - wait0) as f64 / (n - n0).max(1) as f64;
    r.metric(
        "ring.submission_wait_us",
        per(
            a.submission.wait_us,
            b.submission.wait_us,
            a.submission.dequeued,
            b.submission.dequeued,
        ),
        "us",
    );
    r.metric(
        "ring.completion_wait_us",
        per(
            a.completion.wait_us,
            b.completion.wait_us,
            a.completion.dequeued,
            b.completion.dequeued,
        ),
        "us",
    );
    r.metric(
        "ring.solve_wait_us",
        per(a.solve.wait_us, b.solve.wait_us, a.solve.dequeued, b.solve.dequeued),
        "us",
    );
    r.metric(
        "synth.pool_misses",
        (after.cache.synthesis.misses - before.cache.synthesis.misses) as f64,
        "count",
    );
    r.metric(
        "lookup.hits",
        (a.lookup_hits - b.lookup_hits) as f64,
        "count",
    );
    r.metric(
        "lookup.misses",
        (a.lookup_misses - b.lookup_misses) as f64,
        "count",
    );
    r.metric(
        "solve.claimed",
        (a.solve_claimed - b.solve_claimed) as f64,
        "count",
    );
    let shared = |s: &StatsSnapshot| s.shared.unwrap_or_default();
    r.metric(
        "shared.hits",
        (shared(after).hits - shared(before).hits) as f64,
        "count",
    );
    r.metric(
        "shared.published",
        (shared(after).published - shared(before).published) as f64,
        "count",
    );
    r.metric(
        "svc.coalesced",
        (after.service.coalesced - before.service.coalesced) as f64,
        "count",
    );
}

// ---------------------------------------------------------------------
// The in-process replay of `serve_lines`' steps.

/// Time per request-path step, summed over replayed requests.
#[derive(Default)]
struct Steps {
    parse: Duration,
    qasm: Duration,
    submit: Duration,
    wait: Duration,
    metrics: Duration,
    encode: Duration,
    n: u64,
}

impl Steps {
    /// Mean server-side time per request, over every step.
    fn total_us(&self) -> f64 {
        let all = self.parse + self.qasm + self.submit + self.wait + self.metrics + self.encode;
        us(all) / self.n.max(1) as f64
    }

    fn report(&self, r: &mut Report) {
        let per = |d: Duration| us(d) / self.n.max(1) as f64;
        r.metric("proto.parse_us", per(self.parse), "us");
        r.metric("qasm.parse_us", per(self.qasm), "us");
        r.metric("svc.submit_us", per(self.submit), "us");
        r.metric("svc.wait_us", per(self.wait), "us");
        r.metric("resp.metrics_us", per(self.metrics), "us");
        r.metric("resp.encode_us", per(self.encode), "us");
    }
}

/// One compile request through the steps a connection's reader and
/// responder take in `serve_lines`: parse the line, resolve the QASM,
/// submit, wait for the ticket, compute the response metrics, encode.
/// Returns the output's fingerprint.
fn step(service: &Service, line: &str, steps: &mut Steps) -> Result<u128, String> {
    let t0 = Instant::now();
    let req = parse_request(line)?;
    let t1 = Instant::now();
    let RequestBody::Compile {
        source,
        pipeline,
        priority,
    } = req.body
    else {
        return Err("not a compile request".into());
    };
    let circuit = service.resolve_source(&source).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let ticket = service
        .submit_compile(circuit, pipeline, priority)
        .map_err(|e| e.to_string())?;
    let coalesced = ticket.coalesced;
    let t3 = Instant::now();
    let done = ticket.wait()?;
    let t4 = Instant::now();
    let out = done.circuit.ok_or("compile job returned no circuit")?;
    let m = service.metrics(&out);
    let t5 = Instant::now();
    let fingerprint = out.content_hash();
    std::hint::black_box(
        compile_response(req.id, fingerprint, &m, coalesced, done.done_seq).emit(),
    );
    let t6 = Instant::now();
    steps.parse += t1 - t0;
    steps.qasm += t2 - t1;
    steps.submit += t3 - t2;
    steps.wait += t4 - t3;
    steps.metrics += t5 - t4;
    steps.encode += t6 - t5;
    steps.n += 1;
    Ok(fingerprint)
}

/// An in-process service configured like the benchmark's `reqiscd`:
/// one solve worker, one lookup worker, the segment at `segment`, the
/// default snapshot period, no store.
fn replay_service(library: &TemplateLibrary, segment: &Path) -> Service {
    let config = ServiceConfig {
        workers: 1,
        lookup_workers: 1,
        snapshot_interval: Some(SNAPSHOT_INTERVAL),
        shm_path: Some(segment.to_path_buf()),
        ..ServiceConfig::default()
    };
    Service::start_with_compiler(Compiler::new_with_library(library.clone()), config)
}

/// Replays `lines` (by index) through `service`; returns how many
/// replies carried the fingerprint the daemon gave for their key.
fn replay_lines(
    service: &Service,
    lines: &[Line],
    idx: &[usize],
    expected: &HashMap<Key, u128>,
    steps: &mut Steps,
) -> io::Result<usize> {
    let mut matched = 0;
    for &i in idx {
        let fp = step(service, &lines[i].text, steps).map_err(io::Error::other)?;
        matched += (expected.get(&lines[i].key) == Some(&fp)) as usize;
    }
    Ok(matched)
}

/// Publishes the replay's request-path spans, unless the replay diverged
/// from what the daemon answered.
fn report_replay(r: &mut Report, matched: usize, total: usize, steps: &Steps) -> bool {
    r.metric("replay.matched", matched as f64, "count");
    if matched != total {
        eprintln!("# serve: replay matched {matched}/{total} fingerprints; request-path metrics unavailable");
        return false;
    }
    steps.report(r);
    true
}

/// Mean `Compiler::lookup_program` time over `idx`, on a compiler whose
/// program pool holds every key of `lines` (seeded from `segment`).
fn probe_us(library: &TemplateLibrary, segment: &Segment, lines: &[Line], idx: &[usize]) -> f64 {
    let compiler = Compiler::new_with_library(library.clone());
    let fp = compiler.options_fingerprint();
    for l in lines {
        probe_shared_program(segment, compiler.cache(), l.key.0, l.key.1, fp);
    }
    let t0 = Instant::now();
    let mut found = 0usize;
    for &i in idx {
        let (h, p) = lines[i].key;
        found += std::hint::black_box(compiler.lookup_program(h, p, fp)).is_some() as usize;
    }
    let per = us(t0.elapsed()) / idx.len().max(1) as f64;
    if found != idx.len() {
        eprintln!(
            "# serve: probe compiler missed {} of {} keys",
            idx.len() - found,
            idx.len()
        );
    }
    per
}

// ---------------------------------------------------------------------
// serve_warm

/// `serve_warm`: daemon A populates a fresh segment with the suite ×
/// {qiskit, tket}, shuts down, and daemon B attaches the same segment
/// and is sent every distinct key once (its first touches: shared-segment
/// hits), then a share of a long seeded uniform draw over the lines
/// (local warm hits). That repeats five times. One busy-polling
/// connection, one request outstanding, no think time.
pub fn warm(bin: &Path, seed: u64, seconds: u64, trace: bool) -> io::Result<Report> {
    let suite = demo_suite();
    let lines = suite_lines(&suite, &[Pipeline::Qiskit, Pipeline::Tket]);
    let keys = distinct_keys(&lines);
    let mut order_rng = Rng::stream(seed, salt::FIRST_TOUCH);
    let count = (seconds * WARM_REQUESTS_PER_SECOND) as usize;
    let draw = uniform_draw(lines.len(), count, &mut Rng::stream(seed, salt::WARM));

    let mut check = Checker::default();
    let reps = if trace { 1 } else { WARM_SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut touches = Vec::new();
    let mut stalls = Vec::new();
    let mut probes = cpu::Probes::default();
    // Per key: its cold compile (the population's first request for it)
    // in each set-up, in s.
    let mut cold_s = vec![Vec::with_capacity(reps); keys.len()];
    let mut totals = None;
    // Each restarted daemon B takes an equal share of the warm draw, so
    // the warm samples span the whole run rather than its last seconds.
    let mut warm = Samples::with_capacity(draw.len());
    let share = draw.len().div_ceil(reps);
    let mut kept = None;
    for rep in 0..reps {
        probes.take(SETUP_PROBES)?;
        let dir = RunDir::fresh(&format!("warm{rep}"))?;
        // Set-up CPU: the harness's own, daemon A's (reaped at its
        // shutdown, so among the harness's children) and daemon B's.
        let h0 = cpu::process("self")?;
        let mut a = Daemon::spawn(bin, &dir)?;
        let mut conn = a.connect()?;
        let answered = populate(&mut conn, &lines, &mut check)?;
        a.shutdown(conn)?;
        for (compiles, &i) in cold_s.iter_mut().zip(&keys) {
            compiles.push(answered[i].0.as_secs_f64());
        }
        totals.get_or_insert_with(|| quality(&answered, &keys, &mut check));
        let h1 = cpu::process("self")?;
        let mut b = Daemon::spawn(bin, &dir)?;
        let mut conn = b.connect()?;
        let populate_s = h1.total_s() - h0.total_s();
        let restart_s = cpu::process("self")?.total_s() - h1.total_s() + b.cpu_s()?;
        setup_s.push(populate_s + restart_s);
        conn.busy_poll()?;
        let before = conn.stats()?;
        // Every restart touches the keys in its own order, so a key's
        // time does not hinge on one position in one order.
        let order = shuffled_order(keys.len(), &mut order_rng);
        let mut touched = Samples::with_capacity(keys.len());
        for &k in &order {
            let (reply, rtt) = conn.roundtrip(&lines[keys[k]].text)?;
            touched.push(rtt, reply);
        }
        stalls.push(touched.rtt_us().iter().filter(|&&t| t > us(STALL)).count());
        eprintln!(
            "# serve_warm: restart {rep}: {} of {} first touches over {} ms",
            stalls[rep],
            keys.len(),
            STALL.as_millis()
        );
        touches.push((order, touched));
        for &i in &draw[(rep * share).min(draw.len())..((rep + 1) * share).min(draw.len())] {
            let (reply, rtt) = conn.roundtrip(&lines[i].text)?;
            warm.push(rtt, reply);
        }
        if rep + 1 < reps {
            b.shutdown(conn)?;
        } else {
            kept = Some((dir, b, conn, before, populate_s, restart_s));
        }
    }
    let (dir, b, mut conn, before, populate_s, restart_s) =
        kept.expect("at least one set-up repetition");
    let after = conn.stats()?;
    let socket_us = if trace {
        probe_socket(&mut conn)?
    } else {
        Vec::new()
    };
    let peak_rss_mb = b.peak_rss_mb()?;
    b.shutdown(conn)?;
    // Per key (by index into `keys`): its first touches, replies checked.
    let mut touch_us = vec![Vec::with_capacity(reps); keys.len()];
    for (order, t) in &touches {
        for ((&k, &rtt), &fp) in order.iter().zip(t.rtt_us()).zip(t.fingerprints()) {
            touch_us[k].push(rtt);
            check.reply(lines[keys[k]].key, fp);
        }
    }
    for (&i, &fp) in draw.iter().zip(warm.fingerprints()) {
        check.reply(lines[i].key, fp);
    }

    let totals = totals.expect("at least one set-up repetition");
    let mut r = Report::new(check.attempted, check.failed);
    let warm_us = warm.rtt_us();
    if !trace {
        let (setup_cpu_s, scale) = (median(&setup_s), probes.scale());
        let compile_s: f64 = median_per_key(&cold_s).iter().sum();
        eprintln!(
            "# serve_warm: unscaled: set-up CPU {setup_cpu_s:.2} s; scale {scale:.3}"
        );
        r.metric("setup_s", setup_cpu_s * scale, "s");
        r.metric("peak_rss_mb", peak_rss_mb, "MB");
        // The population's cold compiles, each key's median round trip
        // over the set-ups; a wall time as measured, like the latencies.
        r.metric("compile_s", compile_s, "s");
        report_quality(&mut r, &totals);
        // The latencies are not scaled: a request here is syscalls and
        // thread handoffs, whose time the arithmetic probe does not
        // follow, and scaling widened the warm p50's spread. No warm p99
        // and no requests per second: over ten runs of the same code the
        // p99 split into two modes with the host's load (0.64–0.79 ms
        // and 1.04–1.13 ms), and the rate, a mean, fell to a third in a
        // loaded spell while the p50 rose a sixth.
        r.metric("warm_p50_us", pct(warm_us, 0.50), "us");
        // A key's first-touch time is its median over the restarts, so
        // a stall in fewer than half of them does not move it (the
        // traced run's `shared.stalls` counts them).
        let touch_us = median_per_key(&touch_us);
        eprintln!(
            "# serve_warm: first-touch p90 {:.1} us",
            pct(&touch_us, 0.90)
        );
        r.metric("shared_p50_us", pct(&touch_us, 0.50), "us");
        return Ok(r);
    }

    // Traced run: restart costs timed directly, then the replay.
    let c0 = cpu::thread_s()?;
    let library = Compiler::builtin_library();
    r.metric("setup.library_s", cpu::thread_s()? - c0, "s");
    r.metric("setup.populate_s", populate_s, "s");
    r.metric("setup.restart_s", restart_s, "s");
    r.metric("shared.stalls", stalls[0] as f64, "count");
    stats_metrics(&mut r, &before, &after);

    let c0 = cpu::thread_s()?;
    let seg = attach_segment(&dir.segment())?;
    let cache = CompileCache::new();
    seed_subprogram_pools(&seg, &cache);
    r.metric("setup.attach_s", cpu::thread_s()? - c0, "s");
    let first_touch: Vec<usize> = touches[0].0.iter().map(|&k| keys[k]).collect();
    let fp = Compiler::new_with_library(library.clone()).options_fingerprint();
    let t0 = Instant::now();
    for &i in &first_touch {
        let (h, p) = lines[i].key;
        std::hint::black_box(probe_shared_program(&seg, &cache, h, p, fp));
    }
    r.metric(
        "shared.probe_us",
        us(t0.elapsed()) / first_touch.len() as f64,
        "us",
    );
    r.metric(
        "cache.probe_us",
        probe_us(&library, &seg, &lines, &draw),
        "us",
    );

    // The same population, restart and traffic on in-process services.
    let rdir = RunDir::fresh("replay")?;
    let expected = &check.fingerprints;
    let mut untimed = Steps::default();
    let a = replay_service(&library, &rdir.segment());
    let all: Vec<usize> = (0..lines.len()).collect();
    let mut matched = replay_lines(&a, &lines, &all, expected, &mut untimed)?;
    a.shutdown();
    drop(a);
    let b = replay_service(&library, &rdir.segment());
    matched += replay_lines(&b, &lines, &first_touch, expected, &mut untimed)?;
    let mut steps = Steps::default();
    matched += replay_lines(&b, &lines, &draw, expected, &mut steps)?;
    b.shutdown();
    let socket = mean(&socket_us);
    r.metric("socket.rtt_us", socket, "us");
    if report_replay(
        &mut r,
        matched,
        lines.len() + first_touch.len() + draw.len(),
        &steps,
    ) {
        // What the replay's serial spans leave of the round trip. The
        // daemon overlaps its reader → responder handoff with the lookup
        // stage, which the replay waits for in line, so this can be below
        // `socket.rtt_us`, or negative.
        let gap = mean(warm_us) - steps.total_us();
        r.metric("socket_rtt_gap_us", gap, "us");
        eprintln!(
            "# serve_warm: mean round trip {:.1} us = spans {:.1} us + gap {gap:.1} us; trivial round trip {socket:.1} us",
            mean(warm_us),
            steps.total_us()
        );
    }
    Ok(r)
}

/// Round trips of [`TRIVIAL`] requests, in µs; every reply must be the
/// error it asks for.
fn probe_socket(conn: &mut Conn) -> io::Result<Vec<f64>> {
    let mut rtt_us = Vec::with_capacity(SOCKET_PROBES);
    for _ in 0..SOCKET_PROBES {
        let (reply, rtt) = conn.roundtrip(TRIVIAL)?;
        if !reply.contains("\"ok\":false") {
            return Err(io::Error::other(format!(
                "trivial request answered {reply}"
            )));
        }
        rtt_us.push(us(rtt));
    }
    Ok(rtt_us)
}

// ---------------------------------------------------------------------
// serve_mixed

/// One peer daemon's first touches.
struct Peer {
    /// The keys (indices into the key list) in the order touched.
    order: Vec<usize>,
    touched: Samples,
    /// CPU time of the harness and the peer from its spawn to its first
    /// answer.
    start_s: f64,
    /// Trivial round trips, when asked for.
    socket_us: Vec<f64>,
}

/// Starts a peer on `dir`'s segment and touches `lines[keys[k]]` for
/// each `k` in `order`, one request outstanding on a blocking
/// connection; with `socket`, then times trivial round trips too.
fn peer_touches(
    bin: &Path,
    dir: &RunDir,
    lines: &[Line],
    keys: &[usize],
    order: Vec<usize>,
    socket: bool,
) -> io::Result<Peer> {
    let h0 = cpu::process("self")?;
    let mut peer = Daemon::spawn_peer(bin, dir)?;
    let mut conn = peer.connect()?;
    let start_s = cpu::process("self")?.total_s() - h0.total_s() + peer.cpu_s()?;
    // A blocking connection: a touch here is about a millisecond of
    // `metrics()` in the daemon, and a client spinning on one of the two
    // cores made such touches bimodal (a p50 of 0.43 or 0.62 ms).
    let mut touched = Samples::with_capacity(order.len());
    for &k in &order {
        let (reply, rtt) = conn.roundtrip(&lines[keys[k]].text)?;
        touched.push(rtt, reply);
    }
    let socket_us = if socket {
        conn.busy_poll()?;
        probe_socket(&mut conn)?
    } else {
        Vec::new()
    };
    peer.shutdown(conn)?;
    Ok(Peer {
        order,
        touched,
        start_s,
        socket_us,
    })
}

/// `serve_mixed`: one daemon populated with the suite × {reqisc-eff,
/// qiskit-su4, tket-su4}. A cold connection keeps one cold pair
/// outstanding — each demo program made never-seen by a trailing `rz`,
/// compiled through `reqisc-full`, the line sent twice back to back —
/// while a warm connection runs a closed loop over the populated lines
/// with a fixed think time until the cold stream ends. At five points of
/// the stream a peer daemon on the same segment touches every populated
/// key once (shared-segment hits).
pub fn mixed(bin: &Path, seed: u64, trace: bool) -> io::Result<Report> {
    let suite = demo_suite();
    let warm_lines = suite_lines(
        &suite,
        &[Pipeline::ReqiscEff, Pipeline::QiskitSu4, Pipeline::TketSu4],
    );
    // The cold stream runs in suite order: which program pays for a
    // block that later programs share depends on the order, and a seeded
    // order moved the cold p90 by a third between seeds. The seed picks
    // the angles, so every seed's cold keys are new.
    let angles = cold_angles(suite.len(), &mut Rng::stream(seed, salt::ANGLES));
    let cold_lines: Vec<Line> = suite
        .iter()
        .zip(&angles)
        .enumerate()
        .map(|(k, (program, &theta))| {
            Line::compile(
                1_000_000 + k as u64,
                Pipeline::ReqiscFull,
                &cold_variant(program, theta),
            )
        })
        .collect();

    let mut check = Checker::default();
    let reps = if trace { 1 } else { MIXED_SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut probes = cpu::Probes::default();
    let mut kept = None;
    for rep in 0..reps {
        probes.take(SETUP_PROBES)?;
        let dir = RunDir::fresh(&format!("mixed{rep}"))?;
        // Set-up CPU: the harness's own and the daemon's.
        let h0 = cpu::process("self")?;
        let mut d = Daemon::spawn(bin, &dir)?;
        let mut conn = d.connect()?;
        populate(&mut conn, &warm_lines, &mut check)?;
        setup_s.push(cpu::process("self")?.total_s() - h0.total_s() + d.cpu_s()?);
        if rep + 1 < reps {
            d.shutdown(conn)?;
        } else {
            kept = Some((dir, d, conn));
        }
    }
    let (dir, mut d, mut cold_conn) = kept.expect("at least one set-up repetition");
    let warm_keys = distinct_keys(&warm_lines);
    let mut warm_conn = d.connect()?;

    let before = cold_conn.stats()?;
    let stop = AtomicBool::new(false);
    // The cold side asks for quiet (`hold`) to probe the host; the warm
    // side grants it (`held`) between requests.
    let (hold, held) = (AtomicBool::new(false), AtomicBool::new(false));
    let mut warm_rng = Rng::stream(seed, salt::WARM);
    let mut warm = Samples::with_capacity(MIXED_WARM_CAPACITY);
    let mut warm_idx = vec![0usize; MIXED_WARM_CAPACITY];
    let mut pairs: Vec<(Option<u128>, Option<u128>)> = Vec::with_capacity(cold_lines.len());
    let mut cold_metrics: Vec<(Duration, Option<Metrics>)> = Vec::with_capacity(cold_lines.len());
    let mut pair_ms = Vec::with_capacity(cold_lines.len());
    // Peers start after these pairs, spread over the whole stream, since
    // the host's speed moves over seconds.
    let peer_after: Vec<usize> = (1..=MIXED_PEERS)
        .map(|j| j * cold_lines.len() / (MIXED_PEERS + 1))
        .collect();
    let mut peer_rng = Rng::stream(seed, salt::FIRST_TOUCH);
    let mut peers: Vec<Peer> = Vec::with_capacity(MIXED_PEERS);
    let (cold_result, warm_result) = std::thread::scope(|s| {
        let warm_load = s.spawn(|| -> io::Result<()> {
            while !stop.load(Ordering::Acquire) {
                if hold.load(Ordering::Acquire) {
                    held.store(true, Ordering::Release);
                    while hold.load(Ordering::Acquire) {
                        std::thread::sleep(QUIET_POLL);
                    }
                    held.store(false, Ordering::Release);
                    continue;
                }
                let i = warm_rng.below(warm_lines.len());
                let (reply, rtt) = warm_conn.roundtrip(&warm_lines[i].text)?;
                let slot = warm.len;
                if !warm.push(rtt, reply) {
                    return Err(io::Error::other("warm sample buffer full"));
                }
                warm_idx[slot] = i;
                std::thread::sleep(THINK);
            }
            Ok(())
        });
        // After each pair, one host-speed probe while the daemon is idle:
        // the solve worker has finished and the warm load is held. After
        // some pairs, a peer's first touches too, in the same quiet. The
        // stream's time is the sum of the pairs' latencies, which leaves
        // both out.
        let cold_load = (|| -> io::Result<()> {
            for (k, l) in cold_lines.iter().enumerate() {
                let t = Instant::now();
                cold_conn.send(&[&l.text, &l.text])?;
                let first = cold_conn.recv()?.to_string();
                let second = reply_fingerprint(cold_conn.recv()?);
                let rtt = t.elapsed();
                pair_ms.push(rtt.as_secs_f64() * 1e3);
                pairs.push((reply_fingerprint(&first), second));
                cold_metrics.push((rtt, reply_metrics(&first)));
                hold.store(true, Ordering::Release);
                while !held.load(Ordering::Acquire) && !warm_load.is_finished() {
                    std::thread::sleep(QUIET_POLL);
                }
                let mut quiet = probes.take(1);
                if quiet.is_ok() && peer_after.contains(&(k + 1)) {
                    let order = shuffled_order(warm_keys.len(), &mut peer_rng);
                    let socket = trace && peers.is_empty();
                    quiet = peer_touches(bin, &dir, &warm_lines, &warm_keys, order, socket)
                        .map(|p| peers.push(p));
                }
                hold.store(false, Ordering::Release);
                // The next pair's quiet must not be granted by this one.
                while held.load(Ordering::Acquire) && !warm_load.is_finished() {
                    std::thread::sleep(QUIET_POLL);
                }
                quiet?;
            }
            Ok(())
        })();
        stop.store(true, Ordering::Release);
        (
            cold_load,
            warm_load.join().expect("warm load thread panicked"),
        )
    });
    cold_result?;
    let cold_s = pair_ms.iter().sum::<f64>() / 1e3;
    warm_result?;
    let after = cold_conn.stats()?;
    let peak_rss_mb = d.peak_rss_mb()?;
    drop(warm_conn);
    d.shutdown(cold_conn)?;

    let warm_idx = &warm_idx[..warm.len];
    for (&i, &fp) in warm_idx.iter().zip(warm.fingerprints()) {
        check.reply(warm_lines[i].key, fp);
    }
    let mut touch_us = vec![Vec::with_capacity(MIXED_PEERS); warm_keys.len()];
    for p in &peers {
        let touches = p.order.iter().zip(p.touched.rtt_us()).zip(p.touched.fingerprints());
        for ((&k, &rtt), &fp) in touches {
            touch_us[k].push(rtt);
            check.reply(warm_lines[warm_keys[k]].key, fp);
        }
    }
    // Both halves of a pair must agree (each cold key is new, so there
    // is nothing earlier to agree with).
    for (l, &(first, second)) in cold_lines.iter().zip(&pairs) {
        check.reply(l.key, first);
        check.reply(l.key, second);
    }

    let all_cold: Vec<usize> = (0..cold_lines.len()).collect();
    let totals = quality(&cold_metrics, &all_cold, &mut check);
    let mut r = Report::new(check.attempted, check.failed);
    let warm_us = warm.rtt_us();
    if !trace {
        let (setup_cpu_s, warm_p50) = (median(&setup_s), pct(warm_us, 0.50));
        let touch_us = median_per_key(&touch_us);
        let (shared_p50, shared_p90) = (pct(&touch_us, 0.50), pct(&touch_us, 0.90));
        let scale = probes.scale();
        eprintln!(
            "# serve_mixed: unscaled: set-up CPU {setup_cpu_s:.2} s, warm p50 {warm_p50:.1} us, cold stream {cold_s:.2} s, cold p90 {:.1} ms, shared p50 {shared_p50:.1} us, p90 {shared_p90:.1} us; scale {scale:.3}",
            pct(&pair_ms, 0.90),
        );
        r.metric("setup_s", setup_cpu_s * scale, "s");
        r.metric("peak_rss_mb", peak_rss_mb, "MB");
        // The cold stream's time: the sum of the pairs' latencies.
        r.metric("compile_s", cold_s * scale, "s");
        // No warm p99: it is the warm path waiting behind the solve
        // worker for a scheduler slice, and moved from 11 to 30 ms over
        // ten runs of the same code as the host's load changed.
        r.metric("warm_p50_us", warm_p50 * scale, "us");
        r.metric("shared_p50_us", shared_p50 * scale, "us");
        report_quality(&mut r, &totals);
        return Ok(r);
    }

    let c0 = cpu::thread_s()?;
    let library = Compiler::builtin_library();
    r.metric("setup.library_s", cpu::thread_s()? - c0, "s");
    stats_metrics(&mut r, &before, &after);

    let first = &peers[0];
    r.metric("setup.populate_s", setup_s[0], "s");
    r.metric("setup.restart_s", first.start_s, "s");
    let stalls = first.touched.rtt_us().iter().filter(|&&t| t > us(STALL)).count();
    r.metric("shared.stalls", stalls as f64, "count");
    r.metric("socket.rtt_us", mean(&first.socket_us), "us");

    // The cold side, replayed pass by pass on a fresh compiler (the
    // daemon's synthesis pool starts empty too, since no populated
    // pipeline synthesizes); the outputs then published to a fresh
    // segment and probed from a fresh cache, as a restart would.
    let mut variants = Vec::with_capacity(cold_lines.len());
    for l in &cold_lines {
        let Ok(Request {
            body:
                RequestBody::Compile {
                    source: CompileSource::Qasm(q),
                    ..
                },
            ..
        }) = parse_request(&l.text)
        else {
            return Err(io::Error::other("cold line is not a QASM compile request"));
        };
        variants.push(reqisc_qcircuit::parse(&q).map_err(io::Error::other)?);
    }
    let (replayed, sp, traced_s, _) = replay(&library, &variants, &all_cold)?;
    let expected: Vec<u128> = pairs.iter().map(|(first, _)| first.unwrap_or(0)).collect();
    if report_passes(&mut r, &expected, &replayed, &sp, traced_s, traced_s - cold_s) {
        r.metric(
            "solve.compile_ms",
            traced_s * 1e3 / variants.len() as f64,
            "ms",
        );
        let rdir = RunDir::fresh("replay")?;
        let fp = Compiler::new_with_library(library.clone()).options_fingerprint();
        let (publish_us, probe_us, attach_s) =
            publish_and_probe(&rdir, &cold_lines, &replayed, fp)?;
        r.metric("solve.publish_us", publish_us, "us");
        r.metric("shared.probe_us", probe_us, "us");
        r.metric("setup.attach_s", attach_s, "s");
    }

    // The warm side, replayed on an in-process service populated the
    // same way.
    let wdir = RunDir::fresh("replay-warm")?;
    let service = replay_service(&library, &wdir.segment());
    let expected = &check.fingerprints;
    let all: Vec<usize> = (0..warm_lines.len()).collect();
    let mut untimed = Steps::default();
    let mut matched = replay_lines(&service, &warm_lines, &all, expected, &mut untimed)?;
    let replayed = &warm_idx[..warm_idx.len().min(MIXED_REPLAY_REQUESTS)];
    let mut steps = Steps::default();
    matched += replay_lines(&service, &warm_lines, replayed, expected, &mut steps)?;
    service.shutdown();
    let seg = attach_segment(&wdir.segment())?;
    r.metric(
        "cache.probe_us",
        probe_us(&library, &seg, &warm_lines, replayed),
        "us",
    );
    if report_replay(&mut r, matched, all.len() + replayed.len(), &steps) {
        // Here the end-to-end round trips also wait behind cold solves,
        // which the replay does not, so the gap holds that wait too.
        r.metric("socket_rtt_gap_us", mean(warm_us) - steps.total_us(), "us");
    }
    Ok(r)
}

/// Publishes `outs` (the outputs for `lines`' keys) to a fresh segment
/// in `dir`, then attaches it again, seeds a fresh cache from it and
/// probes every key: returns the mean publish and probe times in µs and
/// the attach-and-seed CPU time in s.
fn publish_and_probe(
    dir: &RunDir,
    lines: &[Line],
    outs: &[Circuit],
    fp: u128,
) -> io::Result<(f64, f64, f64)> {
    let seg = attach_segment(&dir.segment())?;
    let t0 = Instant::now();
    for (l, out) in lines.iter().zip(outs) {
        publish_program(&seg, l.key.0, l.key.1, fp, out);
    }
    let publish_us = us(t0.elapsed()) / lines.len() as f64;
    drop(seg);
    let c0 = cpu::thread_s()?;
    let seg = attach_segment(&dir.segment())?;
    let cache = CompileCache::new();
    seed_subprogram_pools(&seg, &cache);
    let attach_s = cpu::thread_s()? - c0;
    let t0 = Instant::now();
    for l in lines {
        std::hint::black_box(probe_shared_program(&seg, &cache, l.key.0, l.key.1, fp));
    }
    Ok((publish_us, us(t0.elapsed()) / lines.len() as f64, attach_s))
}
