//! `compile_cold`: a fresh compiler compiles the whole demo suite through
//! `reqisc-full`, one program after another on one thread, repeating
//! each program's compile right after its cold one (the warm path). Its
//! outputs are then published to a shared segment, and fresh compilers
//! restart over it, each touching every program once through the
//! segment (the restart path).
//!
//! The traced run replays `hierarchical_synthesis_batched`'s pass
//! sequence through the compiler's public functions on a second fresh
//! compiler, timing each pass and each block synthesis by outcome.

use crate::cpu;
use crate::daemon::{attach_segment, RunDir};
use crate::inputs::{demo_suite, salt, shuffled_order, Rng};
use crate::oracle::{state_infidelity, QualityTotals, MAX_STATE_INFIDELITY};
use crate::report::Report;
use crate::stats::{median, median_per_key, pct};
use reqisc_compiler::{
    compact, fuse_2q, metrics, partition_3q, probe_shared_program, publish_program,
    seed_subprogram_pools, template_synthesis, Compiler, Pipeline,
};
use reqisc_microarch::Coupling;
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_shmem::PublishOutcome;
use reqisc_synthesis::TemplateLibrary;
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Host-speed probes taken before each set-up repetition.
const SETUP_PROBES: usize = 11;
/// Warm repeat compiles per second of `--seconds`, spread evenly over
/// the programs: the count is fixed for a given `--seconds`, so every
/// run does the same work.
const WARM_REPEATS_PER_SECOND: u64 = 4000;
/// In-process restarts (fresh compilers over the published segment)
/// whose first touches are timed, a key's first-touch time being its
/// median over them.
const RESTARTS: usize = 5;
/// Idle time between restarts. The host's speed moves over seconds:
/// bursts of warm repeats two seconds apart in one run differed by up
/// to a quarter. Spaced, the restarts sample ten seconds of the host
/// rather than one moment.
const RESTART_GAP: Duration = Duration::from_secs(2);

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What set-up produces: the suite and the template library, with the
/// CPU time each repetition took and the probes taken around them.
struct Setup {
    suite: Vec<Circuit>,
    library: TemplateLibrary,
    setup_s: Vec<f64>,
    library_s: Vec<f64>,
    probes: cpu::Probes,
}

/// Builds the suite and the library on this thread, timing its CPU.
fn setup() -> io::Result<Setup> {
    let (mut setup_s, mut library_s) = (Vec::new(), Vec::new());
    let mut probes = cpu::Probes::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        probes.take(SETUP_PROBES)?;
        let c0 = cpu::thread_s()?;
        let suite = demo_suite();
        let c1 = cpu::thread_s()?;
        let library = Compiler::builtin_library();
        let c2 = cpu::thread_s()?;
        library_s.push(c2 - c1);
        setup_s.push(c2 - c0);
        built = Some((suite, library));
    }
    let (suite, library) = built.expect("at least one set-up repetition");
    Ok(Setup {
        suite,
        library,
        setup_s,
        library_s,
        probes,
    })
}

/// A fresh compiler around `library`, compiling on one thread.
fn fresh_compiler(library: &TemplateLibrary) -> Compiler {
    let mut c = Compiler::new_with_library(library.clone());
    c.block_threads = 1;
    c
}

/// What the cold pass produced and measured.
struct ColdPass {
    compiler: Compiler,
    /// The outputs, in compile order.
    outs: Vec<Circuit>,
    /// CPU time of the cold compiles, in s.
    cpu_s: f64,
    /// Every warm repeat's round trip, in µs.
    warm_us: Vec<f64>,
    /// Memory probes taken beside the repeats.
    warm_mem: cpu::MemProbe,
    /// Repeats whose output differed from the cold one.
    warm_failed: u64,
}

/// Compiles `suite` in `order` through `Compiler::compile`, with one
/// host-speed probe before each program and `repeats` repeat compiles
/// of it right after, each a program-pool hit, then as many memory
/// probes. The repeats are spread over the whole pass, since the host's
/// speed moves over seconds. The process's CPU time counts the compile's
/// scoped synthesis worker too; the probes' and the repeats' own CPU is
/// taken out of it.
fn compile_suite(
    library: &TemplateLibrary,
    suite: &[Circuit],
    order: &[usize],
    repeats: usize,
    probes: &mut cpu::Probes,
) -> io::Result<ColdPass> {
    let compiler = fresh_compiler(library);
    let mut outs = Vec::with_capacity(order.len());
    let mut warm_us = Vec::with_capacity(order.len() * repeats);
    let mut warm_mem = cpu::MemProbe::default();
    let (mut warm_failed, mut warm_cpu_s) = (0, 0.0);
    let (c0, p0) = (cpu::process("self")?, probes.total_s());
    for &i in order {
        probes.take(1)?;
        let out = compiler.compile(&suite[i], Pipeline::ReqiscFull);
        let h = out.content_hash();
        let w0 = cpu::thread_s()?;
        for _ in 0..repeats {
            let t0 = Instant::now();
            let again = compiler.compile(&suite[i], Pipeline::ReqiscFull);
            warm_us.push(us(t0.elapsed()));
            warm_failed += (again.content_hash() != h) as u64;
        }
        warm_mem.take(repeats);
        warm_cpu_s += cpu::thread_s()? - w0;
        outs.push(out);
    }
    let probe_s = probes.total_s() - p0;
    let cpu_s = cpu::process("self")?.own_s - c0.own_s - probe_s - warm_cpu_s;
    Ok(ColdPass {
        compiler,
        outs,
        cpu_s,
        warm_us,
        warm_mem,
        warm_failed,
    })
}

/// What the restart phase measured.
struct Restarts {
    /// Per key: its first touches, one per restart, in µs.
    touch_us: Vec<Vec<f64>>,
    /// Memory probes taken beside the touches, one after each.
    touch_mem: cpu::MemProbe,
    /// Touches whose program was missing or differed from the cold one.
    failed: u64,
    /// Touches made.
    attempted: u64,
    /// Mean `publish_program` time per key, in µs.
    publish_us: f64,
    /// Keys the segment took.
    published: u64,
    /// Mean first touch of the first restart, in µs.
    first_probe_us: f64,
    /// Keys the first restart found in the segment.
    first_hits: u64,
    /// First touches of the first restart that took over 1 ms.
    first_stalls: u64,
    /// CPU time of the first restart's attach and pool seeding, in s.
    attach_s: f64,
}

/// Publishes each distinct program's output (`keys`: content hash and
/// output) to a fresh segment, then restarts `RESTARTS` times: attach
/// the segment, seed a fresh compiler's sub-program pools from it, and
/// touch every key once through `probe_shared_program`, in an order the
/// seed shuffles anew for each restart.
fn restarts(
    library: &TemplateLibrary,
    keys: &[(u128, &Circuit)],
    rng: &mut Rng,
) -> io::Result<Restarts> {
    let fp = fresh_compiler(library).options_fingerprint();
    let dir = RunDir::fresh("cold")?;
    let seg = attach_segment(&dir.segment())?;
    let t0 = Instant::now();
    let mut published = 0;
    for (h, out) in keys {
        let outcome = publish_program(&seg, *h, Pipeline::ReqiscFull, fp, out);
        published += matches!(outcome, PublishOutcome::Published) as u64;
    }
    let publish_us = us(t0.elapsed()) / keys.len() as f64;
    drop(seg);

    let expected: Vec<u128> = keys.iter().map(|(_, out)| out.content_hash()).collect();
    let mut touch_us = vec![Vec::with_capacity(RESTARTS); keys.len()];
    let mut touch_mem = cpu::MemProbe::default();
    let (mut failed, mut attempted) = (0, 0);
    let (mut first_probe_us, mut attach_s, mut first_hits, mut first_stalls) = (0.0, 0.0, 0, 0);
    for rep in 0..RESTARTS {
        let c0 = cpu::thread_s()?;
        let seg = attach_segment(&dir.segment())?;
        let restarted = fresh_compiler(library);
        let cache = restarted.cache();
        seed_subprogram_pools(&seg, cache);
        let c1 = cpu::thread_s()?;
        let order = shuffled_order(keys.len(), rng);
        let (mut touched_us, mut hits, mut stalls) = (0.0, 0, 0);
        for &k in &order {
            let t0 = Instant::now();
            let got = probe_shared_program(&seg, cache, keys[k].0, Pipeline::ReqiscFull, fp);
            let t = us(t0.elapsed());
            touch_us[k].push(t);
            touch_mem.take(1);
            touched_us += t;
            stalls += (t > 1e3) as u64;
            attempted += 1;
            hits += got.is_some() as u64;
            failed += (got.map(|c| c.content_hash()) != Some(expected[k])) as u64;
        }
        if rep == 0 {
            first_probe_us = touched_us / keys.len() as f64;
            attach_s = c1 - c0;
            first_hits = hits;
            first_stalls = stalls;
        }
        if rep + 1 < RESTARTS {
            std::thread::sleep(RESTART_GAP);
        }
    }
    Ok(Restarts {
        touch_us,
        touch_mem,
        failed,
        attempted,
        publish_us,
        published,
        first_probe_us,
        first_hits,
        first_stalls,
        attach_s,
    })
}

/// Runs every input and output through the state-vector oracle and
/// sums the quality metrics; returns the totals, the failures and the
/// time `metrics` took.
fn check(
    suite: &[Circuit],
    order: &[usize],
    outs: &[Circuit],
    seed: u64,
) -> (QualityTotals, u64, Duration) {
    let mut rng = Rng::stream(seed, salt::STATES);
    let cp = Coupling::xy(1.0);
    let mut totals = QualityTotals::default();
    let (mut failed, mut metrics_time) = (0, Duration::ZERO);
    for (&i, out) in order.iter().zip(outs) {
        let t0 = Instant::now();
        let m = metrics(out, &cp);
        metrics_time += t0.elapsed();
        totals.add(&m);
        let inf = state_infidelity(&suite[i], out, &mut rng);
        if inf.is_nan() || inf > MAX_STATE_INFIDELITY {
            eprintln!("# compile_cold: program {i} fails the oracle (infidelity {inf:e})");
            failed += 1;
        }
    }
    (totals, failed, metrics_time)
}

/// `compile_cold`, end to end (`trace` false) or traced.
pub fn run(seed: u64, seconds: u64, trace: bool) -> io::Result<Report> {
    let mut s = setup()?;
    let order = shuffled_order(s.suite.len(), &mut Rng::stream(seed, salt::ORDER));
    let repeats = (seconds * WARM_REPEATS_PER_SECOND).div_ceil(order.len() as u64) as usize;
    let cold = compile_suite(&s.library, &s.suite, &order, repeats, &mut s.probes)?;
    let (compiler, outs, compile_cpu_s) = (&cold.compiler, &cold.outs, cold.cpu_s);
    let peak = crate::daemon::peak_rss_mb("/proc/self/status").unwrap_or(f64::NAN);

    // The restart path: each distinct program once, keyed as the
    // compiler keys it.
    let mut keys: Vec<(u128, &Circuit)> = Vec::new();
    for (&i, out) in order.iter().zip(outs) {
        let h = s.suite[i].content_hash();
        if !keys.iter().any(|(k, _)| *k == h) {
            keys.push((h, out));
        }
    }
    let rs = restarts(&s.library, &keys, &mut Rng::stream(seed, salt::FIRST_TOUCH))?;

    let (totals, oracle_failed, metrics_time) = check(&s.suite, &order, outs, seed);
    let attempted = (order.len() + cold.warm_us.len()) as u64 + rs.attempted;
    let mut r = Report::new(attempted, oracle_failed + cold.warm_failed + rs.failed);
    if !trace {
        let scale = s.probes.scale();
        let (warm_scale, touch_scale) = (cold.warm_mem.scale(), rs.touch_mem.scale());
        let setup_cpu_s = median(&s.setup_s);
        let warm_p50 = pct(&cold.warm_us, 0.50);
        let touch_us = median_per_key(&rs.touch_us);
        let (shared_p50, shared_p90) = (pct(&touch_us, 0.50), pct(&touch_us, 0.90));
        eprintln!(
            "# compile_cold: unscaled: set-up CPU {setup_cpu_s:.4} s, compile CPU {compile_cpu_s:.2} s, warm p50 {warm_p50:.3} us, shared p50 {shared_p50:.2} us, p90 {shared_p90:.2} us; scale {scale:.3}, memory scales {warm_scale:.3} and {touch_scale:.3}"
        );
        r.metric("setup_s", setup_cpu_s * scale, "s");
        r.metric("peak_rss_mb", peak, "MB");
        r.metric("compile_s", compile_cpu_s * scale, "s");
        // The in-process latencies are a few µs of hashing, copying and
        // allocation: scaled by the memory probes taken beside them.
        r.metric("warm_p50_us", warm_p50 * warm_scale, "us");
        r.metric("shared_p50_us", shared_p50 * touch_scale, "us");
        r.metric("su4_count", totals.count_2q as f64, "count");
        r.metric("su4_depth", totals.depth_2q as f64, "count");
        r.metric("duration_g", totals.duration, "1/g");
        return Ok(r);
    }

    // Traced run: the layers the phases above went through, then the
    // pass-by-pass replay of the cold compile.
    r.metric("setup.library_s", median(&s.library_s), "s");
    r.metric(
        "resp.metrics_us",
        us(metrics_time) / outs.len() as f64,
        "us",
    );
    let fp = compiler.options_fingerprint();
    let t0 = Instant::now();
    for _ in 0..repeats {
        for &i in &order {
            let h = s.suite[i].content_hash();
            std::hint::black_box(compiler.lookup_program(h, Pipeline::ReqiscFull, fp));
        }
    }
    let lookups = repeats * order.len();
    r.metric("cache.probe_us", us(t0.elapsed()) / lookups as f64, "us");
    r.metric(
        "synth.pool_misses",
        compiler.cache_stats().synthesis.misses as f64,
        "count",
    );
    r.metric("solve.publish_us", rs.publish_us, "us");
    r.metric("shared.published", rs.published as f64, "count");
    r.metric("shared.hits", rs.first_hits as f64, "count");
    r.metric("shared.stalls", rs.first_stalls as f64, "count");
    r.metric("shared.probe_us", rs.first_probe_us, "us");
    r.metric("setup.attach_s", rs.attach_s, "s");
    let (replayed, sp, traced_s, traced_cpu_s) = replay(&s.library, &s.suite, &order)?;
    let hashes: Vec<u128> = outs.iter().map(Circuit::content_hash).collect();
    report_passes(&mut r, &hashes, &replayed, &sp, traced_s, traced_cpu_s - compile_cpu_s);
    Ok(r)
}

/// Time spent per pass and per synthesis outcome during a replay.
#[derive(Debug, Default)]
pub struct Spans {
    lookup: Duration,
    template: Duration,
    lower: Duration,
    fuse: Duration,
    compact: Duration,
    partition: Duration,
    unitary: Duration,
    win: Duration,
    fail: Duration,
    hit: Duration,
    emit: Duration,
    program_hits: u64,
    wins: u64,
    fails: u64,
    hits: u64,
    gates_saved: u64,
}

impl Spans {
    fn total(&self) -> Duration {
        self.lookup
            + self.template
            + self.lower
            + self.fuse
            + self.compact
            + self.partition
            + self.unitary
            + self.win
            + self.fail
            + self.hit
            + self.emit
    }
}

/// Times `f` into `span`.
fn timed<T>(span: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    *span += t0.elapsed();
    v
}

/// Replays `Compiler::compile(_, ReqiscFull)` — the program-pool lookup,
/// the template pass, and `hierarchical_synthesis_batched` with one block
/// thread — pass by pass on a fresh compiler. Returns the outputs, the
/// spans, and the wall and CPU time of the whole replay.
pub fn replay(
    library: &TemplateLibrary,
    suite: &[Circuit],
    order: &[usize],
) -> io::Result<(Vec<Circuit>, Spans, f64, f64)> {
    let compiler = fresh_compiler(library);
    let hs = compiler.hs.clone();
    let cache = compiler.cache();
    let mut sp = Spans::default();
    let mut programs: HashMap<u128, Circuit> = HashMap::new();
    let mut outs = Vec::with_capacity(order.len());
    let (t_all, c_all) = (Instant::now(), cpu::process("self")?);
    for &i in order {
        let c = &suite[i];
        let key = timed(&mut sp.lookup, || c.content_hash());
        if let Some(hit) = timed(&mut sp.lookup, || programs.get(&key).cloned()) {
            sp.program_hits += 1;
            outs.push(hit);
            continue;
        }
        let t = timed(&mut sp.template, || {
            template_synthesis(c, &compiler.library)
        });
        let lowered = timed(&mut sp.lower, || t.lowered_to_cx());
        let mut fused = timed(&mut sp.fuse, || fuse_2q(&lowered));
        if hs.compacting {
            fused = timed(&mut sp.compact, || compact(&fused, &hs.compact));
            fused = timed(&mut sp.fuse, || fuse_2q(&fused));
        }
        let blocks = timed(&mut sp.partition, || partition_3q(&fused, &hs.partition));
        let mut out = Circuit::new(t.num_qubits());
        for b in &blocks {
            let count = b.count_2q();
            let mut synthesized = None;
            if count > hs.m_th && (2..=3).contains(&b.qubits.len()) {
                let target = timed(&mut sp.unitary, || b.unitary());
                let hits_before = cache.stats().synthesis.hits;
                let t0 = Instant::now();
                let syn =
                    cache.synthesize_if_shorter_cached(&target, b.qubits.len(), count, &hs.search);
                let d = t0.elapsed();
                if cache.stats().synthesis.hits > hits_before {
                    sp.hit += d;
                    sp.hits += 1;
                } else if let Some(s) = syn.as_ref() {
                    sp.win += d;
                    sp.wins += 1;
                    sp.gates_saved += count.saturating_sub(s.blocks.len()) as u64;
                } else {
                    sp.fail += d;
                    sp.fails += 1;
                }
                synthesized = Some(syn);
            }
            timed(&mut sp.emit, || {
                match synthesized.as_deref().and_then(Option::as_ref) {
                    Some(syn) => {
                        for ((la, lb), m) in &syn.blocks {
                            out.push(Gate::Su4(b.qubits[*la], b.qubits[*lb], Box::new(m.clone())));
                        }
                    }
                    None => {
                        for g in &b.gates {
                            out.push(g.clone());
                        }
                    }
                }
            });
        }
        let out = timed(&mut sp.fuse, || fuse_2q(&out));
        programs.insert(key, out.clone());
        outs.push(out);
    }
    let cpu_s = cpu::process("self")?.own_s - c_all.own_s;
    Ok((outs, sp, t_all.elapsed().as_secs_f64(), cpu_s))
}

/// Publishes a replay's pass and synthesis spans, unless it diverged,
/// and says whether it did not: `expected` are the content hashes of
/// what the workload's compiles returned, `replayed` what the replay
/// built. `overhead_s` is the replay's time minus the workload's own
/// compile time.
pub fn report_passes(
    r: &mut Report,
    expected: &[u128],
    replayed: &[Circuit],
    sp: &Spans,
    traced_s: f64,
    overhead_s: f64,
) -> bool {
    let matched = expected
        .iter()
        .zip(replayed)
        .filter(|(&h, out)| h == out.content_hash())
        .count();
    r.metric("replay.cold_matched", matched as f64, "count");
    if matched != expected.len() {
        // The replay no longer follows `Compiler::compile`: its spans
        // would time a different program, so they read 0.
        eprintln!(
            "# replay matched {matched}/{} compile outputs; pass metrics unavailable",
            expected.len()
        );
        return false;
    }
    let secs = |d: Duration| d.as_secs_f64();
    r.metric("pass.template_s", secs(sp.template), "s");
    r.metric("pass.lower_s", secs(sp.lower), "s");
    r.metric("pass.fuse_s", secs(sp.fuse), "s");
    r.metric("pass.compact_s", secs(sp.compact), "s");
    r.metric("pass.partition_s", secs(sp.partition), "s");
    r.metric("pass.emit_s", secs(sp.emit), "s");
    r.metric("program.lookup_s", secs(sp.lookup), "s");
    r.metric("synth.unitary_s", secs(sp.unitary), "s");
    r.metric("synth.win_s", secs(sp.win), "s");
    r.metric("synth.fail_s", secs(sp.fail), "s");
    r.metric("synth.hit_s", secs(sp.hit), "s");
    let searches = sp.wins + sp.fails;
    r.metric("synth.searches", searches as f64, "count");
    r.metric("synth.fails", sp.fails as f64, "count");
    r.metric("synth.hits", sp.hits as f64, "count");
    r.metric(
        "synth.win_ratio",
        sp.wins as f64 / searches.max(1) as f64,
        "ratio",
    );
    r.metric("synth.gates_saved", sp.gates_saved as f64, "count");
    r.metric("program.hits", sp.program_hits as f64, "count");
    r.metric("trace.overhead_s", overhead_s, "s");
    // Share of the replay's wall time the pass and synthesis spans cover.
    r.metric("trace.coverage", secs(sp.total()) / traced_s, "ratio");
    true
}
