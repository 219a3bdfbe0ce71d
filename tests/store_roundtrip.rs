//! Round-trip and corruption-tolerance tests for the durable tier, the
//! shared segment file: a bulk publish followed by a seed must be
//! bit-faithful (a re-published copy holds identical records, and warm
//! compiles, a two-worker batch included, are pure hits equal to the
//! cold ones), every flavour of bad
//! file must degrade to an accounted recovery that serves only intact
//! entries, concurrent publishers must never tear an entry, and offline
//! compaction must drop exactly the entries no process referenced.

use proptest::prelude::*;
use reqisc::benchsuite::{generators, mini_suite};
use reqisc::compiler::{
    probe_shared_program, publish_all, seed_from_segment, seed_subprogram_pools, Compiler,
    Pipeline, STORE_FORMAT_VERSION,
};
use reqisc::qcircuit::{Circuit, Gate};
use reqisc::qsim::{circuit_unitary, process_infidelity};
use reqisc_shmem::layout::{
    MIN_CAPACITY, OFF_INDEX, OFF_LOG_START, OFF_RESERVE, OFF_SLOTS, SEG_HEADER_LEN,
    SEG_SLOT_BYTES, SLOT_TOMBSTONE,
};
use reqisc_shmem::{compact_file, Segment};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A segment path unique to this process and call, with no file yet.
fn scratch_segment(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "reqisc-store-test-{}-{}-{}.seg",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn attach(path: &Path) -> Segment {
    Segment::attach(path, MIN_CAPACITY, STORE_FORMAT_VERSION).expect("attach")
}

/// A compiler with the reduced-but-exact search budget the other
/// integration suites use. The tests need many *fresh caches*, not many
/// template libraries, so the (expensive, immutable) library is
/// pre-synthesized once and cloned in.
fn small_compiler() -> Compiler {
    use std::sync::OnceLock;
    static LIB: OnceLock<reqisc::synthesis::TemplateLibrary> = OnceLock::new();
    let mut c = Compiler::new_with_library(
        LIB.get_or_init(|| {
            let mut search = reqisc::synthesis::SearchOptions::default();
            search.sweep.restarts = 3;
            reqisc::synthesis::TemplateLibrary::builtin(&search)
        })
        .clone(),
    );
    c.hs.search.sweep.restarts = 2;
    c.hs.search.sweep.max_sweeps = 150;
    c
}

/// A compiler with an empty template library, for reading pools back:
/// [`Compiler::lookup_program`] takes the options fingerprint explicitly.
fn reader() -> Compiler {
    Compiler::new_with_library(reqisc::synthesis::TemplateLibrary::default())
}

fn toffoli_chain() -> Circuit {
    let mut c = Circuit::new(4);
    c.push(Gate::Ccx(0, 1, 2));
    c.push(Gate::Cx(2, 3));
    c.push(Gate::Ccx(1, 2, 3));
    c.push(Gate::H(0));
    c.push(Gate::Ccx(0, 1, 3));
    c
}

/// Every record of `seg`, keyed by (pool, key bytes).
type Records = BTreeMap<(u8, Vec<u8>), Vec<u8>>;

fn records(seg: &Segment) -> Records {
    let mut out = Records::new();
    seg.for_each(|pool, key, val, _stamp| {
        out.insert((pool, key.to_vec()), val.to_vec());
    });
    out
}

#[test]
fn save_load_roundtrip_bit_identical_pools_and_warm_compiles() {
    let path = scratch_segment("roundtrip");
    let cold = small_compiler();
    let program = toffoli_chain();
    let out_full = cold.compile(&program, Pipeline::ReqiscFull);
    let out_eff = cold.compile(&program, Pipeline::ReqiscEff);
    // A whole workload too: one program per category through both ReQISC
    // pipelines, fanned over two workers.
    let suite = mini_suite();
    let jobs: Vec<(&Circuit, Pipeline)> = suite
        .iter()
        .flat_map(|b| [(&b.circuit, Pipeline::ReqiscEff), (&b.circuit, Pipeline::ReqiscFull)])
        .collect();
    let cold_batch = cold.compile_batch(&jobs, 2);
    let seg = attach(&path);
    assert_eq!(seg.entries(), 0, "no file yet: a fresh segment");
    let published = publish_all(&seg, cold.cache());
    assert_eq!(published.full_rejects, 0, "the segment must hold the whole workload");
    let n = published.published as usize;
    assert!(n >= 3, "programs + synthesis entries, got {n}");
    assert_eq!(seg.entries() as usize, n);
    drop(seg);

    // A fresh compiler with identical options warm-starts from the file.
    let seg = attach(&path);
    let r = seg.recovery();
    assert!(r.ran && !r.reinitialized && r.live_entries as usize == n, "{r:?}");
    let warm = small_compiler();
    assert_eq!(seed_from_segment(&seg, warm.cache()), n);
    assert_eq!(warm.cache().len(), n, "every compiled program and dense block");

    // Bit-identical pool keys and values: publishing the seeded cache
    // into a second segment reproduces every record byte for byte.
    let path2 = scratch_segment("republish");
    let seg2 = attach(&path2);
    assert_eq!(publish_all(&seg2, warm.cache()).published as usize, n);
    assert_eq!(records(&seg), records(&seg2), "round-trip must preserve every pool bit-for-bit");

    // Disk-warm compiles are pure program-pool hits, bit-identical to the
    // cold results and unitarily equivalent to the source.
    let warm_full = warm.compile(&program, Pipeline::ReqiscFull);
    let warm_eff = warm.compile(&program, Pipeline::ReqiscEff);
    assert_eq!(warm_full, out_full);
    assert_eq!(warm_eff, out_eff);
    let s = warm.cache_stats().programs;
    assert_eq!((s.hits, s.misses), (2, 0), "disk-warm compiles must be pure hits: {s}");
    let inf = process_infidelity(&circuit_unitary(&warm_full), &circuit_unitary(&program.lowered_to_cx()));
    assert!(inf < 1e-6, "warm result not equivalent to source: {inf}");

    // The re-attached file warms the whole two-worker batch: every job is
    // a program-pool hit, none is compiled again, and every output equals
    // the cold batch's.
    let warm_batch = warm.compile_batch(&jobs, 2);
    assert_eq!(warm_batch, cold_batch, "disk-warm batch diverged from the cold batch");
    let s = warm.cache_stats().programs;
    assert_eq!((s.hits - 2, s.misses), (34, 0), "disk-warm batch must be pure hits: {s}");

    drop((seg, seg2));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&path2);
}

/// What a populated segment file holds, for the corruption checks.
struct Published {
    /// Every record, bit for bit.
    records: Records,
    /// Each compiled program's key parts and its output.
    programs: Vec<((u128, Pipeline, u128), Circuit)>,
}

/// Attaches `path` exclusively after its bytes were damaged and checks
/// the three recovery promises:
///
/// * the attach returns — reinitialized, scrubbed, or an error — and
///   never panics;
/// * `seed_from_segment` and `probe_shared_program` return only entries
///   bit-identical to what was published, also after a new append;
/// * every entry the file held that the attach did not keep is counted:
///   a reinitialized segment keeps none, and a scrubbed one accounts
///   for each as live, dropped or a stale claim.
///
/// `held` is how many entries the damaged file still claims to hold.
/// Returns the entries that survived.
fn check_recovery(path: &Path, published: &Published, held: usize, case: &str) -> usize {
    let seg = match Segment::attach(path, MIN_CAPACITY, STORE_FORMAT_VERSION) {
        Ok(seg) => seg,
        Err(e) => {
            // An attach that gives up must say why; nothing was served.
            assert!(!e.to_string().is_empty(), "{case}");
            return 0;
        }
    };
    let r = seg.recovery();
    assert!(r.ran, "{case}: an exclusive attach always recovers");
    let check_entries = |seg: &Segment| -> usize {
        let visible = records(seg);
        for (key, val) in &visible {
            assert_eq!(published.records.get(key), Some(val), "{case}: a record changed");
        }
        let fresh = reader();
        assert_eq!(seed_from_segment(seg, fresh.cache()), visible.len(), "{case}: seed count");
        let probe_cache = reader();
        for ((h, p, fp), out) in &published.programs {
            match probe_shared_program(seg, probe_cache.cache(), *h, *p, *fp) {
                Some(hit) => {
                    assert_eq!(hit.circuit(), out, "{case}: a probed program changed");
                    let seeded = fresh.lookup_program(*h, *p, *fp).expect("probed but not seeded");
                    assert_eq!(seeded.circuit(), out, "{case}: a seeded program changed");
                    let (a, b) = (hit.reply(), seeded.reply());
                    assert_eq!(a.fingerprint, out.content_hash(), "{case}");
                    assert_eq!(
                        (a.fingerprint, a.metrics.count_2q, a.metrics.depth_2q, a.metrics.duration.to_bits()),
                        (b.fingerprint, b.metrics.count_2q, b.metrics.depth_2q, b.metrics.duration.to_bits()),
                        "{case}: reply records differ"
                    );
                }
                None => assert!(fresh.lookup_program(*h, *p, *fp).is_none(), "{case}"),
            }
        }
        visible.len()
    };
    let kept = check_entries(&seg);
    if r.reinitialized {
        assert_eq!(kept, 0, "{case}: a reinitialized segment serves nothing");
    } else {
        assert_eq!(r.live_entries as usize, kept, "{case}: live count");
        assert_eq!(
            kept + (r.dropped_records + r.stale_claims) as usize,
            held,
            "{case}: a dropped entry went uncounted ({r:?})"
        );
    }
    // The recovered segment takes appends without disturbing what it
    // kept (a damaged append cursor must not overwrite a live record).
    seg.publish(200, b"appended after recovery", &[7u8; 300]);
    let mut extra = Records::new();
    seg.for_each(|pool, key, val, _| {
        if pool == 200 {
            extra.insert((pool, key.to_vec()), val.to_vec());
        }
    });
    assert_eq!(extra.len(), 1, "{case}: the append is visible");
    let again: Records = records(&seg).into_iter().filter(|((p, _), _)| *p != 200).collect();
    assert_eq!(again.len(), kept, "{case}: an append lost a live entry");
    for (key, val) in &again {
        assert_eq!(published.records.get(key), Some(val), "{case}: an append tore a record");
    }
    kept
}

#[test]
fn corrupt_stale_and_truncated_files_cold_start_with_counted_rejections() {
    let path = scratch_segment("corrupt");
    let comp = small_compiler();
    let program = toffoli_chain();
    let out = comp.compile(&program, Pipeline::ReqiscFull);
    let seg = attach(&path);
    let n = publish_all(&seg, comp.cache()).published as usize;
    let published = Published {
        records: records(&seg),
        programs: vec![(
            (program.content_hash(), Pipeline::ReqiscFull, comp.options_fingerprint()),
            out,
        )],
    };
    assert_eq!(published.records.len(), n);
    drop(seg);
    let good = std::fs::read(&path).expect("read");
    let u64_at = |off: u64| u64::from_le_bytes(good[off as usize..off as usize + 8].try_into().unwrap());
    let (log_start, reserve) = (u64_at(OFF_LOG_START), u64_at(OFF_RESERVE));
    let first_record = log_start as usize + 32;

    // The eight shapes of a bad file. An empty file is a new segment
    // (it holds nothing to recover); every other header damage
    // reinitializes; a flipped record byte drops that one entry.
    let cases: Vec<(&str, Vec<u8>, usize)> = vec![
        ("empty file", Vec::new(), 0),
        ("short garbage", b"not a segment".to_vec(), n),
        ("truncated header", good[..16].to_vec(), n),
        ("truncated payload", good[..good.len() - 7].to_vec(), n),
        ("bad magic", {
            let mut b = good.clone();
            b[0] ^= 0xff;
            b
        }, n),
        ("wrong version", {
            let mut b = good.clone();
            b[8] = b[8].wrapping_add(1);
            b
        }, n),
        ("flipped payload byte", {
            let mut b = good.clone();
            b[first_record] ^= 0x01;
            b
        }, n),
        ("trailing garbage", {
            let mut b = good.clone();
            b.extend_from_slice(b"xx");
            b
        }, n),
    ];
    for (name, bytes, held) in &cases {
        std::fs::write(&path, bytes).expect("write corrupt file");
        let kept = check_recovery(&path, &published, *held, name);
        let expected = if *name == "flipped payload byte" { n - 1 } else { 0 };
        assert_eq!(kept, expected, "{name}");
    }

    // A single-byte flip anywhere that matters: every header byte,
    // every occupied index slot, every record byte.
    let slots = u64_at(OFF_SLOTS);
    let mut offsets: Vec<usize> = (0..SEG_HEADER_LEN as usize).collect();
    for i in 0..slots {
        let slot = OFF_INDEX + i * SEG_SLOT_BYTES;
        if u64_at(slot) > SLOT_TOMBSTONE {
            offsets.extend(slot as usize..(slot + SEG_SLOT_BYTES) as usize);
        }
    }
    offsets.extend(log_start as usize..reserve as usize);
    let mut survived = 0;
    for &at in &offsets {
        let mut bytes = good.clone();
        bytes[at] ^= 0xa5;
        std::fs::write(&path, &bytes).expect("write flipped file");
        survived += check_recovery(&path, &published, n, &format!("byte {at} flipped"));
    }
    assert!(survived > 0 && survived < n * offsets.len(), "{survived} of {}", n * offsets.len());

    // The good bytes still load whole: the file, not the reader, was
    // the problem.
    std::fs::write(&path, &good).expect("restore");
    assert_eq!(check_recovery(&path, &published, n, "restored"), n);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrent_publishers_into_one_segment_never_tear() {
    let path = scratch_segment("race");
    // Two "processes" (two threads with independent caches and segment
    // handles on one file) publish interleaved with seeding readers.
    let programs: Vec<_> = (0..4).map(|s| generators::reversible_network(3, 6, s)).collect();
    let outputs: Vec<Vec<Circuit>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (path, programs) = (&path, &programs);
                scope.spawn(move || {
                    let comp = small_compiler();
                    let outs = vec![
                        comp.compile(&programs[t], Pipeline::ReqiscEff),
                        comp.compile(&programs[t + 2], Pipeline::Qiskit),
                    ];
                    let seg = attach(path);
                    for _ in 0..6 {
                        let s = publish_all(&seg, comp.cache());
                        assert_eq!(s.full_rejects, 0);
                        // Interleaved readers see only whole entries: every
                        // record decodes (a torn one would fail its checksum
                        // and vanish, and the seed count would fall short).
                        let visible = records(&seg).len();
                        assert!(seed_from_segment(&seg, reader().cache()) >= visible);
                    }
                    outs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("publisher")).collect()
    });
    // The final segment holds *both* writers' programs, each bit-identical
    // to what its writer compiled.
    let seg = attach(&path);
    let r = seg.recovery();
    assert!(!r.reinitialized && r.dropped_records + r.stale_claims == 0, "{r:?}");
    let check = small_compiler();
    let fp = check.options_fingerprint();
    for (t, outs) in outputs.iter().enumerate() {
        for (program, pipeline, out) in [
            (&programs[t], Pipeline::ReqiscEff, &outs[0]),
            (&programs[t + 2], Pipeline::Qiskit, &outs[1]),
        ] {
            let hit = probe_shared_program(&seg, check.cache(), program.content_hash(), pipeline, fp)
                .expect("both writers' programs are in the segment");
            assert_eq!(hit.circuit(), out);
        }
    }
    drop(seg);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compaction_ages_out_unreferenced_entries_and_preserves_results() {
    let path = scratch_segment("compact");
    let p1 = toffoli_chain();
    let p2 = {
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        c.push(Gate::H(1));
        c
    };
    // Process 1: compile both, publish (every entry at one generation).
    let a = small_compiler();
    let out1 = a.compile(&p1, Pipeline::ReqiscEff);
    let out2 = a.compile(&p2, Pipeline::Qiskit);
    let seg = attach(&path);
    let n_full = publish_all(&seg, a.cache()).published;
    let used_full = seg.bytes_used();
    drop(seg);

    // A bulk pass never drops anything: a process that seeds and uses
    // *nothing* finds every entry in place (they only age).
    let idle = small_compiler();
    let seg = attach(&path);
    seed_from_segment(&seg, idle.cache());
    let s = publish_all(&seg, idle.cache());
    assert_eq!((s.published, s.duplicates), (0, n_full), "passes only age, never drop");
    drop(seg);

    // Likewise a compaction whose idle window covers the whole history.
    let o = compact_file(&path, MIN_CAPACITY, STORE_FORMAT_VERSION, 10).expect("lax compact");
    assert_eq!((o.kept, o.dropped), (n_full, 0), "everything is within the idle window");

    // Process 2: seed, reference only p1's program entry, run a pass, and
    // compact with a zero idle window — everything unreferenced is dead.
    let b = small_compiler();
    let seg = attach(&path);
    seed_from_segment(&seg, b.cache());
    assert_eq!(b.compile(&p1, Pipeline::ReqiscEff), out1);
    publish_all(&seg, b.cache());
    drop(seg);
    let o = compact_file(&path, MIN_CAPACITY, STORE_FORMAT_VERSION, 0).expect("compact");
    assert_eq!(o.kept, 1, "only the referenced entry survives: {o:?}");
    assert_eq!(o.kept + o.dropped, n_full);
    let seg = attach(&path);
    assert!(seg.bytes_used() < used_full, "compaction must shrink the log");

    // Process 3: the compacted segment still warm-serves what it kept,
    // and a dropped entry recomputes bit-identically — GC changes cost,
    // never results.
    let c = small_compiler();
    assert_eq!(seed_from_segment(&seg, c.cache()), 1);
    assert_eq!(c.compile(&p1, Pipeline::ReqiscEff), out1);
    assert_eq!(c.cache_stats().programs.hits, 1, "kept entry is a pure hit");
    assert_eq!(c.compile(&p2, Pipeline::Qiskit), out2, "dropped entry recomputes identically");
    assert_eq!(c.cache_stats().programs.misses, 1);
    drop(seg);
    let _ = std::fs::remove_file(&path);
}

/// The re-stamp rule of a bulk pass: a seeded synthesis entry that only
/// a cold solve hits — in the local pool, where the segment never sees
/// the hit — stays fresh, while a seeded entry nothing references ages
/// out.
#[test]
fn a_bulk_pass_restamps_entries_hit_only_in_the_local_pool() {
    let path = scratch_segment("restamp");
    let hit = toffoli_chain();
    let idle = {
        let mut c = Circuit::new(3);
        for (i, angle) in [0.31, 0.47, 0.59, 0.73].into_iter().enumerate() {
            c.push(Gate::Cx(i % 3, (i + 1) % 3));
            c.push(Gate::Rz((i + 2) % 3, angle));
            c.push(Gate::Cx((i + 2) % 3, i % 3));
        }
        c
    };
    let p = Pipeline::ReqiscFull;
    // Process 1 compiles both programs and publishes their program and
    // synthesis entries.
    let first = small_compiler();
    let (hit_out, idle_out) = (first.compile(&hit, p), first.compile(&idle, p));
    let seg = attach(&path);
    publish_all(&seg, first.cache());
    drop(seg);

    // Process 2 is a daemon at startup: it seeds the synthesis pool only,
    // then solves `hit` cold. Every block it needs is a local hit.
    let second = small_compiler();
    let seg = attach(&path);
    assert!(seed_subprogram_pools(&seg, second.cache()) > 0);
    assert_eq!(second.compile(&hit, p), hit_out);
    let s = second.cache_stats();
    assert_eq!(s.programs.misses, 1, "a cold solve");
    assert!(s.synthesis.hits > 0 && s.synthesis.misses == 0, "local synthesis hits: {s}");
    publish_all(&seg, second.cache());
    publish_all(&seg, second.cache());
    drop(seg);

    // One generation of slack keeps what the last passes re-stamped and
    // drops what nothing referenced: `idle`'s program and blocks.
    let o = compact_file(&path, MIN_CAPACITY, STORE_FORMAT_VERSION, 1).expect("compact");
    assert!(o.dropped >= 2, "the unreferenced entries must age out: {o:?}");
    let seg = attach(&path);
    let third = small_compiler();
    seed_subprogram_pools(&seg, third.cache());
    assert_eq!(third.compile(&hit, p), hit_out);
    assert_eq!(third.cache_stats().synthesis.misses, 0, "the hit blocks were kept");
    let fourth = small_compiler();
    seed_from_segment(&seg, fourth.cache());
    assert_eq!(fourth.compile(&idle, p), idle_out, "dropped entries recompile identically");
    let s = fourth.cache_stats();
    assert_eq!(s.programs.misses, 1, "the idle program was dropped");
    assert!(s.synthesis.misses > 0, "the idle blocks were dropped: {s}");
    drop(seg);
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property round-trip: for random programs and SU(4)-emitting
    /// pipelines, a disk-warm compile in a fresh process-alike compiler
    /// is bit-identical to the cold result that was published.
    #[test]
    fn disk_warm_compile_equals_cold_compile(seed in 0u64..1_000_000, pick in 0usize..3, n in 3usize..5, gates in 4usize..8) {
        let path = scratch_segment("prop");
        let p = [Pipeline::ReqiscEff, Pipeline::ReqiscFull, Pipeline::BqskitSu4][pick];
        let c = generators::reversible_network(n, gates, seed);
        let cold = small_compiler();
        let cold_out = cold.compile(&c, p);
        let seg = attach(&path);
        publish_all(&seg, cold.cache());
        drop(seg);
        let warm = small_compiler();
        let seg = attach(&path);
        prop_assert!(seed_from_segment(&seg, warm.cache()) > 0);
        let warm_out = warm.compile(&c, p);
        prop_assert_eq!(&warm_out, &cold_out, "disk-warm diverged from cold (pipeline {})", p.name());
        let s = warm.cache_stats().programs;
        prop_assert_eq!((s.hits, s.misses), (1, 0), "not a pure program-pool hit");
        drop(seg);
        let _ = std::fs::remove_file(&path);
    }
}
