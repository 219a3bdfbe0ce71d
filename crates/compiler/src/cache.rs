//! The compilation service layer's cache: content-addressed memo tables
//! shared by every worker of a [`crate::pipelines::Compiler`] batch run.
//!
//! Two pools, both built on the crate's sharded read-mostly map (the
//! private `pool` module):
//!
//! * **programs** — whole-pipeline results keyed by (circuit content
//!   hash, pipeline, compiler-options fingerprint). A warm hit returns a
//!   finished [`Program`] without touching the synthesis stack at all;
//!   the entry also carries the output's reply record, priced once per
//!   entry and carried through the shared segment with it.
//! * **synthesis** — per-block [`synthesize_if_shorter`] results keyed by
//!   (target-unitary content hash, width, block budget, search-options
//!   fingerprint). Repeated 3Q subprograms — Toffoli/MAJ/UMA blocks
//!   appear hundreds of times across a benchsuite — synthesize once.
//!   Failures (`None`) are cached too: proving "no shorter realization"
//!   is the *most* expensive outcome.
//!
//! Both keys are *exact* content hashes: deterministic pipelines
//! reproduce inputs bit-for-bit, and an exact key can never alias two
//! different computations. The pools live in memory; the shared segment
//! ([`crate::sharing`]) is their durable tier.

use reqisc_microarch::Coupling;
use reqisc_qcircuit::Circuit;
use reqisc_qmath::{CMat, Fnv128};
use reqisc_synthesis::{synthesize_if_shorter, BlockCircuit, SearchOptions};
use std::sync::{Arc, OnceLock};

use crate::pipelines::{metrics, Metrics, Pipeline};
use crate::pool::{CacheStats, ShardedMap};

// Shared-segment records carry reply records priced under this coupling,
// so changing the coupling or the record's fields without a
// STORE_FORMAT_VERSION bump would let peers serve stale metrics.
// lint:store-surface-begin
/// The coupling compile replies are priced under: the evaluation's XY
/// coupling at unit strength (§6.1.1). [`Program::reply`] prices with it,
/// and so does the service's recomputing reference, `Service::metrics`.
pub fn reply_coupling() -> Coupling {
    Coupling::xy(1.0)
}

/// What a compile reply reports about a compiled circuit: its content
/// hash and its §6.1.1 metrics under [`reply_coupling`]. Both are pure
/// functions of the circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplyRecord {
    /// [`Circuit::content_hash`] of the compiled circuit.
    pub fingerprint: u128,
    /// [`metrics`] of the compiled circuit under [`reply_coupling`].
    pub metrics: Metrics,
}

impl ReplyRecord {
    /// Prices `circuit`: one content hash and one [`metrics`] pass.
    pub(crate) fn price(circuit: &Circuit) -> Self {
        Self { fingerprint: circuit.content_hash(), metrics: metrics(circuit, &reply_coupling()) }
    }
}
// lint:store-surface-end

/// One whole-program pool entry: a compiled circuit and its reply record.
///
/// The record is priced at most once per entry, by the first
/// [`Program::reply`] call, never when a compile or lookup creates the
/// entry. The service's solve worker prices each entry it compiles,
/// before publishing it, and the shared segment carries the record, so
/// an entry decoded from the segment arrives priced. The record lives
/// and dies with the entry: an LRU eviction drops it from the pool, and
/// a segment compaction that drops the entry drops its record too.
/// Derefs to the circuit.
#[derive(Debug)]
pub struct Program {
    circuit: Circuit,
    reply: OnceLock<ReplyRecord>,
}

impl Program {
    /// An entry for `circuit`, its reply record not yet priced. The
    /// gate list is shrunk to its length: an entry may live as long as
    /// the pool, and a pipeline's output carries its growth slack.
    pub fn new(mut circuit: Circuit) -> Self {
        circuit.shrink_to_fit();
        Self { circuit, reply: OnceLock::new() }
    }

    /// An entry for `circuit` whose reply record is already known: the
    /// one a shared-segment record carries, priced by its publisher.
    pub(crate) fn with_reply(circuit: Circuit, reply: ReplyRecord) -> Self {
        Self { reply: OnceLock::from(reply), ..Self::new(circuit) }
    }

    /// The compiled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The reply record, priced on the first call (one content hash and
    /// one [`metrics`] pass) and read back on every later one.
    pub fn reply(&self) -> &ReplyRecord {
        self.reply.get_or_init(|| ReplyRecord::price(&self.circuit))
    }

    /// The reply record if some reply has already priced it.
    #[cfg(test)]
    pub(crate) fn priced(&self) -> Option<&ReplyRecord> {
        self.reply.get()
    }
}

impl std::ops::Deref for Program {
    type Target = Circuit;

    fn deref(&self) -> &Circuit {
        &self.circuit
    }
}

/// Key of one memoized whole-program compilation. Built once per
/// `compile` call (hashing the circuit is a full pass over its gates)
/// and reused for both the lookup and the fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ProgramKey {
    pub(crate) circuit: u128,
    pub(crate) pipeline: Pipeline,
    pub(crate) options: u128,
}

impl ProgramKey {
    pub(crate) fn new(circuit: &Circuit, pipeline: Pipeline, options_fp: u128) -> Self {
        Self { circuit: circuit.content_hash(), pipeline, options: options_fp }
    }
}

/// Key of one memoized block-synthesis attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SynthKey {
    pub(crate) target: u128,
    pub(crate) num_qubits: usize,
    pub(crate) budget: usize,
    pub(crate) options: u128,
}

/// Aggregated snapshot over the cache's pools.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCacheStats {
    /// Whole-program pool.
    pub programs: CacheStats,
    /// Block-synthesis pool.
    pub synthesis: CacheStats,
}

impl std::fmt::Display for CompileCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "programs: {}\nsynthesis: {}", self.programs, self.synthesis)
    }
}

/// The shared compilation cache. Every method takes `&self`; a single
/// instance is safely shared by reference across `std::thread::scope`
/// workers (reads are shard-read-lock only). The crate fills, probes,
/// seeds and exports the two pools directly.
#[derive(Debug, Default)]
pub struct CompileCache {
    pub(crate) programs: ShardedMap<ProgramKey, Arc<Program>>,
    pub(crate) synthesis: ShardedMap<SynthKey, Arc<Option<BlockCircuit>>>,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with an explicit shard count and per-shard entry
    /// capacity applied to both pools — the LRU-eviction knob. The
    /// default shape ([`CompileCache::new`]) is deliberately generous
    /// (16 × 1024 entries per pool, effectively unbounded for the demo
    /// suite); a bounded shape evicts least-recently-used entries once a
    /// shard fills, with [`CacheStats::evictions`] counting every
    /// displacement.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `shard_capacity` is zero.
    pub fn with_shape(shards: usize, shard_capacity: usize) -> Self {
        Self {
            programs: ShardedMap::with_shape(shards, shard_capacity),
            synthesis: ShardedMap::with_shape(shards, shard_capacity),
        }
    }

    /// Memoized [`synthesize_if_shorter`]: blocks with the same target
    /// unitary, width, and budget synthesize once per cache lifetime —
    /// workers that miss a block another worker is synthesizing wait for
    /// its result.
    pub fn synthesize_if_shorter_cached(
        &self,
        target: &CMat,
        num_qubits: usize,
        current_count: usize,
        opts: &SearchOptions,
    ) -> Arc<Option<BlockCircuit>> {
        // `synthesize_if_shorter` only depends on `current_count` through
        // the clamped block budget; folding the clamp into the key lets
        // e.g. 7- and 9-gate blocks with the same target share an entry.
        let budget = opts.max_blocks.min(current_count.saturating_sub(1));
        if budget == 0 {
            // Degenerate budgets short-circuit inside the search; not
            // worth a cache slot.
            return Arc::new(synthesize_if_shorter(target, num_qubits, current_count, opts));
        }
        let key = SynthKey {
            target: target.fingerprint(),
            num_qubits,
            budget,
            options: opts.fingerprint(),
        };
        self.synthesis.get_or_insert_with(&key, || {
            Arc::new(synthesize_if_shorter(target, num_qubits, current_count, opts))
        })
    }

    /// Counter snapshot across both pools.
    pub fn stats(&self) -> CompileCacheStats {
        CompileCacheStats { programs: self.programs.stats(), synthesis: self.synthesis.stats() }
    }

    /// Resident entries across both pools.
    pub fn len(&self) -> usize {
        self.programs.len() + self.synthesis.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fingerprint of everything in [`crate::hierarchical::HsOptions`] that
/// can change a compilation result. Hashing the `Debug` rendering keeps
/// the fingerprint automatically in sync with future option fields at the
/// cost of a small format per compile — noise next to any pipeline run.
pub(crate) fn hs_options_fingerprint(hs: &crate::hierarchical::HsOptions) -> u128 {
    let mut h = Fnv128::new();
    h.write_str(&format!("{hs:?}"));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipelines::Compiler;
    use crate::sharing::{probe_shared_program, publish_all, seed_from_segment};
    use reqisc_qcircuit::Gate;
    use reqisc_shmem::layout::MIN_CAPACITY;
    use reqisc_shmem::{compact_file, Segment};
    use reqisc_synthesis::TemplateLibrary;
    use std::path::PathBuf;

    /// An SU(4)-ISA pipeline that needs no template library, so its
    /// outputs exercise the KAK pricing without a library build.
    const SU4: Pipeline = Pipeline::QiskitSu4;

    fn bare_compiler(cache: CompileCache) -> Compiler {
        Compiler::new_with_library_and_cache(TemplateLibrary::default(), cache)
    }

    fn program(n: usize) -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        for i in 0..n {
            c.push(Gate::Cx(i % 3, (i + 1) % 3));
            c.push(Gate::H((i + 2) % 3));
        }
        c
    }

    fn scratch(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("reqisc-reply-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Every program-pool entry of `cache`, read without marking any used.
    fn entries(cache: &CompileCache) -> Vec<Arc<Program>> {
        let mut out = Vec::new();
        cache.programs.for_each_with_used(|_, v, _| out.push(v.clone()));
        out
    }

    /// A record's fields, the duration as its bits.
    fn bits(r: &ReplyRecord) -> (u128, usize, usize, u64) {
        (r.fingerprint, r.metrics.count_2q, r.metrics.depth_2q, r.metrics.duration.to_bits())
    }

    #[test]
    fn a_record_is_priced_once_and_travels_with_the_segment() {
        let comp = bare_compiler(CompileCache::new());
        let (c, fp) = (program(4), comp.options_fingerprint());
        let out = comp.compile(&c, SU4);
        let entry = comp.lookup_program(c.content_hash(), SU4, fp).expect("compiled entry");
        assert!(entry.priced().is_none(), "a cold compile does not price");
        assert_eq!(comp.compile(&c, SU4), out);
        let shared = comp.compile_program(&c, SU4);
        assert!(Arc::ptr_eq(&shared, &entry), "the Arc entry point returns the pool's entry");
        assert!(entry.priced().is_none(), "warm compiles and lookups do not price");

        // Publishing prices the source entry, once: a second pass finds
        // the record in place.
        let seg_path = scratch("seg");
        let seg = Segment::attach(&seg_path, MIN_CAPACITY, 7).expect("attach");
        assert_eq!(publish_all(&seg, comp.cache()).published, 1);
        let record = entry.priced().expect("publishing priced the entry");
        assert_eq!(publish_all(&seg, comp.cache()).duplicates, 1);
        assert!(std::ptr::eq(entry.reply(), record), "replies read the published record");

        // Segment seeds and probes return entries already priced, with
        // the publisher's record.
        let key = (c.content_hash(), SU4, fp);
        let from_seg = CompileCache::new();
        assert_eq!(seed_from_segment(&seg, &from_seg), 1);
        let probed = CompileCache::new();
        let hit = probe_shared_program(&seg, &probed, key.0, key.1, key.2).expect("segment hit");
        assert!(Arc::ptr_eq(&hit, &entries(&probed)[0]), "a probe returns the seeded entry");
        for (path, cache) in [("segment", &from_seg), ("probe", &probed)] {
            let seeded = entries(cache);
            assert_eq!(seeded.len(), 1, "{path}");
            assert_eq!(seeded[0].circuit(), &out, "{path}");
            let carried = seeded[0].priced().unwrap_or_else(|| panic!("{path} arrives priced"));
            assert_eq!(bits(carried), bits(record), "{path}");
        }

        // The record equals recomputation to the bit, and later hits
        // share it.
        let m = metrics(&out, &reply_coupling());
        assert_eq!(bits(record), (out.content_hash(), m.count_2q, m.depth_2q, m.duration.to_bits()));
        assert!(m.count_2q > 0, "the output has SU(4) gates to price");
        let again = comp.lookup_program(key.0, key.1, key.2).expect("entry");
        assert!(std::ptr::eq(again.reply(), record), "later hits share the record");
        drop(seg);
        let _ = std::fs::remove_file(&seg_path);
    }

    #[test]
    fn eviction_and_gc_drop_the_record_with_its_entry() {
        // LRU: a one-slot pool evicts the priced entry for the next one.
        let comp = bare_compiler(CompileCache::with_shape(1, 1));
        let priced = comp.compile_program(&program(2), SU4);
        priced.reply();
        let gone = Arc::downgrade(&priced);
        drop(priced);
        comp.compile_program(&program(3), SU4);
        assert_eq!(comp.cache_stats().programs.evictions, 1);
        assert!(gone.upgrade().is_none(), "the evicted entry took its record with it");
        let back = comp.compile_program(&program(2), SU4);
        assert!(back.priced().is_none(), "a recompiled entry starts unpriced");

        // GC: an entry that no process references ages out of the
        // segment on an offline compaction, record and all; a looked-up
        // one stays, with the record its publisher priced.
        let first = bare_compiler(CompileCache::new());
        let (idle, used) = (program(2), program(3));
        let (idle_out, used_out) = (first.compile(&idle, SU4), first.compile(&used, SU4));
        let path = scratch("gc");
        let seg = Segment::attach(&path, MIN_CAPACITY, 7).expect("attach");
        assert_eq!(publish_all(&seg, first.cache()).published, 2);
        let second = bare_compiler(CompileCache::new());
        assert_eq!(seed_from_segment(&seg, second.cache()), 2);
        let fp = second.options_fingerprint();
        let kept = second.lookup_program(used.content_hash(), SU4, fp).expect("seeded");
        publish_all(&seg, second.cache());
        drop(seg);
        let report = compact_file(&path, MIN_CAPACITY, 7, 0).expect("compact");
        assert_eq!((report.kept, report.dropped), (1, 1));
        let third = bare_compiler(CompileCache::new());
        let seg = Segment::attach(&path, MIN_CAPACITY, 7).expect("reattach");
        assert_eq!(seed_from_segment(&seg, third.cache()), 1);
        let survivor = third.lookup_program(used.content_hash(), SU4, fp).expect("kept");
        assert_eq!(survivor.circuit(), &used_out);
        assert_eq!(bits(survivor.priced().expect("kept with its record")), bits(kept.reply()));
        assert!(
            third.lookup_program(idle.content_hash(), SU4, fp).is_none(),
            "the collected entry took its record with it"
        );
        let again = third.compile_program(&idle, SU4);
        assert_eq!(again.circuit(), &idle_out, "a collected entry recompiles identically");
        assert!(again.priced().is_none(), "a recompiled entry starts unpriced");
        drop(seg);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn synthesis_pool_memoizes_including_failures() {
        let cache = CompileCache::new();
        let mut opts = SearchOptions::default();
        opts.sweep.restarts = 2;
        opts.sweep.max_sweeps = 150;
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        let target = c.unitary();
        let a = cache.synthesize_if_shorter_cached(&target, 3, 6, &opts);
        assert!(a.is_some(), "CCX must synthesize below 6 blocks");
        let b = cache.synthesize_if_shorter_cached(&target, 3, 6, &opts);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats().synthesis;
        assert_eq!((s.hits, s.misses), (1, 1));
        // current_count = 1 ⇒ budget 0 ⇒ uncached fast path, no lookup.
        let none = cache.synthesize_if_shorter_cached(&target, 3, 1, &opts);
        assert!(none.is_none());
        let s = cache.stats().synthesis;
        assert_eq!((s.hits, s.misses), (1, 1), "degenerate budgets bypass the cache");
    }

    #[test]
    fn synthesis_key_includes_budget_and_options() {
        let cache = CompileCache::new();
        let mut opts = SearchOptions::default();
        opts.sweep.restarts = 2;
        opts.sweep.max_sweeps = 150;
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        let target = c.unitary();
        cache.synthesize_if_shorter_cached(&target, 3, 6, &opts);
        // Same clamped budget (7 and 9 both clamp at max_blocks) shares.
        cache.synthesize_if_shorter_cached(&target, 3, 8, &opts);
        cache.synthesize_if_shorter_cached(&target, 3, 8, &opts);
        assert_eq!(cache.stats().synthesis.misses, 2, "budgets 5 and 7 are distinct");
        // Changing options misses.
        let mut opts2 = opts.clone();
        opts2.sweep.seed = 99;
        cache.synthesize_if_shorter_cached(&target, 3, 6, &opts2);
        assert_eq!(cache.stats().synthesis.misses, 3);
    }

    #[test]
    fn sharded_map_counts_hits_misses_inserts() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        assert_eq!(m.probe(&1), None, "an absent key counts nothing");
        assert_eq!(m.get_or_insert_with(&1, || 10), 10);
        assert_eq!(m.get_or_insert_with(&1, || 11), 10);
        assert_eq!(m.probe(&1), Some(10));
        assert_eq!(m.get_or_insert_with(&2, || 20), 20);
        let s = m.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions), (2, 2, 2, 0));
        assert_eq!(s.lookups(), 4);
        assert!(s.is_consistent());
    }

    #[test]
    fn sharded_map_evicts_at_capacity() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_shape(1, 4);
        for k in 0..10 {
            assert_eq!(m.get_or_insert_with(&k, || k), k);
        }
        assert_eq!(m.len(), 4);
        let s = m.stats();
        assert_eq!((s.misses, s.inserts, s.evictions), (10, 10, 6));
        assert!(s.is_consistent());
    }

    #[test]
    fn sharded_map_evicts_least_recently_used() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_shape(1, 2);
        m.get_or_insert_with(&1, || 10);
        m.get_or_insert_with(&2, || 20);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(m.get_or_insert_with(&1, || 11), 10);
        m.get_or_insert_with(&3, || 30);
        assert_eq!(m.probe(&2), None, "LRU entry must have been evicted");
        assert_eq!(m.probe(&1), Some(10));
        assert_eq!(m.probe(&3), Some(30));
        // Accounting stays exact under eviction: the evicted key's lookup
        // is an honest miss that recomputes (and evicts 1, now the LRU),
        // everything else honest hits.
        assert_eq!(m.get_or_insert_with(&2, || 21), 21);
        assert_eq!(m.probe(&1), None);
        let s = m.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions), (3, 4, 4, 2));
        assert!(s.is_consistent());
    }

    #[test]
    fn seeded_entries_are_coldest_victims_and_report_unused() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_shape(1, 3);
        m.seed(1, 10, false);
        m.seed(2, 20, false);
        assert_eq!(m.probe(&2), Some(20), "seeded entry serves as a hit");
        m.get_or_insert_with(&3, || 30);
        // At capacity: the never-used seed (key 1) is the victim, not the
        // seed a lookup touched and not the live fill.
        m.get_or_insert_with(&4, || 40);
        assert_eq!(m.probe(&1), None, "unused seed must be evicted first");
        assert_eq!(m.probe(&2), Some(20));
        assert_eq!(m.probe(&4), Some(40));
        let mut used = std::collections::BTreeMap::new();
        m.for_each_with_used(|k, _, u| {
            used.insert(*k, u);
        });
        assert_eq!(used.get(&2), Some(&true), "hit seed reports used");
        assert_eq!(used.get(&3), Some(&true), "live fill reports used");
        m.seed(5, 50, false);
        assert_eq!(m.probe(&5), None, "a full shard skips a new seed");
        // A used seed counts nothing but reports used, and the LRU
        // evicts a never-used seed before it.
        let m: ShardedMap<u64, u64> = ShardedMap::with_shape(1, 2);
        m.seed(1, 10, false);
        m.seed(2, 20, true);
        let mut used = Vec::new();
        m.for_each_with_used(|k, _, u| used.push((*k, u)));
        used.sort();
        assert_eq!(used, [(1, false), (2, true)]);
        m.get_or_insert_with(&3, || 30);
        assert_eq!(m.stats(), CacheStats { hits: 0, misses: 1, inserts: 1, evictions: 1 });
        assert_eq!(m.probe(&2), Some(20), "the used seed outranks the unused one");
        assert_eq!(m.probe(&1), None);
    }

    #[test]
    fn get_or_insert_with_memoizes() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        let mut calls = 0;
        let v = m.get_or_insert_with(&7, || {
            calls += 1;
            42
        });
        assert_eq!(v, 42);
        let v2 = m.get_or_insert_with(&7, || {
            calls += 1;
            99
        });
        assert_eq!(v2, 42, "second lookup must come from the cache");
        assert_eq!(calls, 1);
    }

    /// Eight threads released at once miss one key: one computes, seven
    /// wait for its result, and the counters say so exactly.
    #[test]
    fn concurrent_misses_of_one_key_compute_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        let runs = AtomicUsize::new(0);
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    let v = m.get_or_insert_with(&7, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        42
                    });
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "eight concurrent misses, one compute");
        assert_eq!(m.stats(), CacheStats { hits: 7, misses: 1, inserts: 1, evictions: 0 });
    }

    /// A slot being filled is absent to a probe and to the bulk walk,
    /// neither of which waits for it; a compute that panics leaves its
    /// slot empty, and the next caller computes.
    #[test]
    fn unfilled_slots_are_absent_and_a_panicked_compute_leaves_them_empty() {
        use std::sync::Barrier;
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.get_or_insert_with(&1, || panic!("compute failed"))
        }));
        assert!(failed.is_err());
        assert_eq!((m.probe(&1), m.len()), (None, 0), "the panicked fill left nothing");
        assert_eq!(m.get_or_insert_with(&1, || 10), 10, "the next caller computes");
        assert_eq!(m.stats(), CacheStats { hits: 0, misses: 1, inserts: 1, evictions: 0 });
        let (entered, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            let filler = scope.spawn(|| {
                m.get_or_insert_with(&2, || {
                    entered.wait();
                    release.wait();
                    20
                })
            });
            entered.wait();
            assert_eq!(m.probe(&2), None, "a probe never waits for a fill");
            let mut keys = Vec::new();
            m.for_each_with_used(|k, _, _| keys.push(*k));
            assert_eq!(keys, [1], "the bulk walk skips the unfilled slot");
            assert_eq!(m.len(), 1);
            release.wait();
            assert_eq!(filler.join().expect("filler"), 20);
        });
        assert_eq!(m.probe(&2), Some(20));
        assert_eq!(m.stats(), CacheStats { hits: 1, misses: 2, inserts: 2, evictions: 0 });
    }

    /// `fig13` prints this line, hit rate included; both the line and
    /// `hit_rate` are pinned here.
    #[test]
    fn cache_stats_display_and_hit_rate() {
        let s = CacheStats { hits: 3, misses: 1, inserts: 1, evictions: 0 };
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(s.to_string(), "3 hits / 4 lookups (75.0% hit rate), 1 inserts, 0 evictions");
        let s = CacheStats { hits: 2, misses: 1, inserts: 1, evictions: 1 };
        assert_eq!(s.to_string(), "2 hits / 3 lookups (66.7% hit rate), 1 inserts, 1 evictions");
        // Zero lookups read as a 0 % hit rate, never NaN.
        let empty = CacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
        assert_eq!(empty.to_string(), "0 hits / 0 lookups (0.0% hit rate), 0 inserts, 0 evictions");
    }
}
