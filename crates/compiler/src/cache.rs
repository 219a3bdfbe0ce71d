//! The compilation service layer's cache: content-addressed memo tables
//! shared by every worker of a [`crate::pipelines::Compiler`] batch run.
//!
//! Three pools, all built on the sharded read-mostly map of
//! [`reqisc_microarch::cache`]:
//!
//! * **programs** — whole-pipeline results keyed by (circuit content
//!   hash, pipeline, compiler-options fingerprint). A warm hit returns a
//!   finished [`Program`] without touching the synthesis stack at all;
//!   the entry also carries the output's reply record, priced once by
//!   the first reply that needs it.
//! * **synthesis** — per-block [`synthesize_if_shorter`] results keyed by
//!   (target-unitary content hash, width, block budget, search-options
//!   fingerprint). Repeated 3Q subprograms — Toffoli/MAJ/UMA blocks
//!   appear hundreds of times across a benchsuite — synthesize once.
//!   Failures (`None`) are cached too: proving "no shorter realization"
//!   is the *most* expensive outcome.
//! * **pulses** — the [`PulseCache`] solver hook, keyed by (coupling,
//!   SU(4) class at the 1e-5 grouping tolerance of
//!   [`reqisc_qmath::SU4_CLASS_TOL`]).
//!
//! Key-design note: program and synthesis keys use *exact* content
//! hashes (deterministic pipelines reproduce inputs bit-for-bit, and an
//! exact key can never alias two different computations), while the
//! pulse pool groups by quantized Weyl class because instruction
//! identity — not bit identity — is the paper's §5.3.1 calibration
//! contract.

use reqisc_microarch::cache::{CacheStats, PulseCache, ShardedMap, SolverStats};
use reqisc_microarch::Coupling;
use reqisc_qcircuit::Circuit;
use reqisc_qmath::{CMat, Fnv128};
use reqisc_synthesis::{synthesize_if_shorter, BlockCircuit, SearchOptions};
use std::sync::{Arc, OnceLock};

use crate::pipelines::{metrics, Metrics, Pipeline};

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

/// One whole-program pool entry: a compiled circuit and its reply record.
///
/// The record is priced by the first [`Program::reply`] call, never when
/// the entry is created, so compiles, lookups and warm starts that never
/// reply never pay for it. It lives and dies with the entry: an LRU
/// eviction or a store GC that drops the entry drops the record too.
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

    /// The compiled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The reply record, priced on the first call (one content hash and
    /// one [`metrics`] pass) and read back on every later one.
    pub fn reply(&self) -> &ReplyRecord {
        self.reply.get_or_init(|| ReplyRecord {
            fingerprint: self.circuit.content_hash(),
            metrics: metrics(&self.circuit, &reply_coupling()),
        })
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
    /// Pulse-solution pool.
    pub pulses: CacheStats,
    /// Cold-path EA-solver counters behind the pulse pool's misses (the
    /// boundary-curve solver's deterministic cost profile, aggregated).
    pub solver: SolverStats,
}

impl CompileCacheStats {
    /// Sum over all pools.
    pub fn total(&self) -> CacheStats {
        self.programs.merged(&self.synthesis).merged(&self.pulses)
    }
}

impl std::fmt::Display for CompileCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "programs: {}\nsynthesis: {}\npulses: {}\nsolver: {}",
            self.programs, self.synthesis, self.pulses, self.solver
        )
    }
}

/// The shared compilation cache. Every method takes `&self`; a single
/// instance is safely shared by reference across `std::thread::scope`
/// workers (reads are shard-read-lock only — see
/// [`reqisc_microarch::cache`]).
#[derive(Debug, Default)]
pub struct CompileCache {
    programs: ShardedMap<ProgramKey, Arc<Program>>,
    synthesis: ShardedMap<SynthKey, Arc<Option<BlockCircuit>>>,
    pulses: PulseCache,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with an explicit shard count and per-shard entry
    /// capacity applied to all three pools — the LRU-eviction knob. The
    /// default shape ([`CompileCache::new`]) is deliberately generous
    /// (16 × 1024 entries per pool, effectively unbounded for the demo
    /// suite); a bounded shape evicts least-recently-used entries once a
    /// shard fills, with [`reqisc_microarch::cache::CacheStats::evictions`]
    /// counting every displacement.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `shard_capacity` is zero.
    pub fn with_shape(shards: usize, shard_capacity: usize) -> Self {
        Self {
            programs: ShardedMap::with_shape(shards, shard_capacity),
            synthesis: ShardedMap::with_shape(shards, shard_capacity),
            pulses: PulseCache::with_shape(shards, shard_capacity),
        }
    }

    /// Looks up a memoized whole-program compilation.
    pub(crate) fn get_program(&self, key: &ProgramKey) -> Option<Arc<Program>> {
        self.programs.get(key)
    }

    /// Hit-only-counted lookup of a memoized whole-program compilation
    /// (see [`ShardedMap::probe`]): a present entry counts a hit and
    /// returns; an absent one counts nothing, leaving the miss to the
    /// eventual [`Compiler::compile`](crate::Compiler::compile) that does
    /// the cold work. The service's submission probe is the caller.
    pub(crate) fn probe_program(&self, key: &ProgramKey) -> Option<Arc<Program>> {
        self.programs.probe(key)
    }

    /// Stores a finished whole-program compilation.
    pub(crate) fn put_program(&self, key: ProgramKey, out: Arc<Program>) {
        self.programs.insert(key, out);
    }

    /// Memoized [`synthesize_if_shorter`]: blocks with the same target
    /// unitary, width, and budget synthesize once per cache lifetime.
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

    /// The microarchitecture solver hook: memoized pulse solutions per
    /// (coupling, SU(4) class).
    pub fn pulses(&self) -> &PulseCache {
        &self.pulses
    }

    /// Exports the whole-program pool for a persistent-store save; the
    /// trailing flag is `true` for entries a live lookup or insert touched
    /// (`false` = bulk-seeded and never served — GC-aging candidates).
    pub(crate) fn export_programs(&self) -> Vec<(ProgramKey, Arc<Program>, bool)> {
        let mut out = Vec::new();
        self.programs.for_each_with_used(|k, v, used| out.push((*k, v.clone(), used)));
        out
    }

    /// Exports the block-synthesis pool for a persistent-store save (same
    /// used-flag contract as [`CompileCache::export_programs`]).
    pub(crate) fn export_synthesis(&self) -> Vec<(SynthKey, Arc<Option<BlockCircuit>>, bool)> {
        let mut out = Vec::new();
        self.synthesis.for_each_with_used(|k, v, used| out.push((*k, v.clone(), used)));
        out
    }

    /// Removes one whole-program entry (the store GC's in-memory purge).
    pub(crate) fn remove_program(&self, key: &ProgramKey) -> bool {
        self.programs.remove(key)
    }

    /// Removes one block-synthesis entry (the store GC's in-memory purge).
    pub(crate) fn remove_synthesis(&self, key: &SynthKey) -> bool {
        self.synthesis.remove(key)
    }

    /// Seeds one whole-program entry (counter-free warm start — see
    /// [`reqisc_microarch::cache::ShardedMap::seed`]).
    pub(crate) fn seed_program(&self, key: ProgramKey, out: Arc<Program>) {
        self.programs.seed(key, out);
    }

    /// Seeds one block-synthesis entry (counter-free warm start).
    pub(crate) fn seed_synthesis(&self, key: SynthKey, v: Arc<Option<BlockCircuit>>) {
        self.synthesis.seed(key, v);
    }

    /// Counter snapshot across all pools.
    pub fn stats(&self) -> CompileCacheStats {
        CompileCacheStats {
            programs: self.programs.stats(),
            synthesis: self.synthesis.stats(),
            pulses: self.pulses.stats(),
            solver: self.pulses.solver_stats(),
        }
    }

    /// Resident entries across all pools.
    pub fn len(&self) -> usize {
        self.programs.len() + self.synthesis.len() + self.pulses.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all memoized entries in every pool (counters survive).
    pub fn clear(&self) {
        self.programs.clear();
        self.synthesis.clear();
        self.pulses.clear();
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
    use crate::store::CacheStore;
    use reqisc_qcircuit::Gate;
    use reqisc_shmem::layout::MIN_CAPACITY;
    use reqisc_shmem::Segment;
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
        let _ = std::fs::remove_dir_all(&p);
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Every program-pool entry of `cache`, read without marking any used.
    fn entries(cache: &CompileCache) -> Vec<Arc<Program>> {
        cache.export_programs().into_iter().map(|(_, v, _)| v).collect()
    }

    #[test]
    fn only_a_reply_prices_the_record() {
        let comp = bare_compiler(CompileCache::new());
        let (c, fp) = (program(4), comp.options_fingerprint());
        let out = comp.compile(&c, SU4);
        let entry = comp.lookup_program(c.content_hash(), SU4, fp).expect("compiled entry");
        assert!(entry.priced().is_none(), "a cold compile does not price");
        assert_eq!(comp.compile(&c, SU4), out);
        let shared = comp.compile_program(&c, SU4);
        assert!(Arc::ptr_eq(&shared, &entry), "the Arc entry point returns the pool's entry");
        assert!(entry.priced().is_none(), "warm compiles and lookups do not price");

        // Persist and share the unpriced pool, then warm fresh caches
        // from each medium: nothing on those paths prices either.
        let dir = scratch("store");
        CacheStore::new(&dir).save(comp.cache()).expect("save");
        let seg_path = scratch("seg");
        let seg = Segment::attach(&seg_path, MIN_CAPACITY, 7).expect("attach");
        assert_eq!(crate::sharing::publish_all(&seg, comp.cache()).published, 1);

        let key = (c.content_hash(), SU4, fp);
        let from_store = CompileCache::new();
        CacheStore::new(&dir).load_into(&from_store);
        let from_seg = CompileCache::new();
        assert_eq!(crate::sharing::seed_from_segment(&seg, &from_seg), 1);
        let probed = CompileCache::new();
        let hit = crate::sharing::probe_shared_program(&seg, &probed, key.0, key.1, key.2)
            .expect("segment hit");
        for (path, cache) in [("store", &from_store), ("segment", &from_seg), ("probe", &probed)] {
            let seeded = entries(cache);
            assert_eq!(seeded.len(), 1, "{path}");
            assert!(seeded[0].priced().is_none(), "{path} seeding does not price");
            assert_eq!(seeded[0].circuit(), &out, "{path}");
        }
        assert!(Arc::ptr_eq(&hit, &entries(&probed)[0]), "a probe returns the seeded entry");

        // The first reply prices once; later ones read the same record,
        // equal to recomputation to the bit.
        let record = *entry.reply();
        assert!(std::ptr::eq(entry.reply(), entry.priced().expect("priced")));
        let m = metrics(&out, &reply_coupling());
        assert_eq!(record.fingerprint, out.content_hash());
        assert_eq!((record.metrics.count_2q, record.metrics.depth_2q), (m.count_2q, m.depth_2q));
        assert_eq!(record.metrics.duration.to_bits(), m.duration.to_bits());
        assert!(m.count_2q > 0, "the output has SU(4) gates to price");
        let again = comp.lookup_program(key.0, key.1, key.2).expect("entry");
        assert_eq!(again.priced(), Some(&record), "later hits share the record");
        drop(seg);
        let _ = std::fs::remove_dir_all(&dir);
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

        // GC: a store-loaded entry that this process never looks up ages
        // out on a compacting save, record and all; a looked-up one stays.
        let first = bare_compiler(CompileCache::new());
        let (idle, used) = (program(2), program(3));
        first.compile(&idle, SU4);
        first.compile(&used, SU4);
        let dir = scratch("gc");
        let store = CacheStore::new(&dir);
        store.save(first.cache()).expect("save");
        let second = bare_compiler(CompileCache::new());
        store.load_into(second.cache());
        let fp = second.options_fingerprint();
        let kept = second.lookup_program(used.content_hash(), SU4, fp).expect("loaded");
        kept.reply();
        let idle_entry = entries(second.cache())
            .into_iter()
            .find(|e| !Arc::ptr_eq(e, &kept))
            .expect("the idle entry");
        idle_entry.reply();
        let gone = Arc::downgrade(&idle_entry);
        drop(idle_entry);
        let outcome = store.compact(second.cache(), 0).expect("compact");
        assert_eq!((outcome.kept, outcome.dropped), (1, 1));
        assert!(gone.upgrade().is_none(), "the collected entry took its record with it");
        assert!(second.lookup_program(idle.content_hash(), SU4, fp).is_none());
        let survivor = second.lookup_program(used.content_hash(), SU4, fp).expect("kept");
        assert!(Arc::ptr_eq(&survivor, &kept) && survivor.priced().is_some());
        let _ = std::fs::remove_dir_all(&dir);
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
}
