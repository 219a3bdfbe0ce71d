//! End-to-end compilation pipelines (paper §5.4, §6.1.2): the two ReQISC
//! schemes and the five baselines, with the common metrics of §6.1.1.

use crate::cache::{hs_options_fingerprint, CompileCache, CompileCacheStats, Program, ProgramKey};
use crate::cnot_opt::{qiskit_like, tket_like};
use crate::fuse::fuse_2q;
use crate::hierarchical::{hierarchical_synthesis_batched, HsOptions};
use crate::pool::{par_map, resolve_threads};
use crate::template_pass::template_synthesis;
use reqisc_microarch::{duration_in_g, Coupling};
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_synthesis::{SearchOptions, TemplateLibrary};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The compilation pipelines compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipeline {
    /// Qiskit-like O3 (CNOT ISA).
    Qiskit,
    /// TKet-like with Pauli simplification (CNOT ISA).
    Tket,
    /// BQSKit-like: partition + unconditional approximate synthesis
    /// (SU(4) ISA, no calibration awareness).
    BqskitSu4,
    /// Qiskit-like followed by a 2Q fuse-to-SU(4) pass.
    QiskitSu4,
    /// TKet-like followed by a 2Q fuse-to-SU(4) pass.
    TketSu4,
    /// ReQISC-Eff: template-based synthesis only (minimal calibration).
    ReqiscEff,
    /// ReQISC-Full: template synthesis + hierarchical synthesis.
    ReqiscFull,
    /// ReQISC-Full without DAG compacting (ablation "ReQISC-NC").
    ReqiscNc,
}

impl Pipeline {
    /// Every pipeline, in evaluation order — the one list tests and
    /// round-robin schedulers should index so a new variant extends them
    /// all at once.
    pub const ALL: [Pipeline; 8] = [
        Pipeline::Qiskit,
        Pipeline::Tket,
        Pipeline::QiskitSu4,
        Pipeline::TketSu4,
        Pipeline::BqskitSu4,
        Pipeline::ReqiscEff,
        Pipeline::ReqiscFull,
        Pipeline::ReqiscNc,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Pipeline::Qiskit => "qiskit",
            Pipeline::Tket => "tket",
            Pipeline::BqskitSu4 => "bqskit-su4",
            Pipeline::QiskitSu4 => "qiskit-su4",
            Pipeline::TketSu4 => "tket-su4",
            Pipeline::ReqiscEff => "reqisc-eff",
            Pipeline::ReqiscFull => "reqisc-full",
            Pipeline::ReqiscNc => "reqisc-nc",
        }
    }

    /// Inverse of [`Pipeline::name`]: resolves the short display name back
    /// to the variant (`None` for unknown names). The service protocol's
    /// pipeline field parses through this, so wire names and display
    /// names can never drift apart.
    pub fn from_name(name: &str) -> Option<Pipeline> {
        Pipeline::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// Stable on-disk tag for the shared segment's program keys.
    /// Append-only: new variants take fresh numbers, existing values are
    /// frozen (a renumber must bump the store format version).
    pub(crate) fn store_tag(&self) -> u8 {
        match self {
            Pipeline::Qiskit => 0,
            Pipeline::Tket => 1,
            Pipeline::QiskitSu4 => 2,
            Pipeline::TketSu4 => 3,
            Pipeline::BqskitSu4 => 4,
            Pipeline::ReqiscEff => 5,
            Pipeline::ReqiscFull => 6,
            Pipeline::ReqiscNc => 7,
        }
    }

    /// Inverse of [`Pipeline::store_tag`]; `None` for unknown tags (a
    /// segment written by a newer build).
    pub(crate) fn from_store_tag(tag: u8) -> Option<Pipeline> {
        Pipeline::ALL.iter().copied().find(|p| p.store_tag() == tag)
    }
}

/// Shared, reusable compilation context: the pre-synthesized template
/// library, the hierarchical-synthesis options, and the content-addressed
/// [`CompileCache`] every compilation goes through.
///
/// All compilation entry points take `&self`, so one `Compiler` is safely
/// shared across threads ([`Compiler::compile_batch`] does exactly that) —
/// the cache is internally synchronized with read-mostly sharded locks.
pub struct Compiler {
    /// The pre-synthesized template library.
    pub library: TemplateLibrary,
    /// Hierarchical-synthesis options. May be adjusted after construction;
    /// the cache keys every result under a fingerprint of these options,
    /// so adjustments never serve stale entries.
    pub hs: HsOptions,
    /// Block-level batching width for single-program compiles: the
    /// dense blocks of one program are synthesized on up to this many
    /// scoped workers (`0` = available hardware parallelism, `1` = on the
    /// calling thread). Results and cache counters are identical at any
    /// setting, so this is deliberately *not* part of the cache key.
    pub block_threads: usize,
    cache: CompileCache,
}

impl Compiler {
    /// Builds a compiler with default options (pre-synthesizes the
    /// built-in template library — a one-time cost).
    pub fn new() -> Self {
        Self::new_with_library(Self::builtin_library())
    }

    /// Synthesizes the built-in template library at the default search
    /// budget — the library [`Compiler::new`] uses. Exposed so callers
    /// composing a compiler by parts ([`Compiler::new_with_library_and_cache`])
    /// get the identical library without duplicating the budget choice.
    pub fn builtin_library() -> TemplateLibrary {
        let mut search = SearchOptions::default();
        search.sweep.restarts = 3;
        TemplateLibrary::builtin(&search)
    }

    /// Builds a compiler around an existing template library — the cheap
    /// constructor for callers that need many compilers with *fresh
    /// caches* (persistence tests, multi-tenant fronts) without re-synthesizing
    /// the library each time.
    pub fn new_with_library(library: TemplateLibrary) -> Self {
        Self::new_with_library_and_cache(library, CompileCache::new())
    }

    /// Builds a compiler around an existing template library *and* an
    /// explicit cache — the constructor for callers that bound the memo
    /// pools (see [`CompileCache::with_shape`]) or pre-warm a cache before
    /// handing it to the compiler.
    pub fn new_with_library_and_cache(library: TemplateLibrary, cache: CompileCache) -> Self {
        Self { library, hs: HsOptions::default(), block_threads: 0, cache }
    }

    /// The shared compilation cache.
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Fingerprint of the current [`Compiler::hs`] options — the third
    /// component of every whole-program cache key. The service layer's
    /// in-flight coalescing keys on `(circuit content hash, pipeline,
    /// this)` so two requests coalesce exactly when a cache hit would
    /// serve one from the other.
    pub fn options_fingerprint(&self) -> u128 {
        hs_options_fingerprint(&self.hs)
    }

    /// Snapshot of the cache counters (hits / misses / inserts /
    /// evictions per pool).
    pub fn cache_stats(&self) -> CompileCacheStats {
        self.cache.stats()
    }

    /// Warm-path probe of the whole-program pool by precomputed key
    /// parts: a resident compilation returns immediately (counted as one
    /// pool hit, entry marked most-recently-used); absence counts
    /// **nothing** and returns `None`, leaving the miss accounting to the
    /// [`Compiler::compile`] call that eventually does the cold work.
    /// This is the service's submission probe — it runs on the
    /// submitting thread, so it must never synthesize, solve, or
    /// otherwise block, and its counters must compose with a later
    /// `compile` to exactly one hit *or* one miss per job.
    pub fn lookup_program(
        &self,
        circuit_hash: u128,
        pipeline: Pipeline,
        options_fp: u128,
    ) -> Option<Arc<Program>> {
        let key = ProgramKey { circuit: circuit_hash, pipeline, options: options_fp };
        self.cache.programs.probe(&key)
    }

    /// Runs one pipeline on a program, memoizing through the shared
    /// cache: a repeat compile of the same program bits under the same
    /// pipeline and options returns the cached circuit. (The one clone
    /// per call is the cost of the owned return type; callers that can
    /// share the pool's entry use [`Compiler::compile_program`].)
    pub fn compile(&self, c: &Circuit, p: Pipeline) -> Circuit {
        self.compile_program(c, p).circuit().clone()
    }

    /// [`Compiler::compile`] returning the whole-program pool's entry
    /// itself: no copy of the output, and the entry's reply record is
    /// shared with every later hit on the same key.
    pub fn compile_program(&self, c: &Circuit, p: Pipeline) -> Arc<Program> {
        self.compile_with_block_threads(c, p, resolve_threads(self.block_threads))
    }

    /// [`Compiler::compile`] with an explicit block-batching width —
    /// the internal entry point [`Compiler::compile_batch`] workers use so
    /// program-level and block-level parallelism compose instead of
    /// oversubscribing. The program pool fills single-flight: a worker
    /// that misses a program another worker is compiling waits for it.
    fn compile_with_block_threads(&self, c: &Circuit, p: Pipeline, bt: usize) -> Arc<Program> {
        let key = ProgramKey::new(c, p, hs_options_fingerprint(&self.hs));
        self.cache.programs.get_or_insert_with(&key, || {
            Arc::new(Program::new(self.run_pipeline(c, p, Some(&self.cache), bt)))
        })
    }

    /// Runs one pipeline without consulting the whole-program memo table
    /// (block-level pools are also bypassed). This is the reference cold
    /// path the property/stress tests compare cache hits against.
    pub fn compile_uncached(&self, c: &Circuit, p: Pipeline) -> Circuit {
        self.run_pipeline(c, p, None, 1)
    }

    fn run_pipeline(
        &self,
        c: &Circuit,
        p: Pipeline,
        cache: Option<&CompileCache>,
        block_threads: usize,
    ) -> Circuit {
        match p {
            Pipeline::Qiskit => qiskit_like(c),
            Pipeline::Tket => tket_like(c),
            Pipeline::QiskitSu4 => fuse_2q(&qiskit_like(c)),
            Pipeline::TketSu4 => fuse_2q(&tket_like(c)),
            Pipeline::BqskitSu4 => {
                // Aggressive synthesis with no template/calibration
                // awareness: threshold m_th = 1 resynthesizes every dense
                // block, compacting off.
                let mut o = self.hs.clone();
                o.m_th = 1;
                o.compacting = false;
                hierarchical_synthesis_batched(c, &o, cache, block_threads)
            }
            Pipeline::ReqiscEff => template_synthesis(c, &self.library),
            Pipeline::ReqiscFull => {
                let t = template_synthesis(c, &self.library);
                hierarchical_synthesis_batched(&t, &self.hs, cache, block_threads)
            }
            Pipeline::ReqiscNc => {
                let t = template_synthesis(c, &self.library);
                let mut o = self.hs.clone();
                o.compacting = false;
                hierarchical_synthesis_batched(&t, &o, cache, block_threads)
            }
        }
    }

    /// Compiles a whole batch of `(program, pipeline)` jobs across
    /// `threads` OS threads sharing this compiler's cache, returning the
    /// compiled circuits in job order.
    ///
    /// `threads = 0` uses the available hardware parallelism. Workers
    /// claim jobs from a shared cursor, so a few slow programs do not
    /// starve the rest of a worker's stripe; results are bit-identical to
    /// the serial path because every pipeline is deterministic and cache
    /// entries are immutable once written. Each distinct job compiles
    /// once, so the cache counters equal the serial path's too, at any
    /// block width.
    ///
    /// Leftover parallelism flows down a level: when there are fewer jobs
    /// than threads (one big program in the extreme), each worker batches
    /// that program's dense blocks across the spare threads — so a single
    /// large program saturates the machine the same way a suite of small
    /// ones does. Each dense block is still looked up once, and a block
    /// another worker is synthesizing is waited for, not recomputed.
    pub fn compile_batch(&self, jobs: &[(&Circuit, Pipeline)], threads: usize) -> Vec<Circuit> {
        let threads = resolve_threads(threads);
        // Spare threads (if any) become per-job block-batching width.
        let block_threads = (threads / jobs.len().max(1)).max(1);
        par_map(jobs, threads, |&(c, p)| {
            self.compile_with_block_threads(c, p, block_threads).circuit().clone()
        })
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new()
    }
}

/// The §6.1.1 metrics of one compiled circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Two-qubit gate count.
    pub count_2q: usize,
    /// Two-qubit depth.
    pub depth_2q: usize,
    /// Total pulse duration in `g⁻¹` (critical path).
    pub duration: f64,
}

/// Per-gate pulse duration in `g⁻¹` under `cp`:
/// CNOT-ISA gates use the conventional implementations, SU(4)-ISA gates
/// the genAshN optimal durations; 1Q gates are free.
pub fn gate_duration(g: &Gate, cp: &Coupling) -> f64 {
    if g.arity() < 2 {
        return 0.0;
    }
    match g {
        Gate::Cx(..) | Gate::Cz(..) => reqisc_microarch::conventional_cnot_duration(),
        Gate::Swap(..) => 3.0 * reqisc_microarch::conventional_cnot_duration(),
        Gate::Su4(..) | Gate::Can(..) | Gate::Rzz(..) | Gate::ISwap(..) | Gate::SqiSw(..)
        | Gate::BGate(..) => duration_in_g(&g.weyl().unwrap_or_default(), cp),
        other => {
            // ≥3Q gates should be lowered before timing; price them as
            // their CX lowering.
            let mut c = Circuit::new(other.qubits().iter().max().unwrap() + 1);
            c.push(other.clone());
            c.lowered_to_cx().count_2q() as f64 * reqisc_microarch::conventional_cnot_duration()
        }
    }
}

/// A gate priced by its Weyl point, hashed and compared by what its
/// price depends on, to the bit: its variant and its parameters, qubits
/// aside. A `Su4` compares all 32 `f64` bit patterns of its matrix — not
/// [`reqisc_qmath::CMat::fingerprint`], a hash that also folds −0.0 into
/// +0.0, which the KAK can tell apart.
#[derive(Debug)]
struct PriceKey<'a>(&'a Gate);

impl<'a> PriceKey<'a> {
    /// `None` for gates with a fixed price (1Q, CX, CZ, SWAP), ≥3Q gates,
    /// and `Su4` gates whose matrix is not 4×4.
    fn of(g: &'a Gate) -> Option<Self> {
        match g {
            Gate::ISwap(..) | Gate::SqiSw(..) | Gate::BGate(..) | Gate::Rzz(..) | Gate::Can(..) => {
                Some(Self(g))
            }
            Gate::Su4(_, _, m) if (m.rows(), m.cols()) == (4, 4) => Some(Self(g)),
            _ => None,
        }
    }

    /// The bit patterns of the parameters, zero-padded.
    fn bits(&self) -> [u64; 32] {
        let mut bits = [0; 32];
        match self.0 {
            Gate::Rzz(_, _, t) => bits[0] = t.to_bits(),
            Gate::Can(_, _, w) => bits[..3].copy_from_slice(&[w.x, w.y, w.z].map(f64::to_bits)),
            Gate::Su4(_, _, m) => {
                for (pair, z) in bits.chunks_exact_mut(2).zip(m.as_slice()) {
                    pair.copy_from_slice(&[z.re.to_bits(), z.im.to_bits()]);
                }
            }
            _ => {}
        }
        bits
    }
}

impl PartialEq for PriceKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.name() == other.0.name() && self.bits() == other.bits()
    }
}

impl Eq for PriceKey<'_> {}

impl Hash for PriceKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.name().hash(state);
        self.bits().hash(state);
    }
}

/// Computes the metrics of a compiled circuit under a coupling.
///
/// Compiled outputs repeat gates, and pricing an SU(4) gate runs a KAK
/// decomposition, so each distinct gate (by its `PriceKey`) is priced once
/// per call.
pub fn metrics(c: &Circuit, cp: &Coupling) -> Metrics {
    let mut priced = HashMap::new();
    let duration = c.duration(&mut |g| match PriceKey::of(g) {
        Some(key) => *priced.entry(key).or_insert_with(|| gate_duration(g, cp)),
        None => gate_duration(g, cp),
    });
    Metrics {
        count_2q: c.count_2q(),
        depth_2q: c.depth_2q(),
        duration,
    }
}

/// Counts distinct SU(4) classes in a compiled circuit at the default
/// grouping tolerance [`reqisc_qmath::SU4_CLASS_TOL`] — the calibration
/// cost (paper §6.5). Two gates are "the same instruction" when their
/// Weyl coordinates agree within the tolerance (1Q corrections are
/// calibration-free via the PMW protocol, §5.3.1).
///
/// The default is the right call for essentially every consumer:
/// synthesis converges to ~1e-11 infidelity, which leaves ~1e-6
/// coordinate noise, so grouping tighter than 1e-5 over-splits identical
/// instructions, and gates within 1e-5 legitimately share one pulse
/// program (per-gate 1Q corrections absorb the ≤ ~1e-10
/// process-infidelity difference). Pass a different tolerance explicitly
/// via [`distinct_su4_count_with_tol`] only when you have a reason.
pub fn distinct_su4_count(c: &Circuit) -> usize {
    distinct_su4_count_with_tol(c, reqisc_qmath::SU4_CLASS_TOL)
}

/// [`distinct_su4_count`] at an explicit grouping tolerance. Tolerances
/// below [`reqisc_qmath::SU4_CLASS_TOL`] are noise-sensitive — they count
/// synthesis jitter as distinct instructions.
pub fn distinct_su4_count_with_tol(c: &Circuit, tol: f64) -> usize {
    let mut classes: Vec<reqisc_qmath::WeylCoord> = Vec::new();
    for g in c.gates() {
        if !g.is_2q() {
            continue;
        }
        let Some(w) = g.weyl() else {
            continue;
        };
        if w.l1_norm() < tol {
            continue; // identity-class: nothing to calibrate
        }
        if !classes.iter().any(|k| k.approx_eq(&w, tol)) {
            classes.push(w);
        }
    }
    classes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qsim::process_infidelity;
    use std::sync::OnceLock;

    fn compiler() -> &'static Compiler {
        static C: OnceLock<Compiler> = OnceLock::new();
        C.get_or_init(|| {
            let mut c = Compiler::new();
            c.hs.search.sweep.restarts = 2;
            c.hs.search.sweep.max_sweeps = 150;
            c
        })
    }

    #[test]
    fn price_keys_are_exact_bits_without_qubits() {
        use reqisc_qmath::{gates::cnot, WeylCoord, C64};
        let mut flipped = cnot();
        flipped[(2, 3)] = C64::new(1.0, -0.0);
        let gates = [
            Gate::Su4(0, 1, Box::new(cnot())),
            Gate::Su4(2, 3, Box::new(cnot())),
            Gate::Su4(0, 1, Box::new(flipped)),
            Gate::Rzz(0, 1, 0.5),
            Gate::Can(0, 1, WeylCoord::new(0.5, 0.0, 0.0)),
            Gate::Can(1, 0, WeylCoord::new(0.5, 0.0, 0.0)),
        ];
        let keys: Vec<_> = gates.iter().map(|g| PriceKey::of(g).expect("priced by Weyl point")).collect();
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[3], keys[4]);
        assert_eq!(keys[4], keys[5]);
        assert!(PriceKey::of(&Gate::Cx(0, 1)).is_none());
        assert!(PriceKey::of(&Gate::Ccx(0, 1, 2)).is_none());
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

    fn check_equiv(a: &Circuit, b: &Circuit) {
        let inf = process_infidelity(&a.unitary(), &b.unitary());
        assert!(inf < 1e-6, "not equivalent: infidelity {inf}");
    }

    #[test]
    fn all_pipelines_preserve_semantics() {
        let c = toffoli_chain();
        for p in [
            Pipeline::Qiskit,
            Pipeline::Tket,
            Pipeline::QiskitSu4,
            Pipeline::TketSu4,
            Pipeline::BqskitSu4,
            Pipeline::ReqiscEff,
            Pipeline::ReqiscFull,
            Pipeline::ReqiscNc,
        ] {
            let out = compiler().compile(&c, p);
            check_equiv(&c, &out);
        }
    }

    #[test]
    fn reqisc_beats_cnot_baselines_on_type1() {
        let c = toffoli_chain();
        let cp = Coupling::xy(1.0);
        let q = metrics(&compiler().compile(&c, Pipeline::Qiskit), &cp);
        let eff = metrics(&compiler().compile(&c, Pipeline::ReqiscEff), &cp);
        let full = metrics(&compiler().compile(&c, Pipeline::ReqiscFull), &cp);
        assert!(eff.count_2q < q.count_2q, "eff {} vs qiskit {}", eff.count_2q, q.count_2q);
        assert!(full.count_2q <= eff.count_2q);
        assert!(full.duration < q.duration);
    }

    #[test]
    fn su4_variants_fuse_blocks() {
        let c = toffoli_chain();
        let q = compiler().compile(&c, Pipeline::Qiskit);
        let qs = compiler().compile(&c, Pipeline::QiskitSu4);
        assert!(qs.count_2q() <= q.count_2q());
        assert!(qs.gates().iter().filter(|g| g.is_2q()).all(|g| matches!(g, Gate::Su4(..))));
    }

    #[test]
    fn calibration_counts() {
        let c = toffoli_chain();
        // The default tolerance groups at SU4_CLASS_TOL = 1e-5: the
        // synthesis sweep stops at infidelity ~1e-11, which leaves per-run
        // Weyl-coordinate noise of order 1e-6, so a tighter tolerance
        // over-splits identical gate classes.
        let eff = compiler().compile(&c, Pipeline::ReqiscEff);
        let n_eff = distinct_su4_count(&eff);
        assert!(n_eff > 0 && n_eff < 12, "eff distinct = {n_eff}");
        assert_eq!(
            n_eff,
            distinct_su4_count_with_tol(&eff, reqisc_qmath::SU4_CLASS_TOL),
            "default must equal the explicit SU4_CLASS_TOL call"
        );
        let bq = compiler().compile(&c, Pipeline::BqskitSu4);
        let n_bq = distinct_su4_count(&bq);
        // BQSKit-style synthesis produces (at least as) diverse gates.
        assert!(n_bq + 2 >= n_eff, "bqskit {n_bq} vs eff {n_eff}");
    }

    #[test]
    fn compile_memoizes_per_program_and_options() {
        let mut comp = Compiler::new();
        comp.hs.search.sweep.restarts = 2;
        comp.hs.search.sweep.max_sweeps = 150;
        let c = toffoli_chain();
        let cold = comp.compile(&c, Pipeline::ReqiscFull);
        assert_eq!(comp.cache_stats().programs.hits, 0);
        let warm = comp.compile(&c, Pipeline::ReqiscFull);
        assert_eq!(warm, cold, "cache hit must return the identical circuit");
        assert_eq!(comp.cache_stats().programs.hits, 1);
        // A different pipeline is a different key.
        comp.compile(&c, Pipeline::Qiskit);
        assert_eq!(comp.cache_stats().programs.hits, 1);
        // Changing options invalidates (fresh key, not a stale hit).
        comp.hs.m_th = 5;
        comp.compile(&c, Pipeline::ReqiscFull);
        assert_eq!(comp.cache_stats().programs.hits, 1);
        let s = comp.cache_stats();
        assert!(s.programs.is_consistent() && s.synthesis.is_consistent());
    }

    #[test]
    fn compile_batch_matches_serial_in_job_order() {
        // The serial compiler runs at the default block width; each job
        // of a 4-thread batch of 5 gets one block thread.
        let fresh = || {
            let mut comp = Compiler::new_with_library(compiler().library.clone());
            comp.hs = compiler().hs.clone();
            comp
        };
        let (comp, serial) = (fresh(), fresh());
        let a = toffoli_chain();
        let mut b = Circuit::new(3);
        b.push(Gate::Ccx(0, 1, 2));
        b.push(Gate::H(2));
        let jobs: Vec<(&Circuit, Pipeline)> = vec![
            (&a, Pipeline::Qiskit),
            (&b, Pipeline::ReqiscEff),
            (&a, Pipeline::ReqiscFull),
            (&b, Pipeline::TketSu4),
            (&a, Pipeline::Qiskit), // duplicate job: must hit the cache
        ];
        let batch = comp.compile_batch(&jobs, 4);
        assert_eq!(batch.len(), jobs.len());
        for (i, &(c, p)) in jobs.iter().enumerate() {
            assert_eq!(batch[i], serial.compile(c, p), "job {i} diverged from serial");
        }
        assert_eq!(batch[0], batch[4]);
        // Every distinct job compiled once and every block synthesized
        // once: both pools' counters equal the serial run's, exactly.
        let s = comp.cache_stats();
        assert_eq!(s, serial.cache_stats());
        assert_eq!((s.programs.hits, s.programs.misses, s.programs.inserts), (1, 4, 4), "{s}");
        assert_eq!(s.synthesis.misses, s.synthesis.inserts, "{s}");
        assert!(s.synthesis.misses > 0, "the reqisc-full job synthesizes blocks: {s}");
        // threads = 0 (auto) and a single thread also work.
        assert_eq!(comp.compile_batch(&jobs[..2], 0), &batch[..2]);
        assert_eq!(comp.compile_batch(&jobs[..2], 1), &batch[..2]);
        assert_eq!(comp.compile_batch(&[], 3), Vec::<Circuit>::new());
    }

    #[test]
    fn bounded_cache_evicts_lru_with_exact_accounting() {
        // A deliberately tiny pool: 1 shard × 2 entries per pool. The
        // library is cloned from the shared compiler (synthesis cost paid
        // once); pipelines are CNOT-level so the test is pure cache churn.
        let comp = Compiler::new_with_library_and_cache(
            compiler().library.clone(),
            crate::cache::CompileCache::with_shape(1, 2),
        );
        let mk = |n: usize| {
            let mut c = Circuit::new(3);
            c.push(Gate::Ccx(0, 1, 2));
            for _ in 0..n {
                c.push(Gate::H(0));
            }
            c
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));
        let out_a = comp.compile(&a, Pipeline::Qiskit); // miss, insert
        assert_eq!(comp.compile(&a, Pipeline::Qiskit), out_a); // hit
        comp.compile(&b, Pipeline::Qiskit); // miss, insert (full now)
        comp.compile(&c, Pipeline::Qiskit); // miss, insert, evicts LRU = a
        // The evicted program recomputes — an honest miss — and the
        // result is bit-identical to the first compile.
        assert_eq!(comp.compile(&a, Pipeline::Qiskit), out_a);
        let s = comp.cache_stats().programs;
        assert_eq!(
            (s.hits, s.misses, s.inserts, s.evictions),
            (1, 4, 4, 2),
            "accounting must stay exact under eviction: {s}"
        );
        assert!(s.is_consistent());
    }

    #[test]
    fn durations_favour_su4_isa() {
        let cp = Coupling::xy(1.0);
        // A SWAP as one SU(4) pulse vs three CNOTs.
        let mut su4 = Circuit::new(2);
        su4.push(Gate::Su4(0, 1, Box::new(reqisc_qmath::gates::swap())));
        let mut cx = Circuit::new(2);
        for _ in 0..3 {
            cx.push(Gate::Cx(0, 1));
        }
        let d_su4 = metrics(&su4, &cp).duration;
        let d_cx = metrics(&cx, &cp).duration;
        assert!(d_su4 < d_cx / 2.0, "{d_su4} vs {d_cx}");
    }
}
