//! The solver-side half of the compilation service layer: a sharded,
//! read-mostly concurrent map primitive with hit/miss/eviction counters,
//! and a [`PulseCache`] that memoizes genAshN pulse solutions per
//! (coupling, SU(4) class) — the expensive EA grid-search + Nelder–Mead
//! work from [`crate::solver::solve_ea`] runs once per instruction class
//! instead of once per gate.
//!
//! Concurrency model: entries are immutable once inserted (`Arc`ed), so
//! lookups take only a shard's `RwLock` *read* lock — many readers
//! proceed in parallel and the hot warm-cache path never serializes.
//! Writes (misses) take one shard's write lock; with
//! [`DEFAULT_SHARDS`]-way sharding, concurrent misses on different
//! classes rarely contend.

use crate::coupling::Coupling;
use crate::duration::Image;
use crate::scheme::{solve_pulse_profiled, PulseSolution, SolveError, Subscheme};
use crate::solver::{evolve, EaSolveProfile, PulseParams};
use reqisc_qmath::weyl::WeylCoord;
use reqisc_qmath::{kak_decompose, CMat, Kak, WeylClassKey, SU4_CLASS_TOL};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Shard count of [`ShardedMap`]: enough to make write contention
/// negligible at typical worker counts without bloating empty maps.
pub const DEFAULT_SHARDS: usize = 16;

/// Default per-shard entry capacity (so a default map holds up to
/// `16 × 1024` entries before evicting).
pub const DEFAULT_SHARD_CAPACITY: usize = 1024;

/// A point-in-time snapshot of one cache pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a recompute.
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Component-wise sum — for aggregating pools.
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            inserts: self.inserts + other.inserts,
            evictions: self.evictions + other.evictions,
        }
    }

    /// Internal consistency: inserts can't exceed misses (every insert is
    /// preceded by a missed lookup) and evictions can't exceed inserts.
    pub fn is_consistent(&self) -> bool {
        self.inserts <= self.misses && self.evictions <= self.inserts
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} lookups ({:.1}% hit rate), {} inserts, {} evictions",
            self.hits,
            self.lookups(),
            100.0 * self.hit_rate(),
            self.inserts,
            self.evictions
        )
    }
}

/// Atomic counters backing [`CacheStats`]. `SeqCst` everywhere: the
/// counters are touched once per map operation (which already pays for a
/// lock), and the total order lets `snapshot` guarantee the
/// [`CacheStats::is_consistent`] inequalities — each counter's causal
/// predecessor is loaded *after* it (an eviction's ≥ capacity inserts
/// precede it, an insert's miss precedes it), so a concurrent snapshot
/// can only under-count the left side of each ≤, never over-count it.
/// (With `Relaxed` the loads could be satisfied out of order on
/// weak-memory targets and the argument would not hold.)
// lint:allow-file(atomic-ordering, SeqCst is load-bearing in this file — the total-order argument above is what makes CacheStats::is_consistent hold under concurrent snapshots; see the Counters doc)
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> CacheStats {
        let evictions = self.evictions.load(Ordering::SeqCst);
        let inserts = self.inserts.load(Ordering::SeqCst);
        let misses = self.misses.load(Ordering::SeqCst);
        let hits = self.hits.load(Ordering::SeqCst);
        CacheStats { hits, misses, inserts, evictions }
    }
}

/// Aggregated cold-path solver counters of one [`PulseCache`] — every
/// class miss runs the boundary-curve EA solver, and its deterministic
/// [`EaSolveProfile`] is accumulated here. This is what the compile
/// pipeline surfaces alongside the pool hit/miss counters, so "where do
/// cold compiles spend their time" is answerable from `stats` output
/// without a profiler (and assertable in CI without wall clocks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Cold class solves attempted (cache misses reaching the solver).
    pub solves: u64,
    /// Solves whose pulse could not be found (propagated as errors).
    pub failures: u64,
    /// Cheap invariant-trace evaluations (the grid solver's "seeds").
    pub evals: u64,
    /// Full Weyl-residual verifications (one KAK each).
    pub verifies: u64,
    /// Matched-eigenphase curve points located.
    pub curve_points: u64,
    /// Local polish starts (Newton or Nelder–Mead).
    pub newton_starts: u64,
    /// Local polish iterations.
    pub newton_iters: u64,
    /// Boundary-family roots (pure-detuning + pure-amplitude).
    pub boundary_roots: u64,
    /// Interior curve-walk roots.
    pub interior_roots: u64,
    /// Subscheme attempts rejected for free by the conserved-eigenphase
    /// precheck.
    pub early_rejects: u64,
    /// Attempts that took the degenerate (tangential-root) path.
    pub degenerate_targets: u64,
}

impl SolverStats {
    /// Component-wise sum — for aggregating caches.
    pub fn merged(&self, other: &SolverStats) -> SolverStats {
        SolverStats {
            solves: self.solves + other.solves,
            failures: self.failures + other.failures,
            evals: self.evals + other.evals,
            verifies: self.verifies + other.verifies,
            curve_points: self.curve_points + other.curve_points,
            newton_starts: self.newton_starts + other.newton_starts,
            newton_iters: self.newton_iters + other.newton_iters,
            boundary_roots: self.boundary_roots + other.boundary_roots,
            interior_roots: self.interior_roots + other.interior_roots,
            early_rejects: self.early_rejects + other.early_rejects,
            degenerate_targets: self.degenerate_targets + other.degenerate_targets,
        }
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} solves ({} failed), {} evals, {} verifies, {} newton starts / {} iters, \
             {} boundary + {} interior roots, {} early rejects",
            self.solves,
            self.failures,
            self.evals,
            self.verifies,
            self.newton_starts,
            self.newton_iters,
            self.boundary_roots,
            self.interior_roots,
            self.early_rejects
        )
    }
}

/// Atomic accumulator behind [`SolverStats`] (relaxed ordering is fine:
/// the counters are statistics, not synchronization).
#[derive(Debug, Default)]
struct SolverCounters {
    solves: AtomicU64,
    failures: AtomicU64,
    evals: AtomicU64,
    verifies: AtomicU64,
    curve_points: AtomicU64,
    newton_starts: AtomicU64,
    newton_iters: AtomicU64,
    boundary_roots: AtomicU64,
    interior_roots: AtomicU64,
    early_rejects: AtomicU64,
    degenerate_targets: AtomicU64,
}

impl SolverCounters {
    fn record(&self, profile: &EaSolveProfile, failed: bool) {
        use Ordering::Relaxed;
        self.solves.fetch_add(1, Relaxed);
        if failed {
            self.failures.fetch_add(1, Relaxed);
        }
        self.evals.fetch_add(profile.evals, Relaxed);
        self.verifies.fetch_add(profile.verifies, Relaxed);
        self.curve_points.fetch_add(profile.curve_points, Relaxed);
        self.newton_starts.fetch_add(profile.newton_starts, Relaxed);
        self.newton_iters.fetch_add(profile.newton_iters, Relaxed);
        self.boundary_roots
            .fetch_add(profile.delta_family_roots + profile.omega_family_roots, Relaxed);
        self.interior_roots.fetch_add(profile.interior_roots, Relaxed);
        self.early_rejects.fetch_add(profile.early_rejects, Relaxed);
        self.degenerate_targets.fetch_add(profile.degenerate_targets, Relaxed);
    }

    fn snapshot(&self) -> SolverStats {
        use Ordering::Relaxed;
        SolverStats {
            solves: self.solves.load(Relaxed),
            failures: self.failures.load(Relaxed),
            evals: self.evals.load(Relaxed),
            verifies: self.verifies.load(Relaxed),
            curve_points: self.curve_points.load(Relaxed),
            newton_starts: self.newton_starts.load(Relaxed),
            newton_iters: self.newton_iters.load(Relaxed),
            boundary_roots: self.boundary_roots.load(Relaxed),
            interior_roots: self.interior_roots.load(Relaxed),
            early_rejects: self.early_rejects.load(Relaxed),
            degenerate_targets: self.degenerate_targets.load(Relaxed),
        }
    }
}

/// One resident entry: the value plus its last-use tick. The tick is
/// atomic so the read-lock-only lookup path can bump it — recency
/// tracking must not turn every hit into a write-lock acquisition.
/// `0` is reserved for "never used since seeding": bulk-loaded entries
/// stay distinguishable from live ones, which is what both the LRU
/// victim choice (coldest first) and the store's GC liveness test key on.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: AtomicU64,
}

/// A fixed-shard concurrent hash map with counters, a per-shard
/// capacity bound, and least-recently-used eviction. The service layer's
/// shared memo-table primitive: reads take only a shard read lock, writes
/// a shard write lock.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, Slot<V>>>>,
    shard_capacity: usize,
    counters: Counters,
    /// Global recency clock; see [`Slot`].
    tick: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// A map with [`DEFAULT_SHARDS`] shards of [`DEFAULT_SHARD_CAPACITY`].
    pub fn new() -> Self {
        Self::with_shape(DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY)
    }

    /// A map with explicit shard count and per-shard capacity.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `shard_capacity` is zero.
    pub fn with_shape(shards: usize, shard_capacity: usize) -> Self {
        assert!(shards > 0 && shard_capacity > 0, "degenerate cache shape");
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_capacity,
            counters: Counters::default(),
            tick: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> &RwLock<HashMap<K, Slot<V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// The next recency stamp (strictly positive; `0` means unused).
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Looks up `key`, recording a hit or miss (and, on a hit, marking
    /// the entry most-recently-used).
    pub fn get(&self, key: &K) -> Option<V> {
        let found = {
            let shard = self.shard_of(key).read().expect("cache shard poisoned");
            shard.get(key).map(|slot| {
                slot.last_used.store(self.next_tick(), Ordering::SeqCst);
                slot.value.clone()
            })
        };
        match found {
            Some(v) => {
                self.counters.hits.fetch_add(1, Ordering::SeqCst);
                Some(v)
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
    }

    /// Hit-only-counted lookup: on a hit it behaves exactly like
    /// [`ShardedMap::get`] (counts the hit, marks the entry
    /// most-recently-used); on absence it counts **nothing** and returns
    /// `None`. The service's submission probe reads the program pool
    /// with this so a miss admitted to the solve stage — whose
    /// `compile()` performs the real, counted `get` — still accounts for
    /// exactly one miss per cold job, and [`CacheStats::is_consistent`]
    /// (`inserts ≤ misses`) stays true.
    pub fn probe(&self, key: &K) -> Option<V> {
        let found = {
            let shard = self.shard_of(key).read().expect("cache shard poisoned");
            shard.get(key).map(|slot| {
                slot.last_used.store(self.next_tick(), Ordering::SeqCst);
                slot.value.clone()
            })
        };
        if found.is_some() {
            self.counters.hits.fetch_add(1, Ordering::SeqCst);
        }
        found
    }

    /// Inserts `key → value`, evicting the least-recently-used resident
    /// entry first when the shard is at capacity. Never-used (seeded)
    /// entries carry tick `0`, so bulk-loaded entries are evicted before
    /// anything a live lookup has touched.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shard_of(&key).write().expect("cache shard poisoned");
        if shard.len() >= self.shard_capacity && !shard.contains_key(&key) {
            let victim = shard
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::SeqCst))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                shard.remove(&victim);
                self.counters.evictions.fetch_add(1, Ordering::SeqCst);
            }
        }
        shard.insert(key, Slot { value, last_used: AtomicU64::new(self.next_tick()) });
        self.counters.inserts.fetch_add(1, Ordering::SeqCst);
    }

    /// Seeds `key → value` without touching the hit/miss/insert counters —
    /// the warm-start path used when a persistent store is loaded into a
    /// fresh cache. Counter-free seeding keeps [`CacheStats::is_consistent`]
    /// (`inserts ≤ misses`) true, and keeps hit rates meaningful: a
    /// disk-warmed entry served later still counts as a *hit* against zero
    /// misses. Respects the capacity bound by skipping (never evicting):
    /// live inserts outrank bulk-loaded entries. Seeded entries start with
    /// the "never used" recency stamp, so they are also the first LRU
    /// victims and report `used = false` to
    /// [`ShardedMap::for_each_with_used`] until a lookup touches them.
    pub fn seed(&self, key: K, value: V) {
        let mut shard = self.shard_of(&key).write().expect("cache shard poisoned");
        if shard.len() >= self.shard_capacity && !shard.contains_key(&key) {
            return;
        }
        shard.insert(key, Slot { value, last_used: AtomicU64::new(0) });
    }

    /// Removes `key` if resident, returning whether it was. No counter is
    /// touched: removal is a lifecycle operation (store GC), not a lookup,
    /// and not a capacity eviction.
    pub fn remove(&self, key: &K) -> bool {
        self.shard_of(key).write().expect("cache shard poisoned").remove(key).is_some()
    }

    /// Visits every resident entry (per-shard read locks; entries seeded
    /// or inserted concurrently may or may not be visited). The export
    /// path of the persistent store.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        self.for_each_with_used(|k, v, _| f(k, v));
    }

    /// [`ShardedMap::for_each`] plus each entry's *used* flag: `true` when
    /// a live lookup or insert has touched the entry, `false` for entries
    /// that were only bulk-seeded (e.g. loaded from the persistent store)
    /// and never served. The store's GC uses this to age out entries no
    /// process references anymore.
    pub fn for_each_with_used(&self, mut f: impl FnMut(&K, &V, bool)) {
        for s in &self.shards {
            for (k, slot) in s.read().expect("cache shard poisoned").iter() {
                f(k, &slot.value, slot.last_used.load(Ordering::SeqCst) > 0);
            }
        }
    }

    /// Memoizing lookup: on a miss, computes the value *outside* any lock
    /// (concurrent first-misses may compute redundantly — the results are
    /// deterministic, so last-write-wins is safe) and inserts it.
    pub fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let v = compute();
        self.insert(key.clone(), v.clone());
        v
    }

    /// Number of resident entries (sums shard sizes; advisory under
    /// concurrency).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().expect("cache shard poisoned").len()).sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Drops every resident entry (counters are preserved).
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().expect("cache shard poisoned").clear();
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// One memoized instruction class: the pulse program plus the KAK
/// decomposition of its verified evolution (the per-class half of
/// Algorithm 1's 1Q-correction step — per-gate corrections are then two
/// cheap 2×2 products away).
#[derive(Debug, Clone)]
pub struct SolvedClass {
    /// The pulse program realizing the class.
    pub pulse: PulseSolution,
    /// KAK decomposition of `e^{-iτ(H+H₁+H₂)}`.
    pub evo_kak: Kak,
}

/// Cache key: quantized coupling coefficients plus quantized Weyl class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PulseKey {
    coupling: [i64; 3],
    class: WeylClassKey,
}

/// Memoizes [`solve_pulse`] per (coupling, SU(4) class at the
/// [`SU4_CLASS_TOL`] grouping tolerance).
///
/// Two gates whose Weyl coordinates agree within the tolerance are *the
/// same instruction* under the paper's calibration model (§5.3.1), so
/// sharing one pulse program between them is semantically exact: the
/// cached solution's own `target` coordinates are returned with it, and
/// per-gate 1Q corrections absorb the (≤ tol ≈ 1e-5, i.e. ≤ ~1e-10
/// process infidelity) class difference.
#[derive(Debug, Default)]
pub struct PulseCache {
    map: ShardedMap<PulseKey, Arc<SolvedClass>>,
    solver: SolverCounters,
}

impl PulseCache {
    /// An empty cache with the default shape.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with an explicit shard count and per-shard capacity
    /// (the LRU knob — see [`ShardedMap::with_shape`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `shard_capacity` is zero.
    pub fn with_shape(shards: usize, shard_capacity: usize) -> Self {
        Self {
            map: ShardedMap::with_shape(shards, shard_capacity),
            solver: SolverCounters::default(),
        }
    }

    fn key(cp: &Coupling, w: &WeylCoord) -> PulseKey {
        PulseKey { coupling: cp.class_key(), class: w.class_key(SU4_CLASS_TOL) }
    }

    /// Memoized [`solve_pulse`]: returns the cached class solution when
    /// one exists, else solves, verifies, and caches. Solver *failures*
    /// are not cached (they are rare and retrying costs what the first
    /// attempt did).
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the underlying solver on a miss.
    pub fn solve(&self, cp: &Coupling, w: &WeylCoord) -> Result<Arc<SolvedClass>, SolveError> {
        let key = Self::key(cp, w);
        if let Some(entry) = self.map.get(&key) {
            return Ok(entry);
        }
        let (solved, profile) = solve_pulse_profiled(cp, w);
        self.solver.record(&profile, solved.is_err());
        let pulse = solved?;
        let evo = evolve(cp, &pulse.params, pulse.tau);
        let evo_kak =
            kak_decompose(&evo).map_err(|e| SolveError { message: e.to_string() })?;
        let entry = Arc::new(SolvedClass { pulse, evo_kak });
        self.map.insert(key, entry.clone());
        Ok(entry)
    }

    /// Memoized counterpart of [`crate::scheme::solve_with_mirroring`]:
    /// near-identity classes (`‖w‖₁ ≤ r`) are replaced by their mirror
    /// before the cached solve; the returned flag says whether the
    /// compiler must track a logical SWAP.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the underlying solver.
    pub fn solve_with_mirroring(
        &self,
        cp: &Coupling,
        w: &WeylCoord,
        r: f64,
    ) -> Result<(Arc<SolvedClass>, bool), SolveError> {
        /// Coordinates with an ℓ₁ norm at or below this are *exactly*
        /// the identity class; mirroring them would manufacture a SWAP
        /// for a no-op.
        const MIRROR_MIN_L1: f64 = 1e-12;
        if w.is_near_identity(r) && w.l1_norm() > MIRROR_MIN_L1 {
            let mc = crate::scheme::canonicalize_coords(&w.mirror())?;
            Ok((self.solve(cp, &mc)?, true))
        } else {
            Ok((self.solve(cp, w)?, false))
        }
    }

    /// Memoized [`crate::scheme::realize_gate`]: the per-class pulse and
    /// evolution KAK come from the cache; only the target's own KAK and
    /// four 2×2 products run per gate.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if `u` is not a 4×4 unitary or the class
    /// solve fails.
    pub fn realize(
        &self,
        cp: &Coupling,
        u: &CMat,
    ) -> Result<crate::scheme::GateRealization, SolveError> {
        let kt = kak_decompose(u).map_err(|e| SolveError { message: e.to_string() })?;
        let entry = self.solve(cp, &kt.coords)?;
        let kr = &entry.evo_kak;
        // Same-bucket class members can differ by up to the grouping
        // tolerance *per component* (both round to the same multiple of
        // tol), so the sanity bound must be component-wise — a Euclidean
        // bound of tol would spuriously reject opposite bucket corners.
        if !kt.coords.approx_eq(&kr.coords, SU4_CLASS_TOL) {
            return Err(SolveError {
                message: format!(
                    "cached class {} too far from target {}",
                    kr.coords, kt.coords
                ),
            });
        }
        let a1 = kt.a1.mul_mat(&kr.a1.adjoint());
        let a2 = kt.a2.mul_mat(&kr.a2.adjoint());
        let b1 = kr.b1.adjoint().mul_mat(&kt.b1);
        let b2 = kr.b2.adjoint().mul_mat(&kt.b2);
        let phase = kt.phase * kr.phase.recip();
        Ok(crate::scheme::GateRealization {
            pulse: entry.pulse.clone(),
            a1,
            a2,
            b1,
            b2,
            phase,
        })
    }

    /// Exports every memoized class as `((coupling class key, Weyl class
    /// key), solution, used)` — the pulse pool's half of a
    /// persistent-store save. The trailing flag is `true` for entries a
    /// live solve touched (see [`ShardedMap::for_each_with_used`]).
    pub fn export_classes(&self) -> Vec<(([i64; 3], WeylClassKey), Arc<SolvedClass>, bool)> {
        let mut out = Vec::with_capacity(self.map.len());
        self.map.for_each_with_used(|k, v, used| out.push(((k.coupling, k.class), v.clone(), used)));
        out
    }

    /// Removes one class solution by explicit key parts, returning whether
    /// it was resident. The store GC's in-memory purge hook.
    pub fn remove_class(&self, coupling: [i64; 3], class: WeylClassKey) -> bool {
        self.map.remove(&PulseKey { coupling, class })
    }

    /// Seeds one class solution under explicit key parts (counter-free —
    /// see [`ShardedMap::seed`]). The store's load path; keys must have
    /// been produced by [`Coupling::class_key`] / [`WeylCoord::class_key`]
    /// at [`SU4_CLASS_TOL`], which the save path guarantees.
    pub fn seed_class(&self, coupling: [i64; 3], class: WeylClassKey, entry: Arc<SolvedClass>) {
        self.map.seed(PulseKey { coupling, class }, entry);
    }

    /// Counter snapshot of the class memo table.
    pub fn stats(&self) -> CacheStats {
        self.map.stats()
    }

    /// Aggregated cold-path solver counters (every miss-triggered solve's
    /// deterministic [`EaSolveProfile`], summed).
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.snapshot()
    }

    /// Drops every memoized class (counters survive).
    pub fn clear(&self) {
        self.map.clear();
    }

    /// Number of memoized classes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Encodes a [`SolvedClass`] for the persistent compile store: the pulse
/// program fields in declaration order, then the evolution KAK. Field
/// order and tag values are frozen (see `reqisc_qmath::bytes`); changes
/// require a store format-version bump — the region below is
/// fingerprinted into `crates/lint/store_surface.lock` by the
/// `reqisc-lint` store-format rule, which denies edits made without the
/// bump.
// lint:store-surface-begin
pub fn write_solved_class(w: &mut reqisc_qmath::ByteWriter, s: &SolvedClass) {
    let p = &s.pulse;
    w.put_f64(p.tau);
    w.put_f64(p.params.omega1);
    w.put_f64(p.params.omega2);
    w.put_f64(p.params.delta);
    w.put_u8(match p.subscheme {
        Subscheme::Nd => 0,
        Subscheme::EaPlus => 1,
        Subscheme::EaMinus => 2,
    });
    w.put_u8(match p.image {
        Image::Direct => 0,
        Image::Mirrored => 1,
    });
    reqisc_qmath::bytes::write_weyl(w, &p.target);
    w.put_f64(p.residual);
    reqisc_qmath::bytes::write_kak(w, &s.evo_kak);
}

/// Decodes a [`SolvedClass`].
///
/// # Errors
///
/// [`reqisc_qmath::CodecError`] on truncation or invalid enum tags.
pub fn read_solved_class(
    r: &mut reqisc_qmath::ByteReader<'_>,
) -> Result<SolvedClass, reqisc_qmath::CodecError> {
    let tau = r.get_f64()?;
    let params = PulseParams {
        omega1: r.get_f64()?,
        omega2: r.get_f64()?,
        delta: r.get_f64()?,
    };
    let subscheme = match r.get_u8()? {
        0 => Subscheme::Nd,
        1 => Subscheme::EaPlus,
        2 => Subscheme::EaMinus,
        t => return Err(reqisc_qmath::CodecError::new(format!("unknown subscheme tag {t}"))),
    };
    let image = match r.get_u8()? {
        0 => Image::Direct,
        1 => Image::Mirrored,
        t => return Err(reqisc_qmath::CodecError::new(format!("unknown image tag {t}"))),
    };
    let target = reqisc_qmath::bytes::read_weyl(r)?;
    let residual = r.get_f64()?;
    let evo_kak = reqisc_qmath::bytes::read_kak(r)?;
    Ok(SolvedClass {
        pulse: PulseSolution { tau, params, subscheme, image, target, residual },
        evo_kak,
    })
}
// lint:store-surface-end

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qmath::gates as qg;

    #[test]
    fn sharded_map_counts_hits_misses_inserts() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        assert_eq!(m.get(&1), None);
        m.insert(1, 10);
        assert_eq!(m.get(&1), Some(10));
        assert_eq!(m.get(&2), None);
        let s = m.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions), (1, 2, 1, 0));
        assert_eq!(s.lookups(), 3);
        assert!(s.is_consistent());
    }

    #[test]
    fn sharded_map_evicts_at_capacity() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_shape(1, 4);
        for k in 0..10 {
            // Memo discipline: a miss precedes every insert.
            assert_eq!(m.get(&k), None);
            m.insert(k, k);
        }
        assert!(m.len() <= 4);
        let s = m.stats();
        assert_eq!(s.inserts, 10);
        assert_eq!(s.evictions, 6);
        assert!(s.is_consistent());
    }

    #[test]
    fn sharded_map_evicts_least_recently_used() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_shape(1, 2);
        // Memo discipline throughout: a missed get precedes every insert.
        assert_eq!(m.get(&1), None);
        m.insert(1, 10);
        assert_eq!(m.get(&2), None);
        m.insert(2, 20);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(m.get(&1), Some(10));
        assert_eq!(m.get(&3), None);
        m.insert(3, 30);
        assert_eq!(m.get(&2), None, "LRU entry must have been evicted");
        assert_eq!(m.get(&1), Some(10));
        assert_eq!(m.get(&3), Some(30));
        // Accounting stays exact under eviction: the evicted key's lookup
        // is an honest miss, everything else honest hits.
        let s = m.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions), (3, 4, 3, 1));
        assert!(s.is_consistent());
    }

    #[test]
    fn seeded_entries_are_coldest_victims_and_report_unused() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_shape(1, 3);
        m.seed(1, 10);
        m.seed(2, 20);
        assert_eq!(m.get(&2), Some(20), "seeded entry serves as a hit");
        m.insert(3, 30);
        // At capacity: the never-used seed (key 1) is the victim, not the
        // seed a lookup touched and not the live insert.
        m.insert(4, 40);
        assert_eq!(m.get(&1), None, "unused seed must be evicted first");
        assert_eq!(m.get(&2), Some(20));
        assert_eq!(m.get(&4), Some(40));
        let mut used = std::collections::BTreeMap::new();
        m.for_each_with_used(|k, _, u| {
            used.insert(*k, u);
        });
        assert_eq!(used.get(&2), Some(&true), "hit seed reports used");
        assert_eq!(used.get(&3), Some(&true), "live insert reports used");
        // Removal is counter-free.
        let before = m.stats();
        assert!(m.remove(&3));
        assert!(!m.remove(&3));
        assert_eq!(m.stats(), before);
        assert_eq!(m.len(), 2);
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

    #[test]
    fn pulse_cache_hits_on_repeat_class() {
        let cache = PulseCache::new();
        let cp = Coupling::xy(1.0);
        let w = WeylCoord::cnot();
        let a = cache.solve(&cp, &w).expect("solve");
        let b = cache.solve(&cp, &w).expect("solve");
        assert!(Arc::ptr_eq(&a, &b), "second solve must be the cached Arc");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // A coupling change is a different key.
        cache.solve(&Coupling::xx(1.0), &w).expect("solve");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn solved_class_codec_roundtrips_and_reseeds() {
        let cache = PulseCache::new();
        let cp = Coupling::xy(1.0);
        cache.solve(&cp, &WeylCoord::cnot()).expect("solve");
        // iSWAP is drive-free under XY — a cheap second class with a
        // different subscheme/KAK shape for the codec to exercise.
        cache.solve(&cp, &WeylCoord::iswap()).expect("solve");
        let exported = cache.export_classes();
        assert_eq!(exported.len(), 2);
        assert!(exported.iter().all(|(_, _, used)| *used), "live solves must mark entries used");
        // Round-trip every class through the codec into a fresh cache.
        let warm = PulseCache::new();
        for (key, entry, _) in &exported {
            let mut w = reqisc_qmath::ByteWriter::new();
            write_solved_class(&mut w, entry);
            let bytes = w.into_bytes();
            let mut r = reqisc_qmath::ByteReader::new(&bytes);
            let back = read_solved_class(&mut r).expect("roundtrip");
            assert!(r.is_exhausted());
            assert_eq!(back.pulse.tau.to_bits(), entry.pulse.tau.to_bits());
            assert_eq!(back.pulse.subscheme, entry.pulse.subscheme);
            assert!(back.evo_kak.reconstruct().approx_eq(&entry.evo_kak.reconstruct(), 0.0));
            warm.seed_class(key.0, key.1, Arc::new(back));
            // Truncations fail cleanly.
            for cut in (0..bytes.len()).step_by(17) {
                assert!(read_solved_class(&mut reqisc_qmath::ByteReader::new(&bytes[..cut]))
                    .is_err());
            }
        }
        // Seeding is counter-free and the seeded entries serve as hits.
        let s = warm.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (0, 0, 0));
        assert_eq!(warm.len(), 2);
        let a = warm.solve(&cp, &WeylCoord::cnot()).expect("warm solve");
        assert_eq!(warm.stats().hits, 1, "seeded entry must hit");
        // The reloaded realization is still exact.
        let r = warm.realize(&cp, &qg::cnot()).expect("realize");
        assert!(r.reconstruct(&cp).approx_eq(&qg::cnot(), 1e-6));
        assert!(a.pulse.residual < 1e-7);
    }

    #[test]
    fn cached_realization_is_exact() {
        let cache = PulseCache::new();
        for cp in [Coupling::xy(1.0), Coupling::xx(1.0)] {
            for u in [qg::cnot(), qg::cz(), qg::iswap(), qg::swap()] {
                let r = cache.realize(&cp, &u).expect("realize");
                let rec = r.reconstruct(&cp);
                assert!(
                    rec.approx_eq(&u, 1e-6),
                    "cached realization residual {:.2e}",
                    rec.max_dist(&u)
                );
            }
        }
        // CNOT and CZ share a class: 8 realize calls, but CZ/CNOT under
        // each coupling share one solve.
        let s = cache.stats();
        assert!(s.hits >= 2, "locally-equivalent gates must share entries: {s}");
    }
}
