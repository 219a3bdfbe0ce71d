//! The memo-pool primitive behind [`crate::cache::CompileCache`]: a
//! sharded, read-mostly concurrent map with hit/miss/insert/eviction
//! counters, least-recently-used eviction and single-flight fills, and
//! [`par_map`], the scoped worker loop that fills the pools in parallel.
//!
//! Concurrency model: every resident key owns one slot, a once-cell
//! shared by `Arc`. A lookup takes only a shard's `RwLock` *read* lock,
//! so many readers proceed in parallel and the hot warm-cache path never
//! serializes. The first miss of a key inserts the key's empty slot under
//! the shard's write lock and computes with no lock held; a concurrent
//! miss of the same key waits on that slot instead of computing it
//! again. So each key is computed once, and every batch's counters are
//! exact. With [`DEFAULT_SHARDS`]-way sharding, misses on different keys
//! rarely contend.
//!
//! The map's unit tests sit in `cache.rs`'s test module, beside the
//! pools that rely on what they pin.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Shard count of [`ShardedMap`]: enough to make write contention
/// negligible at typical worker counts without bloating empty maps.
pub(crate) const DEFAULT_SHARDS: usize = 16;

/// Default per-shard entry capacity (so a default map holds up to
/// `16 × 1024` entries before evicting).
pub(crate) const DEFAULT_SHARD_CAPACITY: usize = 1024;

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

    /// Internal consistency: inserts can't exceed misses (every insert is
    /// a missed lookup's fill) and evictions can't exceed inserts (only a
    /// fill evicts, at most one entry).
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
/// [`CacheStats::is_consistent`] inequalities — a fill counts its miss,
/// then its insert, then its eviction if it made one, and `snapshot`
/// loads each counter *before* its causal predecessor, so a concurrent
/// snapshot can only under-count the left side of each ≤, never
/// over-count it. (With `Relaxed` the loads could be satisfied out of
/// order on weak-memory targets and the argument would not hold.)
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

/// One key's slot: its value, once a miss has computed it or a seed
/// brought it in, plus its last-use tick. A slot still being filled is
/// absent to everything but a miss of its key, which waits for it. The
/// tick is atomic so the read-lock-only lookup path can bump it —
/// recency tracking must not turn every hit into a write-lock
/// acquisition. `0` is reserved for "never used since seeding":
/// bulk-loaded entries stay distinguishable from live ones, which is
/// what both the LRU victim choice (coldest first) and a bulk publish
/// pass's re-stamp of referenced entries key on.
#[derive(Debug)]
struct Slot<V> {
    value: OnceLock<V>,
    last_used: AtomicU64,
}

/// A fixed-shard concurrent hash map with counters, a per-shard
/// capacity bound, least-recently-used eviction and single-flight fills.
/// The compile cache's shared memo-table primitive: reads take only a
/// shard read lock; a key's first miss takes the shard's write lock to
/// insert the key's slot, and again to record the slot's fill.
#[derive(Debug)]
pub(crate) struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, Arc<Slot<V>>>>>,
    shard_capacity: usize,
    counters: Counters,
    /// Global recency clock; see [`Slot`].
    tick: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// A map with [`DEFAULT_SHARDS`] shards of [`DEFAULT_SHARD_CAPACITY`].
    pub(crate) fn new() -> Self {
        Self::with_shape(DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY)
    }

    /// A map with explicit shard count and per-shard capacity.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `shard_capacity` is zero.
    pub(crate) fn with_shape(shards: usize, shard_capacity: usize) -> Self {
        assert!(shards > 0 && shard_capacity > 0, "degenerate cache shape");
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_capacity,
            counters: Counters::default(),
            tick: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> &RwLock<HashMap<K, Arc<Slot<V>>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// The next recency stamp (strictly positive; `0` means unused).
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// `key`'s slot, filled or still being filled; when none is resident,
    /// a new empty one, inserted under the shard write lock.
    fn insert(&self, key: &K) -> Arc<Slot<V>> {
        let mut shard = self.shard_of(key).write().expect("cache shard poisoned");
        let slot = shard.entry(key.clone()).or_insert_with(|| {
            Arc::new(Slot { value: OnceLock::new(), last_used: AtomicU64::new(0) })
        });
        Arc::clone(slot)
    }

    /// Records the fill of `key`'s slot: counts its miss and its insert,
    /// then, when the shard holds more slots than its capacity, evicts
    /// the least-recently-used filled one. Never-used (seeded) entries
    /// carry tick `0`, so bulk-loaded entries are evicted before anything
    /// a live lookup has touched; a slot still being filled (the caller's
    /// own among them) is never the victim.
    fn record_fill(&self, key: &K) {
        self.counters.misses.fetch_add(1, Ordering::SeqCst);
        self.counters.inserts.fetch_add(1, Ordering::SeqCst);
        let mut shard = self.shard_of(key).write().expect("cache shard poisoned");
        if shard.len() <= self.shard_capacity {
            return;
        }
        let victim = shard
            .iter()
            .filter(|(_, slot)| slot.value.get().is_some())
            .min_by_key(|(_, slot)| slot.last_used.load(Ordering::SeqCst))
            .map(|(k, _)| k.clone());
        if let Some(victim) = victim {
            shard.remove(&victim);
            self.counters.evictions.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Hit-only-counted lookup: a filled entry counts a hit, is marked
    /// most-recently-used and returns; an absent key — or one whose
    /// first miss is still computing it — counts **nothing**, returns
    /// `None` at once and never waits. The service's submission probe
    /// reads the program pool with this so a miss admitted to the solve
    /// stage — whose `compile()` performs the real, counted lookup —
    /// still accounts for exactly one miss per cold job, and
    /// [`CacheStats::is_consistent`] (`inserts ≤ misses`) stays true.
    pub(crate) fn probe(&self, key: &K) -> Option<V> {
        let shard = self.shard_of(key).read().expect("cache shard poisoned");
        let slot = shard.get(key)?;
        let value = slot.value.get()?.clone();
        slot.last_used.store(self.next_tick(), Ordering::SeqCst);
        self.counters.hits.fetch_add(1, Ordering::SeqCst);
        Some(value)
    }

    /// Memoizing lookup, single-flight: a filled entry is a hit. The
    /// first miss of a key inserts the key's empty slot and runs
    /// `compute` with no lock held; concurrent callers of the same key
    /// wait on that slot and count a hit when it fills. The caller whose
    /// `compute` fills the slot counts the miss and the insert. A
    /// `compute` that panics leaves the slot empty, and the next caller
    /// (a waiter, or a later lookup) computes.
    pub(crate) fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        if let Some(value) = self.probe(key) {
            return value;
        }
        let slot = self.insert(key);
        let mut filled = false;
        let value = slot.value.get_or_init(|| {
            let value = compute();
            slot.last_used.store(self.next_tick(), Ordering::SeqCst);
            self.record_fill(key);
            filled = true;
            value
        });
        if !filled {
            self.counters.hits.fetch_add(1, Ordering::SeqCst);
            slot.last_used.store(self.next_tick(), Ordering::SeqCst);
        }
        value.clone()
    }

    /// Seeds `key → value` without touching the hit/miss/insert counters —
    /// the warm-start path (the shared segment loaded into a fresh cache)
    /// and a shared-segment hit that answers a lookup. Counter-free
    /// seeding keeps [`CacheStats::is_consistent`] (`inserts ≤ misses`)
    /// true, and keeps hit rates meaningful: a disk-warmed entry served
    /// later still counts as a *hit* against zero misses. Respects the
    /// capacity bound by skipping (never evicting): live fills outrank
    /// bulk-loaded entries. A seed with `used = false` starts with the
    /// "never used" recency stamp, so it is among the first LRU victims
    /// and reports `used = false` to [`ShardedMap::for_each_with_used`]
    /// until a lookup touches it; `used = true` marks it most recently
    /// used, like the hit it answers. A slot still being filled is
    /// replaced without waiting: its waiters keep the slot they hold.
    pub(crate) fn seed(&self, key: K, value: V, used: bool) {
        let last_used = if used { self.next_tick() } else { 0 };
        let mut shard = self.shard_of(&key).write().expect("cache shard poisoned");
        if shard.len() >= self.shard_capacity && !shard.contains_key(&key) {
            return;
        }
        let slot = Slot { value: OnceLock::from(value), last_used: AtomicU64::new(last_used) };
        shard.insert(key, Arc::new(slot));
    }

    /// Visits every filled entry (per-shard read locks; entries seeded
    /// or filled concurrently may or may not be visited, and a slot still
    /// being filled is skipped, never waited for) with its *used* flag:
    /// `true` when a live lookup or fill has touched the entry, `false`
    /// for entries that were only bulk-seeded (e.g. from the shared
    /// segment) and never served. A bulk publish pass re-stamps the used
    /// ones in the segment, so entries no process references anymore are
    /// the ones that age out.
    pub(crate) fn for_each_with_used(&self, mut f: impl FnMut(&K, &V, bool)) {
        for s in &self.shards {
            for (k, slot) in s.read().expect("cache shard poisoned").iter() {
                if let Some(value) = slot.value.get() {
                    f(k, value, slot.last_used.load(Ordering::SeqCst) > 0);
                }
            }
        }
    }

    /// Number of filled entries (advisory under concurrency).
    pub(crate) fn len(&self) -> usize {
        let mut n = 0;
        self.for_each_with_used(|_, _, _| n += 1);
        n
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// `threads`, or the available hardware parallelism when it is `0`.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Maps `f` over `items` on up to `threads` scoped workers that claim
/// items from a shared cursor, so a few slow items do not starve the
/// rest of a worker's stripe. Returns the results in item order. When
/// that would start at most one worker, `f` runs on the calling thread
/// and no thread starts.
pub(crate) fn par_map<T: Sync, R: Send + Sync>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if threads.min(items.len()) <= 1 {
        return items.iter().map(f).collect();
    }
    let results: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let _ = results[i].set(f(item));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.into_inner().expect("a worker panicked before finishing its item"))
        .collect()
}
