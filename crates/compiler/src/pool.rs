//! The memo-pool primitive behind [`crate::cache::CompileCache`]: a
//! sharded, read-mostly concurrent map with hit/miss/insert/eviction
//! counters and least-recently-used eviction.
//!
//! Concurrency model: entries are immutable once inserted (`Arc`ed by
//! the cache), so lookups take only a shard's `RwLock` *read* lock —
//! many readers proceed in parallel and the hot warm-cache path never
//! serializes. Writes (misses) take one shard's write lock; with
//! [`DEFAULT_SHARDS`]-way sharding, concurrent misses on different keys
//! rarely contend.
//!
//! The map's unit tests sit in `cache.rs`'s test module, beside the
//! pools that rely on what they pin.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

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

/// One resident entry: the value plus its last-use tick. The tick is
/// atomic so the read-lock-only lookup path can bump it — recency
/// tracking must not turn every hit into a write-lock acquisition.
/// `0` is reserved for "never used since seeding": bulk-loaded entries
/// stay distinguishable from live ones, which is what both the LRU
/// victim choice (coldest first) and a bulk publish pass's re-stamp of
/// referenced entries key on.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: AtomicU64,
}

/// A fixed-shard concurrent hash map with counters, a per-shard
/// capacity bound, and least-recently-used eviction. The compile cache's
/// shared memo-table primitive: reads take only a shard read lock, writes
/// a shard write lock.
#[derive(Debug)]
pub(crate) struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, Slot<V>>>>,
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
    pub(crate) fn get(&self, key: &K) -> Option<V> {
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
    pub(crate) fn probe(&self, key: &K) -> Option<V> {
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
    pub(crate) fn insert(&self, key: K, value: V) {
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
    /// the warm-start path used when the shared segment is loaded into a
    /// fresh cache. Counter-free seeding keeps [`CacheStats::is_consistent`]
    /// (`inserts ≤ misses`) true, and keeps hit rates meaningful: a
    /// disk-warmed entry served later still counts as a *hit* against zero
    /// misses. Respects the capacity bound by skipping (never evicting):
    /// live inserts outrank bulk-loaded entries. Seeded entries start with
    /// the "never used" recency stamp, so they are also the first LRU
    /// victims and report `used = false` to
    /// [`ShardedMap::for_each_with_used`] until a lookup touches them.
    pub(crate) fn seed(&self, key: K, value: V) {
        self.seed_at(key, value, 0);
    }

    /// [`ShardedMap::seed`] for an entry fetched from another tier to
    /// answer a lookup (a shared-segment hit): still counter-free and
    /// never evicting, but marked used and most recently used, like the
    /// hit it answers.
    pub(crate) fn seed_served(&self, key: K, value: V) {
        self.seed_at(key, value, self.next_tick());
    }

    fn seed_at(&self, key: K, value: V, last_used: u64) {
        let mut shard = self.shard_of(&key).write().expect("cache shard poisoned");
        if shard.len() >= self.shard_capacity && !shard.contains_key(&key) {
            return;
        }
        shard.insert(key, Slot { value, last_used: AtomicU64::new(last_used) });
    }

    /// Visits every resident entry (per-shard read locks; entries seeded
    /// or inserted concurrently may or may not be visited) with its
    /// *used* flag: `true` when a live lookup or insert has touched the
    /// entry, `false` for entries that were only bulk-seeded (e.g. from
    /// the shared segment) and never served. A bulk publish pass re-stamps
    /// the used ones in the segment, so entries no process references
    /// anymore are the ones that age out.
    pub(crate) fn for_each_with_used(&self, mut f: impl FnMut(&K, &V, bool)) {
        for s in &self.shards {
            for (k, slot) in s.read().expect("cache shard poisoned").iter() {
                f(k, &slot.value, slot.last_used.load(Ordering::SeqCst) > 0);
            }
        }
    }

    /// Memoizing lookup: on a miss, computes the value *outside* any lock
    /// (concurrent first-misses may compute redundantly — the results are
    /// deterministic, so last-write-wins is safe) and inserts it.
    pub(crate) fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let v = compute();
        self.insert(key.clone(), v.clone());
        v
    }

    /// Number of resident entries (sums shard sizes; advisory under
    /// concurrency).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().expect("cache shard poisoned").len()).sum()
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Drops every resident entry (counters are preserved).
    pub(crate) fn clear(&self) {
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
