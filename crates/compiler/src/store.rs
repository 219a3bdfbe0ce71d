//! The persistent, cross-process half of the compilation service layer: a
//! versioned on-disk serialization of the [`CompileCache`] pools, so a
//! fresh `cargo run` / CI job warm-starts from what earlier processes
//! already compiled instead of paying the full cold batch.
//!
//! ## File format
//!
//! One file, `reqisc-cache.bin`, in the store directory:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "RQCS"
//! 4       4     format version (little-endian u32)
//! 8       8     payload length in bytes (little-endian u64)
//! 16      16    FNV-128 digest of the payload bytes (little-endian u128)
//! 32      …     payload
//! ```
//!
//! The payload opens with the file's **generation** (a u64 that every
//! save increments), followed by three length-prefixed sections in fixed
//! order — whole-program entries, block-synthesis entries, pulse-class
//! entries — each entry a content-addressed key (the same 128-bit FNV
//! fingerprints the in-memory pools use), the entry's **last-referenced
//! generation** stamp, then its codec-encoded value (see
//! `reqisc_qmath::bytes`).
//!
//! ## GC / compaction
//!
//! Each save re-stamps the entries the in-memory cache actually
//! *referenced* (served or computed — not merely bulk-loaded) with the
//! new generation; everything else keeps its old stamp and silently ages.
//! [`CacheStore::compact`] is a save that additionally drops entries
//! whose stamp is more than `max_idle_gens` generations old *and* purges
//! the same entries from the live cache, so a long-lived shared cache
//! directory converges to its working set instead of growing without
//! bound. Compaction never changes any served result: dropped entries are
//! simply recomputed (bit-identically — pipelines are deterministic) if
//! a future request needs them.
//!
//! ## Invalidation rules
//!
//! A file is loaded **whole or not at all**:
//!
//! * wrong magic, wrong version, length mismatch, checksum mismatch, or
//!   any entry-level decode failure rejects the entire file — the cache
//!   stays cold, the `rejected` stat increments, and the caller keeps
//!   going (never a panic, never a partial seed);
//! * option/tolerance changes need no file-level invalidation: every key
//!   embeds the options fingerprint (and the class keys embed the
//!   grouping tolerance via quantization), so stale entries simply never
//!   hit. They are garbage-collected by the next save only if still
//!   resident in memory — i.e. a save persists the *union* of the
//!   current file and the in-memory pools;
//! * any change to a codec layout, a fingerprint definition, or a
//!   canonicalization tolerance (e.g. `KAK_FACE_SNAP_TOL`,
//!   `SU4_CLASS_TOL`) must bump [`STORE_FORMAT_VERSION`] so old files
//!   reject cleanly instead of mis-addressing.
//!
//! ## Concurrency
//!
//! Saves serialize to a temp file in the same directory and `rename` into
//! place, so concurrent writers (two processes sharing a cache dir) race
//! to a *complete* file — last writer wins, readers never observe a torn
//! write. Because each save merges the on-disk union first, the losing
//! writer's entries survive unless both saved simultaneously (in which
//! case one batch's worth of work is recompiled next run — a performance
//! blip, never a correctness issue).

use crate::cache::{CompileCache, Program, ProgramKey, SynthKey};
use crate::pipelines::Pipeline;
use reqisc_microarch::cache::{read_solved_class, write_solved_class};
use reqisc_qcircuit::{read_circuit, write_circuit, Circuit};
use reqisc_qmath::{ByteReader, ByteWriter, CodecError, Fnv128, WeylClassKey};
use reqisc_synthesis::BlockCircuit;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// The header constants, the payload serializer, and the decoder below
// are marked store-surface regions: `reqisc-lint`'s store-format rule
// fingerprints them into `crates/lint/store_surface.lock` (keyed by
// STORE_FORMAT_VERSION) and denies any edit that doesn't come with a
// version bump + registry regeneration. See that file's header for the
// regeneration command.
// lint:store-surface-begin
/// Magic bytes opening every store file.
pub const STORE_MAGIC: [u8; 4] = *b"RQCS";

/// On-disk format version. Bump on **any** change to the header, section
/// layout, value codecs, fingerprint definitions, or canonicalization
/// tolerances baked into the keys.
///
/// History: v1 = PR 3 (no generations); v2 adds the file generation and
/// per-entry last-referenced stamps that GC/compaction ages on; v3 adds
/// `ByteReader::get_bytes` plus the shared-memory segment surface (the
/// `reqisc-shmem` header/record layout and the `sharing` pool-tag +
/// key/value codecs) — segments stamp this version into their header,
/// so the bump retires any segment written before the surface existed;
/// v4 appends the entry's 40-byte reply record to the segment's
/// whole-program value and makes `reply_coupling` and `ReplyRecord`
/// (`compiler/src/cache.rs`) store surface — the store file's program
/// codec stays circuit-only.
pub const STORE_FORMAT_VERSION: u32 = 4;

/// Store file name inside the store directory.
pub const STORE_FILE_NAME: &str = "reqisc-cache.bin";

const HEADER_LEN: usize = 32;
// lint:store-surface-end

/// Counter snapshot of one [`CacheStore`]'s activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries seeded into caches by successful loads.
    pub loaded_entries: u64,
    /// Entries written by successful saves (compactions included).
    pub saved_entries: u64,
    /// Files rejected (missing counts as cold, not rejected): corruption,
    /// truncation, version/magic mismatch, or unreadable.
    pub rejected: u64,
    /// [`CacheStore::compact`] passes completed.
    pub compactions: u64,
    /// Entries dropped by compaction (aged out of the file and purged
    /// from the live cache).
    pub gc_dropped: u64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries loaded, {} saved, {} files rejected, {} compactions ({} dropped)",
            self.loaded_entries, self.saved_entries, self.rejected, self.compactions, self.gc_dropped
        )
    }
}

/// Result of one [`CacheStore::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Entries surviving in the rewritten file.
    pub kept: usize,
    /// Entries dropped (from the file and the live cache).
    pub dropped: usize,
    /// The rewritten file's generation.
    pub generation: u64,
}

/// Result of one [`CacheStore::load_into`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// No store file yet: clean cold start.
    Missing,
    /// File loaded; counts per pool.
    Loaded {
        /// Whole-program entries seeded.
        programs: usize,
        /// Block-synthesis entries seeded.
        synthesis: usize,
        /// Pulse-class entries seeded.
        pulses: usize,
    },
    /// File present but unusable (corrupt/stale/truncated): clean cold
    /// start, `rejected` stat incremented.
    Rejected {
        /// Human-readable rejection cause.
        reason: String,
    },
}

impl LoadOutcome {
    /// Total entries seeded (0 unless `Loaded`).
    pub fn entries(&self) -> usize {
        match self {
            LoadOutcome::Loaded { programs, synthesis, pulses } => programs + synthesis + pulses,
            _ => 0,
        }
    }
}

/// Handle to one on-disk cache store directory.
#[derive(Debug)]
pub struct CacheStore {
    path: PathBuf,
    loaded_entries: AtomicU64,
    saved_entries: AtomicU64,
    rejected: AtomicU64,
    compactions: AtomicU64,
    gc_dropped: AtomicU64,
}

/// Process-global temp-file sequence: two `CacheStore` handles on the
/// same directory (one per tenant/thread is the normal shape) must never
/// generate the same temp name, or one writer truncates the file another
/// is about to rename and the atomicity guarantee dies.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Decoded payload sections, fully materialized before any seeding so a
/// late decode error can never leave a cache partially warmed. Each entry
/// carries its last-referenced generation stamp.
struct Decoded {
    generation: u64,
    programs: Vec<(ProgramKey, u64, Arc<Circuit>)>,
    synthesis: Vec<(SynthKey, u64, Arc<Option<BlockCircuit>>)>,
    pulses: Vec<(([i64; 3], WeylClassKey), u64, Arc<reqisc_microarch::SolvedClass>)>,
}

impl CacheStore {
    /// A store rooted at `dir` (created on first save; loading from a
    /// nonexistent directory is a clean [`LoadOutcome::Missing`]).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            path: dir.into().join(STORE_FILE_NAME),
            loaded_entries: AtomicU64::new(0),
            saved_entries: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            gc_dropped: AtomicU64::new(0),
        }
    }

    /// The store file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            loaded_entries: self.loaded_entries.load(Ordering::Relaxed),
            saved_entries: self.saved_entries.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            gc_dropped: self.gc_dropped.load(Ordering::Relaxed),
        }
    }

    /// Loads the store file (if any) and seeds every entry into `cache`.
    /// Never panics and never partially seeds: a bad file is counted,
    /// reported, and otherwise ignored — the caller proceeds cold.
    pub fn load_into(&self, cache: &CompileCache) -> LoadOutcome {
        let outcome = self.read_decoded();
        match outcome {
            Ok(None) => LoadOutcome::Missing,
            Ok(Some(d)) => {
                let (np, ns, nu) = (d.programs.len(), d.synthesis.len(), d.pulses.len());
                for (k, _, v) in d.programs {
                    cache.seed_program(k, program_entry(v));
                }
                for (k, _, v) in d.synthesis {
                    cache.seed_synthesis(k, v);
                }
                for ((cp, class), _, v) in d.pulses {
                    cache.pulses().seed_class(cp, class, v);
                }
                self.loaded_entries.fetch_add((np + ns + nu) as u64, Ordering::Relaxed);
                LoadOutcome::Loaded { programs: np, synthesis: ns, pulses: nu }
            }
            Err(reason) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                LoadOutcome::Rejected { reason }
            }
        }
    }

    /// Serializes the union of the current store file and `cache`'s pools
    /// to a temp file and atomically renames it into place. Returns the
    /// number of entries written.
    ///
    /// Generation stamping: the new file's generation is the old one + 1;
    /// entries the cache actually *referenced* (served or computed, not
    /// merely bulk-loaded) are stamped with it, everything else keeps its
    /// old stamp and ages — the raw material [`CacheStore::compact`]
    /// collects.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, write, rename).
    /// An unreadable/corrupt existing file is *not* an error: it is
    /// silently superseded by the fresh snapshot.
    pub fn save(&self, cache: &CompileCache) -> std::io::Result<usize> {
        let (n, _) = self.write_merged(cache, None)?;
        Ok(n)
    }

    /// A save that also **garbage-collects**: entries whose last-reference
    /// stamp is more than `max_idle_gens` generations behind the new file
    /// generation are dropped from the rewritten file *and* purged from
    /// `cache` (so the next save cannot resurrect them). `max_idle_gens =
    /// 0` keeps only entries this process referenced; a production
    /// snapshot timer wants something like 2–8 so entries survive across
    /// a few idle snapshots before aging out.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, same as [`CacheStore::save`].
    pub fn compact(
        &self,
        cache: &CompileCache,
        max_idle_gens: u64,
    ) -> std::io::Result<CompactOutcome> {
        let (kept, outcome) = self.write_merged(cache, Some(max_idle_gens))?;
        let outcome = outcome.unwrap_or(CompactOutcome { kept, dropped: 0, generation: 1 });
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.gc_dropped.fetch_add(outcome.dropped as u64, Ordering::Relaxed);
        Ok(outcome)
    }

    /// The shared save/compact path: merges disk + memory with generation
    /// stamping, optionally drops entries idle for more than
    /// `gc_max_idle_gens` generations (purging them from `cache` too),
    /// sorts, serializes, and atomically renames into place. Returns the
    /// entry count written plus the compaction outcome (when GC ran).
    fn write_merged(
        &self,
        cache: &CompileCache,
        gc_max_idle_gens: Option<u64>,
    ) -> std::io::Result<(usize, Option<CompactOutcome>)> {
        // Start from what is already on disk (merge, don't clobber), then
        // overlay the in-memory pools — newer results win on key clashes.
        let disk = match self.read_decoded() {
            Ok(Some(d)) => d,
            _ => Decoded {
                generation: 0,
                programs: Vec::new(),
                synthesis: Vec::new(),
                pulses: Vec::new(),
            },
        };
        let new_gen = disk.generation + 1;
        // Referenced entries take the new stamp; bulk-loaded-but-unused
        // entries keep the stamp the file already had (aging), and unused
        // entries with no on-disk stamp (seeded into a cache that is saved
        // to a *different* directory) count as fresh — a new file starts a
        // new aging history.
        let disk_programs =
            disk.programs.into_iter().map(|(k, stamp, v)| (k, stamp, program_entry(v))).collect();
        let mut programs = stamp_merge(disk_programs, cache.export_programs(), new_gen);
        let mut synthesis = stamp_merge(disk.synthesis, cache.export_synthesis(), new_gen);
        let mut pulses = stamp_merge(disk.pulses, cache.pulses().export_classes(), new_gen);

        let mut outcome = None;
        if let Some(max_idle) = gc_max_idle_gens {
            let before = programs.len() + synthesis.len() + pulses.len();
            let live = |stamp: u64| new_gen.saturating_sub(stamp) <= max_idle;
            programs.retain(|(k, stamp, _)| {
                let keep = live(*stamp);
                if !keep {
                    cache.remove_program(k);
                }
                keep
            });
            synthesis.retain(|(k, stamp, _)| {
                let keep = live(*stamp);
                if !keep {
                    cache.remove_synthesis(k);
                }
                keep
            });
            pulses.retain(|((cp, class), stamp, _)| {
                let keep = live(*stamp);
                if !keep {
                    cache.pulses().remove_class(*cp, *class);
                }
                keep
            });
            let kept = programs.len() + synthesis.len() + pulses.len();
            outcome = Some(CompactOutcome { kept, dropped: before - kept, generation: new_gen });
        }

        // Deterministic entry order: the in-memory pools iterate in hash
        // order, but equal cache *content* must serialize to equal *bytes*
        // (the round-trip tests diff whole files, and stable bytes make
        // repeated saves rsync/dedup-friendly).
        // lint:store-surface-begin
        programs.sort_by_key(|(k, _, _)| (k.circuit, k.pipeline.store_tag(), k.options));
        synthesis.sort_by_key(|(k, _, _)| (k.target, k.num_qubits, k.budget, k.options));
        pulses.sort_by_key(|((cp, class), _, _)| (*cp, class.0));
        let n = programs.len() + synthesis.len() + pulses.len();

        let mut payload = ByteWriter::new();
        payload.put_u64(new_gen);
        payload.put_usize(programs.len());
        for (k, stamp, v) in &programs {
            payload.put_u128(k.circuit);
            payload.put_u8(k.pipeline.store_tag());
            payload.put_u128(k.options);
            payload.put_u64(*stamp);
            write_circuit(&mut payload, v);
        }
        payload.put_usize(synthesis.len());
        for (k, stamp, v) in &synthesis {
            payload.put_u128(k.target);
            payload.put_usize(k.num_qubits);
            payload.put_usize(k.budget);
            payload.put_u128(k.options);
            payload.put_u64(*stamp);
            match v.as_ref() {
                Some(bc) => {
                    payload.put_u8(1);
                    bc.encode_into(&mut payload);
                }
                None => payload.put_u8(0),
            }
        }
        payload.put_usize(pulses.len());
        for ((cp, class), stamp, v) in &pulses {
            for c in cp {
                payload.put_i64(*c);
            }
            for c in class.0 {
                payload.put_i64(c);
            }
            payload.put_u64(*stamp);
            write_solved_class(&mut payload, v);
        }
        let payload = payload.into_bytes();

        let mut file = ByteWriter::new();
        file.put_bytes(&STORE_MAGIC);
        file.put_u32(STORE_FORMAT_VERSION);
        file.put_u64(payload.len() as u64);
        file.put_u128(checksum(&payload));
        file.put_bytes(&payload);
        // lint:store-surface-end

        let dir = self.path.parent().unwrap_or_else(|| Path::new("."));
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".{}.tmp.{}.{}",
            STORE_FILE_NAME,
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, file.as_bytes())?;
        match std::fs::rename(&tmp, &self.path) {
            Ok(()) => {}
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
        self.saved_entries.fetch_add(n as u64, Ordering::Relaxed);
        Ok((n, outcome))
    }

    /// Reads and fully decodes the store file. `Ok(None)` = no file;
    /// `Err(reason)` = present but unusable.
    fn read_decoded(&self) -> Result<Option<Decoded>, String> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable store file: {e}")),
        };
        decode_file(&bytes).map(Some).map_err(|e| e.message)
    }
}

/// A decoded whole-program value as a pool entry. The decoder holds the
/// only reference, so the circuit moves in without a copy.
fn program_entry(decoded: Arc<Circuit>) -> Arc<Program> {
    Arc::new(Program::new(Arc::unwrap_or_clone(decoded)))
}

/// Overlays the in-memory `fresh` exports on the on-disk `base`: a
/// *referenced* fresh entry (used flag set) is stamped `new_gen`; an
/// unreferenced one keeps the on-disk stamp if the key is on disk, else
/// counts as fresh. Disk entries whose key does not reappear survive with
/// their old stamp. HashMap-indexed so a save stays linear in total entry
/// count even for long-lived shared cache directories.
fn stamp_merge<K: Eq + std::hash::Hash + Copy, V>(
    base: Vec<(K, u64, V)>,
    fresh: Vec<(K, V, bool)>,
    new_gen: u64,
) -> Vec<(K, u64, V)> {
    let mut merged: std::collections::HashMap<K, (u64, V)> =
        base.into_iter().map(|(k, stamp, v)| (k, (stamp, v))).collect();
    for (k, v, used) in fresh {
        let stamp = if used { new_gen } else { merged.get(&k).map(|(s, _)| *s).unwrap_or(new_gen) };
        merged.insert(k, (stamp, v));
    }
    merged.into_iter().map(|(k, (stamp, v))| (k, stamp, v)).collect()
}

/// FNV-128 digest of raw bytes (the header checksum).
fn checksum(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    for b in bytes {
        h.write_u8(*b);
    }
    h.finish()
}

// lint:store-surface-begin
fn decode_file(bytes: &[u8]) -> Result<Decoded, CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::new(format!("file too short ({} bytes)", bytes.len())));
    }
    let mut r = ByteReader::new(bytes);
    let mut magic = [0u8; 4];
    for m in &mut magic {
        *m = r.get_u8()?;
    }
    if magic != STORE_MAGIC {
        return Err(CodecError::new("bad magic"));
    }
    let version = r.get_u32()?;
    if version != STORE_FORMAT_VERSION {
        return Err(CodecError::new(format!(
            "format version {version} (expected {STORE_FORMAT_VERSION})"
        )));
    }
    let payload_len = r.get_u64()? as usize;
    if payload_len != bytes.len() - HEADER_LEN {
        return Err(CodecError::new(format!(
            "payload length {payload_len} but {} bytes present",
            bytes.len() - HEADER_LEN
        )));
    }
    let digest = r.get_u128()?;
    let payload = &bytes[HEADER_LEN..];
    if checksum(payload) != digest {
        return Err(CodecError::new("payload checksum mismatch"));
    }
    let mut r = ByteReader::new(payload);
    let generation = r.get_u64()?;

    let np = r.get_count(41)?;
    let mut programs = Vec::with_capacity(np);
    for _ in 0..np {
        let circuit = r.get_u128()?;
        let tag = r.get_u8()?;
        let pipeline = Pipeline::from_store_tag(tag)
            .ok_or_else(|| CodecError::new(format!("unknown pipeline tag {tag}")))?;
        let options = r.get_u128()?;
        let stamp = r.get_u64()?;
        let value = read_circuit(&mut r)?;
        programs.push((ProgramKey { circuit, pipeline, options }, stamp, Arc::new(value)));
    }

    let ns = r.get_count(57)?;
    let mut synthesis = Vec::with_capacity(ns);
    for _ in 0..ns {
        let target = r.get_u128()?;
        let num_qubits = r.get_usize()?;
        let budget = r.get_usize()?;
        let options = r.get_u128()?;
        let stamp = r.get_u64()?;
        let value = match r.get_u8()? {
            0 => None,
            1 => Some(BlockCircuit::decode_from(&mut r)?),
            t => return Err(CodecError::new(format!("bad synthesis presence flag {t}"))),
        };
        synthesis.push((SynthKey { target, num_qubits, budget, options }, stamp, Arc::new(value)));
    }

    let nu = r.get_count(56)?;
    let mut pulses = Vec::with_capacity(nu);
    for _ in 0..nu {
        let cp = [r.get_i64()?, r.get_i64()?, r.get_i64()?];
        let class = WeylClassKey([r.get_i64()?, r.get_i64()?, r.get_i64()?]);
        let stamp = r.get_u64()?;
        let value = read_solved_class(&mut r)?;
        pulses.push(((cp, class), stamp, Arc::new(value)));
    }
    if !r.is_exhausted() {
        return Err(CodecError::new(format!("{} trailing bytes", r.remaining())));
    }
    Ok(Decoded { generation, programs, synthesis, pulses })
}
// lint:store-surface-end
