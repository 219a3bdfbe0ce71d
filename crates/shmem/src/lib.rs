#![warn(missing_docs)]
//! Crash-safe shared-memory cache segment: the one durable tier of the
//! compile cache.
//!
//! One mmap'd file hosts both memo pools (program / synthesis) for every
//! `reqiscd` daemon on the box and survives their restarts, as an
//! append-only record log plus a lock-free open-addressed index — the
//! DAXFS idiom applied to the compile cache: the shared medium *is* the
//! store. A writer publishes an entry by
//!
//! 1. appending the record bytes (payload framed with the
//!    `qmath::bytes` codec layer),
//! 2. a **Release** store of the record's committed length (checksum
//!    and key hash are already in place), then
//! 3. a **CAS** into the index slot.
//!
//! Readers validate the commit word, the checksum, and the seqlock
//! generation word, and never take a lock. A daemon killed mid-append
//! leaves only an uncommitted tail past the last indexed record; the
//! next *exclusive* attach (first process on the segment) scrubs the
//! index and truncates the reserve cursor back past that tail.
//!
//! Concurrency/crash discipline:
//!
//! * Every attached process holds a shared `flock` on the file for the
//!   segment's lifetime; the kernel drops it when the process dies.
//! * The first attacher wins the exclusive lock, initializes (or
//!   validates + recovers) the segment, then downgrades to shared.
//! * Committed records are immutable; the only mutable words are the
//!   header atomics, index slots, and per-record generation stamps.
//! * Generation stamps drive GC: probes and [`Segment::touch`] stamp
//!   entries with the current generation, [`Segment::bump_generation`]
//!   advances the clock (once per bulk publish pass of any attached
//!   process), and [`compact_file`] — offline, with every process
//!   detached — drops entries idle for more than its window. A full
//!   segment rejects publishes (`SegmentFull`); compaction is the way to
//!   reclaim its space.

#[cfg(not(unix))]
compile_error!("reqisc-shmem requires a Unix platform (mmap/flock)");

pub mod layout;
mod sys;

use layout::*;
use reqisc_qmath::bytes::{ByteReader, ByteWriter};
use reqisc_qmath::Fnv128;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors surfaced by segment attach/compact.
#[derive(Debug)]
pub enum ShmError {
    /// Underlying filesystem / mmap failure.
    Io(std::io::Error),
    /// The segment file exists but is not a valid segment (and could
    /// not be re-initialized because other processes are attached).
    Corrupt(String),
    /// The segment was written by a different format version and other
    /// processes are attached, so it cannot be re-initialized now.
    Version {
        /// Version found in the segment header.
        found: u32,
        /// Version this build expected.
        expected: u32,
    },
    /// An exclusive operation (compaction) found other processes
    /// attached to the segment.
    Busy,
    /// An operation that works on an existing segment (compaction) found
    /// no file at this path.
    Missing(PathBuf),
}

impl fmt::Display for ShmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmError::Io(e) => write!(f, "segment io error: {e}"),
            ShmError::Corrupt(m) => write!(f, "segment corrupt: {m}"),
            ShmError::Version { found, expected } => {
                write!(f, "segment format version {found}, expected {expected}")
            }
            ShmError::Busy => write!(f, "segment busy: other processes attached"),
            ShmError::Missing(p) => write!(f, "no segment file at {}", p.display()),
        }
    }
}

impl std::error::Error for ShmError {}

impl From<std::io::Error> for ShmError {
    fn from(e: std::io::Error) -> Self {
        ShmError::Io(e)
    }
}

/// What happened to a [`Segment::publish`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOutcome {
    /// The entry was appended and indexed.
    Published,
    /// An entry with this key already exists (first writer wins).
    Duplicate,
    /// The log or index has no room; the entry was not published.
    SegmentFull,
}

/// What the exclusive attach's recovery scrub found and repaired.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// True when this attach held the exclusive lock and scrubbed.
    pub ran: bool,
    /// True when the header was invalid/mismatched and the segment was
    /// re-initialized from scratch.
    pub reinitialized: bool,
    /// Valid entries that survived the scrub.
    pub live_entries: u64,
    /// Index slots that pointed at invalid/uncommitted records
    /// (tombstoned).
    pub dropped_records: u64,
    /// Index slots claimed by a writer that died before storing the
    /// record offset (tombstoned).
    pub stale_claims: u64,
    /// Bytes of uncommitted tail the reserve cursor was truncated past.
    pub reclaimed_bytes: u64,
}

/// Point-in-time segment statistics (per-handle counters + global
/// occupancy).
#[derive(Clone, Copy, Debug, Default)]
pub struct SegStats {
    /// Probes that returned an entry (this handle).
    pub probe_hits: u64,
    /// Probes that found nothing (this handle).
    pub probe_misses: u64,
    /// Entries this handle published.
    pub published: u64,
    /// Publishes skipped because the key was already present.
    pub duplicates: u64,
    /// Publishes rejected because the log or index was full.
    pub full_rejects: u64,
    /// Committed, indexed entries currently in the segment.
    pub entries: u64,
    /// Log bytes consumed (committed + any unreclaimed holes).
    pub bytes_used: u64,
    /// Total segment capacity in bytes.
    pub capacity: u64,
    /// Current GC generation.
    pub generation: u64,
}

/// Result of [`compact_file`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactReport {
    /// Entries carried into the compacted segment.
    pub kept: u64,
    /// Idle entries dropped.
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    probe_hits: AtomicU64,
    probe_misses: AtomicU64,
    published: AtomicU64,
    duplicates: AtomicU64,
    full_rejects: AtomicU64,
}

/// An attached shared-memory cache segment.
#[derive(Debug)]
pub struct Segment {
    map: sys::Mmap,
    // Holds the shared flock for the segment's lifetime; the kernel
    // releases it when the fd closes (including on SIGKILL).
    _file: File,
    path: PathBuf,
    capacity: u64,
    slots: u64,
    slot_mask: u64,
    log_start: u64,
    recovery: RecoveryReport,
    stats: StatCells,
}

// SAFETY: all mutation of the mapping goes through atomics or through
// regions exclusively reserved via the append cursor; the handle's own
// fields are immutable after attach (stats are atomics).
unsafe impl Send for Segment {}
// SAFETY: see above — `&Segment` methods only read immutable fields,
// atomics, and committed (immutable) records.
unsafe impl Sync for Segment {}

enum ProbeStep {
    Hit(Vec<u8>),
    Miss,
    Retry,
}

struct RecordView {
    pool: u8,
    key: Vec<u8>,
    val: Vec<u8>,
    stamp: u64,
    end: u64,
}

fn fold128(h: u128) -> u64 {
    (h as u64) ^ ((h >> 64) as u64)
}

fn fnv_bytes(f: &mut Fnv128, b: &[u8]) {
    f.write_usize(b.len());
    for &x in b {
        f.write_u8(x);
    }
}

fn checksum_bytes(b: &[u8]) -> u64 {
    let mut f = Fnv128::new();
    fnv_bytes(&mut f, b);
    fold128(f.finish())
}

fn key_hash(pool: u8, key: &[u8]) -> u64 {
    let mut f = Fnv128::new();
    f.write_u8(pool);
    fnv_bytes(&mut f, key);
    fold128(f.finish())
}

/// Index tags 0 and 1 are reserved (empty / tombstone); remap a hash
/// that lands on them. Collisions are fine — readers compare full keys.
fn slot_tag(h: u64) -> u64 {
    if h <= SLOT_TOMBSTONE {
        h + 2
    } else {
        h
    }
}

impl Segment {
    /// Attaches to (creating / initializing / recovering as needed) the
    /// segment at `path`.
    ///
    /// `capacity_bytes` is used only when the segment is (re)created;
    /// an existing valid segment keeps its own capacity. `version` is
    /// the caller's `STORE_FORMAT_VERSION`: a mismatched existing
    /// segment is re-initialized when this process is the only
    /// attacher, and rejected otherwise.
    pub fn attach(
        path: impl AsRef<Path>,
        capacity_bytes: u64,
        version: u32,
    ) -> Result<Segment, ShmError> {
        let path = path.as_ref();
        // A shared attacher can lose a race with a crashed initializer
        // or a concurrent compaction rename; retry from scratch.
        for _ in 0..4 {
            if let Some(seg) = Self::attach_once(path, capacity_bytes, version)? {
                return Ok(seg);
            }
        }
        Err(ShmError::Corrupt(
            "segment initialization did not settle after retries".into(),
        ))
    }

    fn attach_once(
        path: &Path,
        capacity_bytes: u64,
        version: u32,
    ) -> Result<Option<Segment>, ShmError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let exclusive = sys::flock_try_exclusive(&file)?;
        if !exclusive {
            sys::flock_shared(&file)?;
        }
        // A compaction may have renamed a fresh segment over `path`
        // while we waited on the lock; if our fd no longer backs the
        // path, start over against the new file.
        {
            use std::os::unix::fs::MetadataExt;
            let here = file.metadata()?;
            match std::fs::metadata(path) {
                Ok(at_path) if at_path.ino() == here.ino() && at_path.dev() == here.dev() => {}
                _ => return Ok(None),
            }
        }
        let file_len = file.metadata()?.len();

        if exclusive {
            let mut reinitialized = false;
            let mut map = None;
            if file_len >= SEG_HEADER_LEN {
                let m = sys::Mmap::map(&file, file_len as usize)?;
                if Self::header_valid(&m, file_len, version) {
                    map = Some(m);
                }
            }
            let map = match map {
                Some(m) => m,
                None => {
                    reinitialized = file_len > 0;
                    let capacity = align_rec(capacity_bytes.clamp(MIN_CAPACITY, MAX_CAPACITY));
                    // set_len(0) first so a stale file's bytes cannot
                    // leak into the zero-filled fresh segment.
                    file.set_len(0)?;
                    file.set_len(capacity)?;
                    let m = sys::Mmap::map(&file, capacity as usize)?;
                    Self::write_header(&m, capacity, version);
                    m
                }
            };
            let mut seg = Self::from_map(map, file, path)?;
            if reinitialized {
                seg.recovery.ran = true;
                seg.recovery.reinitialized = true;
            } else {
                seg.scrub();
            }
            // Open the segment to other attachers.
            sys::flock_shared(&seg._file)?;
            return Ok(Some(seg));
        }

        // Shared path: the segment must already be initialized. If the
        // initializer died before publishing the marker, retry — we may
        // win the exclusive lock next round.
        if file_len < SEG_HEADER_LEN {
            return Ok(None);
        }
        let map = sys::Mmap::map(&file, file_len as usize)?;
        if !Self::header_valid(&map, file_len, version) {
            let found = Self::read_u32_in(&map, OFF_VERSION);
            let magic_ok = Self::read_bytes_in(&map, OFF_MAGIC, 8) == SEG_MAGIC;
            if magic_ok && found != version {
                return Err(ShmError::Version { found, expected: version });
            }
            return Ok(None);
        }
        Ok(Some(Self::from_map(map, file, path)?))
    }

    fn from_map(map: sys::Mmap, file: File, path: &Path) -> Result<Segment, ShmError> {
        let capacity = Self::read_u64_in(&map, OFF_CAPACITY);
        let slots = Self::read_u64_in(&map, OFF_SLOTS);
        let log_start = Self::read_u64_in(&map, OFF_LOG_START);
        Ok(Segment {
            map,
            _file: file,
            path: path.to_path_buf(),
            capacity,
            slots,
            slot_mask: slots - 1,
            log_start,
            recovery: RecoveryReport::default(),
            stats: StatCells::default(),
        })
    }

    fn header_valid(map: &sys::Mmap, file_len: u64, version: u32) -> bool {
        if Self::read_bytes_in(map, OFF_MAGIC, 8) != SEG_MAGIC {
            return false;
        }
        if Self::read_u32_in(map, OFF_VERSION) != version {
            return false;
        }
        // SAFETY: offset is within the header of a mapped file.
        let init = unsafe { &*(map.base().add(OFF_INIT as usize) as *const AtomicU64) };
        if init.load(Ordering::Acquire) != INIT_DONE {
            return false;
        }
        let capacity = Self::read_u64_in(map, OFF_CAPACITY);
        let slots = Self::read_u64_in(map, OFF_SLOTS);
        let log_start = Self::read_u64_in(map, OFF_LOG_START);
        capacity == file_len
            && slots.is_power_of_two()
            && (1024..=1 << 22).contains(&slots)
            && log_start == log_start_for(slots)
            && log_start < capacity
    }

    fn write_header(map: &sys::Mmap, capacity: u64, version: u32) {
        let slots = slots_for(capacity);
        let log_start = log_start_for(slots);
        Self::write_bytes_in(map, OFF_MAGIC, &SEG_MAGIC);
        Self::write_bytes_in(map, OFF_VERSION, &version.to_le_bytes());
        Self::write_bytes_in(map, OFF_CAPACITY, &capacity.to_le_bytes());
        Self::write_bytes_in(map, OFF_SLOTS, &slots.to_le_bytes());
        Self::write_bytes_in(map, OFF_LOG_START, &log_start.to_le_bytes());
        // SAFETY: OFF_RESERVE is an 8-aligned header offset of a mapped file.
        let reserve = unsafe { &*(map.base().add(OFF_RESERVE as usize) as *const AtomicU64) };
        reserve.store(log_start, Ordering::Relaxed);
        // SAFETY: OFF_GENERATION is an 8-aligned header offset, as above.
        let gen = unsafe { &*(map.base().add(OFF_GENERATION as usize) as *const AtomicU64) };
        gen.store(1, Ordering::Relaxed);
        // SAFETY: OFF_INIT is an 8-aligned header offset, as above.
        let init = unsafe { &*(map.base().add(OFF_INIT as usize) as *const AtomicU64) };
        // Release: publishes every plain header write above to any
        // shared attacher whose validation Acquire-loads the marker.
        init.store(INIT_DONE, Ordering::Release);
    }

    fn read_bytes_in(map: &sys::Mmap, off: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        // SAFETY: caller stays within the mapping; a concurrent writer
        // never touches these committed/header bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(map.base().add(off as usize), out.as_mut_ptr(), len);
        }
        out
    }

    fn read_u32_in(map: &sys::Mmap, off: u64) -> u32 {
        u32::from_le_bytes(Self::read_bytes_in(map, off, 4).try_into().unwrap())
    }

    fn read_u64_in(map: &sys::Mmap, off: u64) -> u64 {
        u64::from_le_bytes(Self::read_bytes_in(map, off, 8).try_into().unwrap())
    }

    fn write_bytes_in(map: &sys::Mmap, off: u64, bytes: &[u8]) {
        // SAFETY: callers write only to the header during exclusive
        // init or into a log region exclusively reserved via the cursor.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), map.base().add(off as usize), bytes.len());
        }
    }

    fn atomic(&self, off: u64) -> &AtomicU64 {
        debug_assert!(off.is_multiple_of(8) && off + 8 <= self.capacity);
        // SAFETY: 8-aligned offset inside the mapping; cross-process
        // atomics on a MAP_SHARED file hit the same physical memory.
        unsafe { &*(self.map.base().add(off as usize) as *const AtomicU64) }
    }

    fn copy_out(&self, off: u64, len: usize) -> Vec<u8> {
        Self::read_bytes_in(&self.map, off, len)
    }

    /// Filesystem path of the segment file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// What this attach's recovery pass (if any) found.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Current GC generation.
    pub fn generation(&self) -> u64 {
        self.atomic(OFF_GENERATION).load(Ordering::Acquire)
    }

    /// Advances the GC generation clock (once per bulk publish pass)
    /// and returns the new value.
    pub fn bump_generation(&self) -> u64 {
        self.atomic(OFF_GENERATION).fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Log bytes consumed so far (committed records plus any
    /// unreclaimed holes from crashed writers).
    pub fn bytes_used(&self) -> u64 {
        self.atomic(OFF_RESERVE)
            .load(Ordering::Relaxed)
            .saturating_sub(self.log_start)
    }

    /// Looks up `key` in `pool`, returning a copy of the value bytes.
    /// Lock-free; stamps the entry with the current generation.
    pub fn probe(&self, pool: u8, key: &[u8]) -> Option<Vec<u8>> {
        // The generation word changes only under maintenance
        // (scrub/compact); one retry absorbs a benign GC-tick bump.
        for _ in 0..2 {
            match self.probe_once(pool, key, true) {
                ProbeStep::Hit(v) => {
                    self.stats.probe_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(v);
                }
                ProbeStep::Miss => break,
                ProbeStep::Retry => continue,
            }
        }
        self.stats.probe_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stamps the entry `key` in `pool` with the current generation, as
    /// a probe does, without counting a probe; returns whether the entry
    /// is present. A bulk publish pass calls it for the entries its
    /// process referenced, so they stay inside the GC window.
    pub fn touch(&self, pool: u8, key: &[u8]) -> bool {
        for _ in 0..2 {
            match self.probe_once(pool, key, true) {
                ProbeStep::Hit(_) => return true,
                ProbeStep::Miss => return false,
                ProbeStep::Retry => continue,
            }
        }
        false
    }

    // lint:protocol-begin(probe)
    // The lock-free read side: Acquire the index slot and the record's
    // commit word before trusting any entry byte; validate by checksum;
    // never write entry bytes (the generation stamp is Relaxed atomic
    // maintenance). Checked by the publish-protocol lint rule.
    fn probe_once(&self, pool: u8, key: &[u8], stamp: bool) -> ProbeStep {
        let gen_before = self.atomic(OFF_GENERATION).load(Ordering::Acquire);
        let h = key_hash(pool, key);
        let tag = slot_tag(h);
        let mut i = h & self.slot_mask;
        for _ in 0..self.slots {
            let slot = OFF_INDEX + i * SEG_SLOT_BYTES;
            let t = self.atomic(slot).load(Ordering::Acquire);
            if t == SLOT_EMPTY {
                return ProbeStep::Miss;
            }
            if t == tag {
                let off = self.atomic(slot + 8).load(Ordering::Acquire);
                if off != 0 {
                    if let Some(rec) = self.read_record(off) {
                        if rec.pool == pool && rec.key == key {
                            if stamp {
                                self.atomic(off + 24)
                                    .store(self.generation(), Ordering::Relaxed);
                            }
                            if self.atomic(OFF_GENERATION).load(Ordering::Acquire) != gen_before {
                                return ProbeStep::Retry;
                            }
                            return ProbeStep::Hit(rec.val);
                        }
                    }
                }
                // Collision, in-flight publish, or invalid record:
                // keep walking the chain.
            }
            i = (i + 1) & self.slot_mask;
        }
        ProbeStep::Miss
    }

    fn read_record(&self, off: u64) -> Option<RecordView> {
        if off < self.log_start || !off.is_multiple_of(REC_ALIGN) || off + REC_HEADER_LEN > self.capacity {
            return None;
        }
        let commit = self.atomic(off).load(Ordering::Acquire);
        if commit & COMMIT_TAG_MASK != COMMIT_TAG {
            return None;
        }
        let len = commit & COMMIT_LEN_MASK;
        if off + REC_HEADER_LEN + len > self.capacity {
            return None;
        }
        let want_sum = u64::from_le_bytes(self.copy_out(off + 8, 8).try_into().unwrap());
        let payload = self.copy_out(off + REC_HEADER_LEN, len as usize);
        if checksum_bytes(&payload) != want_sum {
            return None;
        }
        let mut r = ByteReader::new(&payload);
        let pool = r.get_u8().ok()?;
        let key_len = r.get_count(1).ok()?;
        let key = r.get_bytes(key_len).ok()?.to_vec();
        let val_len = r.get_count(1).ok()?;
        let val = r.get_bytes(val_len).ok()?.to_vec();
        if !r.is_exhausted() {
            return None;
        }
        // lint:allow(publish-protocol, the stamp is GC metadata and never gates entry-byte reads; the commit word above was Acquired)
        let stamp = self.atomic(off + 24).load(Ordering::Relaxed);
        Some(RecordView {
            pool,
            key,
            val,
            stamp,
            end: off + align_rec(REC_HEADER_LEN + len),
        })
    }
    // lint:protocol-end(probe)

    /// Publishes `key → val` into `pool`, stamped with the current
    /// generation. First writer wins; see [`PublishOutcome`].
    pub fn publish(&self, pool: u8, key: &[u8], val: &[u8]) -> PublishOutcome {
        let stamp = self.generation();
        self.publish_with_stamp(pool, key, val, stamp)
    }

    // lint:protocol-begin(publish)
    // The lock-free write side: plain payload/checksum/hash writes into
    // an exclusively reserved log region, then the Release commit-word
    // store, then the index-handoff CAS (AcqRel success) — in that
    // order. Checked by the publish-protocol lint rule: the commit store
    // is the region's first Release store, nothing plain may follow it,
    // and the last CAS must come after it with >= Release success.
    /// [`Segment::publish`] with an explicit generation stamp — used
    /// when compacting, so the last-referenced stamps carry over.
    pub fn publish_with_stamp(
        &self,
        pool: u8,
        key: &[u8],
        val: &[u8],
        stamp: u64,
    ) -> PublishOutcome {
        // Cheap pre-check so re-publishing a warm pool doesn't burn log
        // space; the index insert below re-checks under the race.
        if let ProbeStep::Hit(_) = self.probe_once(pool, key, false) {
            self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
            return PublishOutcome::Duplicate;
        }

        let mut w = ByteWriter::new();
        w.put_u8(pool);
        w.put_usize(key.len());
        w.put_bytes(key);
        w.put_usize(val.len());
        w.put_bytes(val);
        let payload = w.into_bytes();
        if payload.len() as u64 > COMMIT_LEN_MASK {
            self.stats.full_rejects.fetch_add(1, Ordering::Relaxed);
            return PublishOutcome::SegmentFull;
        }
        let rec_size = align_rec(REC_HEADER_LEN + payload.len() as u64);

        // (a) reserve + append. The CAS loop (rather than fetch_add)
        // keeps the cursor inside the capacity bound forever.
        let reserve = self.atomic(OFF_RESERVE);
        let mut cur = reserve.load(Ordering::Relaxed);
        let off = loop {
            if cur < self.log_start || cur + rec_size > self.capacity {
                self.stats.full_rejects.fetch_add(1, Ordering::Relaxed);
                return PublishOutcome::SegmentFull;
            }
            match reserve.compare_exchange_weak(
                cur,
                cur + rec_size,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break cur,
                Err(now) => cur = now,
            }
        };
        Self::write_bytes_in(&self.map, off + REC_HEADER_LEN, &payload);
        Self::write_bytes_in(&self.map, off + 8, &checksum_bytes(&payload).to_le_bytes());
        let h = key_hash(pool, key);
        Self::write_bytes_in(&self.map, off + 16, &h.to_le_bytes());
        self.atomic(off + 24).store(stamp, Ordering::Relaxed);

        // (b) commit: Release-publish the plain writes above.
        self.atomic(off)
            .store(COMMIT_TAG | payload.len() as u64, Ordering::Release);

        // (c) CAS into the index.
        self.index_insert(pool, key, h, off)
    }

    fn index_insert(&self, pool: u8, key: &[u8], h: u64, off: u64) -> PublishOutcome {
        let tag = slot_tag(h);
        let mut i = h & self.slot_mask;
        let mut attempts = 0u64;
        while attempts < self.slots * 2 {
            attempts += 1;
            let slot = OFF_INDEX + i * SEG_SLOT_BYTES;
            let t = self.atomic(slot).load(Ordering::Acquire);
            if t == SLOT_EMPTY || t == SLOT_TOMBSTONE {
                if self
                    .atomic(slot)
                    .compare_exchange(t, tag, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    self.atomic(slot + 8).store(off, Ordering::Release);
                    self.stats.published.fetch_add(1, Ordering::Relaxed);
                    return PublishOutcome::Published;
                }
                // Lost the claim race; re-examine this same slot.
                i = i.wrapping_sub(1) & self.slot_mask;
            } else if t == tag {
                let other = self.atomic(slot + 8).load(Ordering::Acquire);
                if other != 0 && other != off {
                    if let Some(rec) = self.read_record(other) {
                        if rec.pool == pool && rec.key == key {
                            // Someone beat us to this key; our appended
                            // record stays unreachable (log garbage, not
                            // corruption).
                            self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
                            return PublishOutcome::Duplicate;
                        }
                    }
                }
            }
            i = (i + 1) & self.slot_mask;
        }
        self.stats.full_rejects.fetch_add(1, Ordering::Relaxed);
        PublishOutcome::SegmentFull
    }
    // lint:protocol-end(publish)

    /// Visits every committed, indexed entry:
    /// `f(pool, key, val, generation_stamp)`.
    pub fn for_each<F: FnMut(u8, &[u8], &[u8], u64)>(&self, mut f: F) {
        for i in 0..self.slots {
            let slot = OFF_INDEX + i * SEG_SLOT_BYTES;
            let t = self.atomic(slot).load(Ordering::Acquire);
            if t == SLOT_EMPTY || t == SLOT_TOMBSTONE {
                continue;
            }
            let off = self.atomic(slot + 8).load(Ordering::Acquire);
            if off == 0 {
                continue;
            }
            if let Some(rec) = self.read_record(off) {
                f(rec.pool, &rec.key, &rec.val, rec.stamp);
            }
        }
    }

    /// Number of committed, indexed entries (cheap: commit words only,
    /// no checksum validation).
    pub fn entries(&self) -> u64 {
        let mut n = 0;
        for i in 0..self.slots {
            let slot = OFF_INDEX + i * SEG_SLOT_BYTES;
            let t = self.atomic(slot).load(Ordering::Acquire);
            if t == SLOT_EMPTY || t == SLOT_TOMBSTONE {
                continue;
            }
            let off = self.atomic(slot + 8).load(Ordering::Acquire);
            if off == 0 || off < self.log_start || off + REC_HEADER_LEN > self.capacity {
                continue;
            }
            if self.atomic(off).load(Ordering::Acquire) & COMMIT_TAG_MASK == COMMIT_TAG {
                n += 1;
            }
        }
        n
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> SegStats {
        SegStats {
            probe_hits: self.stats.probe_hits.load(Ordering::Relaxed),
            probe_misses: self.stats.probe_misses.load(Ordering::Relaxed),
            published: self.stats.published.load(Ordering::Relaxed),
            duplicates: self.stats.duplicates.load(Ordering::Relaxed),
            full_rejects: self.stats.full_rejects.load(Ordering::Relaxed),
            entries: self.entries(),
            bytes_used: self.bytes_used(),
            capacity: self.capacity,
            generation: self.generation(),
        }
    }

    /// Exclusive-attach recovery: tombstone index slots pointing at
    /// invalid records, at records of another key (a damaged tag or
    /// offset), and stale claims; then set the reserve cursor to the end
    /// of the last live record — past the uncommitted tail a crashed
    /// writer left, and never below a live record.
    fn scrub(&mut self) {
        let mut live = 0u64;
        let mut dropped = 0u64;
        let mut stale = 0u64;
        let mut committed_end = self.log_start;
        let mut changed = false;
        for i in 0..self.slots {
            let slot = OFF_INDEX + i * SEG_SLOT_BYTES;
            let t = self.atomic(slot).load(Ordering::Acquire);
            if t == SLOT_EMPTY || t == SLOT_TOMBSTONE {
                continue;
            }
            let off = self.atomic(slot + 8).load(Ordering::Acquire);
            match self.read_record(off) {
                Some(rec) if off != 0 && slot_tag(key_hash(rec.pool, &rec.key)) == t => {
                    live += 1;
                    committed_end = committed_end.max(rec.end);
                }
                _ => {
                    // Zero the offset BEFORE tombstoning so a later
                    // reuse of the slot can never expose a stale offset.
                    self.atomic(slot + 8).store(0, Ordering::Release);
                    self.atomic(slot).store(SLOT_TOMBSTONE, Ordering::Release);
                    if off == 0 {
                        stale += 1;
                    } else {
                        dropped += 1;
                    }
                    changed = true;
                }
            }
        }
        let reserve = self.atomic(OFF_RESERVE);
        let cur = reserve.load(Ordering::Relaxed);
        let mut reclaimed = 0;
        if cur != committed_end {
            if (committed_end..=self.capacity).contains(&cur) {
                reclaimed = cur - committed_end;
            }
            reserve.store(committed_end, Ordering::Relaxed);
            changed = true;
        }
        if changed {
            // Seqlock bump: in-flight probes from *this* process (none
            // yet — we hold the exclusive lock) would retry.
            self.atomic(OFF_GENERATION).fetch_add(1, Ordering::Release);
        }
        self.recovery = RecoveryReport {
            ran: true,
            reinitialized: false,
            live_entries: live,
            dropped_records: dropped,
            stale_claims: stale,
            reclaimed_bytes: reclaimed,
        };
    }

    /// Test hook: reserve and fill a record's payload region but skip
    /// the commit store and index CAS — byte-for-byte the state a
    /// writer killed mid-append leaves behind.
    #[doc(hidden)]
    pub fn debug_append_uncommitted(&self, payload_len: usize) -> Option<u64> {
        let rec_size = align_rec(REC_HEADER_LEN + payload_len as u64);
        let reserve = self.atomic(OFF_RESERVE);
        let mut cur = reserve.load(Ordering::Relaxed);
        let off = loop {
            if cur < self.log_start || cur + rec_size > self.capacity {
                return None;
            }
            match reserve.compare_exchange_weak(
                cur,
                cur + rec_size,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break cur,
                Err(now) => cur = now,
            }
        };
        let junk = vec![0xA5u8; payload_len];
        Self::write_bytes_in(&self.map, off + REC_HEADER_LEN, &junk);
        Some(off)
    }
}

/// Compacts the segment at `path` in place: entries whose generation
/// stamp is more than `max_idle_gens` behind the current generation are
/// dropped; the rest (and the generation clock) carry over into a fresh
/// segment atomically renamed over `path`.
///
/// Requires exclusive access — fails with [`ShmError::Busy`] while any
/// process (including this one) is attached — and an existing file:
/// a missing one is [`ShmError::Missing`], and none is created.
pub fn compact_file(
    path: impl AsRef<Path>,
    capacity_bytes: u64,
    version: u32,
    max_idle_gens: u64,
) -> Result<CompactReport, ShmError> {
    let path = path.as_ref();
    {
        let file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ShmError::Missing(path.to_path_buf()))
            }
            Err(e) => return Err(e.into()),
        };
        if !sys::flock_try_exclusive(&file)? {
            return Err(ShmError::Busy);
        }
        // Lock released when `file` drops; attach below re-takes it.
        // No other process can slip in between: they would need the
        // exclusive lock too (file is valid, so they go shared — a
        // shared attacher seeing the old inode after our rename
        // retries via the inode check).
    }
    let old = Segment::attach(path, capacity_bytes, version)?;
    let gen = old.generation();
    let floor = gen.saturating_sub(max_idle_gens);
    let tmp = path.with_extension("seg-compact-tmp");
    let _ = std::fs::remove_file(&tmp);
    let fresh = Segment::attach(&tmp, old.capacity(), version)?;
    let mut report = CompactReport::default();
    let mut overflowed = false;
    old.for_each(|pool, key, val, stamp| {
        if stamp >= floor {
            match fresh.publish_with_stamp(pool, key, val, stamp) {
                PublishOutcome::SegmentFull => overflowed = true,
                _ => report.kept += 1,
            }
        } else {
            report.dropped += 1;
        }
    });
    if overflowed {
        let _ = std::fs::remove_file(&tmp);
        return Err(ShmError::Corrupt(
            "compacted entries exceed segment capacity".into(),
        ));
    }
    fresh.atomic(OFF_GENERATION).store(gen, Ordering::Release);
    drop(fresh);
    std::fs::rename(&tmp, path)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static NEXT: AtomicU32 = AtomicU32::new(0);

    fn tmp_path(tag: &str) -> PathBuf {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "reqisc-shmem-{tag}-{}-{n}.seg",
            std::process::id()
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    const V: u32 = 999;

    #[test]
    fn publish_probe_roundtrip_and_persistence() {
        let path = tmp_path("roundtrip");
        let _c = Cleanup(path.clone());
        {
            let seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
            assert!(seg.recovery().ran);
            assert_eq!(seg.entries(), 0);
            assert_eq!(seg.publish(1, b"alpha", b"one"), PublishOutcome::Published);
            assert_eq!(seg.publish(2, b"alpha", b"two"), PublishOutcome::Published);
            assert_eq!(seg.publish(1, b"alpha", b"xxx"), PublishOutcome::Duplicate);
            assert_eq!(seg.probe(1, b"alpha").unwrap(), b"one");
            assert_eq!(seg.probe(2, b"alpha").unwrap(), b"two");
            assert!(seg.probe(3, b"alpha").is_none());
            assert!(seg.probe(1, b"beta").is_none());
            let st = seg.stats();
            assert_eq!((st.published, st.duplicates, st.entries), (2, 1, 2));
            assert_eq!((st.probe_hits, st.probe_misses), (2, 2));
        }
        // Fresh attach sees the same entries (exclusive now: we were
        // the only attacher and dropped the lock).
        let seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
        let r = seg.recovery();
        assert!(r.ran && !r.reinitialized);
        assert_eq!(r.live_entries, 2);
        assert_eq!(r.dropped_records + r.stale_claims, 0);
        assert_eq!(seg.probe(1, b"alpha").unwrap(), b"one");
        assert_eq!(seg.probe(2, b"alpha").unwrap(), b"two");
    }

    #[test]
    fn shared_attach_sees_live_publishes() {
        let path = tmp_path("shared");
        let _c = Cleanup(path.clone());
        let a = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
        let b = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
        assert!(!b.recovery().ran, "second attacher must not scrub");
        assert_eq!(a.publish(1, b"k", b"v"), PublishOutcome::Published);
        assert_eq!(b.probe(1, b"k").unwrap(), b"v");
        assert_eq!(b.publish(1, b"k", b"w"), PublishOutcome::Duplicate);
    }

    #[test]
    fn uncommitted_tail_is_invisible_and_truncated_on_reattach() {
        let path = tmp_path("tail");
        let _c = Cleanup(path.clone());
        let used_before;
        {
            let seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
            assert_eq!(seg.publish(1, b"live", b"entry"), PublishOutcome::Published);
            used_before = seg.bytes_used();
            seg.debug_append_uncommitted(4096).unwrap();
            assert!(seg.bytes_used() > used_before);
            // Survivor view: the tail is unreachable, entries consistent.
            assert_eq!(seg.entries(), 1);
            assert_eq!(seg.probe(1, b"live").unwrap(), b"entry");
        }
        let seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
        let r = seg.recovery();
        assert!(r.ran);
        assert_eq!(r.live_entries, 1);
        assert!(r.reclaimed_bytes >= 4096, "tail not reclaimed: {r:?}");
        assert_eq!(seg.bytes_used(), used_before);
        assert_eq!(seg.probe(1, b"live").unwrap(), b"entry");
        // The reclaimed space is appendable again.
        assert_eq!(seg.publish(1, b"new", b"entry2"), PublishOutcome::Published);
    }

    #[test]
    fn version_mismatch_reinitializes_when_exclusive() {
        let path = tmp_path("version");
        let _c = Cleanup(path.clone());
        {
            let seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
            seg.publish(1, b"k", b"v");
        }
        let seg = Segment::attach(&path, MIN_CAPACITY, V + 1).unwrap();
        assert!(seg.recovery().reinitialized);
        assert_eq!(seg.entries(), 0);
        // And a live shared attacher with the wrong version is refused.
        let err = Segment::attach(&path, MIN_CAPACITY, V).unwrap_err();
        match err {
            ShmError::Version { found, expected } => {
                assert_eq!((found, expected), (V + 1, V));
            }
            other => panic!("expected version error, got {other}"),
        }
    }

    #[test]
    fn segment_full_is_a_clean_reject() {
        let path = tmp_path("full");
        let _c = Cleanup(path.clone());
        let seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
        let big = vec![7u8; 64 * 1024];
        let mut published = 0u64;
        let mut full = false;
        for i in 0..64u64 {
            match seg.publish(1, &i.to_le_bytes(), &big) {
                PublishOutcome::Published => published += 1,
                PublishOutcome::SegmentFull => {
                    full = true;
                    break;
                }
                PublishOutcome::Duplicate => unreachable!(),
            }
        }
        assert!(full, "1 MiB segment should not fit 64×64KiB");
        assert!(published > 0);
        assert_eq!(seg.entries(), published);
        // Everything published before the reject is intact.
        for i in 0..published {
            assert_eq!(seg.probe(1, &i.to_le_bytes()).unwrap(), big);
        }
        assert!(seg.stats().full_rejects > 0);
    }

    #[test]
    fn generation_stamps_drive_compaction() {
        let path = tmp_path("compact");
        let _c = Cleanup(path.clone());
        {
            let seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
            seg.publish(1, b"old", b"cold");
            for _ in 0..4 {
                seg.bump_generation();
            }
            seg.publish(1, b"new", b"warm");
            // Probing re-stamps: "old" would survive if touched.
            assert_eq!(seg.generation(), 5);
        }
        let report = compact_file(&path, MIN_CAPACITY, V, 2).unwrap();
        assert_eq!((report.kept, report.dropped), (1, 1));
        let seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
        assert_eq!(seg.generation(), 5, "generation clock carries over");
        assert!(seg.probe(1, b"old").is_none());
        assert_eq!(seg.probe(1, b"new").unwrap(), b"warm");
    }

    #[test]
    fn compact_of_a_missing_segment_is_an_error_and_creates_nothing() {
        let path = tmp_path("missing");
        let _c = Cleanup(path.clone());
        match compact_file(&path, MIN_CAPACITY, V, 2) {
            Err(ShmError::Missing(p)) => assert_eq!(p, path),
            other => panic!("expected Missing, got {other:?}"),
        }
        assert!(!path.exists(), "a missing segment must not be created");
        assert!(!path.with_extension("seg-compact-tmp").exists());
    }

    #[test]
    fn touch_restamps_without_counting_a_probe() {
        let path = tmp_path("touch");
        let _c = Cleanup(path.clone());
        {
            let seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
            seg.publish(1, b"kept", b"a");
            seg.publish(1, b"idle", b"b");
            for _ in 0..4 {
                seg.bump_generation();
            }
            assert!(seg.touch(1, b"kept"));
            assert!(!seg.touch(1, b"absent"));
            let st = seg.stats();
            assert_eq!((st.probe_hits, st.probe_misses), (0, 0), "touches are not probes");
        }
        let report = compact_file(&path, MIN_CAPACITY, V, 1).unwrap();
        assert_eq!((report.kept, report.dropped), (1, 1));
        let seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
        assert_eq!(seg.probe(1, b"kept").unwrap(), b"a");
        assert!(seg.probe(1, b"idle").is_none());
    }

    #[test]
    fn compact_refuses_while_attached() {
        let path = tmp_path("busy");
        let _c = Cleanup(path.clone());
        let _seg = Segment::attach(&path, MIN_CAPACITY, V).unwrap();
        match compact_file(&path, MIN_CAPACITY, V, 2) {
            Err(ShmError::Busy) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_publishers_conserve_entries_in_process() {
        let path = tmp_path("threads");
        let _c = Cleanup(path.clone());
        let seg = std::sync::Arc::new(Segment::attach(&path, MIN_CAPACITY, V).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let seg = seg.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let key = [t.to_le_bytes(), i.to_le_bytes()].concat();
                    let val = (t * 1000 + i).to_le_bytes();
                    assert_eq!(seg.publish(1, &key, &val), PublishOutcome::Published);
                    assert_eq!(seg.probe(1, &key).unwrap(), val);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seg.entries(), 200);
        for t in 0..4u64 {
            for i in 0..50u64 {
                let key = [t.to_le_bytes(), i.to_le_bytes()].concat();
                assert_eq!(seg.probe(1, &key).unwrap(), (t * 1000 + i).to_le_bytes());
            }
        }
    }
}
