//! Wire layout of the shared segment.
//!
//! Everything in the marked region below is load-bearing for
//! cross-process compatibility: two daemons attached to one segment,
//! and two runs of one daemon across a restart, agree on these offsets.
//! The region is fingerprinted into
//! `crates/lint/store_surface.lock`, so editing it without a
//! `STORE_FORMAT_VERSION` bump + `--update-store-registry` fails
//! `reqisc-lint --deny-all`.
//!
//! Segment layout (all field offsets 8-byte aligned):
//!
//! ```text
//! [0   .. 8  )  magic "RQSHSEG1"
//! [8   .. 12 )  format version (u32 LE; the caller passes
//!               STORE_FORMAT_VERSION so codec bumps invalidate
//!               stale segments)
//! [12  .. 16 )  reserved (zero)
//! [16  .. 24 )  capacity_bytes (u64 LE; must equal the file length)
//! [24  .. 32 )  index_slots (u64 LE, power of two)
//! [32  .. 40 )  log_start (u64 LE, byte offset of the record log)
//! [40  .. 48 )  reserve cursor (AtomicU64: next append offset)
//! [48  .. 56 )  generation (AtomicU64: GC clock + seqlock word)
//! [56  .. 64 )  init marker (AtomicU64: INIT_DONE once published)
//! [64  .. 64 + 16*index_slots)  index: per slot
//!               { tag: AtomicU64, record offset: AtomicU64 }
//! [log_start .. capacity)  append-only record log
//! ```
//!
//! Record layout at an 8-aligned offset `off`:
//!
//! ```text
//! [off+0  .. off+8 )  commit word (AtomicU64:
//!                     COMMIT_TAG | payload_len; zero until the
//!                     Release store that commits the record)
//! [off+8  .. off+16)  checksum (u64 LE, folded FNV-128 of payload)
//! [off+16 .. off+24)  key hash (u64 LE, matches the index tag)
//! [off+24 .. off+32)  generation stamp (AtomicU64, last-touched)
//! [off+32 .. off+32+payload_len)  payload: ByteWriter-encoded
//!                     { pool: u8, key_len: usize, key bytes,
//!                       val_len: usize, val bytes }
//! ```

// lint:store-surface-begin
/// Magic bytes at offset 0 of every segment file.
pub const SEG_MAGIC: [u8; 8] = *b"RQSHSEG1";
/// Fixed header length; the index starts here.
pub const SEG_HEADER_LEN: u64 = 64;
/// Bytes per index slot: `{ tag: u64, record offset: u64 }`.
pub const SEG_SLOT_BYTES: u64 = 16;
/// Bytes of record header before the payload.
pub const REC_HEADER_LEN: u64 = 32;
/// Records are padded so every record offset stays 8-aligned.
pub const REC_ALIGN: u64 = 8;
/// High bits of a committed record's commit word ("RQ" << 48).
pub const COMMIT_TAG: u64 = 0x5251_0000_0000_0000;
/// Mask selecting the commit tag bits of the commit word.
pub const COMMIT_TAG_MASK: u64 = 0xFFFF_0000_0000_0000;
/// Mask selecting the payload length bits of the commit word.
pub const COMMIT_LEN_MASK: u64 = 0x0000_FFFF_FFFF_FFFF;
/// Init-marker value published (Release) after the header is written.
pub const INIT_DONE: u64 = 0x5245_4144_5953_4547; // "READYSEG"
/// Index tag of a never-used slot (terminates probe chains).
pub const SLOT_EMPTY: u64 = 0;
/// Index tag of a scrubbed slot (probe chains continue past it).
pub const SLOT_TOMBSTONE: u64 = 1;

/// Header field offsets.
pub const OFF_MAGIC: u64 = 0;
/// Offset of the u32 format version.
pub const OFF_VERSION: u64 = 8;
/// Offset of the u64 capacity field.
pub const OFF_CAPACITY: u64 = 16;
/// Offset of the u64 index-slot count.
pub const OFF_SLOTS: u64 = 24;
/// Offset of the u64 log-start field.
pub const OFF_LOG_START: u64 = 32;
/// Offset of the atomic reserve (append) cursor.
pub const OFF_RESERVE: u64 = 40;
/// Offset of the atomic generation word.
pub const OFF_GENERATION: u64 = 48;
/// Offset of the atomic init marker.
pub const OFF_INIT: u64 = 56;
/// Offset of the first index slot.
pub const OFF_INDEX: u64 = 64;
// lint:store-surface-end

/// Smallest segment we will create: header + 1024-slot index + room
/// for real records.
pub const MIN_CAPACITY: u64 = 1 << 20;
/// Largest segment we will create (1 TiB; a sanity bound, not a goal).
pub const MAX_CAPACITY: u64 = 1 << 40;

/// Rounds `n` up to the record alignment.
pub fn align_rec(n: u64) -> u64 {
    (n + (REC_ALIGN - 1)) & !(REC_ALIGN - 1)
}

/// Index slot count for a segment of `capacity` bytes: one slot per
/// KiB of capacity, clamped to a power of two in `[1024, 2^22]`, so
/// the index never eats more than ~1/64 of the segment.
pub fn slots_for(capacity: u64) -> u64 {
    (capacity / 1024).next_power_of_two().clamp(1024, 1 << 22)
}

/// First valid record offset for a segment with `slots` index slots.
pub fn log_start_for(slots: u64) -> u64 {
    align_rec(OFF_INDEX + slots * SEG_SLOT_BYTES)
}
