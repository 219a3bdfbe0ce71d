//! Shared-segment bridge: moves individual pool entries between a
//! [`CompileCache`] and a [`reqisc_shmem::Segment`], the one durable
//! tier of compiled outputs.
//!
//! The segment stores raw `(pool tag, key bytes, value bytes)` records;
//! this module owns the typed entry codecs for the two memo pools (the
//! circuit codec `write_circuit` and `BlockCircuit::encode_into`). A
//! whole-program value also carries the entry's [`ReplyRecord`] after
//! the circuit: the publisher prices it once, and a peer — or a later
//! process warm-starting from the file — serves the entry without
//! pricing. The key and value byte orders below are cross-process and
//! on-disk wire surface and sit in a `lint:store-surface` region, with
//! [`STORE_FORMAT_VERSION`]: editing them without a version bump +
//! registry regeneration fails `reqisc-lint --deny-all`. Segments are
//! attached with that version, so a codec bump retires stale segments.
//!
//! ## Generations
//!
//! The segment's generation clock is the GC clock. Each [`publish_all`]
//! pass is one generation: it advances the clock, then re-stamps every
//! entry its process referenced (served or computed, not merely seeded),
//! so an entry a daemon only ever hits in its local pool stays as fresh
//! as one the segment answers. Unreferenced entries keep their stamps
//! and age; `reqisc_shmem::compact_file` (offline, `reqiscd
//! --compact-now`) drops those idle for more than its window. Dropping
//! changes cost, never results: pipelines are deterministic, so a
//! dropped entry recompiles bit-identically.

use crate::cache::{CompileCache, Program, ProgramKey, ReplyRecord, SynthKey};
use crate::pipelines::{Metrics, Pipeline};
use reqisc_qcircuit::{read_circuit, write_circuit, Circuit};
use reqisc_qmath::{ByteReader, ByteWriter};
use reqisc_shmem::{PublishOutcome, Segment};
use reqisc_synthesis::BlockCircuit;
use std::sync::Arc;

// lint:store-surface-begin
/// Format version of every persisted byte. Bump on **any** change to
/// the segment layout, the pool tags, the key/value codecs, fingerprint
/// definitions, or canonicalization tolerances baked into the keys.
///
/// History: v1 = the first store file (no generations); v2 adds the
/// file generation and per-entry last-referenced stamps that GC ages
/// on; v3 adds `ByteReader::get_bytes` plus the shared-memory segment
/// surface (the `reqisc-shmem` header/record layout and the pool-tag +
/// key/value codecs below) — segments stamp this version into their
/// header; v4 appends the entry's 40-byte reply record to the
/// whole-program value and makes `reply_coupling` and `ReplyRecord`
/// (`compiler/src/cache.rs`) surface; v5 deletes the store file and the
/// pulse pool (pool tag 3 and the solved-class and KAK codecs), leaving
/// the segment as the one durable tier.
pub const STORE_FORMAT_VERSION: u32 = 5;

/// Segment pool tag of whole-program entries.
pub const POOL_PROGRAM: u8 = 1;
/// Segment pool tag of block-synthesis entries.
pub const POOL_SYNTHESIS: u8 = 2;

fn program_key_bytes(circuit: u128, pipeline: Pipeline, options: u128) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u128(circuit);
    w.put_u8(pipeline.store_tag());
    w.put_u128(options);
    w.into_bytes()
}

fn synth_key_bytes(k: &SynthKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u128(k.target);
    w.put_usize(k.num_qubits);
    w.put_usize(k.budget);
    w.put_u128(k.options);
    w.into_bytes()
}

fn decode_synth_key(bytes: &[u8]) -> Option<SynthKey> {
    let mut r = ByteReader::new(bytes);
    let key = SynthKey {
        target: r.get_u128().ok()?,
        num_qubits: r.get_usize().ok()?,
        budget: r.get_usize().ok()?,
        options: r.get_u128().ok()?,
    };
    r.is_exhausted().then_some(key)
}

fn decode_program_key(bytes: &[u8]) -> Option<ProgramKey> {
    let mut r = ByteReader::new(bytes);
    let circuit = r.get_u128().ok()?;
    let pipeline = Pipeline::from_store_tag(r.get_u8().ok()?)?;
    let options = r.get_u128().ok()?;
    r.is_exhausted()
        .then_some(ProgramKey { circuit, pipeline, options })
}

/// A whole-program value: the circuit, then its 40-byte reply record
/// (fingerprint as u128, `count_2q` and `depth_2q` as u64, the
/// duration's f64 bits). Every program writer encodes through here.
fn program_val_bytes(circuit: &Circuit, reply: &ReplyRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_circuit(&mut w, circuit);
    w.put_u128(reply.fingerprint);
    w.put_usize(reply.metrics.count_2q);
    w.put_usize(reply.metrics.depth_2q);
    w.put_f64(reply.metrics.duration);
    w.into_bytes()
}

fn decode_program_val(bytes: &[u8]) -> Option<Program> {
    let mut r = ByteReader::new(bytes);
    let circuit = read_circuit(&mut r).ok()?;
    let reply = ReplyRecord {
        fingerprint: r.get_u128().ok()?,
        metrics: Metrics {
            count_2q: r.get_usize().ok()?,
            depth_2q: r.get_usize().ok()?,
            duration: r.get_f64().ok()?,
        },
    };
    r.is_exhausted().then(|| Program::with_reply(circuit, reply))
}

fn synth_val_bytes(v: &Option<BlockCircuit>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match v {
        Some(bc) => {
            w.put_u8(1);
            bc.encode_into(&mut w);
        }
        None => w.put_u8(0),
    }
    w.into_bytes()
}

fn decode_synth_val(bytes: &[u8]) -> Option<Option<BlockCircuit>> {
    let mut r = ByteReader::new(bytes);
    let v = match r.get_u8().ok()? {
        0 => None,
        1 => Some(BlockCircuit::decode_from(&mut r).ok()?),
        _ => return None,
    };
    r.is_exhausted().then_some(v)
}
// lint:store-surface-end

/// Outcome tallies of one bulk publish pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Entries newly appended to the segment.
    pub published: u64,
    /// Entries another daemon (or an earlier pass) already published.
    pub duplicates: u64,
    /// Entries rejected because the segment was full.
    pub full_rejects: u64,
}

impl ShareStats {
    fn absorb(&mut self, outcome: PublishOutcome) {
        match outcome {
            PublishOutcome::Published => self.published += 1,
            PublishOutcome::Duplicate => self.duplicates += 1,
            PublishOutcome::SegmentFull => self.full_rejects += 1,
        }
    }
}

/// Probes the shared segment for a whole-program entry (the lookup
/// tier between the local pool and a cold solve). A hit decodes the
/// circuit and its reply record and seeds them into the local pool —
/// counter-free, like [`seed_from_segment`], but marked used, since it
/// answers a request — so the next request for this key is a local hit
/// and the next bulk pass re-stamps it. The returned entry is the one
/// seeded, its reply record already priced by the publisher.
pub fn probe_shared_program(
    seg: &Segment,
    cache: &CompileCache,
    circuit: u128,
    pipeline: Pipeline,
    options: u128,
) -> Option<Arc<Program>> {
    let key_bytes = program_key_bytes(circuit, pipeline, options);
    let val = seg.probe(POOL_PROGRAM, &key_bytes)?;
    let decoded = Arc::new(decode_program_val(&val)?);
    let key = ProgramKey { circuit, pipeline, options };
    cache.programs.seed(key, decoded.clone(), true);
    Some(decoded)
}

/// Publishes one finished whole-program compilation given as a bare
/// circuit, pricing its reply record first. Callers that hold the pool's
/// entry use [`publish_program_entry`], which prices at most once per
/// entry.
pub fn publish_program(
    seg: &Segment,
    circuit: u128,
    pipeline: Pipeline,
    options: u128,
    value: &Circuit,
) -> PublishOutcome {
    seg.publish(
        POOL_PROGRAM,
        &program_key_bytes(circuit, pipeline, options),
        &program_val_bytes(value, &ReplyRecord::price(value)),
    )
}

/// Publishes one whole-program pool entry with its reply record, priced
/// through the entry's memoized [`Program::reply`] (the solve stage's
/// at-completion hook: every daemon on the box sees the hit instantly,
/// and replies from it without pricing).
pub fn publish_program_entry(
    seg: &Segment,
    circuit: u128,
    pipeline: Pipeline,
    options: u128,
    entry: &Program,
) -> PublishOutcome {
    seg.publish(
        POOL_PROGRAM,
        &program_key_bytes(circuit, pipeline, options),
        &program_val_bytes(entry, entry.reply()),
    )
}

/// One bulk pass, one generation (see the module docs): advances the
/// segment's clock, then publishes every entry of both pools. An entry
/// this process referenced that the segment already holds is re-stamped
/// with the new generation instead; an unreferenced one keeps its stamp
/// and ages, and a newly appended one starts at the new generation. The
/// passes are the service's snapshot tick, its `snapshot` op and its
/// shutdown, and a bench binary's exit. `Duplicate` outcomes are the
/// common case for a warm pool and cost one probe each, plus the pricing
/// of a program entry no reply or publish has priced yet.
pub fn publish_all(seg: &Segment, cache: &CompileCache) -> ShareStats {
    seg.bump_generation();
    // Snapshot each pool first: pricing and publishing hold no shard lock.
    let (mut programs, mut synthesis) = (Vec::new(), Vec::new());
    cache.programs.for_each_with_used(|k, v, used| programs.push((*k, v.clone(), used)));
    cache.synthesis.for_each_with_used(|k, v, used| synthesis.push((*k, v.clone(), used)));
    let mut stats = ShareStats::default();
    for (k, v, used) in programs {
        let key = program_key_bytes(k.circuit, k.pipeline, k.options);
        stats.absorb(publish_or_touch(seg, POOL_PROGRAM, &key, used, || {
            program_val_bytes(&v, v.reply())
        }));
    }
    for (k, v, used) in synthesis {
        let key = synth_key_bytes(&k);
        stats.absorb(publish_or_touch(seg, POOL_SYNTHESIS, &key, used, || synth_val_bytes(&v)));
    }
    stats
}

/// One entry of a bulk pass: a referenced entry already in the segment
/// is re-stamped, anything else is published (a `Duplicate` leaves the
/// stamp alone).
fn publish_or_touch(
    seg: &Segment,
    pool: u8,
    key: &[u8],
    used: bool,
    val: impl FnOnce() -> Vec<u8>,
) -> PublishOutcome {
    if used && seg.touch(pool, key) {
        return PublishOutcome::Duplicate;
    }
    seg.publish(pool, key, &val())
}

/// Seeds every decodable segment entry into the local pools
/// (counter-free warm start; whole-program entries arrive with their
/// reply records). Returns the number of entries seeded; undecodable
/// entries are skipped — a checksum-valid record that fails the typed
/// decode can only come from a foreign build, and a skip is a future
/// cache miss, never an error.
pub fn seed_from_segment(seg: &Segment, cache: &CompileCache) -> usize {
    seed_filtered(seg, cache, true)
}

/// Seeds only the synthesis pool from the segment. This is the
/// *service* startup hook: sub-program entries are consulted deep inside
/// a cold solve where nothing probes the segment, so they must be local
/// to help — while whole-program entries stay segment-only so the
/// service's submission probe answers (and counts) them.
pub fn seed_subprogram_pools(seg: &Segment, cache: &CompileCache) -> usize {
    seed_filtered(seg, cache, false)
}

fn seed_filtered(seg: &Segment, cache: &CompileCache, include_programs: bool) -> usize {
    let mut seeded = 0usize;
    seg.for_each(|pool, key, val, _stamp| {
        let ok = match pool {
            POOL_PROGRAM if include_programs => {
                match (decode_program_key(key), decode_program_val(val)) {
                    (Some(k), Some(v)) => {
                        cache.programs.seed(k, Arc::new(v), false);
                        true
                    }
                    _ => false,
                }
            }
            POOL_SYNTHESIS => match (decode_synth_key(key), decode_synth_val(val)) {
                (Some(k), Some(v)) => {
                    cache.synthesis.seed(k, Arc::new(v), false);
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if ok {
            seeded += 1;
        }
    });
    seeded
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qcircuit::Gate;
    use reqisc_shmem::layout::MIN_CAPACITY;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static NEXT: AtomicU32 = AtomicU32::new(0);

    fn tmp_seg(tag: &str) -> (Segment, PathBuf) {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "reqisc-sharing-{tag}-{}-{n}.seg",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        (Segment::attach(&path, MIN_CAPACITY, 7).unwrap(), path)
    }

    fn small_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        c
    }

    /// An SU(4)-ISA output: its record prices a KAK per SU(4) gate, and
    /// its 2Q count (3) and depth (2) differ.
    fn su4_circuit() -> Circuit {
        let can = Gate::Can(0, 1, reqisc_qmath::WeylCoord::new(0.4, 0.2, 0.1));
        let mut c = Circuit::new(4);
        c.push(Gate::Rz(2, 0.3));
        c.push(Gate::Su4(0, 1, Box::new(can.matrix())));
        c.push(Gate::Cx(2, 3));
        c.push(Gate::Cx(1, 2));
        c
    }

    /// A record's fields, the duration as its bits.
    fn bits(r: &ReplyRecord) -> (u128, usize, usize, u64) {
        (r.fingerprint, r.metrics.count_2q, r.metrics.depth_2q, r.metrics.duration.to_bits())
    }

    #[test]
    fn program_entries_roundtrip_through_segment() {
        let (seg, path) = tmp_seg("program");
        let value = small_circuit();
        let (h, opts) = (value.content_hash(), 42u128);
        assert_eq!(
            publish_program(&seg, h, Pipeline::ReqiscEff, opts, &value),
            PublishOutcome::Published
        );
        assert_eq!(
            publish_program(&seg, h, Pipeline::ReqiscEff, opts, &value),
            PublishOutcome::Duplicate
        );
        let cache = CompileCache::new();
        let got = probe_shared_program(&seg, &cache, h, Pipeline::ReqiscEff, opts)
            .expect("published program must probe back");
        assert_eq!(got.content_hash(), h);
        let carried = got.priced().expect("a probed entry arrives priced");
        assert_eq!(bits(carried), bits(&ReplyRecord::price(&value)));
        // The probe seeded the local pool: a counter-free warm entry.
        let key = ProgramKey { circuit: h, pipeline: Pipeline::ReqiscEff, options: opts };
        assert!(cache.programs.probe(&key).is_some());
        // Different pipeline / options miss.
        assert!(probe_shared_program(&seg, &cache, h, Pipeline::ReqiscFull, opts).is_none());
        assert!(probe_shared_program(&seg, &cache, h, Pipeline::ReqiscEff, 43).is_none());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn publish_all_then_seed_restores_pools() {
        let (seg, path) = tmp_seg("bulk");
        let cache = CompileCache::new();
        let value = Arc::new(Program::new(small_circuit()));
        let pk = ProgramKey {
            circuit: value.content_hash(),
            pipeline: Pipeline::ReqiscEff,
            options: 1,
        };
        cache.programs.seed(pk, value.clone(), false);
        // A negative synthesis result ("no shorter realization") is
        // cacheable wire content too.
        let sk = SynthKey { target: 9, num_qubits: 3, budget: 4, options: 2 };
        cache.synthesis.seed(sk, Arc::new(None), false);

        let stats = publish_all(&seg, &cache);
        assert_eq!(stats.published, 2);
        assert_eq!((stats.duplicates, stats.full_rejects), (0, 0));
        // Re-publishing a warm pool is all duplicates.
        let again = publish_all(&seg, &cache);
        assert_eq!((again.published, again.duplicates), (0, 2));

        let fresh = CompileCache::new();
        assert_eq!(seed_from_segment(&seg, &fresh), 2);
        let seeded = fresh.programs.probe(&pk).expect("seeded program");
        assert_eq!(seeded.priced(), value.priced(), "the publisher's record came along");
        assert_eq!(fresh.len(), 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn program_values_decode_to_a_miss_or_an_entry_never_a_panic() {
        let (seg, path) = tmp_seg("fuzz");
        let value = su4_circuit();
        let (h, opts) = (value.content_hash(), 5u128);
        assert_eq!(
            publish_program(&seg, h, Pipeline::QiskitSu4, opts, &value),
            PublishOutcome::Published
        );
        let bytes = seg
            .probe(POOL_PROGRAM, &program_key_bytes(h, Pipeline::QiskitSu4, opts))
            .expect("published value");
        let record = ReplyRecord::price(&value);
        assert_eq!((record.metrics.count_2q, record.metrics.depth_2q), (3, 2));

        // Untouched, the value round-trips the circuit and the record bit
        // for bit.
        let program = decode_program_val(&bytes).expect("an untouched value decodes");
        assert_eq!(program.circuit(), &value);
        assert_eq!(bits(program.priced().expect("decoded priced")), bits(&record));
        assert_eq!(bytes, program_val_bytes(&value, &record));
        // The record is the value's last 40 bytes, little-endian.
        let mut tail = record.fingerprint.to_le_bytes().to_vec();
        tail.extend((record.metrics.count_2q as u64).to_le_bytes());
        tail.extend((record.metrics.depth_2q as u64).to_le_bytes());
        tail.extend(record.metrics.duration.to_bits().to_le_bytes());
        assert_eq!(&bytes[bytes.len() - 40..], &tail[..]);

        // Every truncation, one extra trailing byte, and every single-byte
        // flip: a miss or an entry, whichever, but the decoder returns.
        for len in 0..bytes.len() {
            assert!(decode_program_val(&bytes[..len]).is_none(), "truncated to {len}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_program_val(&longer).is_none(), "a trailing byte");
        let mut decoded = 0;
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut flipped = bytes.clone();
                flipped[i] ^= mask;
                decoded += decode_program_val(&flipped).is_some() as usize;
            }
        }
        // Flips in the record or in an angle still decode; flips in a
        // length or a qubit index mostly do not.
        assert!(decoded > 0 && decoded < 3 * bytes.len(), "{decoded} of {}", 3 * bytes.len());
        let _ = std::fs::remove_file(path);
    }
}
