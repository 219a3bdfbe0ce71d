//! Shared-segment bridge: moves individual pool entries between a
//! [`CompileCache`] and a [`reqisc_shmem::Segment`].
//!
//! The segment stores raw `(pool tag, key bytes, value bytes)` records;
//! this module owns the typed entry codecs for the three memo pools,
//! reusing the exact value codecs the persistent store uses
//! (`write_circuit` / `BlockCircuit::encode_into` /
//! `write_solved_class`), so a segment entry round-trips bit-for-bit
//! the same artifacts as a store file. The key byte orders below are
//! cross-process wire surface and sit in a `lint:store-surface` region:
//! editing them without a `STORE_FORMAT_VERSION` bump + registry
//! regeneration fails `reqisc-lint --deny-all`. Segments are attached
//! with [`crate::store::STORE_FORMAT_VERSION`], so a codec bump
//! invalidates stale segments exactly like it invalidates store files.

use crate::cache::{CompileCache, Program, ProgramKey, SynthKey};
use crate::pipelines::Pipeline;
use reqisc_microarch::cache::{read_solved_class, write_solved_class};
use reqisc_qcircuit::{read_circuit, write_circuit, Circuit};
use reqisc_qmath::{ByteReader, ByteWriter, WeylClassKey};
use reqisc_shmem::{PublishOutcome, Segment};
use reqisc_synthesis::BlockCircuit;
use std::sync::Arc;

// lint:store-surface-begin
/// Segment pool tag of whole-program entries.
pub const POOL_PROGRAM: u8 = 1;
/// Segment pool tag of block-synthesis entries.
pub const POOL_SYNTHESIS: u8 = 2;
/// Segment pool tag of pulse-class entries.
pub const POOL_PULSE: u8 = 3;

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

fn pulse_key_bytes(coupling: [i64; 3], class: WeylClassKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for c in coupling {
        w.put_i64(c);
    }
    for c in class.0 {
        w.put_i64(c);
    }
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

fn decode_pulse_key(bytes: &[u8]) -> Option<([i64; 3], WeylClassKey)> {
    let mut r = ByteReader::new(bytes);
    let cp = [r.get_i64().ok()?, r.get_i64().ok()?, r.get_i64().ok()?];
    let class = WeylClassKey([r.get_i64().ok()?, r.get_i64().ok()?, r.get_i64().ok()?]);
    r.is_exhausted().then_some((cp, class))
}

fn circuit_val_bytes(c: &Circuit) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_circuit(&mut w, c);
    w.into_bytes()
}

fn decode_circuit_val(bytes: &[u8]) -> Option<Circuit> {
    let mut r = ByteReader::new(bytes);
    let c = read_circuit(&mut r).ok()?;
    r.is_exhausted().then_some(c)
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

fn pulse_val_bytes(v: &reqisc_microarch::cache::SolvedClass) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_solved_class(&mut w, v);
    w.into_bytes()
}

fn decode_pulse_val(bytes: &[u8]) -> Option<reqisc_microarch::cache::SolvedClass> {
    let mut r = ByteReader::new(bytes);
    let v = read_solved_class(&mut r).ok()?;
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
/// circuit and seeds it into the local pool — counter-free, exactly
/// like a store warm start — so the next request for this key is a
/// local hit. The returned entry is the one seeded, its reply record
/// not yet priced.
pub fn probe_shared_program(
    seg: &Segment,
    cache: &CompileCache,
    circuit: u128,
    pipeline: Pipeline,
    options: u128,
) -> Option<Arc<Program>> {
    let key_bytes = program_key_bytes(circuit, pipeline, options);
    let val = seg.probe(POOL_PROGRAM, &key_bytes)?;
    let decoded = Arc::new(Program::new(decode_circuit_val(&val)?));
    let key = ProgramKey { circuit, pipeline, options };
    cache.seed_program(key, decoded.clone());
    Some(decoded)
}

/// Publishes one finished whole-program compilation (the solve stage's
/// at-completion hook: every daemon on the box sees the hit instantly).
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
        &circuit_val_bytes(value),
    )
}

/// Publishes every entry of all three pools into the segment (the
/// snapshot/shutdown bulk hook; `Duplicate` outcomes are the common
/// case for a warm pool and cost one probe each).
pub fn publish_all(seg: &Segment, cache: &CompileCache) -> ShareStats {
    let mut stats = ShareStats::default();
    for (k, v, _used) in cache.export_programs() {
        stats.absorb(seg.publish(
            POOL_PROGRAM,
            &program_key_bytes(k.circuit, k.pipeline, k.options),
            &circuit_val_bytes(&v),
        ));
    }
    for (k, v, _used) in cache.export_synthesis() {
        stats.absorb(seg.publish(POOL_SYNTHESIS, &synth_key_bytes(&k), &synth_val_bytes(&v)));
    }
    for ((cp, class), v, _used) in cache.pulses().export_classes() {
        stats.absorb(seg.publish(POOL_PULSE, &pulse_key_bytes(cp, class), &pulse_val_bytes(&v)));
    }
    stats
}

/// Seeds every decodable segment entry into the local pools
/// (counter-free warm start, like [`crate::store::CacheStore::load_into`]).
/// Returns the number of entries seeded; undecodable entries are
/// skipped — a checksum-valid record that fails the typed decode can
/// only come from a foreign build, and a skip is a future cache miss,
/// never an error.
pub fn seed_from_segment(seg: &Segment, cache: &CompileCache) -> usize {
    seed_filtered(seg, cache, true)
}

/// Seeds only the synthesis and pulse pools from the segment. This is
/// the *service* startup hook: sub-program entries are consulted deep
/// inside a cold solve where nothing probes the segment, so they must
/// be local to help — while whole-program entries stay segment-only so
/// the service's submission probe answers (and counts) them.
pub fn seed_subprogram_pools(seg: &Segment, cache: &CompileCache) -> usize {
    seed_filtered(seg, cache, false)
}

fn seed_filtered(seg: &Segment, cache: &CompileCache, include_programs: bool) -> usize {
    let mut seeded = 0usize;
    seg.for_each(|pool, key, val, _stamp| {
        let ok = match pool {
            POOL_PROGRAM if include_programs => {
                match (decode_program_key(key), decode_circuit_val(val)) {
                    (Some(k), Some(v)) => {
                        cache.seed_program(k, Arc::new(Program::new(v)));
                        true
                    }
                    _ => false,
                }
            }
            POOL_PROGRAM => false,
            POOL_SYNTHESIS => match (decode_synth_key(key), decode_synth_val(val)) {
                (Some(k), Some(v)) => {
                    cache.seed_synthesis(k, Arc::new(v));
                    true
                }
                _ => false,
            },
            POOL_PULSE => match (decode_pulse_key(key), decode_pulse_val(val)) {
                (Some((cp, class)), Some(v)) => {
                    cache.pulses().seed_class(cp, class, Arc::new(v));
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
        // The probe seeded the local pool: a counter-free warm entry.
        let key = ProgramKey { circuit: h, pipeline: Pipeline::ReqiscEff, options: opts };
        assert!(cache.probe_program(&key).is_some());
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
        cache.seed_program(pk, value.clone());
        // A negative synthesis result ("no shorter realization") is
        // cacheable wire content too.
        let sk = SynthKey { target: 9, num_qubits: 3, budget: 4, options: 2 };
        cache.seed_synthesis(sk, Arc::new(None));

        let stats = publish_all(&seg, &cache);
        assert_eq!(stats.published, 2);
        assert_eq!((stats.duplicates, stats.full_rejects), (0, 0));
        // Re-publishing a warm pool is all duplicates.
        let again = publish_all(&seg, &cache);
        assert_eq!((again.published, again.duplicates), (0, 2));

        let fresh = CompileCache::new();
        assert_eq!(seed_from_segment(&seg, &fresh), 2);
        assert!(fresh.probe_program(&pk).is_some());
        assert_eq!(fresh.len(), 2);
        let _ = std::fs::remove_file(path);
    }
}
