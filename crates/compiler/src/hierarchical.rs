//! Hierarchical synthesis (paper §5.1.2, Fig. 7): 2Q fusion → DAG
//! compacting → 3Q partitioning → conditional approximate synthesis of
//! dense blocks.

use crate::cache::CompileCache;
use crate::compact::{compact, CompactOptions};
use crate::fuse::fuse_2q;
use crate::partition::{partition_3q, Block, PartitionOptions};
use crate::pool::par_map;
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_synthesis::{synthesize_if_shorter, SearchOptions};
use std::sync::Arc;

/// Options for [`hierarchical_synthesis`].
#[derive(Debug, Clone)]
pub struct HsOptions {
    /// Synthesis threshold `m_th`: blocks with more 2Q gates than this are
    /// re-synthesized (paper default 4).
    pub m_th: usize,
    /// Partitioning options (width `w = 3` by default).
    pub partition: PartitionOptions,
    /// Structure-search options for the approximate synthesis.
    pub search: SearchOptions,
    /// Whether the DAG-compacting pass runs (ablated as "ReQISC-NC").
    pub compacting: bool,
    /// DAG-compacting options.
    pub compact: CompactOptions,
}

impl Default for HsOptions {
    fn default() -> Self {
        Self {
            m_th: 4,
            partition: PartitionOptions::default(),
            search: SearchOptions::default(),
            compacting: true,
            compact: CompactOptions::default(),
        }
    }
}

/// Runs the full hierarchical-synthesis pass.
///
/// Input: any circuit of 1Q/2Q/CCX-ish gates (≥3Q gates are lowered to CX
/// first). Output: an SU(4)-ISA circuit (`U3` + `Su4`) with reduced #SU(4).
pub fn hierarchical_synthesis(c: &Circuit, opts: &HsOptions) -> Circuit {
    hierarchical_synthesis_batched(c, opts, None, 1)
}

/// [`hierarchical_synthesis`] with an optional shared [`CompileCache`]
/// and block-level batching. The dense blocks — 2–3 qubits holding more
/// than `m_th` 2Q gates — are synthesized on up to `block_threads` scoped
/// workers, each looked up in the cache exactly once, and the (cheap,
/// order-sensitive) reassembly then emits every block in order from the
/// results. One large program thereby parallelizes as well as a suite of
/// small ones — the per-block synthesis sweeps are the whole cost of the
/// pass, and they are independent.
///
/// With a cache, synthesis attempts are memoized by target content, so
/// repeated subprograms (Toffoli/adder blocks across a benchsuite)
/// synthesize once per cache lifetime instead of once per occurrence; a
/// worker that misses a block another worker is synthesizing waits for
/// it and counts a hit, so a compile's cache counters are the same at
/// every width.
///
/// `block_threads ≤ 1` synthesizes on the calling thread. Results are
/// bit-identical at any width: each block synthesis is deterministic in
/// its (target, options) key, and emission order never changes.
pub fn hierarchical_synthesis_batched(
    c: &Circuit,
    opts: &HsOptions,
    cache: Option<&CompileCache>,
    block_threads: usize,
) -> Circuit {
    // Tier 0: make everything ≤ 2Q and fuse into SU(4) blocks.
    let lowered = c.lowered_to_cx();
    let mut fused = fuse_2q(&lowered);
    if opts.compacting {
        fused = compact(&fused, &opts.compact);
        // Compacting can produce adjacent same-pair blocks; re-fuse.
        fused = fuse_2q(&fused);
    }
    // Tier 1: 3Q partitioning + conditional approximate synthesis.
    let blocks = partition_3q(&fused, &opts.partition);
    let is_dense = |b: &Block| b.count_2q() > opts.m_th && (2..=3).contains(&b.qubits.len());
    let dense: Vec<&Block> = blocks.iter().filter(|b| is_dense(b)).collect();
    let mut synthesized = par_map(&dense, block_threads, |b| {
        let (target, nq, count) = (b.unitary(), b.qubits.len(), b.count_2q());
        match cache {
            Some(cache) => cache.synthesize_if_shorter_cached(&target, nq, count, &opts.search),
            None => Arc::new(synthesize_if_shorter(&target, nq, count, &opts.search)),
        }
    })
    .into_iter();
    let mut out = Circuit::new(c.num_qubits());
    for b in &blocks {
        let syn = if is_dense(b) { synthesized.next() } else { None };
        match syn.as_deref().and_then(Option::as_ref) {
            // Map the synthesized blocks back to global qubits. Synthesis
            // is exact up to a global phase only; the phase is physically
            // irrelevant and ignored throughout.
            Some(syn) => {
                for ((la, lb), m) in &syn.blocks {
                    out.push(Gate::Su4(b.qubits[*la], b.qubits[*lb], Box::new(m.clone())));
                }
            }
            None => {
                for g in &b.gates {
                    out.push(g.clone());
                }
            }
        }
    }
    // Boundary fusion: blocks may abut on the same pair.
    fuse_2q(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qsim::process_infidelity;

    fn check_equiv(a: &Circuit, b: &Circuit) {
        let inf = process_infidelity(&a.unitary(), &b.unitary());
        assert!(inf < 1e-7, "not equivalent: infidelity {inf}");
    }

    fn quick_opts() -> HsOptions {
        let mut o = HsOptions::default();
        o.search.sweep.restarts = 3;
        o.search.sweep.max_sweeps = 200;
        o.search.max_blocks = 6;
        o
    }

    #[test]
    fn reduces_dense_3q_blocks() {
        // 8 CNOTs on 3 qubits in a dense pattern: HS must find ≤ 6 SU(4)s.
        let mut c = Circuit::new(3);
        for k in 0..4 {
            c.push(Gate::Cx(0, 1));
            c.push(Gate::H(1));
            c.push(Gate::Cx(1, 2));
            c.push(Gate::T(2));
            if k % 2 == 0 {
                c.push(Gate::Cx(0, 2));
            }
        }
        let before_fused = fuse_2q(&c).count_2q();
        let h = hierarchical_synthesis(&c, &quick_opts());
        assert!(
            h.count_2q() < before_fused,
            "HS did not reduce: {} vs {}",
            h.count_2q(),
            before_fused
        );
        assert!(h.count_2q() <= 6);
        check_equiv(&c, &h);
    }

    #[test]
    fn ccx_input_is_lowered_and_synthesized() {
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        c.push(Gate::Ccx(1, 0, 2));
        let h = hierarchical_synthesis(&c, &quick_opts());
        // CCX·CCX (commuted controls) = identity-ish? No: CCX(0,1,2) and
        // CCX(1,0,2) are the same permutation, so the pair is the identity.
        assert_eq!(h.count_2q(), 0, "double Toffoli should vanish");
    }

    #[test]
    fn sparse_blocks_left_alone() {
        let mut c = Circuit::new(5);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(2, 3));
        c.push(Gate::Cx(3, 4));
        let h = hierarchical_synthesis(&c, &quick_opts());
        assert_eq!(h.count_2q(), 3);
        check_equiv(&c, &h);
    }

    #[test]
    fn alu_like_example_matches_paper_shape() {
        // Fig. 7: a Toffoli-heavy circuit drops well below its CNOT count.
        let mut c = Circuit::new(4);
        c.push(Gate::Ccx(0, 1, 2));
        c.push(Gate::Cx(2, 3));
        c.push(Gate::Ccx(0, 1, 2));
        c.push(Gate::H(3));
        c.push(Gate::Ccx(1, 2, 3));
        let cx_count = c.lowered_to_cx().count_2q();
        let h = hierarchical_synthesis(&c, &quick_opts());
        assert!(
            h.count_2q() * 2 < cx_count * 2, // strictly fewer SU(4)s than CNOTs
        );
        assert!(h.count_2q() < cx_count);
        check_equiv(&c, &h);
    }

    #[test]
    fn block_batching_is_bit_identical_to_serial() {
        // One large program with several distinct dense 3Q regions — the
        // shape block-level batching exists for. Fanning its dense blocks
        // over workers must change wall-clock only, never a bit of the
        // output or a cache counter.
        let mut c = Circuit::new(6);
        for base in [0usize, 3] {
            for k in 0..4 {
                c.push(Gate::Cx(base, base + 1));
                c.push(Gate::H(base + 1));
                c.push(Gate::Cx(base + 1, base + 2));
                c.push(Gate::T(base + 2));
                if k % 2 == 0 {
                    c.push(Gate::Cx(base, base + 2));
                }
            }
        }
        c.push(Gate::Ccx(1, 2, 3));
        c.push(Gate::Ccx(2, 3, 4));
        let opts = quick_opts();
        let serial = hierarchical_synthesis(&c, &opts);
        let cached = |width| {
            let cache = CompileCache::new();
            let out = hierarchical_synthesis_batched(&c, &opts, Some(&cache), width);
            (out, cache)
        };
        let (narrow, narrow_cache) = cached(1);
        let (batched, cache) = cached(4);
        assert_eq!(narrow, serial, "the cache changed the result");
        assert_eq!(batched, serial, "block batching changed the result");
        // Each dense block is looked up once at any width, so the
        // counters match the serial compile's exactly.
        let s = cache.stats();
        assert_eq!(s, narrow_cache.stats());
        assert!(s.synthesis.inserts >= 2, "several distinct dense blocks: {s}");
        // A rerun is pure hits: one per lookup of the first run.
        let rerun = hierarchical_synthesis_batched(&c, &opts, Some(&cache), 4);
        assert_eq!(rerun, serial);
        let (first, again) = (s.synthesis, cache.stats().synthesis);
        assert_eq!((again.hits, again.misses), (first.hits + first.lookups(), first.misses));
        check_equiv(&c, &batched);
    }

    #[test]
    fn nc_variant_never_better() {
        // Without compacting the result can only be worse or equal.
        let mut c = Circuit::new(3);
        c.push(Gate::Rzz(0, 1, 0.3));
        c.push(Gate::Rzz(1, 2, 0.5));
        c.push(Gate::Rzz(0, 1, 0.7));
        c.push(Gate::Rzz(1, 2, 0.2));
        let full = hierarchical_synthesis(&c, &quick_opts());
        let mut nc_opts = quick_opts();
        nc_opts.compacting = false;
        let nc = hierarchical_synthesis(&c, &nc_opts);
        assert!(full.count_2q() <= nc.count_2q());
        check_equiv(&c, &full);
        check_equiv(&c, &nc);
    }
}
