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
/// and block-level batching. With a cache, dense-block synthesis
/// attempts are memoized by target content, so repeated subprograms
/// (Toffoli/adder blocks across a benchsuite) synthesize once per cache
/// lifetime instead of once per occurrence (a worker that misses a
/// block another worker is synthesizing waits for it), and the
/// *distinct* dense SU(4)/SU(8) blocks of one program are fanned out
/// over up to `block_threads` scoped workers that fill the shared
/// block-synthesis pool, before the (cheap, order-sensitive) serial
/// reassembly emits from it. One large program thereby parallelizes as well as a suite of
/// small ones — the per-block synthesis sweeps are the whole cost of the
/// pass, and they are independent.
///
/// `block_threads ≤ 1` (or no cache) is exactly the serial path. Results
/// are bit-identical either way: each block synthesis is deterministic in
/// its (target, options) key, workers only *fill* the memo pool, and
/// emission order never changes.
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
    if let Some(cache) = cache {
        if block_threads > 1 {
            prewarm_distinct_blocks(&blocks, opts, cache, block_threads);
        }
    }
    let mut out = Circuit::new(c.num_qubits());
    for b in &blocks {
        emit_block(&mut out, b, opts, cache);
    }
    // Boundary fusion: blocks may abut on the same pair.
    fuse_2q(&out)
}

/// Synthesizes the distinct dense blocks of `blocks` into `cache` in
/// parallel. Deduplication mirrors the synthesis pool's key — (target
/// fingerprint, width, clamped budget) — so two occurrences of the same
/// subprogram cost one worker slot, and a later cache hit serves both.
fn prewarm_distinct_blocks(
    blocks: &[Block],
    opts: &HsOptions,
    cache: &CompileCache,
    block_threads: usize,
) {
    let mut seen = std::collections::HashSet::new();
    let mut work: Vec<(reqisc_qmath::CMat, usize, usize)> = Vec::new();
    for b in blocks {
        let count = b.count_2q();
        if count > opts.m_th && b.qubits.len() >= 2 && b.qubits.len() <= 3 {
            let budget = opts.search.max_blocks.min(count.saturating_sub(1));
            if budget == 0 {
                continue; // degenerate budgets bypass the cache entirely
            }
            let target = b.unitary();
            if seen.insert((target.fingerprint(), b.qubits.len(), budget)) {
                work.push((target, b.qubits.len(), count));
            }
        }
    }
    if work.len() < 2 {
        return; // nothing to overlap
    }
    par_map(&work, block_threads, |(target, nq, count)| {
        cache.synthesize_if_shorter_cached(target, *nq, *count, &opts.search);
    });
}

fn emit_block(out: &mut Circuit, b: &Block, opts: &HsOptions, cache: Option<&CompileCache>) {
    let count = b.count_2q();
    if count > opts.m_th && b.qubits.len() >= 2 && b.qubits.len() <= 3 {
        let target = b.unitary();
        // Both arms yield a borrow so a cache hit clones each block
        // matrix exactly once (into the emitted gate), not twice.
        let cached;
        let local;
        let syn = match cache {
            Some(cache) => {
                cached = cache.synthesize_if_shorter_cached(&target, b.qubits.len(), count, &opts.search);
                cached.as_ref()
            }
            None => {
                local = synthesize_if_shorter(&target, b.qubits.len(), count, &opts.search);
                &local
            }
        };
        if let Some(syn) = syn {
            // Map the synthesized blocks back to global qubits.
            for ((la, lb), m) in &syn.blocks {
                out.push(Gate::Su4(b.qubits[*la], b.qubits[*lb], Box::new(m.clone())));
            }
            // Note: synthesis is exact up to a global phase only; the
            // phase is physically irrelevant and ignored throughout.
            return;
        }
    }
    for g in &b.gates {
        out.push(g.clone());
    }
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
        // shape block-level batching exists for. Fanning its distinct
        // blocks over workers must change wall-clock only, never a bit of
        // the output.
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
        let cache = CompileCache::new();
        let batched = hierarchical_synthesis_batched(&c, &opts, Some(&cache), 4);
        assert_eq!(batched, serial, "block batching changed the result");
        assert!(cache.stats().synthesis.inserts >= 2, "distinct blocks should prewarm the pool");
        // A rerun is pure hits (the prewarm populated the shared pool).
        let rerun = hierarchical_synthesis_batched(&c, &opts, Some(&cache), 4);
        assert_eq!(rerun, serial);
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
