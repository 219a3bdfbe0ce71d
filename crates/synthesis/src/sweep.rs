//! Environment-sweep instantiation of SU(4)-block circuits.
//!
//! Given a target `2^n × 2^n` unitary and a fixed *structure* (an ordered
//! list of qubit pairs, each carrying one arbitrary SU(4) block), the sweep
//! alternately re-optimizes each block in closed form: with all other
//! blocks fixed, the fidelity `Re Tr(U†·C)` is linear in the block, and the
//! optimal block is the unitary polar factor of its "environment" matrix.
//! This is the numerical engine behind the paper's approximate synthesis
//! (§5.1.1), reaching machine-precision infidelity when the structure is
//! expressive enough.

// lint:allow-file(tolerance-literal, sweep dedup epsilon local to synthesis)
use rand::rngs::StdRng;
use rand::SeedableRng;
use reqisc_qcircuit::embed;
use reqisc_qmath::c64::ZERO;
use reqisc_qmath::{haar_unitary, polar_unitary_4x4, CMat, C64};

/// An ordered list of qubit pairs, one per SU(4) block.
pub type Structure = Vec<(usize, usize)>;

/// A structure instantiated with concrete SU(4) blocks.
#[derive(Debug, Clone)]
pub struct BlockCircuit {
    /// Register width.
    pub num_qubits: usize,
    /// `(pair, block)` in execution order.
    pub blocks: Vec<((usize, usize), CMat)>,
}

impl BlockCircuit {
    /// The full unitary `G_{m-1}···G_0` of the block sequence.
    pub fn unitary(&self) -> CMat {
        let dim = 1usize << self.num_qubits;
        let mut u = CMat::identity(dim);
        for ((a, b), g) in &self.blocks {
            u = embed(g, &[*a, *b], self.num_qubits).mul_mat(&u);
        }
        u
    }

    /// Number of SU(4) blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the circuit has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Process infidelity `1 − |Tr(target†·C)|/2^n` against a target.
    pub fn infidelity(&self, target: &CMat) -> f64 {
        let dim = 1usize << self.num_qubits;
        (1.0 - target.hs_inner(&self.unitary()).abs() / dim as f64).max(0.0)
    }

    /// Encodes the block circuit for the persistent compile store
    /// (deterministic, bit-exact — see `reqisc_qmath::bytes`).
    pub fn encode_into(&self, w: &mut reqisc_qmath::ByteWriter) {
        w.put_usize(self.num_qubits);
        w.put_usize(self.blocks.len());
        for ((a, b), m) in &self.blocks {
            w.put_usize(*a);
            w.put_usize(*b);
            reqisc_qmath::bytes::write_cmat(w, m);
        }
    }

    /// Decodes a block circuit, validating pair indices against the
    /// declared width.
    ///
    /// # Errors
    ///
    /// [`reqisc_qmath::CodecError`] on truncation or out-of-range qubits.
    pub fn decode_from(
        r: &mut reqisc_qmath::ByteReader<'_>,
    ) -> Result<Self, reqisc_qmath::CodecError> {
        let num_qubits = r.get_usize()?;
        if num_qubits > 64 {
            return Err(reqisc_qmath::CodecError::new(format!(
                "implausible block-circuit width {num_qubits}"
            )));
        }
        let n = r.get_count(16)?;
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            let a = r.get_usize()?;
            let b = r.get_usize()?;
            if a >= num_qubits || b >= num_qubits || a == b {
                return Err(reqisc_qmath::CodecError::new(format!(
                    "block pair ({a}, {b}) invalid for width {num_qubits}"
                )));
            }
            let m = reqisc_qmath::bytes::read_cmat(r)?;
            if m.rows() != 4 || m.cols() != 4 {
                return Err(reqisc_qmath::CodecError::new("SU(4) block must be 4x4"));
            }
            blocks.push(((a, b), m));
        }
        Ok(Self { num_qubits, blocks })
    }
}

/// Result of one instantiation attempt.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The optimized blocks.
    pub circuit: BlockCircuit,
    /// Final process infidelity against the target.
    pub infidelity: f64,
    /// Sweeps executed.
    pub sweeps: usize,
}

/// Options for [`instantiate`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Maximum alternating sweeps per restart.
    pub max_sweeps: usize,
    /// Stop when infidelity falls below this.
    pub target_infidelity: f64,
    /// Random restarts (the first start is always identity blocks).
    pub restarts: usize,
    /// RNG seed for the random restarts.
    pub seed: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self { max_sweeps: 300, target_infidelity: 1e-11, restarts: 4, seed: 7 }
    }
}

/// Optimizes the blocks of `structure` to approximate `target` on
/// `num_qubits` qubits.
///
/// # Panics
///
/// Panics if `target` is not `2^num_qubits`-dimensional or a pair index is
/// out of range.
pub fn instantiate(
    target: &CMat,
    structure: &[(usize, usize)],
    num_qubits: usize,
    opts: &SweepOptions,
) -> SweepResult {
    let dim = 1usize << num_qubits;
    assert_eq!(target.rows(), dim, "target dimension mismatch");
    for &(a, b) in structure {
        assert!(a < num_qubits && b < num_qubits && a != b, "bad pair ({a},{b})");
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut kernel = Kernel::new(target, structure, num_qubits);
    let mut best: Option<(f64, usize)> = None;
    let mut best_blocks = kernel.blocks.clone();
    for restart in 0..=opts.restarts {
        for block in &mut kernel.blocks {
            let init = if restart == 0 { CMat::identity(4) } else { haar_unitary(4, &mut rng) };
            block.copy_from_slice(init.as_slice());
        }
        let (inf, sweeps) = kernel.sweep_once(opts);
        if best.is_none_or(|(b, _)| inf < b) {
            best = Some((inf, sweeps));
            best_blocks.copy_from_slice(&kernel.blocks);
        }
        if best.is_some_and(|(b, _)| b <= opts.target_infidelity) {
            break;
        }
    }
    let (infidelity, sweeps) = best.expect("at least one restart ran");
    let blocks = structure
        .iter()
        .zip(&best_blocks)
        .map(|(&pair, g)| (pair, CMat::from_slice(4, 4, g)))
        .collect();
    SweepResult { circuit: BlockCircuit { num_qubits, blocks }, infidelity, sweeps }
}

/// Where a block's qubit pair sits in the `2^n` basis.
struct PairIndex {
    /// Basis offset of block state `b` (bit 1 of `b` on the pair's first
    /// qubit, bit 0 on its second).
    off: [usize; 4],
    /// Block states by ascending offset: the order in which
    /// `CMat::mul_mat` sums an embedded block's terms.
    ord: [usize; 4],
    /// Basis offsets of the other qubits' states, in `embed`'s context
    /// order (the partial trace sums over contexts in this order).
    bases: Vec<usize>,
}

impl PairIndex {
    fn new((a, b): (usize, usize), n: usize) -> Self {
        let (sa, sb) = (n - 1 - a, n - 1 - b);
        let rest: Vec<usize> = (0..n).filter(|&q| q != a && q != b).map(|q| n - 1 - q).collect();
        let bases = (0..1usize << rest.len())
            .map(|ctx| {
                rest.iter()
                    .enumerate()
                    .filter(|&(bi, _)| (ctx >> bi) & 1 == 1)
                    .fold(0, |base, (_, &sh)| base | 1 << sh)
            })
            .collect();
        Self {
            off: [0, 1 << sb, 1 << sa, (1 << sa) | (1 << sb)],
            ord: if sa > sb { [0, 1, 2, 3] } else { [0, 2, 1, 3] },
            bases,
        }
    }
}

/// The working set of one [`instantiate`] call, reused by every restart
/// and sweep, so a block update allocates nothing.
///
/// Every matrix entry is summed term for term in the order of
/// `embed(..)` + `CMat::mul_mat` from `+0`: the terms skipped here are
/// products of a finite value and an exact zero, which never change such
/// a sum, so the blocks come out bit-identical to the dense formulation.
struct Kernel<'a> {
    target: &'a CMat,
    dim: usize,
    /// `U†`, row-major.
    udag: Vec<C64>,
    pairs: Vec<PairIndex>,
    /// The blocks `G_k`, row-major.
    blocks: Vec<[C64; 16]>,
    /// `R_k = G_{k-1}···G_0` for `k = 0..=m`, `dim²` each; `R_m` is the
    /// circuit unitary.
    prefix: Vec<C64>,
    /// `L_kᵀ` for `k = 0..m`, where `L_k = G_{m-1}···G_{k+1}`: transposed,
    /// so that both chains update, and the environment reads, whole rows.
    suffix_t: Vec<C64>,
    /// `R_k·U†` of the block being updated.
    rk_udag: Vec<C64>,
}

impl<'a> Kernel<'a> {
    fn new(target: &'a CMat, structure: &[(usize, usize)], num_qubits: usize) -> Self {
        let dim = 1usize << num_qubits;
        let m = structure.len();
        let identity = CMat::identity(dim);
        let mut prefix = vec![ZERO; (m + 1) * dim * dim];
        prefix[..dim * dim].copy_from_slice(identity.as_slice());
        let mut suffix_t = vec![ZERO; m * dim * dim];
        if m > 0 {
            suffix_t[(m - 1) * dim * dim..].copy_from_slice(identity.as_slice());
        }
        Self {
            target,
            dim,
            udag: target.adjoint().as_slice().to_vec(),
            pairs: structure.iter().map(|&p| PairIndex::new(p, num_qubits)).collect(),
            blocks: vec![[ZERO; 16]; m],
            prefix,
            suffix_t,
            rk_udag: vec![ZERO; dim * dim],
        }
    }

    /// Sweeps from the current blocks until converged or out of budget;
    /// returns the final infidelity and the sweeps run.
    fn sweep_once(&mut self, opts: &SweepOptions) -> (f64, usize) {
        let m = self.blocks.len();
        // Built once: the chain each update refreshes is exactly the next
        // sweep's rebuild, and its last element is the circuit unitary.
        for k in 0..m {
            self.refresh_prefix(k);
        }
        let mut inf = self.infidelity();
        let mut sweeps = 0;
        let mut last = f64::INFINITY;
        for s in 0..opts.max_sweeps {
            sweeps = s + 1;
            for k in (1..m).rev() {
                self.refresh_suffix(k);
            }
            for k in 0..m {
                // Optimal block maximizing Re Tr(B·envᵀ) = Re Tr((conj(env))†·B):
                // the unitary polar factor of conj(env).
                let env = self.environment(k);
                self.blocks[k] = polar_unitary_4x4(&env.map(|z| z.conj()));
                self.refresh_prefix(k);
            }
            inf = self.infidelity();
            if inf <= opts.target_infidelity || (last - inf).abs() < 1e-16 {
                break;
            }
            last = inf;
        }
        (inf, sweeps)
    }

    /// `R_{k+1} = G_k·R_k`.
    fn refresh_prefix(&mut self, k: usize) {
        let d2 = self.dim * self.dim;
        let (done, next) = self.prefix.split_at_mut((k + 1) * d2);
        let g = &self.blocks[k];
        combine_rows(|x, y| g[x * 4 + y], &self.pairs[k], &done[k * d2..], &mut next[..d2]);
    }

    /// `L_{k-1} = L_k·G_k`, as `L_{k-1}ᵀ = G_kᵀ·L_kᵀ`.
    fn refresh_suffix(&mut self, k: usize) {
        let d2 = self.dim * self.dim;
        let (next, done) = self.suffix_t.split_at_mut(k * d2);
        let g = &self.blocks[k];
        combine_rows(|x, y| g[y * 4 + x], &self.pairs[k], &done[..d2], &mut next[(k - 1) * d2..]);
    }

    /// Environment of block `k`: `N[i][j] = Σ_ctx M[(ctx,j)][(ctx,i)]` with
    /// `M = R_k·U†·L_k`, so that `Tr(emb(B)·M) = Σ_ij B_ij·N_ij`. Only the
    /// entries of `M` the trace reads are formed.
    fn environment(&mut self, k: usize) -> [C64; 16] {
        let (dim, d2) = (self.dim, self.dim * self.dim);
        let rk = &self.prefix[k * d2..(k + 1) * d2];
        let udag = self.udag.as_chunks::<4>().0;
        for (row, rk_row) in self.rk_udag.chunks_exact_mut(dim).zip(rk.chunks_exact(dim)) {
            for (c, out) in row.as_chunks_mut::<4>().0.iter_mut().enumerate() {
                let mut acc = [ZERO; 4];
                for (kk, &a) in rk_row.iter().enumerate() {
                    if a.re == 0.0 && a.im == 0.0 {
                        continue;
                    }
                    let x = &udag[kk * dim / 4 + c];
                    for i in 0..4 {
                        acc[i] += a * x[i];
                    }
                }
                *out = acc;
            }
        }
        let lk_t = &self.suffix_t[k * d2..(k + 1) * d2];
        let p = &self.pairs[k];
        let mut env = [ZERO; 16];
        for &base in &p.bases {
            let lk_cols = p.off.map(|o| &lk_t[(base | o) * dim..][..dim]);
            for j in 0..4 {
                let mut mj = [ZERO; 4];
                let row = &self.rk_udag[(base | p.off[j]) * dim..][..dim];
                for (kk, &a) in row.iter().enumerate() {
                    if a.re == 0.0 && a.im == 0.0 {
                        continue;
                    }
                    for i in 0..4 {
                        mj[i] += a * lk_cols[i][kk];
                    }
                }
                for i in 0..4 {
                    env[i * 4 + j] += mj[i];
                }
            }
        }
        env
    }

    /// [`BlockCircuit::infidelity`] of the current blocks, read off `R_m`.
    fn infidelity(&self) -> f64 {
        let u = &self.prefix[self.blocks.len() * self.dim * self.dim..];
        let overlap: C64 =
            self.target.as_slice().iter().zip(u).map(|(t, &x)| t.conj() * x).sum();
        (1.0 - overlap.abs() / self.dim as f64).max(0.0)
    }
}

/// `dst = emb(h)·src` for the 4×4 block `h(x, y)` on pair `p`: each row
/// `(ctx, x)` of `dst` is `Σ_y h(x, y)·src[(ctx, y)]`, summed over `y` in
/// ascending basis order, four columns at a time in registers.
fn combine_rows(h: impl Fn(usize, usize) -> C64, p: &PairIndex, src: &[C64], dst: &mut [C64]) {
    let dim = 4 * p.bases.len();
    for &base in &p.bases {
        let src_rows = p.off.map(|o| src[(base | o) * dim..][..dim].as_chunks::<4>().0);
        for x in 0..4 {
            let row = dst[(base | p.off[x]) * dim..][..dim].as_chunks_mut::<4>().0;
            for (c, out) in row.iter_mut().enumerate() {
                let mut acc = [ZERO; 4];
                for &y in &p.ord {
                    let a = h(x, y);
                    if a.re == 0.0 && a.im == 0.0 {
                        continue;
                    }
                    for i in 0..4 {
                        acc[i] += a * src_rows[y][c][i];
                    }
                }
                *out = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qmath::gates as qg;

    #[test]
    fn single_block_recovers_su4_target() {
        // A 2Q target with a single block must reach machine precision in
        // one polar update.
        let mut rng = StdRng::seed_from_u64(3);
        let target = haar_unitary(4, &mut rng);
        let r = instantiate(&target, &[(0, 1)], 2, &SweepOptions::default());
        assert!(r.infidelity < 1e-12, "infidelity {}", r.infidelity);
    }

    #[test]
    fn product_of_two_blocks_on_3q() {
        // Target built from a known 2-block structure is exactly recovered.
        let mut rng = StdRng::seed_from_u64(5);
        let g1 = haar_unitary(4, &mut rng);
        let g2 = haar_unitary(4, &mut rng);
        let target = embed(&g2, &[1, 2], 3).mul_mat(&embed(&g1, &[0, 1], 3));
        let r = instantiate(&target, &[(0, 1), (1, 2)], 3, &SweepOptions::default());
        assert!(r.infidelity < 1e-10, "infidelity {}", r.infidelity);
    }

    #[test]
    fn ccx_with_five_blocks() {
        // Toffoli is synthesizable with 5 arbitrary 2Q gates.
        let mut c = reqisc_qcircuit::Circuit::new(3);
        c.push(reqisc_qcircuit::Gate::Ccx(0, 1, 2));
        let target = c.unitary();
        let structure = vec![(1, 2), (0, 2), (1, 2), (0, 2), (0, 1)];
        let r = instantiate(&target, &structure, 3, &SweepOptions::default());
        assert!(r.infidelity < 1e-9, "infidelity {}", r.infidelity);
        // The instantiated circuit reproduces CCX up to global phase.
        let diff = 1.0 - target.hs_inner(&r.circuit.unitary()).abs() / 8.0;
        assert!(diff < 1e-9);
    }

    #[test]
    fn infeasible_structure_reports_high_infidelity() {
        // One block on (0,1) cannot produce an entangler on (0,2).
        let target = embed(&qg::cnot(), &[0, 2], 3);
        let r = instantiate(&target, &[(0, 1)], 3, &SweepOptions::default());
        assert!(r.infidelity > 1e-3, "should not converge: {}", r.infidelity);
    }

    #[test]
    fn environment_gradient_consistency() {
        // Numerically verify Σ_ij B_ij·N_ij == Tr(emb(B)·R_k·U†·L_k) for a
        // random target and blocks, on every block of a structure that
        // mixes pair orders.
        let mut rng = StdRng::seed_from_u64(11);
        let target = haar_unitary(8, &mut rng);
        let structure = [(0usize, 1usize), (2, 1), (0, 2), (1, 0)];
        let mut kernel = Kernel::new(&target, &structure, 3);
        for block in &mut kernel.blocks {
            block.copy_from_slice(haar_unitary(4, &mut rng).as_slice());
        }
        for k in 0..structure.len() {
            kernel.refresh_prefix(k);
        }
        for k in (1..structure.len()).rev() {
            kernel.refresh_suffix(k);
        }
        let emb = |g: &[C64; 16], (a, b): (usize, usize)| {
            embed(&CMat::from_slice(4, 4, g), &[a, b], 3)
        };
        for (k, &pair) in structure.iter().enumerate() {
            let env = kernel.environment(k);
            let mut rk = CMat::identity(8);
            for j in 0..k {
                rk = emb(&kernel.blocks[j], structure[j]).mul_mat(&rk);
            }
            let mut lk = CMat::identity(8);
            for j in k + 1..structure.len() {
                lk = emb(&kernel.blocks[j], structure[j]).mul_mat(&lk);
            }
            let m = rk.mul_mat(&target.adjoint()).mul_mat(&lk);
            let b = haar_unitary(4, &mut rng);
            let lhs = embed(&b, &[pair.0, pair.1], 3).mul_mat(&m).trace();
            let rhs: C64 = (0..4)
                .flat_map(|i| (0..4).map(move |j| (i, j)))
                .map(|(i, j)| b[(i, j)] * env[i * 4 + j])
                .sum();
            assert!(lhs.dist(rhs) < 1e-10, "env mismatch for block {k} on {pair:?}");
        }
    }

    #[test]
    fn reversed_pair_order_in_structure() {
        // Pairs like (2, 0) (high qubit first) must work too.
        let mut rng = StdRng::seed_from_u64(13);
        let g = haar_unitary(4, &mut rng);
        let target = embed(&g, &[2, 0], 3);
        let r = instantiate(&target, &[(2, 0)], 3, &SweepOptions::default());
        assert!(r.infidelity < 1e-11);
    }

    #[test]
    fn block_circuit_codec_roundtrips_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let bc = BlockCircuit {
            num_qubits: 3,
            blocks: vec![
                ((0, 1), haar_unitary(4, &mut rng)),
                ((2, 1), haar_unitary(4, &mut rng)),
            ],
        };
        let mut w = reqisc_qmath::ByteWriter::new();
        bc.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = reqisc_qmath::ByteReader::new(&bytes);
        let back = BlockCircuit::decode_from(&mut r).expect("roundtrip");
        assert!(r.is_exhausted());
        assert_eq!(back.num_qubits, 3);
        assert_eq!(back.blocks.len(), 2);
        for (orig, dec) in bc.blocks.iter().zip(&back.blocks) {
            assert_eq!(orig.0, dec.0);
            assert_eq!(orig.1.fingerprint(), dec.1.fingerprint(), "blocks must be bit-exact");
        }
        // Truncations fail cleanly.
        for cut in 0..bytes.len() {
            assert!(
                BlockCircuit::decode_from(&mut reqisc_qmath::ByteReader::new(&bytes[..cut]))
                    .is_err(),
                "cut {cut}"
            );
        }
    }
}
