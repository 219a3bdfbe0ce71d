//! Old-vs-new sweep-kernel equivalence: the environment sweep behind
//! approximate synthesis was rewritten to run on reused buffers with
//! blocks applied on their pair's basis offsets, instead of embedding
//! every block into a dense `2ⁿ × 2ⁿ` matrix. The rewrite promises
//! **bit-identical** output, which is what keeps synthesis-pool entries,
//! program outputs and the options fingerprints valid without a
//! store-format bump. This suite freezes the dense kernel verbatim
//! (below) and pins that promise:
//!
//! * a proptest over register widths n ∈ {2, 3}, random structures with
//!   every pair order (reversed pairs such as `(2, 0)` included), Haar,
//!   exact-structure, identity, CCX and permutation targets, seeds,
//!   restart counts and `max_sweeps` ∈ {0, 1, 80}, asserting equal block
//!   bits, infidelity bits and sweep counts;
//! * named pins: the CCX 5-block instance, every ordered pair of a
//!   3-qubit register, and 4-qubit structures (whose contexts are not
//!   visited in ascending basis order);
//! * 4×4 `polar_unitary` bit for bit, including rank-1 and all-zero
//!   inputs (the basis-completion branch), and `svd` at several sizes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reqisc::qcircuit::{Circuit, Gate};
use reqisc::qmath::{haar_unitary, polar_unitary, polar_unitary_4x4, svd, CMat, C64};
use reqisc::synthesis::{instantiate, SweepOptions};

/// The dense kernel, frozen at its last form before the rewrite: every
/// block embedded into a `2ⁿ × 2ⁿ` matrix, prefix and suffix chains and
/// the circuit unitary rebuilt on every sweep, and the allocating Jacobi
/// SVD. Kept verbatim as the behavioural reference — do not "fix" it.
mod frozen {
    use reqisc::qcircuit::embed;
    use reqisc::qmath::c64::ONE;
    use reqisc::qmath::{haar_unitary, CMat, C64};
    use reqisc::synthesis::SweepOptions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub struct SweepResult {
        pub blocks: Vec<((usize, usize), CMat)>,
        pub infidelity: f64,
        pub sweeps: usize,
    }

    fn unitary(num_qubits: usize, blocks: &[((usize, usize), CMat)]) -> CMat {
        let dim = 1usize << num_qubits;
        let mut u = CMat::identity(dim);
        for ((a, b), g) in blocks {
            u = embed(g, &[*a, *b], num_qubits).mul_mat(&u);
        }
        u
    }

    fn infidelity(num_qubits: usize, blocks: &[((usize, usize), CMat)], target: &CMat) -> f64 {
        let dim = 1usize << num_qubits;
        (1.0 - target.hs_inner(&unitary(num_qubits, blocks)).abs() / dim as f64).max(0.0)
    }

    pub fn instantiate(
        target: &CMat,
        structure: &[(usize, usize)],
        num_qubits: usize,
        opts: &SweepOptions,
    ) -> SweepResult {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut best: Option<SweepResult> = None;
        for restart in 0..=opts.restarts {
            let init: Vec<CMat> = if restart == 0 {
                vec![CMat::identity(4); structure.len()]
            } else {
                (0..structure.len()).map(|_| haar_unitary(4, &mut rng)).collect()
            };
            let r = sweep_once(target, structure, num_qubits, init, opts);
            let better = best.as_ref().is_none_or(|b| r.infidelity < b.infidelity);
            if better {
                best = Some(r);
            }
            if best.as_ref().unwrap().infidelity <= opts.target_infidelity {
                break;
            }
        }
        best.expect("at least one restart ran")
    }

    fn sweep_once(
        target: &CMat,
        structure: &[(usize, usize)],
        num_qubits: usize,
        mut blocks: Vec<CMat>,
        opts: &SweepOptions,
    ) -> SweepResult {
        let dim = 1usize << num_qubits;
        let m = structure.len();
        let udag = target.adjoint();
        let mut sweeps = 0;
        let mut last = f64::INFINITY;
        for s in 0..opts.max_sweeps {
            sweeps = s + 1;
            // Prefix products R_k = G_{k-1}···G_0 and suffixes L_k = G_{m-1}···G_{k+1}.
            let mut prefix = vec![CMat::identity(dim)];
            for k in 0..m {
                let g = embed(&blocks[k], &[structure[k].0, structure[k].1], num_qubits);
                prefix.push(g.mul_mat(&prefix[k]));
            }
            let mut suffix = vec![CMat::identity(dim); m + 1];
            for k in (0..m).rev() {
                let g = embed(&blocks[k], &[structure[k].0, structure[k].1], num_qubits);
                suffix[k] = suffix[k + 1].mul_mat(&g);
            }
            for k in 0..m {
                // M = R_k · U† · L_k ; environment N_ij = Σ_ctx M[(ctx,j)][(ctx,i)].
                let mmat = prefix[k].mul_mat(&udag).mul_mat(&suffix[k + 1]);
                let env = partial_trace_env(&mmat, structure[k], num_qubits);
                // Optimal block maximizing Re Tr(B·envᵀ) = Re Tr((conj(env))†·B):
                // the unitary polar factor of conj(env).
                blocks[k] = polar_unitary(&env.conj());
                // Refresh prefix for subsequent blocks in this sweep.
                let g = embed(&blocks[k], &[structure[k].0, structure[k].1], num_qubits);
                prefix[k + 1] = g.mul_mat(&prefix[k]);
                // Suffixes for earlier indices are unused for j > k in this
                // sweep, so only prefix needs the refresh.
            }
            // Recompute suffixes lazily next sweep; track convergence.
            let c: Vec<((usize, usize), CMat)> =
                structure.iter().copied().zip(blocks.iter().cloned()).collect();
            let inf = infidelity(num_qubits, &c, target);
            if inf <= opts.target_infidelity || (last - inf).abs() < 1e-16 {
                return SweepResult { blocks: c, infidelity: inf, sweeps };
            }
            last = inf;
        }
        let c: Vec<((usize, usize), CMat)> =
            structure.iter().copied().zip(blocks.iter().cloned()).collect();
        let inf = infidelity(num_qubits, &c, target);
        SweepResult { blocks: c, infidelity: inf, sweeps }
    }

    /// Environment of a block: `N[i][j] = Σ_ctx M[(ctx,j)][(ctx,i)]` so that
    /// `Tr(emb(B)·M) = Tr(B·Nᵀ) = Σ_ij B_ij·N_ij`.
    fn partial_trace_env(m: &CMat, pair: (usize, usize), num_qubits: usize) -> CMat {
        let n = num_qubits;
        let shifts = [n - 1 - pair.0, n - 1 - pair.1];
        let rest: Vec<usize> = (0..n)
            .filter(|&q| q != pair.0 && q != pair.1)
            .map(|q| n - 1 - q)
            .collect();
        let mut env = CMat::zeros(4, 4);
        for ctx in 0..(1usize << rest.len()) {
            let mut base = 0usize;
            for (bi, &sh) in rest.iter().enumerate() {
                if (ctx >> bi) & 1 == 1 {
                    base |= 1 << sh;
                }
            }
            for i in 0..4usize {
                let row_i = base
                    | (((i >> 1) & 1) << shifts[0])
                    | ((i & 1) << shifts[1]);
                for j in 0..4usize {
                    let row_j = base
                        | (((j >> 1) & 1) << shifts[0])
                        | ((j & 1) << shifts[1]);
                    env[(i, j)] += m[(row_j, row_i)];
                }
            }
        }
        env
    }

    pub struct Svd {
        pub u: CMat,
        pub sigma: Vec<f64>,
        pub v: CMat,
    }

    pub fn svd(a: &CMat) -> Svd {
        assert!(a.is_square(), "svd expects a square matrix");
        let n = a.rows();
        let mut w = a.clone();
        let mut v = CMat::identity(n);
        for _sweep in 0..128 {
            let mut rotated = false;
            for p in 0..n {
                for q in p + 1..n {
                    // Gram entries for columns p, q of w.
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = C64::default();
                    for k in 0..n {
                        let wp = w[(k, p)];
                        let wq = w[(k, q)];
                        app += wp.norm_sqr();
                        aqq += wq.norm_sqr();
                        apq += wp.conj() * wq;
                    }
                    if apq.abs() <= 1e-15 * (app * aqq).sqrt().max(1e-300) {
                        continue;
                    }
                    rotated = true;
                    // Complex Jacobi rotation diagonalizing [[app, apq],[apq*, aqq]].
                    let phase = apq.unit();
                    let ang = 0.5 * (2.0 * apq.abs()).atan2(app - aqq);
                    let (s, c) = ang.sin_cos();
                    let gpq = phase.scale(-s);
                    let gqp = phase.conj().scale(s);
                    let gc = C64::real(c);
                    for k in 0..n {
                        let wp = w[(k, p)];
                        let wq = w[(k, q)];
                        w[(k, p)] = wp * gc + wq * gqp;
                        w[(k, q)] = wp * gpq + wq * gc;
                    }
                    for k in 0..n {
                        let vp = v[(k, p)];
                        let vq = v[(k, q)];
                        v[(k, p)] = vp * gc + vq * gqp;
                        v[(k, q)] = vp * gpq + vq * gc;
                    }
                }
            }
            if !rotated {
                break;
            }
        }
        // Column norms → singular values; normalize columns → U.
        let mut order: Vec<usize> = (0..n).collect();
        let norms: Vec<f64> = (0..n)
            .map(|j| (0..n).map(|i| w[(i, j)].norm_sqr()).sum::<f64>().sqrt())
            .collect();
        order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());
        let mut u = CMat::identity(n);
        let mut sigma = vec![0.0; n];
        let mut vv = CMat::identity(n);
        // Track columns already used to complete the basis for zero σ.
        for (jj, &j) in order.iter().enumerate() {
            sigma[jj] = norms[j];
            for i in 0..n {
                vv[(i, jj)] = v[(i, j)];
            }
            if norms[j] > 1e-150 {
                for i in 0..n {
                    u[(i, jj)] = w[(i, j)] / norms[j];
                }
            } else {
                // Fill with a unit vector orthogonal to previous columns
                // (Gram–Schmidt against existing ones).
                let mut col = vec![C64::default(); n];
                'basis: for b in 0..n {
                    for c in col.iter_mut() {
                        *c = C64::default();
                    }
                    col[b] = ONE;
                    for prev in 0..jj {
                        let mut ip = C64::default();
                        for i in 0..n {
                            ip += u[(i, prev)].conj() * col[i];
                        }
                        for (i, c) in col.iter_mut().enumerate() {
                            *c -= ip * u[(i, prev)];
                        }
                    }
                    let nrm = col.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
                    if nrm > 1e-6 {
                        for c in col.iter_mut() {
                            *c = *c / nrm;
                        }
                        break 'basis;
                    }
                }
                for i in 0..n {
                    u[(i, jj)] = col[i];
                }
            }
        }
        Svd { u, sigma, v: vv }
    }

    pub fn polar_unitary(a: &CMat) -> CMat {
        let d = svd(a);
        d.u.mul_mat(&d.v.adjoint())
    }
}

/// Every entry's bit pattern, `-0.0` kept distinct from `+0.0`.
fn bits(m: &CMat) -> Vec<(u64, u64)> {
    m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// Runs both kernels and asserts bit-identical results.
fn assert_same(target: &CMat, structure: &[(usize, usize)], n: usize, opts: &SweepOptions) {
    let old = frozen::instantiate(target, structure, n, opts);
    let new = instantiate(target, structure, n, opts);
    let ctx = format!("n={n} structure={structure:?} opts={opts:?}");
    assert_eq!(new.sweeps, old.sweeps, "sweep count differs: {ctx}");
    assert_eq!(
        new.infidelity.to_bits(),
        old.infidelity.to_bits(),
        "infidelity {} vs {}: {ctx}",
        new.infidelity,
        old.infidelity
    );
    assert_eq!(new.circuit.num_qubits, n);
    assert_eq!(new.circuit.blocks.len(), old.blocks.len(), "{ctx}");
    for (k, ((np, nb), (op, ob))) in new.circuit.blocks.iter().zip(&old.blocks).enumerate() {
        assert_eq!(np, op, "pair {k}: {ctx}");
        assert_eq!(bits(nb), bits(ob), "block {k} bits differ: {ctx}");
    }
}

fn ccx(n: usize) -> CMat {
    let mut c = Circuit::new(n);
    if n == 2 {
        c.push(Gate::Cx(1, 0));
    } else {
        c.push(Gate::Ccx(0, 1, 2));
    }
    c.unitary()
}

fn permutation(dim: usize, rng: &mut StdRng) -> CMat {
    let mut perm: Vec<usize> = (0..dim).collect();
    for i in (1..dim).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    CMat::from_fn(dim, dim, |i, j| if perm[j] == i { C64::real(1.0) } else { C64::default() })
}

fn random_structure(n: usize, len: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    (0..len)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            (a, b)
        })
        .collect()
}

/// A target of the given kind: 0 Haar, 1 exact structure, 2 identity,
/// 3 CCX (CNOT on two qubits), 4 permutation.
fn target(kind: usize, n: usize, rng: &mut StdRng) -> CMat {
    let dim = 1usize << n;
    match kind {
        0 => haar_unitary(dim, rng),
        1 => {
            let len = rng.gen_range(1..4);
            let mut u = CMat::identity(dim);
            for (a, b) in random_structure(n, len, rng) {
                u = reqisc::qcircuit::embed(&haar_unitary(4, rng), &[a, b], n).mul_mat(&u);
            }
            u
        }
        2 => CMat::identity(dim),
        3 => ccx(n),
        _ => permutation(dim, rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rewritten kernel returns the frozen kernel's blocks,
    /// infidelity and sweep count, bit for bit.
    #[test]
    fn instantiate_matches_frozen_dense_kernel(
        kind in 0usize..5,
        n in 2usize..4,
        seed in 0u64..1_000_000,
        restarts in 0usize..3,
        budget in 0usize..3,
        len in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = target(kind, n, &mut rng);
        let structure = random_structure(n, len, &mut rng);
        let opts = SweepOptions {
            max_sweeps: [0, 1, 80][budget],
            target_infidelity: if seed % 2 == 0 { 1e-9 } else { 1e-11 },
            restarts,
            seed: seed / 7,
        };
        assert_same(&target, &structure, n, &opts);
    }
}

#[test]
fn ccx_five_blocks_matches_frozen_kernel() {
    let structure = [(1, 2), (0, 2), (1, 2), (0, 2), (0, 1)];
    assert_same(&ccx(3), &structure, 3, &SweepOptions::default());
    // The search's probe budget on an infeasible structure.
    let probe = SweepOptions { max_sweeps: 80, target_infidelity: 1e-9, restarts: 1, seed: 7 };
    assert_same(&ccx(3), &structure[..4], 3, &probe);
}

#[test]
fn every_pair_order_matches_frozen_kernel() {
    let mut rng = StdRng::seed_from_u64(21);
    let u = haar_unitary(8, &mut rng);
    let orders = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)];
    let opts = SweepOptions { max_sweeps: 40, restarts: 1, ..SweepOptions::default() };
    for &p in &orders {
        assert_same(&u, &[p], 3, &opts);
    }
    assert_same(&u, &orders, 3, &opts);
    let reversed: Vec<_> = orders.iter().rev().copied().collect();
    assert_same(&ccx(3), &reversed, 3, &opts);
}

#[test]
fn four_qubit_structures_match_frozen_kernel() {
    // With two context qubits the partial trace visits contexts out of
    // ascending basis order; the sums must keep that order.
    let mut rng = StdRng::seed_from_u64(4);
    let opts = SweepOptions { max_sweeps: 12, restarts: 1, ..SweepOptions::default() };
    let u = haar_unitary(16, &mut rng);
    assert_same(&u, &[(3, 0), (1, 2), (0, 2), (3, 1)], 4, &opts);
    let p = permutation(16, &mut rng);
    assert_same(&p, &[(0, 1), (2, 3), (1, 3)], 4, &opts);
}

fn random_mat(n: usize, rng: &mut StdRng) -> CMat {
    CMat::from_fn(n, n, |_, _| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
}

fn assert_polar_same(a: &CMat) {
    let old = bits(&frozen::polar_unitary(a));
    assert_eq!(bits(&polar_unitary(a)), old, "polar_unitary differs for {a:?}");
    let mut a4 = [C64::default(); 16];
    a4.copy_from_slice(a.as_slice());
    assert_eq!(
        bits(&CMat::from_slice(4, 4, &polar_unitary_4x4(&a4))),
        old,
        "polar_unitary_4x4 differs for {a:?}"
    );
}

#[test]
fn polar_unitary_4x4_matches_frozen_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..64 {
        assert_polar_same(&random_mat(4, &mut rng));
    }
    for _ in 0..8 {
        assert_polar_same(&haar_unitary(4, &mut rng));
    }
    // Rank 1 and rank 2: zero singular values take the basis completion.
    let x: Vec<C64> = (0..4).map(|_| C64::new(rng.gen_range(-1.0..1.0), 0.3)).collect();
    let y: Vec<C64> = (0..4).map(|_| C64::new(0.5, rng.gen_range(-1.0..1.0))).collect();
    let rank1 = CMat::from_fn(4, 4, |i, j| x[i] * y[j].conj());
    assert_polar_same(&rank1);
    assert_polar_same(&CMat::from_fn(4, 4, |i, j| C64::real((i as f64 + 1.0) * (j as f64 - 1.5))));
    let rank2 = &rank1 + &CMat::from_fn(4, 4, |i, j| y[i] * x[j]);
    assert_polar_same(&rank2);
    assert_polar_same(&CMat::zeros(4, 4));
    let zero = C64::default();
    assert_polar_same(&CMat::diag(&[C64::real(2.0), zero, C64::new(0.0, -1.0), zero]));
}

#[test]
fn svd_matches_frozen_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(23);
    for n in [1usize, 2, 3, 4, 8] {
        for a in [random_mat(n, &mut rng), CMat::zeros(n, n), haar_unitary(n, &mut rng)] {
            let (new, old) = (svd(&a), frozen::svd(&a));
            assert_eq!(bits(&new.u), bits(&old.u), "U differs, n={n}");
            assert_eq!(bits(&new.v), bits(&old.v), "V differs, n={n}");
            let sig = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(sig(&new.sigma), sig(&old.sigma), "sigma differs, n={n}");
        }
    }
}
