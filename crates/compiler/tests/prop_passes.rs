//! Property tests: every compiler pass preserves the program unitary on
//! random circuits, and the optimizing passes never increase #2Q.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reqisc_compiler::{
    compact, fuse_2q, hierarchical_synthesis, qiskit_like, route, routing_preserves_semantics,
    tket_like, CompactOptions, HsOptions, Router, Topology,
};
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_qsim::{circuit_unitary, process_infidelity};

fn random_circuit(n: usize, len: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..len {
        match rng.gen_range(0..8) {
            0 => c.push(Gate::H(rng.gen_range(0..n))),
            1 => c.push(Gate::T(rng.gen_range(0..n))),
            2 => c.push(Gate::Rz(rng.gen_range(0..n), rng.gen_range(-1.5..1.5))),
            3 | 4 => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.push(Gate::Cx(a, b));
            }
            5 => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.push(Gate::Rzz(a, b, rng.gen_range(-1.0..1.0)));
            }
            6 if n >= 3 => {
                let mut qs: Vec<usize> = (0..n).collect();
                for i in 0..3 {
                    let j = rng.gen_range(i..n);
                    qs.swap(i, j);
                }
                c.push(Gate::Ccx(qs[0], qs[1], qs[2]));
            }
            _ => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.push(Gate::SqiSw(a, b));
            }
        }
    }
    c
}

fn equiv(a: &Circuit, b: &Circuit, tol: f64) -> f64 {
    process_infidelity(&circuit_unitary(a), &circuit_unitary(b)).max(tol * 0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fuse_preserves_and_never_grows(seed in 0u64..5000, n in 2usize..5, len in 4usize..24) {
        let c = random_circuit(n, len, seed).lowered_to_cx();
        let f = fuse_2q(&c);
        prop_assert!(f.count_2q() <= c.count_2q());
        let inf = equiv(&c, &f, 1e-9);
        prop_assert!(inf < 1e-8, "infidelity {inf}");
    }

    #[test]
    fn compact_preserves(seed in 0u64..5000, n in 3usize..5, len in 4usize..20) {
        let c = fuse_2q(&random_circuit(n, len, seed).lowered_to_cx());
        let k = compact(&c, &CompactOptions::default());
        prop_assert!(k.count_2q() <= c.count_2q());
        let inf = equiv(&c, &k, 1e-9);
        prop_assert!(inf < 1e-8, "infidelity {inf}");
    }

    #[test]
    fn baselines_preserve(seed in 0u64..5000, n in 2usize..4, len in 3usize..14) {
        let c = random_circuit(n, len, seed);
        for out in [qiskit_like(&c), tket_like(&c)] {
            let inf = equiv(&c.lowered_to_cx(), &out, 1e-8);
            prop_assert!(inf < 1e-7, "infidelity {inf}");
        }
    }

    #[test]
    fn hierarchical_preserves(seed in 0u64..5000, n in 3usize..5, len in 4usize..16) {
        let c = random_circuit(n, len, seed);
        let mut o = HsOptions::default();
        o.search.sweep.restarts = 2;
        o.search.sweep.max_sweeps = 150;
        let h = hierarchical_synthesis(&c, &o);
        let inf = equiv(&c.lowered_to_cx(), &h, 1e-7);
        prop_assert!(inf < 1e-6, "infidelity {inf}");
        prop_assert!(h.count_2q() <= fuse_2q(&c.lowered_to_cx()).count_2q());
    }

    #[test]
    fn routing_preserves_on_random(seed in 0u64..5000, n in 3usize..6, len in 4usize..18) {
        let c = random_circuit(n, len, seed).lowered_to_cx();
        let topo = Topology::chain(n);
        for router in [Router::Sabre, Router::MirroringSabre] {
            let r = route(&c, &topo, router);
            prop_assert!(
                routing_preserves_semantics(&c, &r, &topo),
                "router {router:?} broke seed {seed}"
            );
        }
    }
}
