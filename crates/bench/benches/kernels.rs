//! Criterion micro-benchmarks for the hot kernels behind every exhibit:
//! KAK decomposition and the reply metrics it prices, Hamiltonian
//! evolution, genAshN pulse solving, approximate-synthesis sweeps (and
//! their 4×4 polar factor), and SABRE routing.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reqisc_benchsuite::{suite, Scale};
use reqisc_compiler::{metrics, route, Compiler, Pipeline, Router, Topology};
use reqisc_microarch::{optimal_duration, solve_ea, solve_pulse, Coupling, EaSign};
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_qmath::{
    expm_i_hermitian, haar_su4, kak_decompose, local_invariant_trace, polar_unitary_4x4,
    weyl_coords, WeylCoord, C64,
};
use reqisc_synthesis::{instantiate, SweepOptions};
use std::hint::black_box;

fn bench_kak(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let us: Vec<_> = (0..32).map(|_| haar_su4(&mut rng)).collect();
    let mut i = 0;
    c.bench_function("kak_decompose_haar", |b| {
        b.iter(|| {
            i = (i + 1) % us.len();
            black_box(kak_decompose(&us[i]).unwrap())
        })
    });
}

fn bench_metrics(c: &mut Criterion) {
    // One compile reply's metrics: a reqisc-eff demo-suite output (83
    // SU(4) gates), each distinct gate priced through a KAK.
    let program = suite(Scale::Demo)
        .into_iter()
        .find(|b| b.name == "alu_v2")
        .expect("alu_v2 is in the demo suite");
    let out = Compiler::new().compile(&program.circuit, Pipeline::ReqiscEff);
    let cp = Coupling::xy(1.0);
    c.bench_function("metrics_reqisc_eff_alu_v2", |b| b.iter(|| black_box(metrics(&out, &cp))));
}

fn bench_expm(c: &mut Criterion) {
    let h = Coupling::xy(1.0).hamiltonian();
    c.bench_function("expm_4x4_hermitian", |b| {
        b.iter(|| black_box(expm_i_hermitian(&h, 0.7)))
    });
}

fn bench_duration(c: &mut Criterion) {
    let cp = Coupling::xy(1.0);
    let mut rng = StdRng::seed_from_u64(2);
    let ws: Vec<WeylCoord> = (0..64)
        .map(|_| weyl_coords(&haar_su4(&mut rng)).unwrap())
        .collect();
    let mut i = 0;
    c.bench_function("optimal_duration", |b| {
        b.iter(|| {
            i = (i + 1) % ws.len();
            black_box(optimal_duration(&ws[i], &cp))
        })
    });
}

fn bench_pulse_solve(c: &mut Criterion) {
    let cp = Coupling::xy(1.0);
    c.bench_function("genashn_solve_cnot_nd", |b| {
        b.iter(|| black_box(solve_pulse(&cp, &WeylCoord::cnot()).unwrap()))
    });
    let xx = Coupling::xx(1.0);
    let mut g = c.benchmark_group("genashn_solve_ea");
    g.sample_size(10);
    g.bench_function("swap_under_xx", |b| {
        b.iter(|| black_box(solve_pulse(&xx, &WeylCoord::swap()).unwrap()))
    });
    // The frontier-marginal sliver row: the cold path the boundary-curve
    // solver exists for (one 1-D boundary scan instead of grid tiers).
    g.bench_function("sliver_row_eps_1e5", |b| {
        let w = WeylCoord::new(0.7, 1e-5, 0.0);
        let tau = optimal_duration(&w, &xx).tau;
        b.iter(|| black_box(solve_ea(&xx, EaSign::Minus, &w, tau, 1e-8).len()))
    });
    // A generic transversal interior root under an anisotropic coupling.
    g.bench_function("interior_root_aniso", |b| {
        let cp = Coupling::new(1.0, 0.6, 0.2);
        let w = WeylCoord::new(0.5, 0.3, 0.2);
        let tau = optimal_duration(&w, &cp).tau;
        b.iter(|| black_box(solve_ea(&cp, EaSign::Minus, &w, tau, 1e-8).len()))
    });
    g.finish();
}

fn bench_invariant_trace(c: &mut Criterion) {
    // The boundary-curve solver's inner kernel: one trace evaluation per
    // probe point (vs a full KAK decomposition in the grid solver).
    let mut rng = StdRng::seed_from_u64(7);
    let us: Vec<_> = (0..32).map(|_| haar_su4(&mut rng)).collect();
    let mut i = 0;
    c.bench_function("local_invariant_trace", |b| {
        b.iter(|| {
            i = (i + 1) % us.len();
            black_box(local_invariant_trace(&us[i]))
        })
    });
}

fn bench_synthesis_sweep(c: &mut Criterion) {
    let mut ccx = Circuit::new(3);
    ccx.push(Gate::Ccx(0, 1, 2));
    let target = ccx.unitary();
    let structure = vec![(1usize, 2usize), (0, 2), (1, 2), (0, 2), (0, 1)];
    let mut g = c.benchmark_group("synthesis");
    g.sample_size(10);
    g.bench_function("instantiate_ccx_5blocks", |b| {
        b.iter(|| {
            black_box(instantiate(&target, &structure, 3, &SweepOptions::default()).infidelity)
        })
    });
    // A failing probe: the structure search's budget (80 sweeps, one
    // random restart) spent on a structure too short for CCX. Probes like
    // this make most of a cold compile's block updates.
    let probe = SweepOptions { max_sweeps: 80, target_infidelity: 1e-9, restarts: 1, seed: 7 };
    g.bench_function("probe_fail_ccx_4blocks", |b| {
        b.iter(|| black_box(instantiate(&target, &structure[..4], 3, &probe).infidelity))
    });
    g.finish();
    // The block update's polar factor, on environment-like inputs.
    let mut rng = StdRng::seed_from_u64(8);
    let envs: Vec<[C64; 16]> = (0..32)
        .map(|_| {
            std::array::from_fn(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        })
        .collect();
    let mut i = 0;
    c.bench_function("polar_unitary_4x4", |b| {
        b.iter(|| {
            i = (i + 1) % envs.len();
            black_box(polar_unitary_4x4(&envs[i]))
        })
    });
}

fn bench_routing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut circ = Circuit::new(8);
    for _ in 0..60 {
        let a = rng.gen_range(0..8);
        let mut b = rng.gen_range(0..8);
        while b == a {
            b = rng.gen_range(0..8);
        }
        circ.push(Gate::Cx(a, b));
    }
    let topo = Topology::chain(8);
    let mut g = c.benchmark_group("routing");
    g.sample_size(20);
    for router in [Router::Sabre, Router::MirroringSabre] {
        let name = match router {
            Router::Sabre => "sabre",
            Router::MirroringSabre => "mirroring_sabre",
        };
        g.bench_function(name, |b| {
            b.iter(|| black_box(route(&circ, &topo, router).circuit.count_2q()))
        });
    }
    g.finish();
}

criterion_group!(
    kernels,
    bench_kak,
    bench_metrics,
    bench_expm,
    bench_duration,
    bench_pulse_solve,
    bench_invariant_trace,
    bench_synthesis_sweep,
    bench_routing
);
criterion_main!(kernels);
