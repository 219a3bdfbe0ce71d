//! Old-vs-new EA-solver equivalence: PR 5 replaced the tiered
//! grid-search + Nelder–Mead `solve_ea` with the boundary-curve solver.
//! This suite freezes the **legacy grid solver** verbatim (below) and
//! pins behaviour equivalence against it, so the rewrite can never
//! silently change what the compiler emits:
//!
//! * a proptest over couplings × Weyl targets (filtered to targets with
//!   well-separated eigenphases — see the note on degenerate classes)
//!   asserting the two solvers agree on solvability, find the same best
//!   root, and that every legacy root is found by the new solver;
//! * named-gate pins (SWAP under XX, the sliver family, generic
//!   anisotropic roots) with per-solution parameter matching;
//! * scheme-level pins: `solve_pulse` picks the same subscheme, τ, and
//!   pulse params for the named classes, so the pulse programs the
//!   compiler-facing solve hands out did not move with the rewrite (no
//!   store-format bump; the byte-level golden pins live in
//!   `qmath::fingerprint` and `tests/store_roundtrip.rs` and are
//!   untouched).
//!
//! Degenerate-eigenphase targets (`x ≈ y` or `y ≈ z` classes, phases
//! closer than ~0.05 rad) have *tangential* root structures where both
//! solvers sample an arbitrary subset of a near-continuum; there the
//! contract is "same best root" only, covered by the named pins (SWAP,
//! sliver) rather than the proptest.

use proptest::prelude::*;
use reqisc::microarch::{optimal_duration, solve_ea, solve_pulse, Coupling, EaSign};
use reqisc::qmath::WeylCoord;

/// The PR-1..4 grid solver, frozen at its final (PR 3) form: 6 β tiers,
/// log-spaced edge-family seed rows, top-16 residual ranking with the
/// edge-family reserve wave, Nelder–Mead refinement. Kept verbatim as the
/// behavioural reference — do not "fix" it.
mod legacy_grid {
    use reqisc::microarch::{ea_params, residual, Coupling, EaSign, PulseParams};
    use reqisc::qmath::WeylCoord;

    type Seed = (f64, f64, f64, f64, u8);
    const SEED_FAMILY_GRID: u8 = 0;
    const SEED_FAMILY_TINY_BETA: u8 = 1;
    const SEED_FAMILY_ALPHA_EDGE: u8 = 2;
    const TOP_SEEDS: usize = 16;
    const EDGE_SEED_QUOTA: usize = 4;

    pub struct EaSolution {
        pub alpha: f64,
        pub beta: f64,
        pub params: PulseParams,
        pub residual: f64,
    }

    fn select_seed_indices(seeds: &[Seed]) -> (Vec<usize>, Vec<usize>) {
        let mut order: Vec<usize> = (0..seeds.len()).collect();
        order.sort_by(|&a, &b| seeds[a].0.partial_cmp(&seeds[b].0).unwrap());
        let primary: Vec<usize> = order.iter().copied().take(TOP_SEEDS).collect();
        let mut reserve: Vec<usize> = Vec::new();
        for fam in [SEED_FAMILY_TINY_BETA, SEED_FAMILY_ALPHA_EDGE] {
            let have = primary.iter().filter(|&&i| seeds[i].4 == fam).count();
            if have >= EDGE_SEED_QUOTA {
                continue;
            }
            reserve.extend(
                order
                    .iter()
                    .copied()
                    .filter(|&i| seeds[i].4 == fam && !primary.contains(&i))
                    .take(EDGE_SEED_QUOTA - have),
            );
        }
        (primary, reserve)
    }

    pub fn solve_ea(
        cp: &Coupling,
        sign: EaSign,
        w: &WeylCoord,
        tau: f64,
        tol: f64,
    ) -> Vec<EaSolution> {
        let eta = match sign {
            EaSign::Plus => (cp.a - cp.b) / (cp.a + cp.c),
            EaSign::Minus => (cp.a - cp.b) / (cp.a - cp.c),
        };
        let f = |al: f64, be: f64| -> f64 {
            let alc = al.clamp(0.0, 1.0);
            let bec = be.max(0.0).max(eta - alc);
            residual(cp, &ea_params(cp, sign, alc, bec), tau, w)
        };
        let mut solutions: Vec<EaSolution> = Vec::new();
        for beta_max in [2.5f64, 6.0, 12.0, 40.0, 120.0, 400.0] {
            let grid = if beta_max > 12.0 { 48usize } else { 18usize };
            let mut seeds: Vec<Seed> = Vec::new();
            for i in 0..=grid {
                for jj in 0..=grid {
                    let al = i as f64 / grid as f64;
                    let be = beta_max * jj as f64 / grid as f64;
                    if al + be < eta - 1e-12 {
                        continue;
                    }
                    seeds.push((f(al, be), al, be, 0.08, SEED_FAMILY_GRID));
                }
            }
            let first_of_grid = beta_max == 2.5 || beta_max == 40.0;
            if first_of_grid {
                for i in 0..=grid {
                    let al = i as f64 / grid as f64;
                    for be in [1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2] {
                        if al + be < eta - 1e-12 {
                            continue;
                        }
                        seeds.push((f(al, be), al, be, 0.004, SEED_FAMILY_TINY_BETA));
                    }
                }
            }
            for jj in (if first_of_grid { 0 } else { 1 })..=grid {
                let be = beta_max * jj as f64 / grid as f64;
                for dal in [1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2] {
                    let al = 1.0 - dal;
                    if al + be < eta - 1e-12 {
                        continue;
                    }
                    seeds.push((f(al, be), al, be, 0.004, SEED_FAMILY_ALPHA_EDGE));
                }
            }
            let refine = |indices: &[usize], solutions: &mut Vec<EaSolution>| {
                for &i in indices {
                    let (_, al0, be0, step, _) = seeds[i];
                    if let Some((al, be, r)) = nelder_mead_2d(&f, al0, be0, step, 600) {
                        if r < tol {
                            let alc = al.clamp(0.0, 1.0);
                            let bec = be.max(0.0).max(eta - alc);
                            let params = ea_params(cp, sign, alc, bec);
                            if !solutions.iter().any(|s| {
                                (s.params.omega1 - params.omega1).abs()
                                    + (s.params.omega2 - params.omega2).abs()
                                    + (s.params.delta - params.delta).abs()
                                    < 1e-6 * (1.0 + params.penalty())
                            }) {
                                solutions.push(EaSolution {
                                    alpha: alc,
                                    beta: bec,
                                    params,
                                    residual: r,
                                });
                            }
                        }
                    }
                }
            };
            let (primary, reserve) = select_seed_indices(&seeds);
            refine(&primary, &mut solutions);
            if solutions.is_empty() && first_of_grid {
                refine(&reserve, &mut solutions);
            }
            if !solutions.is_empty() {
                break;
            }
        }
        solutions.sort_by(|a, b| a.params.penalty().partial_cmp(&b.params.penalty()).unwrap());
        solutions
    }

    fn nelder_mead_2d(
        f: &dyn Fn(f64, f64) -> f64,
        x0: f64,
        y0: f64,
        step: f64,
        max_iter: usize,
    ) -> Option<(f64, f64, f64)> {
        let mut pts = [
            (x0, y0, f(x0, y0)),
            (x0 + step, y0, f(x0 + step, y0)),
            (x0, y0 + step, f(x0, y0 + step)),
        ];
        for _ in 0..max_iter {
            pts.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
            let (best, mid, worst) = (pts[0], pts[1], pts[2]);
            if (worst.2 - best.2).abs() < 1e-16 && best.2 < 1e-15 {
                return Some(best);
            }
            let cx = 0.5 * (best.0 + mid.0);
            let cy = 0.5 * (best.1 + mid.1);
            let rx = cx + (cx - worst.0);
            let ry = cy + (cy - worst.1);
            let fr = f(rx, ry);
            if fr < best.2 {
                let ex = cx + 2.0 * (cx - worst.0);
                let ey = cy + 2.0 * (cy - worst.1);
                let fe = f(ex, ey);
                pts[2] = if fe < fr { (ex, ey, fe) } else { (rx, ry, fr) };
            } else if fr < mid.2 {
                pts[2] = (rx, ry, fr);
            } else {
                let kx = cx + 0.5 * (worst.0 - cx);
                let ky = cy + 0.5 * (worst.1 - cy);
                let fk = f(kx, ky);
                if fk < worst.2 {
                    pts[2] = (kx, ky, fk);
                } else {
                    for i in 1..3 {
                        let sx = best.0 + 0.5 * (pts[i].0 - best.0);
                        let sy = best.1 + 0.5 * (pts[i].1 - best.1);
                        pts[i] = (sx, sy, f(sx, sy));
                    }
                }
            }
            let spread = (pts[0].0 - pts[2].0).abs()
                + (pts[0].1 - pts[2].1).abs()
                + (pts[0].0 - pts[1].0).abs();
            if spread < 1e-14 {
                break;
            }
        }
        pts.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
        Some(pts[0])
    }
}

/// Pairwise separation (mod 2π) of the three non-conserved target
/// M-phases for `sign` — the degeneracy measure the solver keys on.
fn min_phase_separation(w: &WeylCoord, sign: EaSign) -> f64 {
    let phis = w.magic_eigenphases();
    let t: Vec<f64> = (0..4)
        .filter(|&i| i != match sign {
            EaSign::Plus => 2,
            EaSign::Minus => 3,
        })
        .map(|i| 2.0 * phis[i])
        .collect();
    let ang = |d: f64| {
        let two_pi = 2.0 * std::f64::consts::PI;
        let r = d.rem_euclid(two_pi);
        r.min(two_pi - r)
    };
    let mut sep = f64::INFINITY;
    for i in 0..t.len() {
        for j in (i + 1)..t.len() {
            sep = sep.min(ang(t[i] - t[j]));
        }
    }
    sep
}

/// Matching tolerance on pulse params (absolute, relative to penalty).
fn params_match(
    a: &reqisc::microarch::PulseParams,
    b: &reqisc::microarch::PulseParams,
    tol: f64,
) -> bool {
    (a.omega1 - b.omega1).abs() + (a.omega2 - b.omega2).abs() + (a.delta - b.delta).abs()
        < tol * (1.0 + a.penalty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random (coupling, target) pairs with EA binding and well-separated
    /// eigenphases: the boundary-curve solver must agree with the frozen
    /// grid solver on solvability, match its best root's parameters, and
    /// find every root the grid found.
    #[test]
    fn boundary_curve_matches_legacy_grid(
        b in 0.05f64..1.0,
        cfrac in -0.95f64..0.95,
        x in 0.08f64..0.78,
        yfrac in 0.05f64..1.0,
        zfrac in -0.95f64..0.95,
    ) {
        let cp = Coupling::new(1.0, b, b * cfrac);
        let w = WeylCoord::new(x, x * yfrac, x * yfrac * zfrac);
        prop_assume!(w.in_chamber());
        let dur = optimal_duration(&w, &cp);
        let ft = dur.frontier;
        // Only EA-binding targets reach solve_ea in the scheme.
        prop_assume!(!(ft.t0 >= ft.tp - 1e-12 && ft.t0 >= ft.tm - 1e-12));
        let sign = if ft.tm >= ft.tp - 1e-12 { EaSign::Minus } else { EaSign::Plus };
        // Degenerate classes have tangential near-continuum roots where
        // both solvers sample arbitrary subsets; the named pins cover
        // them, the proptest covers the transversal domain.
        prop_assume!(min_phase_separation(&w, sign) > 0.1);
        let tau = dur.tau;
        let old = legacy_grid::solve_ea(&cp, sign, &w, tau, 1e-8);
        let new = solve_ea(&cp, sign, &w, tau, 1e-8);
        prop_assert_eq!(
            old.is_empty(), new.is_empty(),
            "solvability diverged for {} under ({}, {}, {}) {:?}: old {} new {}",
            w, cp.a, cp.b, cp.c, sign, old.len(), new.len()
        );
        if old.is_empty() {
            return;
        }
        // Same best root, to parameter tolerance.
        prop_assert!(
            params_match(&old[0].params, &new[0].params, 1e-5),
            "best root diverged for {}: old (a={}, b={}, pen={}) new (a={}, b={}, pen={})",
            w, old[0].alpha, old[0].beta, old[0].params.penalty(),
            new[0].alpha, new[0].beta, new[0].params.penalty()
        );
        // Everything the grid found, the curve walk finds too (the new
        // solver may legitimately find MORE verified roots — each is
        // residual-checked — but never fewer).
        prop_assert!(new.len() >= old.len(), "lost roots: old {} new {}", old.len(), new.len());
        for o in &old {
            prop_assert!(
                new.iter().any(|n| params_match(&o.params, &n.params, 1e-4)),
                "legacy root (a={}, b={}, pen={}) lost for {}",
                o.alpha, o.beta, o.params.penalty(), w
            );
        }
        // Every new root is genuinely verified.
        for n in &new {
            prop_assert!(n.residual < 1e-8);
        }
    }
}

#[test]
fn swap_under_xx_same_roots_as_legacy() {
    // The Fig. 4 case — maximally degenerate target, both known roots.
    let cp = Coupling::xx(1.0);
    let w = WeylCoord::swap();
    let tau = 3.0 * std::f64::consts::FRAC_PI_4;
    let old = legacy_grid::solve_ea(&cp, EaSign::Minus, &w, tau, 1e-8);
    let new = solve_ea(&cp, EaSign::Minus, &w, tau, 1e-8);
    assert!(!old.is_empty() && !new.is_empty());
    // The best root is the (α, β) = (2/3, 1) optimum in both.
    assert!(params_match(&old[0].params, &new[0].params, 1e-6));
    assert!((new[0].alpha - 2.0 / 3.0).abs() < 1e-6 && (new[0].beta - 1.0).abs() < 1e-5);
    // Every legacy root is reproduced.
    for o in &old {
        assert!(
            new.iter().any(|n| params_match(&o.params, &n.params, 1e-5)),
            "legacy SWAP root (a={}, b={}) lost",
            o.alpha,
            o.beta
        );
    }
}

#[test]
fn sliver_family_same_best_root_as_legacy() {
    // The frontier-marginal sliver family: the legacy solver needed the
    // edge-seed quota + reserve waves here; the boundary solver finds the
    // same edge root by construction (and to tighter residual).
    let cp = Coupling::xx(1.0);
    for eps in [1e-3, 1e-4, 1e-5] {
        let w = WeylCoord::new(0.7, eps, 0.0);
        let tau = optimal_duration(&w, &cp).tau;
        let old = legacy_grid::solve_ea(&cp, EaSign::Minus, &w, tau, 1e-8);
        let new = solve_ea(&cp, EaSign::Minus, &w, tau, 1e-8);
        assert!(!old.is_empty() && !new.is_empty(), "eps = {eps}");
        assert!(
            params_match(&old[0].params, &new[0].params, 1e-6),
            "sliver best diverged at eps = {eps}: old (a={}, b={}) new (a={}, b={})",
            old[0].alpha,
            old[0].beta,
            new[0].alpha,
            new[0].beta
        );
        assert!(new[0].residual <= old[0].residual + 1e-12, "residual regressed at eps = {eps}");
    }
}

#[test]
fn generic_anisotropic_roots_match_legacy_exactly() {
    let cp = Coupling::new(1.0, 0.6, 0.2);
    for (sign, w) in [
        (EaSign::Plus, WeylCoord::new(0.5, 0.3, -0.2)),
        (EaSign::Minus, WeylCoord::new(0.5, 0.3, 0.2)),
    ] {
        let tau = optimal_duration(&w, &cp).tau;
        let old = legacy_grid::solve_ea(&cp, sign, &w, tau, 1e-8);
        let new = solve_ea(&cp, sign, &w, tau, 1e-8);
        assert_eq!(old.len(), 1, "{w}");
        assert_eq!(new.len(), 1, "{w}");
        // Transversal interior roots match to full Newton precision.
        assert!((old[0].alpha - new[0].alpha).abs() < 1e-7, "{w}");
        assert!((old[0].beta - new[0].beta).abs() < 1e-6, "{w}");
        assert!(params_match(&old[0].params, &new[0].params, 1e-7), "{w}");
    }
}

#[test]
fn scheme_level_pins_unchanged_for_named_classes() {
    // Pulse stability across the rewrite: the compiler-facing solve must
    // keep subscheme, τ, and params for the named classes.
    use reqisc::microarch::Subscheme;
    let xx = Coupling::xx(1.0);
    let s = solve_pulse(&xx, &WeylCoord::swap()).expect("swap");
    assert!(matches!(s.subscheme, Subscheme::EaMinus | Subscheme::EaPlus));
    assert!((s.tau - 3.0 * std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    // The legacy best root for SWAP: (α, β) = (2/3, 1) ⇒ Ω₁ = √(10)/3·?
    // — pin through the frozen solver rather than a magic constant.
    let old = legacy_grid::solve_ea(&xx, EaSign::Minus, &WeylCoord::swap(), s.tau, 1e-8);
    assert!(params_match(&old[0].params, &s.params, 1e-6), "SWAP pulse params moved");

    let xy = Coupling::xy(1.0);
    let c = solve_pulse(&xy, &WeylCoord::cnot()).expect("cnot");
    assert_eq!(c.subscheme, Subscheme::Nd);
    assert!((c.tau - std::f64::consts::FRAC_PI_2).abs() < 1e-12);

    // Frontier-marginal: the compiler-facing path serves the identical
    // sliver root the legacy solver selected.
    let w = WeylCoord::new(0.7, 1e-3, 0.0);
    let s = solve_pulse(&xx, &w).expect("sliver");
    let old = legacy_grid::solve_ea(&xx, EaSign::Minus, &w, s.tau, 1e-8);
    assert!(params_match(&old[0].params, &s.params, 1e-6), "sliver pulse params moved");
}
