//! Regression pins for the numerical fixes of PR 1 (KAK face snap),
//! PR 1/3 (EA sliver seeding) and PR 5 (boundary-curve solver), so
//! future solver or KAK refactors cannot silently reintroduce them:
//!
//! * **KAK x = π/4 face snap**: coordinates within 1e-8 of the x = π/4
//!   chamber face used to oscillate between (π/4 − δ, …, z < 0) and
//!   (π/4 + δ, …) under the face rule and fail canonicalization;
//!   `canonicalize` now pins them onto the face.
//! * **EA sliver roots**: frontier-marginal targets (EA binding time
//!   barely above ND's) have their only roots in thin slivers —
//!   β = O(10⁻³) or 1 − α = O(10⁻³) — which uniform grid seeding missed.
//!   PR 1 added log-spaced edge-seed rows, PR 3 a reserve-wave quota, and
//!   PR 5 replaced the lot with the boundary-curve solver, which walks
//!   the pure-detuning boundary family directly: the sliver tier below is
//!   pinned one order *deeper* (ε = 10⁻⁶) than the grid solver ever
//!   reliably reached.

use reqisc::microarch::{optimal_duration, solve_ea, solve_pulse, Coupling, EaSign};
use reqisc::qmath::gates::canonical_gate;
use reqisc::qmath::{kak_decompose, locally_equivalent, WeylCoord, WEYL_EPS};
use std::f64::consts::FRAC_PI_4;

#[test]
fn kak_face_snap_pins_near_pi4_coordinates() {
    // A grid of gates numerically *on* the x = π/4 face, from both sides,
    // with negative z (the face rule's trigger). Pre-fix these made
    // `canonicalize` oscillate and `kak_decompose` reject its own output.
    for dx in [-8e-9, -2e-9, 0.0, 2e-9, 8e-9] {
        for y in [0.05, 0.2, FRAC_PI_4 - 1e-3] {
            for z in [-0.04f64, -1e-3, 1e-3] {
                if y < z.abs() {
                    continue; // outside the chamber by construction
                }
                let g = canonical_gate(FRAC_PI_4 + dx, y, z);
                let k = kak_decompose(&g).unwrap_or_else(|e| {
                    panic!("face-adjacent ({dx:e}, {y}, {z}) failed: {e}")
                });
                assert!(k.coords.in_chamber(), "coords {} left the chamber", k.coords);
                // On the face the chamber demands z ≥ 0.
                if (k.coords.x - FRAC_PI_4).abs() < WEYL_EPS {
                    assert!(k.coords.z >= -WEYL_EPS, "face rule violated: {}", k.coords);
                }
                // The snap may perturb the class by ≤ 1e-8 — never more.
                assert!(
                    locally_equivalent(&g, &canonical_gate(k.coords.x, k.coords.y, k.coords.z), 1e-7)
                        .expect("canonical gate decomposes"),
                    "snap changed the gate class at ({dx:e}, {y}, {z})"
                );
            }
        }
    }
}

#[test]
fn kak_face_snap_lands_exactly_on_the_face() {
    // The pinned coordinate is bitwise π/4: an exact pin keeps the CNOT
    // family on one face value, and reply records price durations from
    // these coordinates.
    let g = canonical_gate(FRAC_PI_4 - 5e-9, 0.2, -0.1);
    let k = kak_decompose(&g).expect("kak");
    assert_eq!(k.coords.x, FRAC_PI_4, "face coordinate must be pinned exactly");
}

/// The frontier-marginal family under XX coupling: EA− binds with
/// τ₋ − τ₀ = y + z → 0, pushing the root into the (α → 1, β → 0) corner.
#[test]
fn ea_sliver_roots_stay_found_under_xx() {
    let cp = Coupling::xx(1.0);
    for eps in [1e-4, 1e-3, 3e-3] {
        let w = WeylCoord::new(0.7, eps, 0.0);
        let tau = optimal_duration(&w, &cp).tau;
        let sols = solve_ea(&cp, EaSign::Minus, &w, tau, 1e-8);
        assert!(
            !sols.is_empty(),
            "sliver root lost for y = {eps} (pre-fix failure mode: empty)"
        );
        let best = &sols[0];
        assert!(best.residual < 1e-8, "residual {} at y = {eps}", best.residual);
        // Pin the sliver itself: the root lives at the α = 1 edge with
        // tiny β (β ≈ 7 eps for this family). A refactor that finds some
        // *other* valid root is fine for correctness but would un-pin the
        // seeding; widen deliberately if that ever happens.
        assert!(
            1.0 - best.alpha < 1e-3 && best.beta < 0.1,
            "root left the sliver at y = {eps}: alpha = {}, beta = {}",
            best.alpha,
            best.beta
        );
    }
}

/// PR-3/PR-5 regression: the grid solver refined only the 16 globally
/// best-residual seeds, starving the β = O(10⁻³) / 1 − α = O(10⁻³)
/// sliver rows (PR 3 patched it with an edge-family reserve quota). The
/// PR-5 boundary-curve solver finds these roots by construction — a 1-D
/// sign-scan over the pure-detuning boundary family in log-spaced drive
/// magnitude — so the deep-marginal family is pinned down to
/// τ₋ − τ₀ = y + z = 10⁻⁶, one order deeper than the quota-era pin
/// (10⁻⁵), and must converge deterministically to the sliver root.
#[test]
fn ea_seed_quota_keeps_deep_sliver_roots() {
    let cp = Coupling::xx(1.0);
    for eps in [1e-6, 3e-6, 1e-5, 3e-5, 5e-5, 7e-4] {
        let w = WeylCoord::new(0.7, eps, 0.0);
        let tau = optimal_duration(&w, &cp).tau;
        let sols = solve_ea(&cp, EaSign::Minus, &w, tau, 1e-8);
        assert!(!sols.is_empty(), "deep sliver root lost at y = {eps}");
        let best = &sols[0];
        assert!(best.residual < 1e-8, "residual {} at y = {eps}", best.residual);
        assert!(
            1.0 - best.alpha < 1e-2 && best.beta < 0.1,
            "best root left the sliver at y = {eps}: alpha = {}, beta = {}",
            best.alpha,
            best.beta
        );
    }
}

#[test]
fn frontier_marginal_targets_solve_under_representative_couplings() {
    // The compiler-facing entry point must keep succeeding on marginal
    // targets across coupling shapes (XY and anisotropic couplings route
    // these through ND; XX forces the EA sliver).
    let cps = [Coupling::xy(1.0), Coupling::xx(1.0), Coupling::new(1.0, 0.6, 0.2)];
    for cp in &cps {
        for eps in [1e-3, 3e-3, 1e-2] {
            for w in [
                WeylCoord::new(0.7, eps, 0.0),
                WeylCoord::new(0.7, eps, eps / 2.0),
                WeylCoord::new(0.5, eps, -eps / 2.0),
                // Near the SWAP corner: EA with a marginal z-deficit.
                WeylCoord::new(FRAC_PI_4, FRAC_PI_4, FRAC_PI_4 - eps),
            ] {
                assert!(w.in_chamber(), "test case {w} must be canonical");
                let s = solve_pulse(cp, &w).unwrap_or_else(|e| {
                    panic!("({}, {}, {}): {w} unsolvable: {e}", cp.a, cp.b, cp.c)
                });
                assert!(
                    s.residual < 1e-7,
                    "({}, {}, {}): {w} residual {}",
                    cp.a,
                    cp.b,
                    cp.c,
                    s.residual
                );
            }
        }
    }
}
