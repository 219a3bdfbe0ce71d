//! Output checks that do not trust the compiler under test: state-vector
//! equivalence on seeded random states, and the quality totals.

use crate::inputs::Rng;
use reqisc_compiler::Metrics;
use reqisc_qcircuit::Circuit;
use reqisc_qmath::C64;
use reqisc_qsim::StateVector;

/// Largest state infidelity an output may show against its input.
pub const MAX_STATE_INFIDELITY: f64 = 1e-5;

/// Random input states per program.
const STATES_PER_PROGRAM: usize = 2;

/// The worst state infidelity `1 − |⟨ψ_in|ψ_out⟩|²` over seeded random
/// states, simulating `input` and `output` independently. The overlap
/// ignores global phase, which synthesis does not preserve.
pub fn state_infidelity(input: &Circuit, output: &Circuit, rng: &mut Rng) -> f64 {
    let n = input.num_qubits().max(output.num_qubits());
    let mut worst: f64 = 0.0;
    for _ in 0..STATES_PER_PROGRAM {
        let psi = random_state(n, rng);
        let mut a = psi.clone();
        a.run(input);
        let mut b = psi;
        b.run(output);
        worst = worst.max(1.0 - a.fidelity(&b));
    }
    worst
}

/// A random pure state: i.i.d. complex Gaussian amplitudes, normalised
/// (Haar-distributed).
fn random_state(n: usize, rng: &mut Rng) -> StateVector {
    let mut amps: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(rng.normal(), rng.normal()))
        .collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = *a * (1.0 / norm);
    }
    StateVector::from_amplitudes(amps)
}

/// Suite totals of the paper's quality metrics (#SU(4), 2Q depth, pulse
/// duration): deterministic, so a speed-up that costs gates shows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QualityTotals {
    /// Σ two-qubit gate count.
    pub count_2q: u64,
    /// Σ two-qubit depth.
    pub depth_2q: u64,
    /// Σ pulse duration, in units of 1/g.
    pub duration: f64,
}

impl QualityTotals {
    /// Adds one program's metrics.
    pub fn add(&mut self, m: &Metrics) {
        self.count_2q += m.count_2q as u64;
        self.depth_2q += m.depth_2q as u64;
        self.duration += m.duration;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qcircuit::Gate;

    #[test]
    fn quality_totals_sum_every_program() {
        let mut t = QualityTotals::default();
        t.add(&Metrics {
            count_2q: 3,
            depth_2q: 2,
            duration: 1.25,
        });
        t.add(&Metrics {
            count_2q: 5,
            depth_2q: 4,
            duration: 2.5,
        });
        t.add(&Metrics {
            count_2q: 0,
            depth_2q: 0,
            duration: 0.0,
        });
        assert_eq!(
            t,
            QualityTotals {
                count_2q: 8,
                depth_2q: 6,
                duration: 3.75
            }
        );
    }

    #[test]
    fn equivalent_circuits_pass_and_different_ones_fail() {
        let mut a = Circuit::new(3);
        a.push(Gate::Ccx(0, 1, 2));
        a.push(Gate::H(0));
        // CCX is its own inverse: appending two more changes nothing.
        let mut b = a.clone();
        b.push(Gate::Ccx(0, 1, 2));
        b.push(Gate::Ccx(0, 1, 2));
        let mut rng = Rng::stream(1, 0);
        assert!(state_infidelity(&a, &b, &mut rng) < 1e-12);
        let mut c = a.clone();
        c.push(Gate::Cx(0, 2));
        assert!(state_infidelity(&a, &c, &mut rng) > MAX_STATE_INFIDELITY);
    }
}
