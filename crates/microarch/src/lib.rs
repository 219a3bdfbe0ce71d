#![warn(missing_docs)]
//! # reqisc-microarch
//!
//! The **genAshN** microarchitecture (paper §4, Algorithm 1): time-optimal
//! native realization of arbitrary SU(4) gates under *any* two-qubit
//! coupling Hamiltonian, with simple pulse controls (two drive amplitudes
//! and one detuning), near-identity gate mirroring, and exact 1Q
//! corrections.
//!
//! ## Quick start
//!
//! ```
//! use reqisc_microarch::{solve_pulse, Coupling};
//! use reqisc_qmath::WeylCoord;
//!
//! // CNOT on an XY-coupled (flux-tunable transmon) device:
//! let s = solve_pulse(&Coupling::xy(1.0), &WeylCoord::cnot()).unwrap();
//! // τ = π/2·g⁻¹ — 1.41× faster than the conventional π/√2 scheme.
//! assert!((s.tau - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
//! ```

pub mod calibration;
pub mod coupling;
pub mod duration;
pub mod scheme;
pub mod solver;

pub use calibration::{
    calibrate_gate, characterize_coupling, characterize_drive_gain, CalibratedGate,
    DeviceModel, SimulatedDevice,
};
pub use coupling::{normal_form, Coupling, NormalForm, NormalFormError};
pub use duration::{
    conventional_cnot_duration, conventional_duration_xy, duration_in_g, optimal_duration,
    Duration, FrontierTimes, Image,
};
pub use scheme::{
    realize_gate, solve_pulse, solve_with_mirroring, GateRealization, MirroredSolution,
    PulseSolution, SolveError, Subscheme, DEFAULT_MIRROR_THRESHOLD,
};
pub use solver::{
    ea_params, ea_params_checked, evolve, residual, sinc, sinc_inverse, solve_ea,
    solve_ea_profiled, solve_nd, EaSign, EaSolution, EaSolveProfile, PulseParams,
};
