#![warn(missing_docs)]
//! # reqisc-synthesis
//!
//! Approximate (numerically exact) synthesis of small unitaries into
//! sequences of arbitrary SU(4) blocks — the engine behind the Regulus
//! compiler's hierarchical synthesis (paper §5.1) and template-based
//! synthesis (§5.2).
//!
//! * [`sweep`] — closed-form environment sweeps that instantiate a fixed
//!   block structure to machine precision.
//! * [`search`] — shortest-structure search with the paper's SU(4)/CNOT
//!   resource lower bounds.
//! * [`templates`] — the pre-synthesized 3Q IR library (CCX, Peres,
//!   MAJ/UMA, CSWAP) with ECC variants.
//!
//! ## Quick start
//!
//! ```no_run
//! use reqisc_qcircuit::{Circuit, Gate};
//! use reqisc_synthesis::{synthesize, SearchOptions};
//!
//! let mut c = Circuit::new(3);
//! c.push(Gate::Ccx(0, 1, 2));
//! let blocks = synthesize(&c.unitary(), 3, &SearchOptions::default()).unwrap();
//! assert!(blocks.len() <= 5); // vs 6 CNOTs conventionally
//! ```

pub mod search;
pub mod skeleton;
pub mod sweep;
pub mod templates;

pub use search::{
    all_pairs, cnot_lower_bound, structures, su4_lower_bound, synthesize, synthesize_if_shorter,
    SearchOptions,
};
pub use sweep::{instantiate, BlockCircuit, Structure, SweepOptions, SweepResult};
pub use templates::{builtin_irs, template_matches, IrEntry, Template, TemplateLibrary};
pub use skeleton::{min_cnots, synthesize_to_cnots, SkeletonResult};
