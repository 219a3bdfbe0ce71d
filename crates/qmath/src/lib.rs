#![warn(missing_docs)]
//! # reqisc-qmath
//!
//! The linear-algebra substrate of the ReQISC reproduction: complex
//! scalars and small dense matrices, eigen/singular-value decompositions,
//! Hamiltonian exponentials, the magic basis, Haar sampling, and — the
//! centerpiece — the canonical (KAK) decomposition with Weyl-chamber
//! canonicalization.
//!
//! Everything is implemented from scratch; all operators in this workspace
//! are `2ⁿ × 2ⁿ` for small `n`, so simple `O(n³)` kernels with Jacobi
//! iterations are accurate and fast.
//!
//! ## Quick start
//!
//! ```
//! use reqisc_qmath::{gates, kak_decompose};
//!
//! // Where does CNOT sit in the Weyl chamber?
//! let k = kak_decompose(&gates::cnot()).unwrap();
//! assert!((k.coords.x - std::f64::consts::FRAC_PI_4).abs() < 1e-9);
//! // And the decomposition reconstructs the gate exactly.
//! assert!(k.reconstruct().approx_eq(&gates::cnot(), 1e-9));
//! ```

pub mod bytes;
pub mod c64;
pub mod eig;
pub mod expm;
pub mod fingerprint;
mod fixed;
pub mod gates;
pub mod haar;
pub mod kak;
pub mod magic;
pub mod mat;
pub mod svd;
pub mod weyl;

pub use bytes::{ByteReader, ByteWriter, CodecError};
pub use c64::C64;
pub use eig::{eig_hermitian, eig_real_symmetric, HermEig, RealEig};
pub use expm::{expm, expm_i_hermitian};
pub use fingerprint::Fnv128;
pub use haar::{haar_su2, haar_su4, haar_unitary};
pub use kak::{
    kak_decompose, local_invariant_trace, locally_equivalent, weyl_coords, Kak, KakError,
    KAK_FACE_SNAP_TOL, KAK_UNITARY_TOL,
};
pub use magic::{from_magic, kron_factor, magic_basis, to_magic};
pub use mat::CMat;
pub use svd::{polar_unitary, polar_unitary_4x4, svd, Svd};
pub use weyl::{WeylCoord, SU4_CLASS_TOL, WEYL_EPS};
