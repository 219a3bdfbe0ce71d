#![warn(missing_docs)]
//! # reqisc-compiler
//!
//! **Regulus** — the end-to-end SU(4)-native compiler of the ReQISC stack
//! (paper §5): program-aware template-based synthesis, program-agnostic
//! hierarchical synthesis with DAG compacting, SU(4)-aware
//! mirroring-SABRE routing, the CNOT-based baseline pipelines it is
//! evaluated against, and the §6 metrics.
//!
//! ## Quick start
//!
//! ```no_run
//! use reqisc_compiler::{Compiler, Pipeline, metrics};
//! use reqisc_microarch::Coupling;
//! use reqisc_qcircuit::{Circuit, Gate};
//!
//! let mut program = Circuit::new(3);
//! program.push(Gate::Ccx(0, 1, 2));
//! let compiler = Compiler::new();
//! let out = compiler.compile(&program, Pipeline::ReqiscFull);
//! let m = metrics(&out, &Coupling::xy(1.0));
//! assert!(m.count_2q <= 5); // vs 6 CNOTs
//! ```

pub mod cache;
pub mod cnot_opt;
pub mod compact;
pub mod fuse;
pub mod hierarchical;
pub mod partition;
pub mod pauli_frontend;
pub mod pipelines;
mod pool;
pub mod sabre;
pub mod sharing;
pub mod template_pass;
pub mod topology;
pub mod variational;

pub use cache::{reply_coupling, CompileCache, CompileCacheStats, Program, ReplyRecord};
pub use pool::CacheStats;
pub use cnot_opt::{merge_pauli_rotations, qiskit_like, resynthesize_to_cx, tket_like};
pub use compact::{compact, gates_commute, CompactOptions};
pub use fuse::fuse_2q;
pub use hierarchical::{
    hierarchical_synthesis, hierarchical_synthesis_batched, hierarchical_synthesis_cached,
    HsOptions,
};
pub use pauli_frontend::{compile_pauli_program, emit_pauli_rotation, Axis, PauliRotation};
pub use partition::{compactness, partition_3q, reassemble, Block, PartitionOptions};
pub use pipelines::{
    distinct_su4_count, distinct_su4_count_with_tol, gate_duration, metrics, Compiler, Metrics,
    Pipeline,
};
pub use sharing::{
    probe_shared_program, publish_all, publish_program, publish_program_entry, seed_from_segment,
    seed_subprogram_pools, ShareStats, POOL_PROGRAM, POOL_SYNTHESIS, STORE_FORMAT_VERSION,
};
pub use sabre::{
    expand_swaps_to_cx, route, routing_preserves_semantics, RouteOptions, Routed, Router,
};
pub use template_pass::{default_library, template_synthesis};
pub use topology::Topology;
pub use variational::{to_fixed_basis, FixedBasis};
