//! # advect-core
//!
//! Numerics for explicit time integration of 3-D linear advection with
//! constant uniform velocity in a periodic domain:
//!
//! ```text
//! ∂u/∂t + c · ∇u = 0,   u = u(x, y, z, t),   c = (cx, cy, cz)
//! ```
//!
//! This crate implements the test case of White & Dongarra, *Overlapping
//! Computation and Communication for Advection on Hybrid Parallel
//! Computers* (IPDPS 2011):
//!
//! * the **Lax-Wendroff 3×3×3 stencil** whose 27 coefficients appear in
//!   Table I of the paper ([`coeffs`]),
//! * a periodic **3-D field with halo points** ([`field`]),
//! * the **analytic Gaussian solution** used for verification
//!   ([`analytic`]),
//! * **error norms** ([`norms`]),
//! * the serial and multithreaded **single-task steppers** implementing the
//!   paper's three algorithmic steps (copy periodic boundaries → stencil →
//!   state copy) ([`stepper`]),
//! * an **OpenMP-like thread team** with `static` and `guided` loop
//!   scheduling, used by the threaded steppers and by the overlap
//!   implementations in the `overlap` crate ([`team`]),
//! * a fixed-width **index sweep** over the crew, kept only for the
//!   benchmark harness's sweep probe ([`sweep`]),
//! * **explicit SIMD** tap-accumulation kernels with runtime dispatch
//!   that preserve the per-element FP order ([`simd`]),
//! * **cache-blocked tiling** of region sweeps with a cache-derived
//!   tile-size heuristic ([`tile`]),
//! * the host's **last-level-cache size** for the benchmark harness's
//!   fingerprint ([`numa`]).
//!
//! The floating-point cost model follows the paper: 53 flops per grid point
//! per step (27 multiplications + 26 additions), see [`flops`].

pub mod analytic;
pub mod coeffs;
pub mod field;
pub mod flops;
pub mod norms;
pub mod numa;
pub mod simd;
pub mod stencil;
pub mod stepper;
pub mod sweep;
pub mod team;
pub mod tile;
pub mod vonneumann;

pub use analytic::{AnalyticSolution, GaussianPulse};
pub use coeffs::{Stencil27, Velocity};
pub use field::Field3;
pub use norms::{l1_norm, l2_norm, linf_norm, Norms};
pub use simd::SimdLevel;
pub use stencil::apply_stencil_region;
pub use stepper::{AdvectionProblem, SerialStepper, ThreadedStepper};
pub use team::{Schedule, ThreadTeam};
pub use tile::TileSpec;
pub use vonneumann::{amplification_factor, is_stable, max_amplification};
