//! # perfmodel
//!
//! The virtual-time performance layer: analytic and discrete-event models
//! that regenerate the paper's Figures 3–12 from the implementations'
//! schedules (what serializes, what overlaps) and the Table II machine
//! descriptions. The functional layer (`overlap` crate) proves the
//! schedules are *correct*; this crate prices them.
//!
//! * [`event`] — a small discrete-event engine (operations on resources
//!   with dependencies) used to compose the GPU implementations' steps;
//! * [`cpu`] — step-time models for implementations IV-A…IV-D
//!   (Figures 3–6);
//! * [`gpu`] — step-time models for implementations IV-E…IV-I
//!   (Figures 7–12 and the Section V-E anchors);
//! * [`sweep`] — "best over tuning parameters" searches mirroring how the
//!   paper reports each figure point;
//! * [`params`] — every calibrated constant, with the anchor that pins it.
//!
//! Calibration anchors and the measured-vs-paper comparison live in
//! EXPERIMENTS.md.

pub mod cpu;
pub mod event;
pub mod gpu;
pub mod params;
pub mod sweep;

pub use cpu::{best_cpu_gf, CpuImpl, CpuScenario};
pub use event::{Res, Schedule};
pub use gpu::{GpuImpl, GpuScenario};
pub use sweep::{best_gf, best_gpu_gf, AnyImpl, BestPoint};

/// Average subdomain extents of `ntasks` tasks on a `g`³ grid under the
/// paper's near-cubic factorization. Each scenario computes its box
/// once, at construction.
fn average_box(ntasks: usize, g: usize) -> (f64, f64, f64) {
    let (px, py, pz) = decomp::factor3(ntasks.min(g * g * g), (g, g, g));
    (
        g as f64 / px as f64,
        g as f64 / py as f64,
        g as f64 / pz as f64,
    )
}
