//! # decomp
//!
//! Domain decomposition for the advection test case, following Section
//! IV-B of White & Dongarra (IPDPS 2011):
//!
//! * [`factor`] — split a task count into a 3-D process grid that makes
//!   subdomains "as close to cubic as possible", with no empty domains,
//!   and with the subdomain largest in x and smallest in z "to best
//!   enable memory locality";
//! * [`layout`] — per-rank subdomain extents (largest at most one point
//!   larger than the smallest in each dimension) and rank ↔ coordinate
//!   maps, with periodic wrap;
//! * [`exchange`] — the dimension-serialized 6-phase halo exchange that
//!   "reduces the number of neighbor exchanges from 26 to 6", as concrete
//!   send/receive regions plus tags;
//! * [`partition`] — interior/boundary splits for the overlap
//!   implementations: the boundary shell (impl. IV-C/D), the
//!   interior-thirds split along z (impl. IV-C), and the CPU-box /
//!   GPU-block partition of Figure 1 with tunable wall thickness
//!   (impls. IV-H/I).

pub mod exchange;
pub mod factor;
pub mod layout;
pub mod partition;

pub use exchange::{ExchangePlan, PhasePlan, Transfer};
pub use factor::factor3;
pub use layout::{Decomposition, Subdomain};
pub use partition::{shell_and_core, thirds_along_z, BoxPartition};
