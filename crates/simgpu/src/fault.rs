//! Deterministic fault knobs for the virtual device timeline.
//!
//! A [`GpuFaultPlan`] perturbs only the *scheduled* timeline — kernel
//! launches start late by a seeded jitter, PCIe copies take longer by a
//! slowdown factor — never the functional execution, which runs eagerly
//! in host issue order. Results therefore stay bit-identical under any
//! plan while overlap measurements shift, mirroring `simmpi::FaultPlan`
//! on the device side.

/// The splitmix64 finalizer (kept local: simgpu does not depend on
/// simmpi).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded timing perturbations for a device's virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuFaultPlan {
    /// Root seed every per-op jitter hash folds in.
    pub seed: u64,
    /// Maximum extra virtual seconds a kernel launch is delayed (uniform
    /// in `[0, launch_jitter_s)`); 0 disables launch jitter.
    pub launch_jitter_s: f64,
    /// Multiplicative slowdown of PCIe copy durations (≥ 1.0; 1.0
    /// disables).
    pub pcie_slowdown: f64,
}

impl Default for GpuFaultPlan {
    fn default() -> Self {
        Self::off()
    }
}

impl GpuFaultPlan {
    /// The neutral plan: the timeline is unperturbed.
    pub const fn off() -> Self {
        Self {
            seed: 0,
            launch_jitter_s: 0.0,
            pcie_slowdown: 1.0,
        }
    }

    /// A moderate plan for soak sweeps: microsecond-scale launch jitter
    /// and 1.5× PCIe copies.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            launch_jitter_s: 2e-6,
            pcie_slowdown: 1.5,
        }
    }

    /// Set the launch-jitter bound.
    pub fn with_launch_jitter_s(mut self, s: f64) -> Self {
        self.launch_jitter_s = s;
        self
    }

    /// Whether every knob is at its neutral value.
    pub fn is_off(&self) -> bool {
        self.launch_jitter_s == 0.0 && self.pcie_slowdown <= 1.0
    }

    /// Derive a per-rank plan so each rank's device jitters differently
    /// under one root seed.
    pub fn for_rank(self, rank: usize) -> Self {
        Self {
            seed: self.seed ^ splitmix64(rank as u64 ^ 0x4750_5546),
            ..self
        }
    }

    /// The launch delay of the device's `op`-th scheduled operation, in
    /// virtual seconds (pure in `(seed, op)`).
    pub(crate) fn launch_jitter(&self, op: u64) -> f64 {
        if self.launch_jitter_s == 0.0 {
            return 0.0;
        }
        let h = splitmix64(self.seed ^ splitmix64(op ^ 0x4a49_5454));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit * self.launch_jitter_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_perturbs_nothing() {
        let plan = GpuFaultPlan::off();
        assert!(plan.is_off());
        for op in 0..100 {
            assert_eq!(plan.launch_jitter(op), 0.0);
        }
    }

    #[test]
    fn jitter_is_pure_and_bounded() {
        let plan = GpuFaultPlan::chaos(5);
        for op in 0..200 {
            let j = plan.launch_jitter(op);
            assert_eq!(j, plan.launch_jitter(op));
            assert!((0.0..plan.launch_jitter_s).contains(&j));
        }
    }

    #[test]
    fn per_rank_plans_diverge() {
        let root = GpuFaultPlan::chaos(9);
        let a = root.for_rank(0);
        let b = root.for_rank(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a, root.for_rank(0));
    }
}
