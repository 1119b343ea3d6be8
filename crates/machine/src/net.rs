//! Interconnect model: per-message and per-byte costs, contention, and
//! asynchronous-progress capability.

/// A machine's interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectModel {
    /// Name as in Table II.
    pub name: &'static str,
    /// End-to-end small-message latency, seconds.
    pub latency_s: f64,
    /// Per-NIC (per-node) injection bandwidth, GB/s.
    pub node_bw_gbs: f64,
    /// CPU time consumed posting/completing one message, seconds
    /// (software overhead — paid even when the transfer itself overlaps).
    pub per_message_cpu_s: f64,
    /// Fraction of the transfer that can progress without CPU involvement
    /// once initiated (the "Where's the overlap?" question — higher for
    /// Gemini than SeaStar, per the paper's crossover shift).
    pub async_progress: f64,
}

impl InterconnectModel {
    /// Time for one message of `bytes`, with `contending_tasks` tasks on
    /// the node communicating simultaneously and sharing the NIC.
    pub fn message_time(&self, bytes: usize, contending_tasks: usize) -> f64 {
        let share = self.node_bw_gbs * 1e9 / contending_tasks.max(1) as f64;
        self.latency_s + self.per_message_cpu_s + bytes as f64 / share
    }

    /// The part of `total_comm` that nonblocking communication can hide
    /// under `available_compute` seconds of independent computation.
    pub fn hideable(&self, total_comm: f64, available_compute: f64) -> f64 {
        (self.async_progress * total_comm).min(available_compute)
    }
}

/// The paper's interconnects, calibrated for the figure shapes.
impl InterconnectModel {
    /// Cray SeaStar 2+ (JaguarPF).
    pub fn seastar2() -> Self {
        Self {
            name: "Cray SeaStar 2+",
            latency_s: 7e-6,
            node_bw_gbs: 2.0,
            per_message_cpu_s: 1.6e-6,
            async_progress: 0.30,
        }
    }

    /// Cray Gemini (Hopper II): lower latency, better async progress.
    pub fn gemini() -> Self {
        Self {
            name: "Cray Gemini",
            latency_s: 1.6e-6,
            node_bw_gbs: 6.0,
            per_message_cpu_s: 0.7e-6,
            async_progress: 0.85,
        }
    }

    /// DDR Infiniband (Lens).
    pub fn ddr_infiniband() -> Self {
        Self {
            name: "DDR Infiniband",
            latency_s: 4e-6,
            node_bw_gbs: 1.5,
            per_message_cpu_s: 2.0e-6,
            async_progress: 0.5,
        }
    }

    /// QDR Infiniband (Yona).
    pub fn qdr_infiniband() -> Self {
        Self {
            name: "QDR Infiniband",
            latency_s: 2.5e-6,
            node_bw_gbs: 3.0,
            per_message_cpu_s: 1.5e-6,
            async_progress: 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_has_latency_floor() {
        let n = InterconnectModel::seastar2();
        assert!(n.message_time(0, 1) >= n.latency_s);
        assert!(n.message_time(1 << 20, 1) > n.message_time(1 << 10, 1));
    }

    #[test]
    fn contention_slows_transfers() {
        let n = InterconnectModel::gemini();
        let alone = n.message_time(1 << 20, 1);
        let shared = n.message_time(1 << 20, 12);
        assert!(shared > 5.0 * alone);
    }

    #[test]
    fn gemini_beats_seastar() {
        let g = InterconnectModel::gemini();
        let s = InterconnectModel::seastar2();
        assert!(g.latency_s < s.latency_s);
        assert!(g.node_bw_gbs > s.node_bw_gbs);
        assert!(g.async_progress > s.async_progress);
    }

    #[test]
    fn qdr_beats_ddr() {
        let q = InterconnectModel::qdr_infiniband();
        let d = InterconnectModel::ddr_infiniband();
        assert!(q.message_time(1 << 20, 1) < d.message_time(1 << 20, 1));
    }

    #[test]
    fn hideable_bounded_by_both_sides() {
        let n = InterconnectModel::gemini();
        assert!(n.hideable(10.0, 100.0) <= n.async_progress * 10.0 + 1e-12);
        assert_eq!(n.hideable(10.0, 1.0), 1.0);
        assert_eq!(n.hideable(0.0, 1.0), 0.0);
    }
}
