//! Interconnect parameters: per-message and per-byte costs and
//! asynchronous-progress capability. `perfmodel` prices each exchange
//! phase from them.

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
        assert!(q.latency_s < d.latency_s);
        assert!(q.node_bw_gbs > d.node_bw_gbs);
        assert!(q.per_message_cpu_s < d.per_message_cpu_s);
    }
}
