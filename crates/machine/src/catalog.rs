//! The four machines of Table II.

use crate::cpu::CpuModel;
use crate::net::InterconnectModel;
use simgpu::GpuSpec;

/// A full machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Machine name as in Table II.
    pub name: &'static str,
    /// Compute nodes.
    pub nodes: usize,
    /// Memory per node, GB.
    pub mem_per_node_gb: usize,
    /// CPU complex per node.
    pub cpu: CpuModel,
    /// Interconnect.
    pub net: InterconnectModel,
    /// MPI implementation name (Table II).
    pub mpi: &'static str,
    /// GPU per node, if any.
    pub gpu: Option<GpuSpec>,
    /// Valid OpenMP threads-per-task choices measured by the paper for
    /// this machine (divisor-compatible with the socket structure).
    pub thread_choices: &'static [usize],
}

impl Machine {
    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.cpu.cores()
    }

    /// Nodes needed for a given core count (the paper allocates whole
    /// nodes).
    pub fn nodes_for_cores(&self, cores: usize) -> usize {
        cores.div_ceil(self.cores_per_node())
    }
}

/// JaguarPF: the Cray XT5 at OLCF, 2.3 PF peak.
pub fn jaguarpf() -> Machine {
    Machine {
        name: "JaguarPF",
        nodes: 18688,
        mem_per_node_gb: 16,
        cpu: CpuModel {
            sockets: 2,
            cores_per_socket: 6,
            clock_ghz: 2.6,
            flops_per_cycle: 4.0,
            mem_bw_gbs: 18.0,
            numa_domain: 6,
            stencil_compute_eff: 0.15,
            omp_region_base_s: 3.0e-6,
            omp_region_log_s: 0.5e-6,
            l2_kib_per_core: 512,
            l3_kib_per_socket: 6144,
        },
        net: InterconnectModel::seastar2(),
        mpi: "Cray MPT 4.0.0",
        gpu: None,
        thread_choices: &[1, 2, 3, 6, 12],
    }
}

/// Hopper II: the Cray XE6 at NERSC, ~1.3 PF peak.
pub fn hopper_ii() -> Machine {
    Machine {
        name: "Hopper II",
        nodes: 6392,
        mem_per_node_gb: 32,
        cpu: CpuModel {
            sockets: 2,
            cores_per_socket: 12,
            clock_ghz: 2.1,
            flops_per_cycle: 4.0,
            mem_bw_gbs: 40.0,
            numa_domain: 6,
            stencil_compute_eff: 0.15,
            omp_region_base_s: 1.2e-6,
            omp_region_log_s: 0.5e-6,
            l2_kib_per_core: 512,
            l3_kib_per_socket: 12288,
        },
        net: InterconnectModel::gemini(),
        mpi: "Cray MPT 5.1.3",
        gpu: None,
        thread_choices: &[1, 2, 3, 6, 12, 24],
    }
}

/// Lens: the OLCF analysis cluster with Tesla C1060 GPUs.
pub fn lens() -> Machine {
    Machine {
        name: "Lens",
        nodes: 31,
        mem_per_node_gb: 64,
        cpu: CpuModel {
            sockets: 4,
            cores_per_socket: 4,
            clock_ghz: 2.3,
            flops_per_cycle: 4.0,
            mem_bw_gbs: 16.0,
            numa_domain: 4,
            stencil_compute_eff: 0.10,
            omp_region_base_s: 3.5e-6,
            omp_region_log_s: 0.6e-6,
            l2_kib_per_core: 512,
            l3_kib_per_socket: 2048,
        },
        net: InterconnectModel::ddr_infiniband(),
        mpi: "OpenMPI 1.3.3",
        gpu: Some(GpuSpec::tesla_c1060()),
        thread_choices: &[1, 2, 4, 8, 16],
    }
}

/// Yona: the experimental OLCF cluster with Tesla C2050 GPUs.
pub fn yona() -> Machine {
    Machine {
        name: "Yona",
        nodes: 16,
        mem_per_node_gb: 32,
        cpu: CpuModel {
            sockets: 2,
            cores_per_socket: 6,
            clock_ghz: 2.6,
            flops_per_cycle: 4.0,
            mem_bw_gbs: 18.0,
            numa_domain: 6,
            stencil_compute_eff: 0.15,
            omp_region_base_s: 3.0e-6,
            omp_region_log_s: 0.5e-6,
            l2_kib_per_core: 512,
            l3_kib_per_socket: 6144,
        },
        net: InterconnectModel::qdr_infiniband(),
        mpi: "OpenMPI 1.7a1",
        gpu: Some(GpuSpec::tesla_c2050()),
        thread_choices: &[1, 2, 3, 6, 12],
    }
}

/// All four machines, in the paper's order.
pub fn all_machines() -> Vec<Machine> {
    vec![jaguarpf(), hopper_ii(), lens(), yona()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_node_counts() {
        assert_eq!(jaguarpf().nodes, 18688);
        assert_eq!(hopper_ii().nodes, 6392);
        assert_eq!(lens().nodes, 31);
        assert_eq!(yona().nodes, 16);
    }

    #[test]
    fn table_ii_core_structure() {
        assert_eq!(jaguarpf().cores_per_node(), 12);
        assert_eq!(hopper_ii().cores_per_node(), 24);
        assert_eq!(lens().cores_per_node(), 16);
        assert_eq!(yona().cores_per_node(), 12);
    }

    #[test]
    fn table_ii_memory_and_clocks() {
        assert_eq!(jaguarpf().mem_per_node_gb, 16);
        assert_eq!(hopper_ii().mem_per_node_gb, 32);
        assert_eq!(lens().mem_per_node_gb, 64);
        assert_eq!(yona().mem_per_node_gb, 32);
        assert_eq!(jaguarpf().cpu.clock_ghz, 2.6);
        assert_eq!(hopper_ii().cpu.clock_ghz, 2.1);
        assert_eq!(lens().cpu.clock_ghz, 2.3);
        assert_eq!(yona().cpu.clock_ghz, 2.6);
    }

    #[test]
    fn gpus_only_on_clusters() {
        assert!(jaguarpf().gpu.is_none());
        assert!(hopper_ii().gpu.is_none());
        assert_eq!(lens().gpu.as_ref().map(|g| g.name), Some("Tesla C1060"));
        assert_eq!(yona().gpu.as_ref().map(|g| g.name), Some("Tesla C2050"));
    }

    #[test]
    fn jaguar_peak_is_about_2_3_pf() {
        let j = jaguarpf();
        let pf = j.cpu.peak_gf(j.nodes * j.cores_per_node()) / 1e6;
        assert!((pf - 2.33).abs() < 0.1, "peak {pf} PF");
    }

    #[test]
    fn hopper_peak_is_about_1_3_pf() {
        let h = hopper_ii();
        let pf = h.cpu.peak_gf(h.nodes * h.cores_per_node()) / 1e6;
        assert!((pf - 1.29).abs() < 0.1, "peak {pf} PF");
    }

    #[test]
    fn cache_parameters_are_plausible_and_block_the_test_grid() {
        for m in all_machines() {
            assert_eq!(m.cpu.l2_kib_per_core, 512, "{}", m.name);
            assert!(m.cpu.l3_kib_per_socket >= 2048, "{}", m.name);
            // A 256³ local grid (the paper's per-node scale) must get
            // y-blocked by the tile half the L2 implies for the three
            // source planes of a y-band (the other half covers the
            // destination rows and incidental traffic).
            let l2_bytes = m.cpu.l2_kib_per_core * 1024;
            let spec = advect_core::tile::TileSpec::for_cache(l2_bytes / 2, 258);
            assert!(spec.ty < 256, "{}: {spec:?}", m.name);
            assert!(spec.ty >= 4 && spec.tz >= 1);
        }
    }

    #[test]
    fn thread_choices_divide_node_cores() {
        for m in all_machines() {
            for &t in m.thread_choices {
                assert_eq!(m.cores_per_node() % t, 0, "{}: {t}", m.name);
            }
        }
    }

    #[test]
    fn nodes_for_cores_rounds_up() {
        let j = jaguarpf();
        assert_eq!(j.nodes_for_cores(12), 1);
        assert_eq!(j.nodes_for_cores(13), 2);
        assert_eq!(j.nodes_for_cores(49152), 4096);
    }
}
