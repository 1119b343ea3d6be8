//! # overlap
//!
//! The nine implementations of White & Dongarra (IPDPS 2011), Section IV,
//! running *functionally* on the `simmpi` (MPI) and `simgpu` (CUDA)
//! substrates. Every implementation produces results **bit-identical** to
//! the serial reference — halo exchange, packing, kernel tap order,
//! stream synchronization and the hybrid partition must all be exactly
//! right for that to hold, which is what the tests at the bottom of this
//! file check.
//!
//! | Section | Implementation | Module |
//! |---------|----------------|--------|
//! | IV-A | Single task, multithreaded | [`single_task`] |
//! | IV-B | Bulk-synchronous MPI | [`bulk_sync`] |
//! | IV-C | Nonblocking MPI overlap | [`nonblocking`] |
//! | IV-D | OpenMP-thread overlap | [`thread_overlap`] |
//! | IV-E | GPU resident | [`gpu_resident`] |
//! | IV-F | GPU + bulk-synchronous MPI | [`gpu_bulk_sync`] |
//! | IV-G | GPU + MPI overlap via streams | [`gpu_streams`] |
//! | IV-H | CPU+GPU, bulk-synchronous | [`hybrid_bulk_sync`] |
//! | IV-I | CPU+GPU full overlap | [`hybrid_overlap`] |

//!
//! Each module is one step body; [`runner`] holds the frame they all run
//! inside, and [`Impl::run_with_report`] is the only way in.

pub mod bulk_sync;
pub mod gpu_bulk_sync;
mod gpu_common;
pub mod gpu_resident;
pub mod gpu_streams;
pub mod halo;
pub mod hybrid_bulk_sync;
pub mod hybrid_overlap;
pub mod key;
pub mod nonblocking;
pub mod runner;
pub mod single_task;
pub mod thread_overlap;

pub use halo::HaloBuffers;
pub use key::{MachineKind, RunKey, RunLimits, RunParams};
pub use runner::{FaultSpec, RunConfig, RunReport};

use advect_core::field::Field3;
use simgpu::GpuSpec;

/// The nine implementations, as a uniform enumeration for harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Impl {
    /// IV-A: single task, multithreaded.
    SingleTask,
    /// IV-B: bulk-synchronous MPI.
    BulkSync,
    /// IV-C: nonblocking-MPI overlap.
    Nonblocking,
    /// IV-D: OpenMP-thread overlap.
    ThreadOverlap,
    /// IV-E: GPU resident.
    GpuResident,
    /// IV-F: GPU + bulk-synchronous MPI.
    GpuBulkSync,
    /// IV-G: GPU + streams overlap.
    GpuStreams,
    /// IV-H: hybrid bulk-synchronous.
    HybridBulkSync,
    /// IV-I: hybrid full overlap.
    HybridOverlap,
}

impl Impl {
    /// All nine, in the paper's order.
    pub const ALL: [Impl; 9] = [
        Impl::SingleTask,
        Impl::BulkSync,
        Impl::Nonblocking,
        Impl::ThreadOverlap,
        Impl::GpuResident,
        Impl::GpuBulkSync,
        Impl::GpuStreams,
        Impl::HybridBulkSync,
        Impl::HybridOverlap,
    ];

    /// The paper's section naming this implementation.
    pub fn section(&self) -> &'static str {
        match self {
            Impl::SingleTask => "IV-A",
            Impl::BulkSync => "IV-B",
            Impl::Nonblocking => "IV-C",
            Impl::ThreadOverlap => "IV-D",
            Impl::GpuResident => "IV-E",
            Impl::GpuBulkSync => "IV-F",
            Impl::GpuStreams => "IV-G",
            Impl::HybridBulkSync => "IV-H",
            Impl::HybridOverlap => "IV-I",
        }
    }

    /// Short human name, as used in the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Impl::SingleTask => "single task",
            Impl::BulkSync => "bulk-synchronous MPI",
            Impl::Nonblocking => "MPI nonblocking overlap",
            Impl::ThreadOverlap => "MPI OpenMP-thread overlap",
            Impl::GpuResident => "GPU resident",
            Impl::GpuBulkSync => "GPU bulk-synchronous MPI",
            Impl::GpuStreams => "GPU MPI overlap (streams)",
            Impl::HybridBulkSync => "CPU+GPU bulk-synchronous",
            Impl::HybridOverlap => "CPU+GPU full overlap",
        }
    }

    /// Machine-friendly identifier (the module name): used for trace
    /// file names and JSON keys.
    pub fn slug(&self) -> &'static str {
        match self {
            Impl::SingleTask => "single_task",
            Impl::BulkSync => "bulk_sync",
            Impl::Nonblocking => "nonblocking",
            Impl::ThreadOverlap => "thread_overlap",
            Impl::GpuResident => "gpu_resident",
            Impl::GpuBulkSync => "gpu_bulk_sync",
            Impl::GpuStreams => "gpu_streams",
            Impl::HybridBulkSync => "hybrid_bulk_sync",
            Impl::HybridOverlap => "hybrid_overlap",
        }
    }

    /// Inverse of [`Impl::slug`]: resolve a request's implementation
    /// name. Returns `None` for anything that is not one of the nine.
    pub fn from_slug(slug: &str) -> Option<Impl> {
        Impl::ALL.iter().copied().find(|i| i.slug() == slug)
    }

    /// Whether this implementation uses a GPU.
    pub fn uses_gpu(&self) -> bool {
        matches!(
            self,
            Impl::GpuResident
                | Impl::GpuBulkSync
                | Impl::GpuStreams
                | Impl::HybridBulkSync
                | Impl::HybridOverlap
        )
    }

    /// Whether this implementation uses MPI.
    pub fn uses_mpi(&self) -> bool {
        !matches!(self, Impl::SingleTask | Impl::GpuResident)
    }

    /// Run the implementation and return the final global state.
    /// `spec` is required for GPU implementations.
    pub fn run(&self, cfg: &RunConfig, spec: Option<&GpuSpec>) -> Field3 {
        self.run_with_report(cfg, spec).0
    }

    /// Run the implementation, returning the final global state plus the
    /// per-rank [`RunReport`] (stats, and span traces when
    /// [`RunConfig::trace`] is set).
    pub fn run_with_report(&self, cfg: &RunConfig, spec: Option<&GpuSpec>) -> (Field3, RunReport) {
        use runner::{run_ranks, run_single};
        match self {
            Impl::SingleTask => run_single(cfg, *self, spec, single_task::run),
            Impl::BulkSync => run_ranks(cfg, *self, spec, bulk_sync::run),
            Impl::Nonblocking => run_ranks(cfg, *self, spec, nonblocking::run),
            Impl::ThreadOverlap => run_ranks(cfg, *self, spec, thread_overlap::run),
            Impl::GpuResident => run_single(cfg, *self, spec, gpu_resident::run),
            Impl::GpuBulkSync => run_ranks(cfg, *self, spec, gpu_bulk_sync::run),
            Impl::GpuStreams => run_ranks(cfg, *self, spec, gpu_streams::run),
            Impl::HybridBulkSync => run_ranks(cfg, *self, spec, hybrid_bulk_sync::run),
            Impl::HybridOverlap => run_ranks(cfg, *self, spec, hybrid_overlap::run),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advect_core::stepper::{AdvectionProblem, SerialStepper};

    fn reference(problem: AdvectionProblem, steps: u64) -> Field3 {
        let mut s = SerialStepper::new(problem);
        s.run(steps);
        s.state().clone()
    }

    fn check(im: Impl, cfg: &RunConfig, spec: Option<&GpuSpec>, what: &str) {
        let expect = reference(cfg.problem, cfg.steps);
        let got = im.run(cfg, spec);
        let diff = got.max_abs_diff(&expect);
        assert_eq!(
            diff,
            0.0,
            "{} ({what}) diverges from serial by {diff}",
            im.name()
        );
    }

    #[test]
    fn single_task_matches_serial() {
        let cfg = RunConfig::new(AdvectionProblem::general_case(12), 4).with_threads(3);
        check(Impl::SingleTask, &cfg, None, "3 threads");
    }

    #[test]
    fn bulk_sync_matches_serial_across_task_counts() {
        for ntasks in [1usize, 2, 4, 5, 8] {
            let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
                .tasks(ntasks)
                .with_threads(2);
            check(Impl::BulkSync, &cfg, None, "tasks sweep");
        }
    }

    #[test]
    fn nonblocking_matches_serial_across_task_counts() {
        for ntasks in [1usize, 3, 4, 8] {
            let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
                .tasks(ntasks)
                .with_threads(2);
            check(Impl::Nonblocking, &cfg, None, "tasks sweep");
        }
    }

    #[test]
    fn thread_overlap_matches_serial_across_task_counts() {
        for ntasks in [1usize, 2, 4] {
            for threads in [1usize, 2, 4] {
                let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
                    .tasks(ntasks)
                    .with_threads(threads);
                check(Impl::ThreadOverlap, &cfg, None, "tasks × threads");
            }
        }
    }

    #[test]
    fn gpu_resident_matches_serial() {
        let spec = GpuSpec::tesla_c2050();
        for block in [(8, 8), (32, 8), (5, 3)] {
            let cfg = RunConfig::new(AdvectionProblem::general_case(11), 3).with_block(block);
            check(Impl::GpuResident, &cfg, Some(&spec), "block sweep");
        }
    }

    #[test]
    fn gpu_bulk_sync_matches_serial() {
        let spec = GpuSpec::tesla_c1060();
        for ntasks in [1usize, 2, 4] {
            let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
                .tasks(ntasks)
                .with_block((8, 8));
            check(Impl::GpuBulkSync, &cfg, Some(&spec), "tasks sweep");
        }
    }

    #[test]
    fn gpu_streams_matches_serial() {
        let spec = GpuSpec::tesla_c2050();
        for ntasks in [1usize, 2, 4] {
            let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
                .tasks(ntasks)
                .with_block((8, 8));
            check(Impl::GpuStreams, &cfg, Some(&spec), "tasks sweep");
        }
    }

    #[test]
    fn hybrid_bulk_sync_matches_serial_across_thickness() {
        let spec = GpuSpec::tesla_c2050();
        for thickness in [0usize, 1, 2, 3, 6] {
            let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
                .tasks(2)
                .with_threads(2)
                .with_block((8, 8))
                .with_thickness(thickness);
            check(Impl::HybridBulkSync, &cfg, Some(&spec), "thickness sweep");
        }
    }

    #[test]
    fn hybrid_overlap_matches_serial_across_thickness() {
        let spec = GpuSpec::tesla_c2050();
        for thickness in [1usize, 2, 3, 6] {
            let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
                .tasks(2)
                .with_threads(2)
                .with_block((8, 8))
                .with_thickness(thickness);
            check(Impl::HybridOverlap, &cfg, Some(&spec), "thickness sweep");
        }
    }

    #[test]
    fn hybrid_overlap_matches_serial_across_tasks() {
        let spec = GpuSpec::tesla_c2050();
        for ntasks in [1usize, 3, 4, 8] {
            let cfg = RunConfig::new(AdvectionProblem::general_case(12), 2)
                .tasks(ntasks)
                .with_threads(2)
                .with_block((8, 8))
                .with_thickness(1);
            check(Impl::HybridOverlap, &cfg, Some(&spec), "tasks sweep");
        }
    }

    #[test]
    fn all_implementations_agree_on_paper_velocity() {
        // The paper's configuration (unit Courant number) on a small grid:
        // all nine implementations produce the same state.
        let spec = GpuSpec::tesla_c2050();
        let cfg = RunConfig::new(AdvectionProblem::paper_case(12), 3)
            .tasks(1)
            .with_threads(2)
            .with_block((8, 8))
            .with_thickness(2);
        let expect = reference(cfg.problem, cfg.steps);
        for im in Impl::ALL {
            let cfg = if im.uses_mpi() { cfg.tasks(4) } else { cfg };
            let got = im.run(&cfg, Some(&spec));
            assert_eq!(
                got.max_abs_diff(&expect),
                0.0,
                "{} diverges on the paper case",
                im.name()
            );
        }
    }

    #[test]
    fn all_implementations_match_serial_at_every_team_width() {
        // Widths below, at and above the z extent of a rank's subdomain,
        // and an odd one: the team's threads are leased crew workers, so
        // every width exercises a different hand-off and barrier shape.
        let spec = GpuSpec::tesla_c2050();
        for threads in [1usize, 2, 3, 7] {
            for im in Impl::ALL {
                let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
                    .tasks(if im.uses_mpi() { 2 } else { 1 })
                    .with_threads(threads)
                    .with_block((8, 8))
                    .with_thickness(2);
                check(im, &cfg, Some(&spec), &format!("{threads} threads"));
            }
        }
    }

    #[test]
    fn hybrid_overlap_rejects_zero_thickness() {
        let spec = GpuSpec::tesla_c2050();
        let cfg = RunConfig::new(AdvectionProblem::general_case(8), 1)
            .with_thickness(0)
            .with_block((8, 8));
        let r = std::panic::catch_unwind(|| Impl::HybridOverlap.run(&cfg, Some(&spec)));
        assert!(r.is_err());
    }

    #[test]
    fn impl_metadata_is_consistent() {
        assert_eq!(Impl::ALL.len(), 9);
        let gpu_count = Impl::ALL.iter().filter(|i| i.uses_gpu()).count();
        assert_eq!(gpu_count, 5);
        let mpi_count = Impl::ALL.iter().filter(|i| i.uses_mpi()).count();
        assert_eq!(mpi_count, 7);
        for im in Impl::ALL {
            assert!(im.section().starts_with("IV-"));
        }
    }
}
