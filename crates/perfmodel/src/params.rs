//! Calibration constants of the performance models.
//!
//! Structural terms of the models (what serializes, what overlaps) come
//! straight from the implementations; these constants set magnitudes that
//! cannot be derived from first principles and are calibrated against the
//! anchors the paper states in prose (DESIGN.md §2 lists them). Each
//! constant documents what it stands for and which anchor pins it.

/// OpenMP parallel regions per step in the bulk-synchronous
/// implementation: halo pack/unpack loops, the stencil, the state copy.
pub const REGIONS_BULK: u32 = 4;

/// Regions per step in the nonblocking-overlap implementation: three
/// interleaved interior chunks, three pack/unpack pairs, the boundary
/// pass, the copy — its fixed overhead is what bulk-synchronous
/// eventually beats at scale.
pub const REGIONS_NONBLOCKING: u32 = 12;

/// Regions per step in the thread-overlap implementation (one combined
/// region plus boundary and copy).
pub const REGIONS_THREAD_OVERLAP: u32 = 5;

/// Efficiency of the separate strided boundary-shell pass relative to the
/// streaming interior sweep (thin faces, broken hardware prefetch).
pub const BOUNDARY_PASS_EFF: f64 = 0.9;

/// Slowdown of `schedule(guided)` relative to static scheduling (chunk
/// bookkeeping, tail imbalance) — keeps IV-D "consistently lagging".
pub const GUIDED_PENALTY: f64 = 1.18;

/// Efficiency of CPU wall computation (thin strided boxes) relative to
/// the streaming sweep, for the hybrid implementations.
pub const CPU_WALL_EFF: f64 = 0.5;

/// Thin-face GPU kernel efficiency for x-oriented faces (one point in the
/// coalescing direction: nearly one active lane per warp).
pub const FACE_EFF_X: f64 = 0.03;

/// Thin-face GPU kernel efficiency for y/z-oriented faces (full x lines,
/// but little reuse and low occupancy).
pub const FACE_EFF_YZ: f64 = 0.25;

/// Effective PCIe bandwidth (GB/s) of the *pageable*, blocking copies the
/// bulk-synchronous GPU paths use (implementations IV-F/G/H move halos
/// with plain assignments ⇒ pageable staging, driver bounce buffers, and
/// per-face synchronization). Calibrated so Yona's one-node IV-F/G land
/// at the paper's 24 and 35 GF against the 86 GF resident kernel.
/// The full-overlap implementation (IV-I) uses *asynchronous* copies,
/// which require page-locked memory and run at the spec PCIe rate —
/// this difference is the mechanical core of Section V-E's "decoupling".
pub fn pageable_pcie_gbs(machine_name: &str) -> f64 {
    match machine_name {
        // PCIe gen-2 era chipset, pre-release OpenMPI: heavily degraded.
        "Yona" => 0.18,
        // Older bus on Lens ("a faster PCIe bus" is called out for Yona).
        "Lens" => 0.06,
        _ => 0.15,
    }
}

/// Host-side staging cost per transferred byte (pack/unpack of the
/// contiguous communication buffers on the CPU), seconds per byte.
pub const HOST_STAGING_S_PER_BYTE: f64 = 1.0 / 4.0e9;

/// Per-step fixed host overhead of a GPU implementation (kernel-launch
/// batching, stream synchronization, MPI progress polling). Keeps the
/// best hybrid configuration just *below* the GPU-resident kernel on one
/// node, as the paper reports ("able to nearly match").
pub const GPU_STEP_FIXED_S: f64 = 5e-4;

/// NIC injection serialization: with several tasks per node posting
/// messages simultaneously, each additional task adds this fraction of
/// the base latency to every message (message-rate limit of the NIC).
pub const INJECTION_CONTENTION: f64 = 0.25;

/// GPU context-switch cost per step of each task sharing a GPU, charged
/// on its compute engine only when k > 1 tasks share it, so k switches a
/// step (pre-MPS process-serialized contexts): makes "few tasks per
/// node" the winning hybrid configuration, as in Figures 11/12.
pub const GPU_CONTEXT_SWITCH_S: f64 = 1.5e-3;

/// Per-extra-thread efficiency slope of an OpenMP team (synchronization
/// and imbalance), on top of the NUMA tiers.
pub const THREAD_EFF_SLOPE: f64 = 0.005;

/// Fixed cost of one partitioned-sweep region even without OpenMP (loop
/// restart, pointer setup, wait processing): the nonblocking overlap
/// implementation's many small regions pay this at any thread count.
pub const SWEEP_RESTART_S: f64 = 4e-6;

/// Fraction of MPI time the master-thread overlap (IV-D) actually hides:
/// funneled MPI progresses poorly while the compute threads saturate the
/// socket (the "Where's the overlap?" effect), so most of the
/// communication time stays on the critical path.
pub const THREAD_OVERLAP_HIDE: f64 = 0.4;
