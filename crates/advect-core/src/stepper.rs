//! Single-task time steppers (Section IV-A of the paper).
//!
//! Each time step has the paper's three algorithmic steps:
//!
//! 1. copy periodic boundaries into halo points,
//! 2. compute the new state using Equation 2,
//! 3. copy the new state to the current state.
//!
//! [`SerialStepper`] runs them on one thread; [`ThreadedStepper`] is the
//! "single task with multiple threads" baseline, parallelizing Step 2
//! across a [`ThreadTeam`] by z-slab (the OpenMP `collapse(2)` outer
//! loops of the paper collapse to the same z/y partition) and performing
//! Step 3 as a buffer swap — no copy.

use crate::analytic::GaussianPulse;
use crate::coeffs::{Stencil27, Velocity};
use crate::field::Field3;
use crate::norms::Norms;
use crate::stencil::{apply_stencil_interior, apply_stencil_slab_tiled};
use crate::team::ThreadTeam;
use crate::tile::TileSpec;

/// The advection test problem: a periodic cube of `n³` points with a
/// Gaussian pulse advected at constant velocity, run at a given ν.
#[derive(Debug, Clone, Copy)]
pub struct AdvectionProblem {
    /// Points per dimension.
    pub n: usize,
    /// Advection velocity.
    pub velocity: Velocity,
    /// Ratio ν = Δ/δ.
    pub nu: f64,
    /// Grid spacing δ (the domain side is `n · δ`).
    pub spacing: f64,
    /// Initial pulse center (physical coordinates); domain center when
    /// `None` — the paper's configuration.
    pub pulse_center: Option<[f64; 3]>,
    /// Initial pulse σ; one tenth of the domain side when `None`.
    pub pulse_sigma: Option<f64>,
}

impl AdvectionProblem {
    /// The paper's configuration on an `n³` grid: unit diagonal velocity,
    /// maximum stable ν, unit cube.
    pub fn paper_case(n: usize) -> Self {
        let velocity = Velocity::unit_diagonal();
        Self {
            n,
            velocity,
            nu: velocity.max_stable_nu(),
            spacing: 1.0 / n as f64,
            pulse_center: None,
            pulse_sigma: None,
        }
    }

    /// A smooth, non-trivial configuration exercising all 27 coefficients
    /// (no Courant number is 0 or ±1).
    pub fn general_case(n: usize) -> Self {
        Self {
            n,
            velocity: Velocity::new(1.0, 0.5, 0.25),
            nu: 0.9,
            spacing: 1.0 / n as f64,
            pulse_center: None,
            pulse_sigma: None,
        }
    }

    /// Place the initial pulse at `center` (physical coordinates) with
    /// standard deviation `sigma` — multiple tracers share a grid by
    /// differing here.
    pub fn with_pulse(mut self, center: [f64; 3], sigma: f64) -> Self {
        self.pulse_center = Some(center);
        self.pulse_sigma = Some(sigma);
        self
    }

    /// Stencil coefficients for this problem.
    pub fn stencil(&self) -> Stencil27 {
        Stencil27::new(self.velocity, self.nu)
    }

    /// Time-step size Δ = ν · δ.
    pub fn dt(&self) -> f64 {
        self.nu * self.spacing
    }

    /// The analytic pulse for this problem.
    pub fn pulse(&self) -> GaussianPulse {
        let side = self.n as f64 * self.spacing;
        GaussianPulse {
            center: self.pulse_center.unwrap_or([side / 2.0; 3]),
            sigma: self.pulse_sigma.unwrap_or(side / 10.0),
            domain: [side; 3],
            velocity: self.velocity,
        }
    }

    /// The initial state sampled on the grid (halo width 1, halos unset).
    pub fn initial_field(&self) -> Field3 {
        let mut f = Field3::new(self.n, self.n, self.n, 1);
        self.pulse().sample_initial(&mut f, (0, 0, 0), self.spacing);
        f
    }

    /// Error norms of `state` against the analytic solution after `steps`
    /// time steps.
    pub fn norms_after(&self, state: &Field3, steps: u64) -> Norms {
        Norms::against_analytic(
            state,
            &self.pulse(),
            [0.0; 3],
            self.spacing,
            steps as f64 * self.dt(),
        )
    }
}

/// Serial reference stepper. Every other implementation in this repository
/// is verified bit-wise against it.
pub struct SerialStepper {
    problem: AdvectionProblem,
    stencil: Stencil27,
    cur: Field3,
    new: Field3,
    steps_taken: u64,
}

impl SerialStepper {
    /// Initialize from the problem's analytic initial condition.
    pub fn new(problem: AdvectionProblem) -> Self {
        let cur = problem.initial_field();
        let new = Field3::new(problem.n, problem.n, problem.n, 1);
        Self {
            problem,
            stencil: problem.stencil(),
            cur,
            new,
            steps_taken: 0,
        }
    }

    /// Perform one time step (Steps 1–3).
    pub fn step(&mut self) {
        self.cur.copy_periodic_halo();
        apply_stencil_interior(&self.cur, &mut self.new, &self.stencil);
        self.cur.copy_interior_from(&self.new);
        self.steps_taken += 1;
    }

    /// Perform `n` time steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Current state.
    pub fn state(&self) -> &Field3 {
        &self.cur
    }

    /// Mutable access to the current state (for loading custom initial
    /// conditions, e.g. single Fourier modes in the stability analysis).
    pub fn state_mut(&mut self) -> &mut Field3 {
        &mut self.cur
    }

    /// Number of steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Error norms against the analytic solution at the current time.
    pub fn norms(&self) -> Norms {
        self.problem.norms_after(&self.cur, self.steps_taken)
    }
}

/// Multithreaded single-task stepper (implementation IV-A).
pub struct ThreadedStepper {
    problem: AdvectionProblem,
    stencil: Stencil27,
    team: ThreadTeam,
    tile: Option<TileSpec>,
    /// Interior-z cut points of the static split across the team.
    cuts: Vec<i64>,
    cur: Field3,
    new: Field3,
    steps_taken: u64,
}

impl ThreadedStepper {
    /// Initialize with a team of `threads` threads.
    pub fn new(problem: AdvectionProblem, threads: usize) -> Self {
        Self {
            problem,
            stencil: problem.stencil(),
            team: ThreadTeam::new(threads),
            tile: None,
            cuts: crate::tile::z_cuts(problem.n, threads),
            cur: problem.initial_field(),
            new: Field3::new(problem.n, problem.n, problem.n, 1),
            steps_taken: 0,
        }
    }

    /// Use an explicit cache-blocking tile instead of the host heuristic.
    pub fn with_tile(mut self, tile: TileSpec) -> Self {
        self.tile = Some(tile);
        self
    }

    /// Perform one time step (Steps 1–3, Step 2 threaded).
    pub fn step(&mut self) {
        // Step 1: periodic halo copy (cheap surface work).
        self.cur.copy_periodic_halo();
        let region = self.cur.interior_range();
        // Step 2: stencil, each thread writing its own z-slab.
        {
            let cur = &self.cur;
            let stencil = &self.stencil;
            let tile = self.tile.unwrap_or_else(|| {
                let (sx, _, _) = self.cur.extents();
                TileSpec::host(sx)
            });
            let slabs = self.new.z_slabs_mut(&self.cuts);
            self.team.parallel_with(slabs, |_ctx, mut slab| {
                apply_stencil_slab_tiled(cur, &mut slab, stencil, region, tile);
            });
        }
        // Step 3: the new state becomes the current state. The paper
        // copies; swapping is equivalent because Step 1 refills the whole
        // halo before anything reads it.
        std::mem::swap(&mut self.cur, &mut self.new);
        self.steps_taken += 1;
    }

    /// Perform `n` time steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Current state.
    pub fn state(&self) -> &Field3 {
        &self.cur
    }

    /// Consume the stepper, yielding its current state.
    pub fn into_state(self) -> Field3 {
        self.cur
    }

    /// Error norms against the analytic solution at the current time.
    pub fn norms(&self) -> Norms {
        self.problem.norms_after(&self.cur, self.steps_taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_case_max_nu_translates_exactly() {
        // At unit Courant number the scheme is an exact shift: after n
        // steps the pulse returns to its initial position (period n).
        let problem = AdvectionProblem::paper_case(12);
        let mut s = SerialStepper::new(problem);
        let initial = s.state().clone();
        s.run(12);
        assert!(s.state().max_abs_diff(&initial) < 1e-12);
        let norms = s.norms();
        assert!(norms.linf < 1e-12, "linf = {}", norms.linf);
    }

    #[test]
    fn threaded_matches_serial_bitwise() {
        let problem = AdvectionProblem::general_case(14);
        let mut serial = SerialStepper::new(problem);
        serial.run(5);
        for threads in [1, 2, 3, 4, 7] {
            let mut threaded = ThreadedStepper::new(problem, threads);
            threaded.run(5);
            assert_eq!(
                threaded.state().max_abs_diff(serial.state()),
                0.0,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn explicit_tile_matches_serial_bitwise() {
        let problem = AdvectionProblem::general_case(14);
        let mut serial = SerialStepper::new(problem);
        serial.run(4);
        for tile in [
            TileSpec::new(1, 1),
            TileSpec::new(3, 5),
            TileSpec::new(64, 64),
        ] {
            let mut threaded = ThreadedStepper::new(problem, 3).with_tile(tile);
            threaded.run(4);
            assert_eq!(
                threaded.state().max_abs_diff(serial.state()),
                0.0,
                "tile = {tile:?}"
            );
        }
    }

    #[test]
    fn more_threads_than_z_planes_is_fine() {
        let problem = AdvectionProblem::general_case(4);
        let mut serial = SerialStepper::new(problem);
        serial.run(3);
        let mut threaded = ThreadedStepper::new(problem, 16);
        threaded.run(3);
        assert_eq!(threaded.state().max_abs_diff(serial.state()), 0.0);
    }

    #[test]
    fn error_is_second_order_in_grid_refinement() {
        // O(Δ²) for fixed simulated time: refining the grid (and Δ with it)
        // by 2× should reduce the error by ≈4×. Use a sub-maximal ν so the
        // scheme is not an exact shift.
        let mut errors = Vec::new();
        for n in [16usize, 32, 64] {
            let problem = AdvectionProblem {
                nu: 0.5,
                velocity: Velocity::new(1.0, 0.7, 0.4),
                ..AdvectionProblem::paper_case(n)
            };
            // Fixed simulated time: steps ∝ n.
            let steps = (n / 4) as u64;
            let mut s = SerialStepper::new(problem);
            s.run(steps);
            errors.push(s.norms().l2);
        }
        let r1 = errors[0] / errors[1];
        let r2 = errors[1] / errors[2];
        assert!(
            r1 > 2.8,
            "refinement ratio too small: {r1} (errors {errors:?})"
        );
        assert!(
            r2 > 2.8,
            "refinement ratio too small: {r2} (errors {errors:?})"
        );
    }

    #[test]
    fn stability_at_max_nu_no_blowup() {
        let problem = AdvectionProblem::paper_case(10);
        let mut s = SerialStepper::new(problem);
        s.run(50);
        let max = s.state().data().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(max <= 1.0 + 1e-9, "solution grew to {max}");
    }

    #[test]
    fn mass_is_conserved() {
        // Σa = 1 on a periodic domain ⇒ the discrete integral of u is an
        // invariant of the scheme (up to roundoff).
        let problem = AdvectionProblem::general_case(16);
        let mut s = SerialStepper::new(problem);
        let m0 = s.state().interior_sum();
        s.run(40);
        let m1 = s.state().interior_sum();
        assert!(((m1 - m0) / m0).abs() < 1e-12, "mass drifted: {m0} -> {m1}");
    }

    #[test]
    fn steps_counted() {
        let mut s = SerialStepper::new(AdvectionProblem::paper_case(6));
        s.run(7);
        assert_eq!(s.steps_taken(), 7);
    }
}
