//! Analytic solutions for verification.
//!
//! The paper's initial condition is "a Gaussian wave at the center of the
//! cube"; Equation 1 moves the wave in the direction of the velocity
//! without changing its shape, so the analytic solution at time `t` is the
//! initial Gaussian translated by `c·t` with periodic wrap-around.

use crate::coeffs::Velocity;
use crate::field::Field3;

/// Anything that can be evaluated as the exact solution `u(x, y, z, t)`.
pub trait AnalyticSolution {
    /// Exact solution value at physical position `(x, y, z)` and time `t`.
    fn eval(&self, x: f64, y: f64, z: f64, t: f64) -> f64;
}

/// A periodic Gaussian pulse advected with constant velocity.
#[derive(Debug, Clone, Copy)]
pub struct GaussianPulse {
    /// Initial center of the pulse.
    pub center: [f64; 3],
    /// Standard deviation of the Gaussian.
    pub sigma: f64,
    /// Periodic domain lengths in each dimension.
    pub domain: [f64; 3],
    /// Advection velocity.
    pub velocity: Velocity,
}

impl GaussianPulse {
    /// The paper's configuration: pulse centered in a cube of the given
    /// side length, with σ one tenth of the side.
    pub fn centered_in_cube(side: f64, velocity: Velocity) -> Self {
        Self {
            center: [side / 2.0; 3],
            sigma: side / 10.0,
            domain: [side; 3],
            velocity,
        }
    }

    /// Minimum-image (periodic) displacement `a - b` in dimension `d`.
    fn periodic_delta(&self, a: f64, b: f64, d: usize) -> f64 {
        let l = self.domain[d];
        let mut dx = (a - b) % l;
        if dx > l / 2.0 {
            dx -= l;
        } else if dx < -l / 2.0 {
            dx += l;
        }
        dx
    }

    /// Sample the initial pulse (`t = 0`) into the interior of `f`, whose
    /// interior point `(x, y, z)` sits at physical position
    /// `((ox + x)·δ, (oy + y)·δ, (oz + z)·δ)` for `offset = (ox, oy, oz)`
    /// and grid spacing `δ` (halos left untouched).
    ///
    /// Bit-identical to calling [`AnalyticSolution::eval`] per point: the
    /// squared periodic displacement of each axis depends on one
    /// coordinate only, so it is computed once per axis instead of once
    /// per point, and each point keeps `eval`'s `(dx² + dy²) + dz²` sum
    /// and its `exp`.
    pub fn sample_initial(&self, f: &mut Field3, offset: (usize, usize, usize), spacing: f64) {
        let (nx, ny, nz) = f.interior();
        let squared = |d: usize, o: usize, n: usize| -> Vec<f64> {
            (o..o + n)
                .map(|g| {
                    let delta = self.periodic_delta(g as f64 * spacing, self.center[d], d);
                    delta * delta
                })
                .collect()
        };
        let (xx, yy, zz) = (
            squared(0, offset.0, nx),
            squared(1, offset.1, ny),
            squared(2, offset.2, nz),
        );
        let denom = 2.0 * self.sigma * self.sigma;
        for (z, &dzz) in zz.iter().enumerate() {
            for (y, &dyy) in yy.iter().enumerate() {
                let row = f.row_mut(0, y as i64, z as i64, nx);
                for (v, &dxx) in row.iter_mut().zip(&xx) {
                    *v = (-((dxx + dyy) + dzz) / denom).exp();
                }
            }
        }
    }
}

impl AnalyticSolution for GaussianPulse {
    fn eval(&self, x: f64, y: f64, z: f64, t: f64) -> f64 {
        let cx = self.center[0] + self.velocity.cx * t;
        let cy = self.center[1] + self.velocity.cy * t;
        let cz = self.center[2] + self.velocity.cz * t;
        let dx = self.periodic_delta(x, cx, 0);
        let dy = self.periodic_delta(y, cy, 1);
        let dz = self.periodic_delta(z, cz, 2);
        let r2 = dx * dx + dy * dy + dz * dz;
        (-r2 / (2.0 * self.sigma * self.sigma)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-axis sampler is `eval` at `t = 0`, bit for bit, on
    /// sub-domains at any offset (a rank's block of the global grid).
    #[test]
    fn sample_initial_is_bitwise_eval_on_offset_subdomains() {
        use crate::stepper::AdvectionProblem;
        for problem in [
            AdvectionProblem::general_case(12),
            AdvectionProblem::paper_case(9),
            AdvectionProblem::general_case(10).with_pulse([0.05, 0.93, 0.4], 0.07),
        ] {
            let (pulse, d) = (problem.pulse(), problem.spacing);
            for (offset, extent) in [
                ((0, 0, 0), (problem.n, problem.n, problem.n)),
                ((5, 0, 3), (4, 7, 6)),
                ((7, 8, 2), (2, 1, 5)),
            ] {
                let mut f = Field3::new(extent.0, extent.1, extent.2, 1);
                pulse.sample_initial(&mut f, offset, d);
                for (x, y, z) in f.interior_range().iter() {
                    let want = pulse.eval(
                        (offset.0 as i64 + x) as f64 * d,
                        (offset.1 as i64 + y) as f64 * d,
                        (offset.2 as i64 + z) as f64 * d,
                        0.0,
                    );
                    assert_eq!(
                        f.at(x, y, z).to_bits(),
                        want.to_bits(),
                        "n {} offset {offset:?} at ({x},{y},{z})",
                        problem.n
                    );
                }
            }
        }
    }

    #[test]
    fn peak_is_at_moving_center() {
        let p = GaussianPulse::centered_in_cube(1.0, Velocity::new(1.0, 0.5, 0.25));
        assert!((p.eval(0.5, 0.5, 0.5, 0.0) - 1.0).abs() < 1e-15);
        let t = 0.1;
        assert!((p.eval(0.5 + 0.1, 0.5 + 0.05, 0.5 + 0.025, t) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn shape_is_preserved_under_advection() {
        let p = GaussianPulse::centered_in_cube(2.0, Velocity::new(1.0, 1.0, 1.0));
        // Value at a point offset from the center must be the same at any t.
        let off = (0.07, -0.02, 0.05);
        let v0 = p.eval(1.0 + off.0, 1.0 + off.1, 1.0 + off.2, 0.0);
        let t = 0.37;
        let v1 = p.eval(
            1.0 + 1.0 * t + off.0,
            1.0 + 1.0 * t + off.1,
            1.0 + 1.0 * t + off.2,
            t,
        );
        assert!((v0 - v1).abs() < 1e-14);
    }

    #[test]
    fn periodic_wraparound() {
        let p = GaussianPulse::centered_in_cube(1.0, Velocity::new(1.0, 0.0, 0.0));
        // After the pulse crosses the boundary, it reappears on the left.
        let t = 0.75; // center at 1.25 ≡ 0.25
        assert!((p.eval(0.25, 0.5, 0.5, t) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn full_period_returns_initial_state() {
        let p = GaussianPulse::centered_in_cube(1.0, Velocity::new(1.0, 1.0, 1.0));
        for &(x, y, z) in &[(0.1, 0.9, 0.4), (0.5, 0.5, 0.5), (0.0, 0.0, 0.0)] {
            assert!((p.eval(x, y, z, 0.0) - p.eval(x, y, z, 1.0)).abs() < 1e-12);
        }
    }
}
