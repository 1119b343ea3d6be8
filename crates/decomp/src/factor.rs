//! Near-cubic factorization of a task count into a 3-D process grid.
//!
//! The paper's data-distribution algorithm "gives each task a subdomain
//! that is as close to the same size as possible and as close to cubic as
//! possible, with the constraint that no task gets an empty domain", and
//! arranges that "the subdomain size is largest in the x dimension and
//! smallest in the z dimension, to best enable memory locality" (fewer
//! cuts along x keeps x-lines long and contiguous).

/// Choose process counts `(px, py, pz)` with `px·py·pz = ntasks` for a
/// global grid of `(gx, gy, gz)` points.
///
/// Among all factor triples that leave no task empty (`p_d ≤ g_d`), picks
/// the one whose subdomains are closest to cubic (minimum surface-to-volume
/// ratio of the average subdomain), breaking ties so that the subdomain is
/// largest in x and smallest in z (`px ≤ py ≤ pz` for a cubic grid).
///
/// Panics if no factor triple fits the grid — either `ntasks` exceeds the
/// number of grid points, or (e.g. for a prime `ntasks` larger than every
/// dimension) no axis-aligned split with non-empty subdomains exists.
pub fn factor3(ntasks: usize, (gx, gy, gz): (usize, usize, usize)) -> (usize, usize, usize) {
    assert!(ntasks > 0, "need at least one task");
    assert!(
        ntasks <= gx * gy * gz,
        "{ntasks} tasks cannot all get non-empty subdomains of a {gx}x{gy}x{gz} grid"
    );
    best_triple(ntasks, (gx, gy, gz)).unwrap_or_else(|| {
        panic!(
            "no axis-aligned factorization of {ntasks} tasks fits a {gx}x{gy}x{gz} grid with non-empty subdomains"
        )
    })
}

/// The search behind [`factor3`]: every `px` dividing `ntasks`, then
/// every `py` dividing the rest, both ascending; `None` if no triple
/// fits. The tie-break depends on this visit order.
fn best_triple(
    ntasks: usize,
    (gx, gy, gz): (usize, usize, usize),
) -> Option<(usize, usize, usize)> {
    let mut best: Option<((usize, usize, usize), f64)> = None;
    for px in divisors(ntasks).take_while(|&px| px <= gx) {
        let rest = ntasks / px;
        for py in divisors(rest).take_while(|&py| py <= gy) {
            let pz = rest / py;
            if pz > gz {
                continue;
            }
            // Average subdomain dimensions.
            let sx = gx as f64 / px as f64;
            let sy = gy as f64 / py as f64;
            let sz = gz as f64 / pz as f64;
            // Surface-to-volume ratio; minimal for a cube.
            let cost = 2.0 * (sx * sy + sy * sz + sx * sz) / (sx * sy * sz);
            let better = match best {
                None => true,
                Some((bp, bc)) => {
                    cost < bc - 1e-12 || (cost < bc + 1e-12 && prefer_x_largest((px, py, pz), bp))
                }
            };
            if better {
                best = Some(((px, py, pz), cost));
            }
        }
    }
    best.map(|(triple, _)| triple)
}

/// Tie-break: prefer the triple with fewer cuts in x, then fewer in y
/// (subdomain largest in x, smallest in z).
fn prefer_x_largest(a: (usize, usize, usize), b: (usize, usize, usize)) -> bool {
    (a.0, a.1, a.2) < (b.0, b.1, b.2)
}

/// All divisors of `n`, ascending, by trial division up to √n: those
/// up to √n first, then their cofactors. Allocates nothing.
fn divisors(n: usize) -> impl Iterator<Item = usize> {
    let root = n.isqrt();
    let small = (1..=root).filter(move |&d| n.is_multiple_of(d));
    let large = (1..=root)
        .rev()
        .filter(move |&d| n.is_multiple_of(d) && d * d != n)
        .map(move |d| n / d);
    small.chain(large)
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: (usize, usize, usize) = (420, 420, 420);

    #[test]
    fn product_is_preserved() {
        for n in 1..=200 {
            let (px, py, pz) = factor3(n, G);
            assert_eq!(px * py * pz, n, "n = {n}");
        }
    }

    #[test]
    fn perfect_cubes_give_cubic_grids() {
        assert_eq!(factor3(1, G), (1, 1, 1));
        assert_eq!(factor3(8, G), (2, 2, 2));
        assert_eq!(factor3(27, G), (3, 3, 3));
        assert_eq!(factor3(64, G), (4, 4, 4));
        assert_eq!(factor3(125, G), (5, 5, 5));
        assert_eq!(factor3(343, G), (7, 7, 7));
    }

    #[test]
    fn x_gets_fewest_cuts() {
        // Subdomain largest in x ⇒ px ≤ py ≤ pz.
        for n in [2, 4, 6, 12, 24, 48, 96, 100, 500, 3000] {
            let (px, py, pz) = factor3(n, G);
            assert!(px <= py && py <= pz, "n = {n}: ({px},{py},{pz})");
        }
    }

    #[test]
    fn prime_task_counts_put_cuts_in_z() {
        assert_eq!(factor3(7, G), (1, 1, 7));
        assert_eq!(factor3(13, G), (1, 1, 13));
    }

    #[test]
    fn no_empty_domains_for_large_counts() {
        // 1024 tasks on a 8×8×8 grid: must not pick a dimension > 8.
        let (px, py, pz) = factor3(512, (8, 8, 8));
        assert_eq!((px, py, pz), (8, 8, 8));
        let (px, py, pz) = factor3(64, (4, 8, 64));
        assert!(px <= 4 && py <= 8 && pz <= 64);
        assert_eq!(px * py * pz, 64);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn too_many_tasks_panics() {
        factor3(100, (4, 4, 4));
    }

    #[test]
    #[should_panic(
        expected = "no axis-aligned factorization of 11 tasks fits a 8x8x8 grid with non-empty subdomains"
    )]
    fn infeasible_prime_count_panics() {
        // 11 is prime and larger than every dimension of an 8x8x8 grid:
        // the only triple is 1x1x11, which does not fit.
        factor3(11, (8, 8, 8));
    }

    #[test]
    fn divisors_are_sorted_and_complete() {
        let all = |n| divisors(n).collect::<Vec<_>>();
        assert_eq!(all(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(all(1), vec![1]);
        assert_eq!(all(49), vec![1, 7, 49]);
    }

    /// The search as it was written before the walk: two `Vec`s of
    /// divisors per call, out-of-range candidates skipped one by one.
    fn oracle(ntasks: usize, (gx, gy, gz): (usize, usize, usize)) -> Option<(usize, usize, usize)> {
        fn divisors(n: usize) -> Vec<usize> {
            let mut small = Vec::new();
            let mut large = Vec::new();
            let mut d = 1;
            while d * d <= n {
                if n.is_multiple_of(d) {
                    small.push(d);
                    if d != n / d {
                        large.push(n / d);
                    }
                }
                d += 1;
            }
            large.reverse();
            small.extend(large);
            small
        }
        let mut best: Option<((usize, usize, usize), f64)> = None;
        for px in divisors(ntasks) {
            if px > gx {
                continue;
            }
            let rest = ntasks / px;
            for py in divisors(rest) {
                if py > gy {
                    continue;
                }
                let pz = rest / py;
                if pz > gz {
                    continue;
                }
                let sx = gx as f64 / px as f64;
                let sy = gy as f64 / py as f64;
                let sz = gz as f64 / pz as f64;
                let cost = 2.0 * (sx * sy + sy * sz + sx * sz) / (sx * sy * sz);
                let candidate = ((px, py, pz), cost);
                best = match best {
                    None => Some(candidate),
                    Some((bp, bc)) => {
                        let better = cost < bc - 1e-12
                            || (cost < bc + 1e-12 && prefer_x_largest((px, py, pz), bp));
                        if better {
                            Some(candidate)
                        } else {
                            Some((bp, bc))
                        }
                    }
                };
            }
        }
        best.map(|(triple, _)| triple)
    }

    #[test]
    fn walk_picks_the_oracles_triple() {
        for n in 1..=49_152 {
            assert_eq!(best_triple(n, G), oracle(n, G), "{n} tasks on 420^3");
        }
        for g in [(8, 8, 8), (11, 11, 11), (13, 13, 13), (4, 8, 64)] {
            for n in 1..=512 {
                assert_eq!(best_triple(n, g), oracle(n, g), "{n} tasks on {g:?}");
            }
        }
    }

    #[test]
    fn paper_scale_counts_factor_reasonably() {
        // Jaguar-scale task counts should produce balanced grids.
        let (px, py, pz) = factor3(12000, G);
        assert_eq!(px * py * pz, 12000);
        // Aspect ratio of the *subdomain* stays moderate.
        let (sx, sy, sz) = (420.0 / px as f64, 420.0 / py as f64, 420.0 / pz as f64);
        let max = sx.max(sy).max(sz);
        let min = sx.min(sy).min(sz);
        assert!(
            max / min <= 3.0,
            "aspect {} for ({px},{py},{pz})",
            max / min
        );
    }
}
