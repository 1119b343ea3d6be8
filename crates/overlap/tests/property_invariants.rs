//! The distributed halo exchange reproduces the periodic halo of the
//! undecomposed grid for every task count that can split it.

use advect_core::field::Field3;
use decomp::{Decomposition, ExchangePlan};
use simmpi::World;

#[test]
fn distributed_exchange_equals_periodic_for_random_task_counts() {
    // Deterministic but broad: every task count up to 12 on an 8³ grid.
    let n = 8usize;
    let mut global = Field3::new(n, n, n, 1);
    global.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
    global.copy_periodic_halo();
    // 11 is skipped: a prime count larger than every dimension of an 8³
    // grid has no axis-aligned decomposition.
    for ntasks in (1..=12).filter(|&t| t != 11) {
        let d = Decomposition::new(ntasks, (n, n, n));
        let dref = &d;
        let results = World::run(ntasks, move |comm| {
            let sub = dref.subdomains[comm.rank()];
            let mut local = Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, 1);
            let (ox, oy, oz) = sub.offset;
            local.fill_interior(|x, y, z| {
                ((ox as i64 + x) + 10 * (oy as i64 + y) + 100 * (oz as i64 + z)) as f64
            });
            let plan = ExchangePlan::new(sub.extent, 1);
            let bufs = overlap::HaloBuffers::new(&plan, comm);
            overlap::halo::exchange_halos(&mut local, &plan, dref, comm.rank(), comm, &bufs);
            (comm.rank(), local)
        });
        for (rank, local) in results {
            let sub = d.subdomains[rank];
            for (x, y, z) in local.full_range().iter() {
                let gx = (sub.offset.0 as i64 + x).rem_euclid(n as i64);
                let gy = (sub.offset.1 as i64 + y).rem_euclid(n as i64);
                let gz = (sub.offset.2 as i64 + z).rem_euclid(n as i64);
                assert_eq!(local.at(x, y, z), global.at(gx, gy, gz), "ntasks {ntasks}");
            }
        }
    }
}
