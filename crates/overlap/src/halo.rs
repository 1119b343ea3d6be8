//! Halo-exchange executors over `simmpi`.
//!
//! [`exchange_halos`] performs the full bulk-synchronous 6-transfer
//! exchange (implementation IV-B's Step 1). The phase-level pieces
//! ([`post_phase_recvs`], [`send_phase`], [`complete_phase`]) are exposed
//! separately so the overlap implementations (IV-C, IV-I) can interleave
//! computation between a phase's initiation and completion;
//! [`send_phase_shared`] / [`complete_phase_shared`] are the same pair
//! through a [`SharedField`], for the schedules whose threads compute on
//! the field while its halo fills (IV-D, IV-I).
//!
//! All paths stage messages through [`HaloBuffers`]: persistent per-rank
//! buffers, one slot per transfer, derived once from the
//! [`ExchangePlan`]. A send takes its slot's buffer, packs into it, and
//! ships it; the matching receive's payload (exactly the same size — a
//! phase's partner subdomains agree on every non-phase extent) refills
//! the slot. After the first step the exchange therefore allocates
//! nothing: no fresh `Vec` per message, no pool traffic, just six
//! buffers circulating between a rank and its neighbors.
//! [`exchange_halos_fresh`] keeps the old allocate-per-message path as
//! the reference the differential tests compare against.

use advect_core::field::{Field3, SharedField};
use decomp::{Decomposition, ExchangePlan, PhasePlan};
use obs::Category;
use simmpi::{Comm, PooledBuf, RecvRequest};
use std::sync::{Mutex, PoisonError};

/// Persistent per-rank staging for the six transfers of a halo exchange.
///
/// Slots are interior-mutable (a `std::sync::Mutex` around the array)
/// so the thread-overlap implementation's master thread can drive an
/// exchange through a shared reference while worker threads compute. The
/// lock is uncontended in every schedule — only the communicating thread
/// touches it.
pub struct HaloBuffers {
    /// `slots[dim][i]`: staging for transfer `i` of phase `dim`.
    slots: Mutex<[[Option<PooledBuf>; 2]; 3]>,
}

impl HaloBuffers {
    /// Derive staging from a plan, pre-leasing all six buffers from the
    /// communicator's pool (the only leases a steady-state exchange ever
    /// makes).
    pub fn new(plan: &ExchangePlan, comm: &Comm) -> Self {
        let slots = plan
            .phases
            .map(|p| p.transfers.map(|t| Some(comm.lease(t.send_region.len()))));
        Self {
            slots: Mutex::new(slots),
        }
    }

    /// Take the staging buffer for transfer `i` of phase `dim`, leasing a
    /// fresh one from the pool if the slot is empty (first use, or a
    /// caller that dropped a payload instead of depositing it).
    pub fn take(&self, dim: usize, i: usize, len: usize, comm: &Comm) -> PooledBuf {
        match self.slots.lock().unwrap_or_else(PoisonError::into_inner)[dim][i].take() {
            Some(buf) => {
                debug_assert_eq!(
                    buf.len(),
                    len,
                    "slot ({dim},{i}) staged a wrong-size buffer"
                );
                comm.note_buffer_recycled();
                buf
            }
            None => comm.lease(len),
        }
    }

    /// Refill the slot for transfer `i` of phase `dim` with a received
    /// payload, keeping it rank-local for the next step's send.
    pub fn deposit(&self, dim: usize, i: usize, buf: PooledBuf) {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)[dim][i] = Some(buf);
    }
}

/// Pending receives of one phase, to be completed after overlapped work.
pub struct PhaseInFlight<'a> {
    phase: PhasePlan,
    recvs: Vec<(usize, RecvRequest<'a>)>,
}

/// Post the nonblocking receives of one phase (before sending, so the
/// matching sends never block — the paper's master thread "first issues
/// nonblocking receive calls").
pub fn post_phase_recvs<'a>(
    phase: &PhasePlan,
    decomp: &Decomposition,
    rank: usize,
    comm: &'a Comm,
) -> PhaseInFlight<'a> {
    let mut recvs = Vec::with_capacity(2);
    for (i, t) in phase.transfers.iter().enumerate() {
        // The transfer sending toward `send_dir` receives from the
        // opposite neighbor.
        let from = decomp.neighbor(rank, t.dim, -t.send_dir);
        recvs.push((i, comm.irecv(from, t.recv_tag)));
    }
    PhaseInFlight {
        phase: *phase,
        recvs,
    }
}

/// Pack and send both directions of a phase through the staging slots.
pub fn send_phase(
    phase: &PhasePlan,
    field: &Field3,
    decomp: &Decomposition,
    rank: usize,
    comm: &Comm,
    bufs: &HaloBuffers,
) {
    for (i, t) in phase.transfers.iter().enumerate() {
        let to = decomp.neighbor(rank, t.dim, t.send_dir);
        let mut buf = bufs.take(phase.dim, i, t.send_region.len(), comm);
        {
            let _span = comm.tracer().span(Category::Pack, "halo.pack");
            field.pack(t.send_region, &mut buf);
        }
        comm.send_pooled(to, t.send_tag, buf);
    }
}

/// Wait for a phase's receives, unpack them into the halo, and refill the
/// staging slots with the received buffers.
pub fn complete_phase(
    inflight: PhaseInFlight<'_>,
    field: &mut Field3,
    comm: &Comm,
    bufs: &HaloBuffers,
) {
    let phase = inflight.phase;
    for (i, req) in inflight.recvs {
        let data = req.wait();
        let region = phase.transfers[i].recv_region;
        debug_assert_eq!(data.len(), region.len());
        {
            let _span = comm.tracer().span(Category::Unpack, "halo.unpack");
            field.unpack(region, &data);
        }
        bufs.deposit(phase.dim, i, data);
    }
}

/// [`send_phase`] through a [`SharedField`]: the packing thread reads
/// boundary points while other threads read the same field.
pub fn send_phase_shared(
    phase: &PhasePlan,
    field: &SharedField<'_>,
    decomp: &Decomposition,
    rank: usize,
    comm: &Comm,
    bufs: &HaloBuffers,
) {
    for (i, t) in phase.transfers.iter().enumerate() {
        let to = decomp.neighbor(rank, t.dim, t.send_dir);
        let mut buf = bufs.take(phase.dim, i, t.send_region.len(), comm);
        {
            let _span = comm.tracer().span(Category::Pack, "halo.pack");
            field.pack_into(t.send_region, &mut buf);
        }
        comm.send_pooled(to, t.send_tag, buf);
    }
}

/// [`complete_phase`] through a [`SharedField`]: halo points are written
/// while other threads read disjoint interior points.
pub fn complete_phase_shared(
    inflight: PhaseInFlight<'_>,
    field: &SharedField<'_>,
    comm: &Comm,
    bufs: &HaloBuffers,
) {
    let phase = inflight.phase;
    for (i, req) in inflight.recvs {
        let data = req.wait();
        {
            let _span = comm.tracer().span(Category::Unpack, "halo.unpack");
            field.unpack(phase.transfers[i].recv_region, &data);
        }
        bufs.deposit(phase.dim, i, data);
    }
}

/// The full halo exchange operating through a [`SharedField`], for the
/// thread-overlap implementation (IV-D) where the master thread exchanges
/// halos while worker threads concurrently read disjoint interior points.
pub fn exchange_halos_shared(
    field: &SharedField<'_>,
    plan: &ExchangePlan,
    decomp: &Decomposition,
    rank: usize,
    comm: &Comm,
    bufs: &HaloBuffers,
) {
    for phase in &plan.phases {
        let inflight = post_phase_recvs(phase, decomp, rank, comm);
        send_phase_shared(phase, field, decomp, rank, comm, bufs);
        complete_phase_shared(inflight, field, comm, bufs);
    }
}

/// The full bulk-synchronous halo exchange: for each dimension in order,
/// post receives, send, complete.
pub fn exchange_halos(
    field: &mut Field3,
    plan: &ExchangePlan,
    decomp: &Decomposition,
    rank: usize,
    comm: &Comm,
    bufs: &HaloBuffers,
) {
    for phase in &plan.phases {
        let inflight = post_phase_recvs(phase, decomp, rank, comm);
        send_phase(phase, field, decomp, rank, comm, bufs);
        complete_phase(inflight, field, comm, bufs);
    }
}

/// The pre-pool exchange: allocates a fresh buffer per message and drops
/// every received payload. Kept as the reference the differential tests
/// compare the pooled path against.
pub fn exchange_halos_fresh(
    field: &mut Field3,
    plan: &ExchangePlan,
    decomp: &Decomposition,
    rank: usize,
    comm: &Comm,
) {
    for phase in &plan.phases {
        let inflight = post_phase_recvs(phase, decomp, rank, comm);
        for t in &phase.transfers {
            let to = decomp.neighbor(rank, t.dim, t.send_dir);
            comm.send(to, t.send_tag, field.pack_vec(t.send_region));
        }
        let phase = inflight.phase;
        for (i, req) in inflight.recvs {
            let data = req.wait();
            let region = phase.transfers[i].recv_region;
            debug_assert_eq!(data.len(), region.len());
            field.unpack(region, &data.into_vec());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::World;

    /// Distributed halo exchange must reproduce the single-field periodic
    /// halo for every rank count.
    #[test]
    fn distributed_exchange_matches_periodic_halo() {
        let n = 8usize;
        for ntasks in [1usize, 2, 3, 4, 6, 8] {
            let decomp = Decomposition::new(ntasks, (n, n, n));
            // Reference: one global field with periodic halos.
            let mut global = advect_core::field::Field3::new(n, n, n, 1);
            global.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
            global.copy_periodic_halo();

            let decomp_ref = &decomp;
            let results = World::run(ntasks, move |comm| {
                let rank = comm.rank();
                let sub = decomp_ref.subdomains[rank];
                let (ox, oy, oz) = sub.offset;
                let mut local =
                    advect_core::field::Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, 1);
                local.fill_interior(|x, y, z| {
                    ((ox as i64 + x) + 10 * (oy as i64 + y) + 100 * (oz as i64 + z)) as f64
                });
                let plan = ExchangePlan::new(sub.extent, 1);
                let bufs = HaloBuffers::new(&plan, comm);
                exchange_halos(&mut local, &plan, decomp_ref, rank, comm, &bufs);
                (rank, local)
            });

            for (rank, local) in results {
                let sub = decomp.subdomains[rank];
                let (ox, oy, oz) = (
                    sub.offset.0 as i64,
                    sub.offset.1 as i64,
                    sub.offset.2 as i64,
                );
                for (x, y, z) in local.full_range().iter() {
                    // Map to global coordinates with periodic wrap.
                    let gx = (ox + x).rem_euclid(n as i64);
                    let gy = (oy + y).rem_euclid(n as i64);
                    let gz = (oz + z).rem_euclid(n as i64);
                    assert_eq!(
                        local.at(x, y, z),
                        global.at(gx, gy, gz),
                        "ntasks={ntasks} rank={rank} local ({x},{y},{z})"
                    );
                }
            }
        }
    }

    /// Repeated exchanges through [`HaloBuffers`] never lease beyond the
    /// initial six buffers: the staging slots self-recycle.
    #[test]
    fn steady_state_exchange_allocates_nothing() {
        let n = 8usize;
        for ntasks in [2usize, 4] {
            let decomp = Decomposition::new(ntasks, (n, n, n));
            let decomp_ref = &decomp;
            let results = World::run(ntasks, move |comm| {
                let rank = comm.rank();
                let sub = decomp_ref.subdomains[rank];
                let mut local =
                    advect_core::field::Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, 1);
                local.fill_interior(|x, y, z| (x + y + z) as f64);
                let plan = ExchangePlan::new(sub.extent, 1);
                let bufs = HaloBuffers::new(&plan, comm);
                let warm = comm.stats();
                for _ in 0..10 {
                    exchange_halos(&mut local, &plan, decomp_ref, rank, comm, &bufs);
                }
                (warm, comm.stats())
            });
            for (rank, (warm, done)) in results.iter().enumerate() {
                assert_eq!(
                    done.buffers_allocated, warm.buffers_allocated,
                    "rank {rank}: steady-state exchange allocated buffers"
                );
                assert_eq!(
                    done.buffers_recycled - warm.buffers_recycled,
                    6 * 10,
                    "rank {rank}: every send reused its staging slot"
                );
            }
        }
    }
}
