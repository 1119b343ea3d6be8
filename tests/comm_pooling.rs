//! Differential and property tests for the zero-allocation comm fast
//! path: the pooled halo exchange must be bit-identical to the
//! fresh-allocation baseline on irregular grids and rank counts, the
//! indexed mailbox must preserve per-channel non-overtaking order under
//! interleaved tags, and a steady-state IV-B run must stop allocating
//! message buffers after its warm-up step.

use advect_core::field::Field3;
use advect_core::stepper::AdvectionProblem;
use decomp::{Decomposition, ExchangePlan};
use overlap::halo::{exchange_halos, exchange_halos_fresh};
use overlap::{HaloBuffers, Impl, RunConfig};
use proptest::prelude::*;
use simmpi::World;

/// Run one exchange per rank over an irregular grid and return every
/// rank's full local field (interior + halo), bit for bit.
fn exchange_fields(
    grid: (usize, usize, usize),
    ntasks: usize,
    pooled: bool,
    rounds: usize,
) -> Vec<Field3> {
    let decomp = Decomposition::new(ntasks, grid);
    let dref = &decomp;
    let mut results = World::run(ntasks, move |comm| {
        let rank = comm.rank();
        let sub = dref.subdomains[rank];
        let (ox, oy, oz) = sub.offset;
        let mut local = Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, 1);
        local.fill_interior(|x, y, z| {
            // Irregular, position-dependent values so any mismatched or
            // misordered message shows up as a bitwise difference.
            let g = (ox as i64 + x) as f64 * 1.25
                + (oy as i64 + y) as f64 * 0.75
                + (oz as i64 + z) as f64 * 0.5;
            (g * 1.0000001).sin()
        });
        let plan = ExchangePlan::new(sub.extent, 1);
        let bufs = HaloBuffers::new(&plan, comm);
        for _ in 0..rounds {
            if pooled {
                exchange_halos(&mut local, &plan, dref, rank, comm, &bufs);
            } else {
                exchange_halos_fresh(&mut local, &plan, dref, rank, comm);
            }
        }
        (rank, local)
    });
    results.sort_by_key(|(rank, _)| *rank);
    results.into_iter().map(|(_, f)| f).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pooled fast path and the fresh-allocation baseline are the
    /// same exchange: every rank's halo ends up bitwise identical on
    /// arbitrary (irregular) grids and rank counts, even after repeated
    /// exchanges that cycle buffers through the staging slots.
    #[test]
    fn pooled_exchange_matches_fresh_bitwise(
        gx in 4usize..12, gy in 4usize..12, gz in 4usize..12,
        ntasks in 1usize..6,
        rounds in 1usize..4,
    ) {
        prop_assume!(ntasks <= gz);
        let pooled = exchange_fields((gx, gy, gz), ntasks, true, rounds);
        let fresh = exchange_fields((gx, gy, gz), ntasks, false, rounds);
        for (rank, (p, f)) in pooled.iter().zip(&fresh).enumerate() {
            for (x, y, z) in p.full_range().iter() {
                prop_assert_eq!(
                    p.at(x, y, z).to_bits(), f.at(x, y, z).to_bits(),
                    "grid ({},{},{}) ntasks {} rank {} at ({},{},{})",
                    gx, gy, gz, ntasks, rank, x, y, z);
            }
        }
    }

    /// Indexed per-channel queues preserve MPI's non-overtaking
    /// guarantee: messages on the same (src, tag) channel arrive in send
    /// order regardless of how sends interleave across tags and of the
    /// order the receiver drains the channels.
    #[test]
    fn channels_preserve_send_order_under_interleaved_tags(
        ntags in 1usize..6,
        per_tag in 1usize..8,
        seed in 0u64..1024,
    ) {
        // Sender emits (tag, seq) pairs in a seed-scrambled interleaving
        // built by popping from per-tag queues, so each channel's relative
        // send order is ascending by construction.
        let mut next_seq = vec![0usize; ntags];
        let mut remaining = ntags * per_tag;
        let mut sends: Vec<(u64, usize)> = Vec::with_capacity(remaining);
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        while remaining > 0 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mut pick = (state >> 33) as usize % remaining;
            for (t, seq) in next_seq.iter_mut().enumerate() {
                let left = per_tag - *seq;
                if pick < left {
                    sends.push((t as u64, *seq));
                    *seq += 1;
                    remaining -= 1;
                    break;
                }
                pick -= left;
            }
        }
        let sends_ref = &sends;
        let results = World::run(2, move |comm| {
            if comm.rank() == 1 {
                for &(tag, seq) in sends_ref {
                    comm.send(0, tag, vec![seq as f64]);
                }
                Vec::new()
            } else {
                // Drain channels highest-tag-first — the opposite of the
                // send interleaving — and record each channel's sequence.
                let mut got = Vec::new();
                for tag in (0..ntags as u64).rev() {
                    for _ in 0..per_tag {
                        got.push((tag, comm.recv(1, tag)[0] as usize));
                    }
                }
                got
            }
        });
        let got = &results[0];
        for tag in 0..ntags as u64 {
            let seqs: Vec<usize> = got.iter()
                .filter(|(t, _)| *t == tag)
                .map(|(_, s)| *s)
                .collect();
            let expect: Vec<usize> = (0..per_tag).collect();
            prop_assert_eq!(seqs, expect, "tag {} overtook", tag);
        }
    }
}

/// After one warm-up step populates the staging slots, further IV-B steps
/// allocate no message buffers at all: `buffers_allocated` stays flat
/// while recycles grow with the step count.
#[test]
fn bulk_sync_steady_state_allocates_no_buffers() {
    let problem = AdvectionProblem::general_case(12);
    let warm = Impl::BulkSync
        .run_with_report(&RunConfig::new(problem, 1).tasks(4), None)
        .1;
    let long = Impl::BulkSync
        .run_with_report(&RunConfig::new(problem, 9).tasks(4), None)
        .1;
    for rank in 0..4 {
        let w = &warm.comm[rank];
        let l = &long.comm[rank];
        assert_eq!(
            l.buffers_allocated, w.buffers_allocated,
            "rank {rank}: steps beyond the first allocated message buffers"
        );
        // Eight extra steps × six sends, every one reusing its slot.
        assert_eq!(
            l.buffers_recycled - w.buffers_recycled,
            8 * 6,
            "rank {rank}: steady-state sends did not all recycle"
        );
    }
}
