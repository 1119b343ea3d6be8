//! # simmpi
//!
//! An in-process message-passing substrate with MPI-like semantics, built
//! so the overlap implementations of White & Dongarra (IPDPS 2011) can run
//! unmodified without a real MPI installation:
//!
//! * **ranks are OS threads** launched by [`World::run`];
//! * point-to-point messages are matched by `(source, tag)` in arrival
//!   order (MPI's non-overtaking rule per channel);
//! * [`Comm::isend`] / [`Comm::irecv`] return [`SendRequest`] /
//!   [`RecvRequest`] handles completed by `wait`, mirroring
//!   `MPI_Isend`/`MPI_Irecv`/`MPI_Wait`;
//! * collectives: [`Comm::barrier`], [`Comm::allreduce_sum`],
//!   [`Comm::allreduce_max`], [`Comm::gather_to_root`];
//! * a rank may send to itself (the paper notes "a task may be its own
//!   neighbor in decompositions with small or prime numbers of tasks");
//! * message buffers are pooled per world: [`Comm::lease`] hands out
//!   [`PooledBuf`] leases from a capacity-classed free list,
//!   [`Comm::send_pooled`] moves them to the destination, and receives
//!   return leases that recycle on drop — so a warmed-up communication
//!   loop allocates no new buffers ([`CommStats::buffers_allocated`]);
//! * mailbox matching is indexed per `(source, tag)` channel (O(1)
//!   instead of a linear scan) while preserving MPI's non-overtaking
//!   order within each channel.
//!
//! Sends are buffered (they complete locally, like `MPI_Ibsend`): payloads
//! are moved into the destination mailbox at post time. That matches how
//! the paper's implementations use MPI — all sends are paired with
//! pre-posted receives and waits, so stricter rendezvous semantics would
//! change nothing observable. The *cost* of rendezvous progress is a
//! performance-layer concern, modeled in the `perfmodel` crate.
//!
//! Per-rank traffic statistics ([`CommStats`]) are recorded so tests and
//! examples can assert on message counts and volumes — including blocked
//! time ([`CommStats::wait_ns`]) and the mailbox byte high-water mark
//! ([`CommStats::peak_bytes_in_flight`]).
//!
//! Each [`Comm`] optionally carries an [`obs::Tracer`]
//! ([`Comm::install_tracer`]), its one instrumentation hook: every send,
//! receive, wait, barrier, and allreduce then records an `mpi.*` span,
//! with receives reporting their full in-flight window (post →
//! completion) so overlap metrics can measure how much of it was hidden
//! behind computation. Whether a span lands in a trace, in the run's
//! latency histograms, or both is the tracer's business; this crate
//! knows no metrics registry. With no tracer installed the calls hit a
//! static no-op sink.

//!
//! ## Fault injection
//!
//! [`World::run_with_faults`] threads a seeded [`FaultPlan`] through the
//! world: message delivery runs through a per-mailbox limbo (latency
//! jitter, cross-channel reordering, transient drop-with-redelivery),
//! straggler ranks throttle their compute sections and stall inside
//! allreduces, and receives gain bounded waits with retry/backoff. Every
//! perturbation is a pure function of the seed and the traffic, so a
//! seeded world replays the same fault schedule no matter how the OS
//! interleaves its threads — and because only *timing* is perturbed
//! (content and per-channel order never change), results stay
//! bit-identical to the fault-free run. [`Comm::fault_stats`] reports the
//! fault path's observations next to [`CommStats`].

mod collectives;
mod comm;
mod fault;
mod mailbox;
mod pool;
mod world;

pub use comm::{Comm, CommStats, RecvRequest, SendRequest, Tag};
pub use fault::{splitmix64, FaultPlan, FaultStats};
pub use pool::PooledBuf;
pub use world::World;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_runs_all_ranks() {
        let results = World::run(6, |comm| comm.rank() * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn ring_exchange() {
        let n = 5;
        let results = World::run(n, move |comm| {
            let right = (comm.rank() + 1) % n;
            let left = (comm.rank() + n - 1) % n;
            let req = comm.irecv(left, 7);
            comm.send(right, 7, vec![comm.rank() as f64]);
            let data = req.wait();
            data[0] as usize
        });
        for (rank, &got) in results.iter().enumerate() {
            assert_eq!(got, (rank + n - 1) % n);
        }
    }

    #[test]
    fn self_send_works() {
        let results = World::run(3, |comm| {
            let req = comm.irecv(comm.rank(), 1);
            comm.send(comm.rank(), 1, vec![42.0]);
            req.wait()[0]
        });
        assert_eq!(results, vec![42.0; 3]);
    }

    #[test]
    fn messages_matched_by_tag() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, vec![1.0]);
                comm.send(1, 20, vec![2.0]);
                0.0
            } else {
                // Receive in reverse tag order: matching must be by tag,
                // not arrival order.
                let b = comm.recv(0, 20);
                let a = comm.recv(0, 10);
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn same_tag_messages_do_not_overtake() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100 {
                    comm.send(1, 3, vec![i as f64]);
                }
                vec![]
            } else {
                (0..100).map(|_| comm.recv(0, 3)[0]).collect()
            }
        });
        let got = &results[1];
        let expect: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(*got, expect);
    }

    #[test]
    fn irecv_posted_before_send_arrives() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier(); // make rank 1 post first
                comm.send(1, 5, vec![9.0]);
                9.0
            } else {
                let req = comm.irecv(0, 5);
                comm.barrier();
                req.wait()[0]
            }
        });
        assert_eq!(results[1], 9.0);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let phase = Arc::new(AtomicUsize::new(0));
        let p = phase.clone();
        World::run(8, move |comm| {
            p.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            assert_eq!(p.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn allreduce_sum_and_max() {
        let results = World::run(7, |comm| {
            let r = comm.rank() as f64;
            (comm.allreduce_sum(r), comm.allreduce_max(r))
        });
        for &(sum, max) in &results {
            assert_eq!(sum, 21.0);
            assert_eq!(max, 6.0);
        }
    }

    #[test]
    fn repeated_allreduce_no_generation_mixup() {
        let results = World::run(4, |comm| {
            let mut acc = 0.0;
            for round in 0..50 {
                acc += comm.allreduce_sum((comm.rank() + round) as f64);
            }
            acc
        });
        // Σ_round (Σ_rank rank + 4*round) = 50*6 + 4*Σ round = 300 + 4*1225
        for &v in &results {
            assert_eq!(v, 300.0 + 4.0 * 1225.0);
        }
    }

    #[test]
    fn gather_to_root() {
        let results = World::run(4, |comm| comm.gather_to_root(vec![comm.rank() as f64; 2]));
        let root = results[0].as_ref().expect("root gets data");
        assert_eq!(root.len(), 4);
        for (r, part) in root.iter().enumerate() {
            assert_eq!(*part, vec![r as f64; 2]);
        }
        assert!(results[1].is_none());
    }

    #[test]
    fn stats_count_messages_and_volume() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0.0; 10]);
                comm.send(1, 1, vec![0.0; 5]);
            } else {
                comm.recv(0, 0);
                comm.recv(0, 1);
            }
            comm.stats()
        });
        assert_eq!(results[0].messages_sent, 2);
        assert_eq!(results[0].values_sent, 15);
        assert_eq!(results[1].messages_received, 2);
        assert_eq!(results[1].values_received, 15);
    }

    #[test]
    fn waitall_completes_many_requests() {
        let n = 4;
        let results = World::run(n, move |comm| {
            let tags: Vec<_> = (0..n).filter(|&r| r != comm.rank()).collect();
            let reqs: Vec<_> = tags.iter().map(|&src| comm.irecv(src, 99)).collect();
            for dst in 0..n {
                if dst != comm.rank() {
                    comm.isend(dst, 99, vec![comm.rank() as f64]).wait();
                }
            }
            comm.waitall(reqs).iter().map(|b| b[0]).sum::<f64>()
        });
        for (rank, &sum) in results.iter().enumerate() {
            let expect: f64 = (0..n).filter(|&r| r != rank).map(|r| r as f64).sum();
            assert_eq!(sum, expect);
        }
    }

    #[test]
    fn pooled_ring_allocates_only_during_warmup() {
        // After the first round trip, every lease is served by recycling:
        // the received buffer retires into the pool before the next lease.
        let n = 4usize;
        let results = World::run(n, move |comm| {
            let right = (comm.rank() + 1) % n;
            let left = (comm.rank() + n - 1) % n;
            for _ in 0..50 {
                let req = comm.irecv(left, 0);
                let mut buf = comm.lease(256);
                buf[0] = comm.rank() as f64;
                comm.send_pooled(right, 0, buf);
                let got = req.wait();
                assert_eq!(got[0], left as f64);
                // `got` drops here and recycles into the pool.
            }
            comm.stats()
        });
        for (rank, s) in results.iter().enumerate() {
            assert!(
                s.buffers_allocated <= 2,
                "rank {rank}: {} allocations for 50 rounds",
                s.buffers_allocated
            );
            assert_eq!(s.buffers_allocated + s.buffers_recycled, 50);
        }
    }

    #[test]
    fn recv_lease_recycles_into_world_pool() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1.0; 512]);
            } else {
                let got = comm.recv(0, 0);
                assert_eq!(got.len(), 512);
                drop(got);
                assert!(comm.pooled_buffers() >= 1);
                let lease = comm.lease(512);
                assert_eq!(comm.stats().buffers_recycled, 1);
                drop(lease);
            }
        });
    }

    #[test]
    fn detached_buffers_bypass_the_pool() {
        World::run(1, |comm| {
            let v = comm.lease(128).into_vec();
            assert_eq!(v.len(), 128);
            assert_eq!(comm.pooled_buffers(), 0);
        });
    }

    #[test]
    fn wait_ns_counts_blocked_receives() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
                comm.send(1, 0, vec![1.0]);
                comm.stats()
            } else {
                let req = comm.irecv(0, 0);
                req.wait();
                comm.stats()
            }
        });
        // The receiver blocked for ~5ms waiting for the late sender.
        assert!(
            results[1].wait_ns >= 2_000_000,
            "receiver wait_ns = {}",
            results[1].wait_ns
        );
    }

    #[test]
    fn peak_bytes_in_flight_tracks_mailbox_high_water() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                // Two messages queued simultaneously: 300 values = 2400 B.
                comm.send(1, 0, vec![0.0; 100]);
                comm.send(1, 1, vec![0.0; 200]);
                comm.barrier();
            } else {
                comm.barrier(); // both messages are queued before any recv
                comm.recv(0, 0);
                comm.recv(0, 1);
            }
            comm.stats()
        });
        assert_eq!(results[1].peak_bytes_in_flight, 2400);
        assert_eq!(results[0].peak_bytes_in_flight, 0);
    }

    #[test]
    fn installed_tracer_records_mpi_spans() {
        use obs::{Anchor, Category, Tracer};
        let anchor = Anchor::now();
        let results = World::run(2, move |comm| {
            comm.install_tracer(Tracer::on(comm.rank(), anchor));
            let req = comm.irecv(1 - comm.rank(), 0);
            comm.send(1 - comm.rank(), 0, vec![1.0]);
            req.wait();
            // A blocking receive is an irecv waited on at once: it
            // records the same two spans.
            comm.send(1 - comm.rank(), 1, vec![2.0]);
            comm.recv(1 - comm.rank(), 1);
            comm.barrier();
            comm.allreduce_sum(1.0);
            comm.tracer()
                .finish()
                .expect("a tracing tracer keeps its spans")
        });
        for trace in &results {
            let count = |cat: Category| trace.spans.iter().filter(|s| s.cat == cat).count();
            assert_eq!(count(Category::MpiSend), 2);
            assert_eq!(count(Category::MpiRecv), 2);
            assert_eq!(count(Category::MpiWait), 2);
            assert_eq!(count(Category::MpiBarrier), 1);
            assert_eq!(count(Category::MpiAllreduce), 1);
            // The in-flight recv window starts at the irecv post, so it
            // brackets the wait span.
            let recv = trace
                .spans
                .iter()
                .find(|s| s.cat == Category::MpiRecv)
                .unwrap();
            let wait = trace
                .spans
                .iter()
                .find(|s| s.cat == Category::MpiWait)
                .unwrap();
            assert!(recv.wall_start_ns <= wait.wall_start_ns);
            assert_eq!(recv.wall_end_ns, wait.wall_end_ns);
        }
    }

    #[test]
    fn untraced_comm_allocates_no_trace_buffers() {
        World::run(2, |comm| {
            let req = comm.irecv(1 - comm.rank(), 0);
            comm.send(1 - comm.rank(), 0, vec![1.0; 64]);
            req.wait();
            comm.barrier();
            assert!(!comm.tracer().is_on(), "no tracer installed, no slab");
            assert!(comm.tracer().finish().is_none());
        });
    }

    #[test]
    #[should_panic(expected = "destination rank")]
    fn send_to_invalid_rank_panics() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(5, 0, vec![1.0]);
            }
        });
    }

    /// A ring of many same-channel messages under a chaotic plan: every
    /// payload arrives intact and in send order despite jitter, reorder
    /// holds, and drop-with-redelivery.
    #[test]
    fn faulty_ring_preserves_payloads_and_channel_order() {
        let n = 4usize;
        let rounds = 40;
        for seed in [11, 12, 13, 14, 15] {
            let results = World::run_with_faults(n, FaultPlan::chaos(seed), move |comm| {
                let right = (comm.rank() + 1) % n;
                let left = (comm.rank() + n - 1) % n;
                for i in 0..rounds {
                    comm.send(right, 0, vec![comm.rank() as f64, i as f64]);
                }
                let got: Vec<Vec<f64>> = (0..rounds).map(|_| comm.recv(left, 0).to_vec()).collect();
                (left, got)
            });
            for (rank, (left, got)) in results.iter().enumerate() {
                for (i, msg) in got.iter().enumerate() {
                    assert_eq!(
                        msg,
                        &vec![*left as f64, i as f64],
                        "seed {seed} rank {rank} message {i} corrupted or reordered"
                    );
                }
            }
        }
    }

    /// The same seeded world replays the same fault decisions: delivery
    /// counters and traffic stats match across runs (timing fields
    /// masked).
    #[test]
    fn fault_schedule_replays_from_seed() {
        let run = || {
            World::run_with_faults(3, FaultPlan::chaos(99), |comm| {
                let right = (comm.rank() + 1) % 3;
                let left = (comm.rank() + 2) % 3;
                for i in 0..25 {
                    let req = comm.irecv(left, 1);
                    comm.send(right, 1, vec![i as f64; 8]);
                    req.wait();
                }
                let mut s = comm.stats();
                s.wait_ns = 0;
                s.peak_bytes_in_flight = 0;
                s.buffers_allocated = 0;
                s.buffers_recycled = 0;
                (s, comm.fault_stats().deterministic_view())
            })
        };
        assert_eq!(run(), run());
    }

    /// With `drop_prob = 1.0` every message is "lost" and redelivered;
    /// bounded waits fire, retries accumulate, and the payloads still
    /// arrive exactly once, in order.
    #[test]
    fn dropped_messages_redeliver_and_retries_count() {
        let plan = FaultPlan::off()
            .with_drops(1.0, 3_000_000)
            .with_wait_timeout_ns(500_000);
        let results = World::run_with_faults(2, plan, |comm| {
            if comm.rank() == 0 {
                // Send only once rank 1 is running: if its thread started
                // more than 3 ms late, the redelivery would already be
                // due at its first wait and no bounded wait would expire.
                comm.recv(1, 1);
                comm.send(1, 0, vec![1.0]);
                comm.send(1, 0, vec![2.0]);
                (vec![], FaultStats::default())
            } else {
                comm.send(0, 1, vec![0.0]);
                let a = comm.recv(0, 0).to_vec();
                let b = comm.recv(0, 0).to_vec();
                (vec![a[0], b[0]], comm.fault_stats())
            }
        });
        let (payloads, fs) = &results[1];
        assert_eq!(payloads, &vec![1.0, 2.0]);
        assert_eq!(fs.redelivered, 2);
        assert_eq!(fs.delayed, 0);
        assert!(fs.retries >= 1, "3 ms redelivery must outlast 0.5 ms wait");
        assert!(fs.max_stall_ns >= 2_000_000, "stall {} ns", fs.max_stall_ns);
    }

    /// Allreduce results are exact under straggler stalls (rank-order
    /// fold is timing-independent), and the stalls are observed.
    #[test]
    fn allreduce_exact_under_stragglers() {
        let plan = FaultPlan::off()
            .with_stragglers(1.0, 2.0)
            .with_allreduce_jitter_ns(200_000);
        let results = World::run_with_faults(5, plan, |comm| {
            let mut acc = 0.0;
            for round in 0..10 {
                acc += comm.allreduce_sum((comm.rank() + round) as f64);
            }
            (acc, comm.fault_stats().allreduce_stall_ns)
        });
        // Σ_round (10 + 5·round) = 100 + 5·45
        for &(acc, _) in &results {
            assert_eq!(acc, 100.0 + 5.0 * 45.0);
        }
        let total_stall: u64 = results.iter().map(|&(_, s)| s).sum();
        assert!(total_stall > 0, "stragglers never stalled");
    }

    /// Straggler throttling slows the throttled section and records the
    /// slept time; non-stragglers pay nothing.
    #[test]
    fn throttle_scales_compute_sections() {
        let plan = FaultPlan::off().with_stragglers(1.0, 3.0);
        let results = World::run_with_faults(2, plan, |comm| {
            let t = comm.throttle_start();
            std::thread::sleep(std::time::Duration::from_millis(2));
            comm.throttle_end(t);
            comm.fault_stats().compute_throttle_ns
        });
        for &throttled in &results {
            assert!(
                throttled >= 3_000_000,
                "expected ≥ 2·2 ms, got {throttled} ns"
            );
        }
        let off = World::run(1, |comm| {
            assert!(comm.throttle_start().is_none());
            comm.fault_stats().compute_throttle_ns
        });
        assert_eq!(off[0], 0);
    }
}
