//! The resident worker crew and the one wait primitive under it.
//!
//! Everything in the workspace that used to spawn threads per parallel
//! region (`advect_core::team`, `advect_core::sweep`) or sleep on a bare
//! condvar (`simmpi`'s mailbox, barrier and reduce slots) goes through
//! this module instead. DESIGN §17 states the contract; in short:
//!
//! * [`run`]`(n, body)` runs member 0 on the caller and members `1..n` on
//!   `n − 1` *distinct* resident OS threads leased for the region, so
//!   members may block on each other (team barriers). It is a thread
//!   cache with a completion latch, not a work queue.
//! * [`wait_until`] is the only way anything here waits: a bounded poll
//!   that yields the CPU every few iterations, then a real sleep.
//! * [`Monitor`] is a mutex + condvar whose waiters poll a change
//!   counter (lock-free) before sleeping and whose notifier skips the
//!   futex syscall when nobody sleeps; [`Barrier`] is built on it.
//!
//! The module lives in `obs` only because `obs` is the one crate beneath
//! both `advect-core` and `simmpi`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};
use std::time::Duration;

/// Polls [`wait_until`] makes before it sleeps.
const POLLS: u32 = 512;

/// Every this-many polls is a `yield_now` instead of a `spin_loop` hint.
/// Mandatory, not a tuning nicety: with more waiters than cores (four
/// rank threads on two vCPUs) a waiter that only spins holds the core
/// its producer needs.
const YIELD_EVERY: u32 = 8;

/// Wait for `ready()` to hold: poll it [`POLLS`] times — yielding the
/// CPU on every [`YIELD_EVERY`]th — then call `sleep()` until it does.
///
/// `sleep` is one blocking wait that may return early (`thread::park`,
/// a condvar wait). The caller's protocol must make the pair
/// lost-wakeup-free: whoever makes `ready()` true wakes the sleeper
/// *afterwards*, and `sleep` re-checks the condition under whatever
/// lock orders it against that wake.
pub fn wait_until(mut ready: impl FnMut() -> bool, mut sleep: impl FnMut()) {
    for i in 1..=POLLS {
        if ready() {
            return;
        }
        if i % YIELD_EVERY == 0 {
            thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    while !ready() {
        sleep();
    }
}

/// One parallel region, on the caller's stack for the region's duration.
struct Job<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    caller: Thread,
    /// First worker panic, re-raised on the caller once every member
    /// has stopped.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A resident worker's hand-off slot.
struct Slot {
    /// Non-null from hand-off until the member has *finished* running:
    /// the worker polls it for work, the lessee polls it for completion.
    job: AtomicPtr<Job<'static>>,
    member: AtomicUsize,
}

struct Worker {
    slot: &'static Slot,
    thread: Thread,
}

/// Workers not leased to any region.
static IDLE: Mutex<Vec<Worker>> = Mutex::new(Vec::new());
static RESIDENT: AtomicUsize = AtomicUsize::new(0);

/// Resident worker threads spawned so far. It only grows, and only to
/// the widest *concurrent* demand: a region reuses idle workers before
/// spawning.
pub fn resident() -> usize {
    RESIDENT.load(Ordering::Relaxed)
}

fn idle() -> MutexGuard<'static, Vec<Worker>> {
    // The critical sections only push and pop, so a poisoned list is intact.
    IDLE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spawn_worker() -> Worker {
    // Leaked and detached on purpose: the worker is resident for the life
    // of the process, and a panic in a member never escapes `serve`
    // unreported.
    let slot: &'static Slot = Box::leak(Box::new(Slot {
        job: AtomicPtr::new(ptr::null_mut()),
        member: AtomicUsize::new(0),
    }));
    let handle = thread::Builder::new()
        .name("crew".into())
        .spawn(move || serve(slot))
        .expect("spawn a resident crew worker");
    RESIDENT.fetch_add(1, Ordering::Relaxed);
    Worker {
        slot,
        thread: handle.thread().clone(),
    }
}

/// A resident worker's life: wait for a hand-off, run the member, signal.
fn serve(slot: &Slot) -> ! {
    loop {
        wait_until(|| !slot.job.load(Ordering::Acquire).is_null(), thread::park);
        // SAFETY: `run` stored a pointer to a `Job` on its own stack and
        // does not return (or unwind) before it has seen this slot go
        // back to null, which only the store below does.
        let job = unsafe { &*slot.job.load(Ordering::Acquire) };
        let member = slot.member.load(Ordering::Relaxed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (job.body)(member))) {
            job.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
        let caller = job.caller.clone();
        // Release pairs with the lessee's Acquire load: everything this
        // member wrote is visible once the slot reads null. `job` is
        // dead from here on.
        slot.job.store(ptr::null_mut(), Ordering::Release);
        caller.unpark();
    }
}

/// Run `body(0)`, …, `body(n − 1)` concurrently and return when all have
/// finished: member 0 on the calling thread, the others each on its own
/// resident worker. `body` may borrow from the caller's stack. A panic
/// in any member is re-raised here, after every member has stopped.
/// Regions nest (a member may open its own) and may run concurrently.
pub fn run<F>(n: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if n <= 1 {
        return (0..n).for_each(body);
    }
    let body: &(dyn Fn(usize) + Sync) = &body;
    let job = Job {
        // SAFETY: only the lifetime changes. Workers reach `body` through
        // `job` alone, and every one of them is done with `job` before
        // this function returns or unwinds (the latch loop below; nothing
        // between the first hand-off and that loop can panic).
        body: unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        },
        caller: thread::current(),
        panic: Mutex::new(None),
    };
    // Lease before the first hand-off, so a failed spawn panics while
    // nothing is borrowed yet.
    let mut crew: Vec<Worker> = {
        let mut idle = idle();
        let keep = idle.len().saturating_sub(n - 1);
        idle.drain(keep..).collect()
    };
    while crew.len() < n - 1 {
        crew.push(spawn_worker());
    }
    let job_ptr = &job as *const Job<'static> as *mut Job<'static>;
    for (i, w) in crew.iter().enumerate() {
        w.slot.member.store(i + 1, Ordering::Relaxed);
        // Release pairs with the worker's Acquire load of the slot.
        w.slot.job.store(job_ptr, Ordering::Release);
        w.thread.unpark();
    }
    let mine = catch_unwind(AssertUnwindSafe(|| body(0)));
    for w in &crew {
        wait_until(
            || w.slot.job.load(Ordering::Acquire).is_null(),
            thread::park,
        );
    }
    idle().append(&mut crew);
    let theirs = job.panic.into_inner();
    if let Some(payload) = mine
        .err()
        .or(theirs.unwrap_or_else(PoisonError::into_inner))
    {
        resume_unwind(payload);
    }
}

/// A mutex-protected value whose waiters follow [`wait_until`]: they
/// poll a change counter without the lock, and only then sleep on the
/// condvar. Used like a `std` mutex + condvar pair:
///
/// ```
/// use obs::crew::Monitor;
/// let m = Monitor::new(0u32);
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         let mut g = m.lock();
///         *g = 7;
///         m.notify(&mut g);
///     });
///     let mut g = m.lock();
///     while *g != 7 {
///         g = m.wait(g);
///     }
/// });
/// ```
pub struct Monitor<T> {
    state: Mutex<T>,
    /// Bumped by every `notify`, always under `state`'s lock.
    changes: AtomicU64,
    /// Threads inside a condvar wait. Written and read only under
    /// `state`'s lock, so `notify` can skip the syscall on zero.
    sleepers: AtomicUsize,
    cv: Condvar,
}

impl<T: Default> Default for Monitor<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> Monitor<T> {
    /// A monitor around `value`.
    pub const fn new(value: T) -> Self {
        Self {
            state: Mutex::new(value),
            changes: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            cv: Condvar::new(),
        }
    }

    /// Acquire the lock. Poison is absorbed (as `parking_lot` does): a
    /// panicking rank must surface as that panic, not as poison errors
    /// in its peers.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Announce a change made under `held`: every thread in
    /// [`Self::wait`] or [`Self::wait_for`] re-checks its condition. One
    /// futex syscall, and only if somebody actually sleeps.
    pub fn notify(&self, _held: &mut MutexGuard<'_, T>) {
        // Release pairs with the pollers' Acquire load.
        self.changes.fetch_add(1, Ordering::Release);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.cv.notify_all();
        }
    }

    /// Release the lock, wait for a [`Self::notify`] issued after this
    /// call began (poll → yield → sleep), and re-take the lock. Use in a
    /// `while !condition { g = m.wait(g) }` loop, like a condvar.
    pub fn wait<'a>(&'a self, held: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        // Exact, because `notify` bumps under the lock this thread holds.
        let seen = self.changes.load(Ordering::Relaxed);
        drop(held);
        wait_until(
            || self.changes.load(Ordering::Acquire) != seen,
            || {
                let g = self.lock();
                if self.changes.load(Ordering::Relaxed) == seen {
                    drop(self.sleep(g, None));
                }
            },
        );
        self.lock()
    }

    /// Sleep on the condvar for at most `timeout` (or until a
    /// [`Self::notify`]), without a poll phase: the wait for waits that
    /// carry their own deadline.
    pub fn wait_for<'a>(&'a self, held: MutexGuard<'a, T>, timeout: Duration) -> MutexGuard<'a, T> {
        self.sleep(held, Some(timeout))
    }

    fn sleep<'a>(&'a self, g: MutexGuard<'a, T>, timeout: Option<Duration>) -> MutexGuard<'a, T> {
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        let g = match timeout {
            None => self.cv.wait(g).unwrap_or_else(PoisonError::into_inner),
            Some(t) => {
                let timed = self.cv.wait_timeout(g, t);
                timed.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        g
    }
}

/// A reusable sense-reversing barrier for `n` participants.
pub struct Barrier {
    n: usize,
    state: Monitor<BarrierState>,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
}

impl Barrier {
    /// A barrier for `n` participants.
    pub const fn new(n: usize) -> Self {
        Self {
            n,
            state: Monitor::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
        }
    }

    /// Block until all `n` participants have called `wait`.
    pub fn wait(&self) {
        let mut s = self.state.lock();
        let generation = s.generation;
        s.arrived += 1;
        if s.arrived == self.n {
            s.arrived = 0;
            s.generation += 1;
            self.state.notify(&mut s);
        } else {
            while s.generation == generation {
                s = self.state.wait(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Seeded producer delays, in `spin_loop` iterations, spread over the
    /// three phases of a consumer's `wait_until`: still polling, between
    /// yields, and asleep. Counts, not sleeps: the verdict (no hang, right
    /// values) does not depend on how long an iteration takes.
    fn delays(rounds: u64) -> impl Iterator<Item = u64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..rounds).map(move |r| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Cycle the magnitude so every round hits a different phase.
            x % [1, 8, 64, 512, 4096, 32_768, 262_144][(r % 7) as usize]
        })
    }

    fn spin(n: u64) {
        for _ in 0..n {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn ten_thousand_back_to_back_regions_sum_correctly() {
        for round in 0..10_000usize {
            let n = 2 + round % 4;
            let sum = AtomicUsize::new(0);
            let seen = AtomicUsize::new(0);
            run(n, |i| {
                sum.fetch_add(round + i, Ordering::Relaxed);
                seen.fetch_or(1 << i, Ordering::Relaxed);
            });
            assert_eq!(seen.into_inner(), (1 << n) - 1, "round {round}");
            assert_eq!(sum.into_inner(), n * round + n * (n - 1) / 2);
        }
    }

    #[test]
    fn members_are_distinct_live_threads() {
        // Every member blocks until all have arrived: with fewer than n
        // distinct threads this never returns.
        let barrier = Barrier::new(5);
        let ids = Mutex::new(Vec::new());
        run(5, |_| {
            barrier.wait();
            ids.lock().unwrap().push(thread::current().id());
            barrier.wait();
        });
        let ids: std::collections::HashSet<_> = ids.into_inner().unwrap().into_iter().collect();
        assert!(ids.contains(&thread::current().id()), "caller is a member");
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn a_member_may_open_its_own_region() {
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            run(3, |_| {
                let inner = Barrier::new(2);
                run(2, |_| {
                    inner.wait();
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
        assert_eq!(total.into_inner(), 200 * 3 * 2);
    }

    #[test]
    fn regions_from_concurrent_callers_do_not_mix() {
        thread::scope(|s| {
            for caller in 0..4usize {
                s.spawn(move || {
                    for round in 0..500 {
                        let barrier = Barrier::new(3);
                        let sum = AtomicUsize::new(0);
                        run(3, |i| {
                            barrier.wait();
                            sum.fetch_add(caller * 1000 + round + i, Ordering::Relaxed);
                        });
                        assert_eq!(sum.into_inner(), 3 * (caller * 1000 + round) + 3);
                    }
                });
            }
        });
    }

    /// A panic in `who` reaches the caller, and not before the other
    /// members — still busy when it is raised — are done with the
    /// borrowed stack.
    fn panic_waits_for_the_rest(who: usize) {
        let raised = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run(4, |i| {
                if i == who {
                    raised.store(true, Ordering::Release);
                    panic!("member {i} fails");
                }
                while !raised.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                spin(20_000);
                finished.fetch_add(1, Ordering::Release);
            })
        }));
        let payload = outcome.expect_err("the panic surfaces on the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(format!("member {who} fails").as_str())
        );
        assert_eq!(finished.load(Ordering::Acquire), 3);
        // The crew is still usable, including the worker that panicked.
        let sum = AtomicUsize::new(0);
        run(4, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 6);
    }

    #[test]
    fn a_worker_panic_surfaces_after_every_member_stopped() {
        panic_waits_for_the_rest(2);
    }

    #[test]
    fn a_caller_panic_surfaces_after_every_member_stopped() {
        panic_waits_for_the_rest(0);
    }

    #[test]
    fn wait_until_loses_no_wakeup_at_any_producer_delay() {
        // Ping-pong through two counters, each side waking the other
        // with park/unpark exactly as the crew's hand-off and latch do.
        let ping = AtomicU64::new(0);
        let pong = AtomicU64::new(0);
        let rounds = 3000;
        thread::scope(|s| {
            let main = thread::current();
            let (ping, pong) = (&ping, &pong);
            let peer = s.spawn(move || {
                for (r, d) in delays(rounds).enumerate() {
                    let r = r as u64 + 1;
                    wait_until(|| ping.load(Ordering::Acquire) == r, thread::park);
                    spin(d / 3);
                    pong.store(r, Ordering::Release);
                    main.unpark();
                }
            });
            for (r, d) in delays(rounds).enumerate() {
                let r = r as u64 + 1;
                spin(d);
                ping.store(r, Ordering::Release);
                peer.thread().unpark();
                wait_until(|| pong.load(Ordering::Acquire) == r, thread::park);
            }
        });
        assert_eq!(pong.into_inner(), rounds);
    }

    #[test]
    fn monitor_loses_no_wakeup_at_any_producer_delay() {
        let m = Monitor::new((0u64, 0u64));
        let rounds = 3000;
        thread::scope(|s| {
            let m = &m;
            s.spawn(move || {
                for (r, d) in delays(rounds).enumerate() {
                    let r = r as u64 + 1;
                    let mut g = m.lock();
                    while g.0 != r {
                        g = m.wait(g);
                    }
                    drop(g);
                    spin(d / 3);
                    let mut g = m.lock();
                    g.1 = r;
                    m.notify(&mut g);
                }
            });
            for (r, d) in delays(rounds).enumerate() {
                let r = r as u64 + 1;
                spin(d);
                let mut g = m.lock();
                g.0 = r;
                m.notify(&mut g);
                while g.1 != r {
                    g = m.wait(g);
                }
            }
        });
        assert_eq!(*m.lock(), (rounds, rounds));
    }

    #[test]
    fn monitor_timed_wait_returns_without_a_notify() {
        let m = Monitor::new(());
        let t0 = std::time::Instant::now();
        drop(m.wait_for(m.lock(), Duration::from_millis(2)));
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn barrier_separates_every_generation() {
        // Each thread adds 1 per phase; after the barrier of phase p every
        // thread must see exactly n·p, for many phases on one barrier.
        let n = 4;
        let barrier = Barrier::new(n);
        let count = AtomicUsize::new(0);
        run(n, |i| {
            for (p, d) in delays(2000).enumerate() {
                if i == p % n {
                    spin(d / 8);
                }
                count.fetch_add(1, Ordering::AcqRel);
                barrier.wait();
                assert_eq!(count.load(Ordering::Acquire), n * (p + 1));
                barrier.wait();
            }
        });
    }
}
