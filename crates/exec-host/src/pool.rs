//! Persistent gang worker pool with a low-overhead fork-join barrier.
//!
//! A *launch* runs a kernel body over `gangs` contiguous z-slabs of
//! `[0, n)`. The slab map is a pure function of `(n, gangs, g)` — see
//! [`slab_bounds`] — so results are bitwise independent of which worker
//! executes which slab, and a launch over 16 gangs on a 2-core machine
//! produces exactly the bits of a sequential sweep.
//!
//! ## Why not `std::thread::scope` per launch
//!
//! The propagator drivers issue one launch per kernel per time step; a
//! production run is millions of launches. Spawning and joining OS threads
//! for each one costs hundreds of microseconds — comparable to the kernel
//! body itself on small and medium grids. The pool keeps its workers
//! between launches; a launch bumps a generation counter (the *epoch*) and
//! workers claim slabs from an atomic counter until none remain. A launch
//! allocates nothing, which is what the counting-allocator test in
//! `rtm-core` pins down.
//!
//! ## Spin, then park
//!
//! A short 2-D step is tens of microseconds, and a driver issues the next
//! launch a few microseconds after the last one returns. Waking a worker
//! parked on a futex costs a syscall on the caller and a scheduler (on a
//! VM, a vCPU) wake-up on the worker — as long as the launch itself. So
//! both sides of the barrier spin for `SPIN_WINDOW` (100 µs) before they
//! park:
//!
//! * an idle worker spins on a lock-free mirror of the epoch, then parks
//!   on the work condvar, counted in `sleepers` under the control mutex;
//! * the caller publishes a launch under the control mutex and calls
//!   `notify_all` only when `sleepers` is non-zero;
//! * after its own claim loop the caller retires the launch (no worker
//!   may join it any more) and spins on the in-flight count — the workers
//!   still holding the job — then parks on the done condvar, flagged in
//!   `caller_parked`; the worker that drains the count notifies only a
//!   parked caller.
//!
//! Every flag a notifier reads is written under the control mutex by the
//! thread about to wait, so no wakeup is lost; `tests/loom_pool.rs` checks
//! that under bounded schedule exploration. A worker that sees an epoch
//! already retired (the caller ran every slab before the worker looked)
//! skips it and goes back to spinning. Spinning is bounded by wall time,
//! so an idle pool goes quiet within the window.
//!
//! ## Concurrency discipline
//!
//! One launch runs at a time per pool. Concurrent callers (e.g. shots
//! running in parallel on `mpi-sim` ranks, each issuing gang launches) do
//! not queue: a caller that finds the pool busy simply executes its own
//! slabs inline, sequentially, in slab order — the deterministic slab map
//! makes that fall-back bit-identical, and shot-level threads already own
//! the cores. The same inline path serves nested launches and single-gang
//! launches.

use std::cell::UnsafeCell;
use std::time::Duration;

/// Synchronization primitives, swappable for `loom`'s model-checked
/// versions: build with `RUSTFLAGS="--cfg loom"` and the pool's barrier
/// protocol runs under bounded schedule exploration (see
/// `tests/loom_pool.rs`) instead of real threads.
#[cfg(not(loom))]
mod sys {
    pub use std::sync::atomic::{AtomicUsize, Ordering};
    pub use std::sync::{Condvar, Mutex};
    pub use std::thread;
}

#[cfg(loom)]
mod sys {
    pub use loom::sync::atomic::{AtomicUsize, Ordering};
    pub use loom::sync::{Condvar, Mutex};
    pub use loom::thread;
}

use sys::{thread, AtomicUsize, Condvar, Mutex, Ordering};

/// How long an idle worker, or a caller at the barrier, spins before it
/// parks: a few short launches' worth, so back-to-back launches find the
/// workers hot and an idle pool stops burning cores almost at once.
#[cfg(not(loom))]
const SPIN_WINDOW: Duration = Duration::from_micros(100);

/// Spinning never makes progress under the serialized model scheduler
/// (no other thread runs while we spin), so park at once.
#[cfg(loom)]
const SPIN_WINDOW: Duration = Duration::ZERO;

#[cfg(not(loom))]
use std::sync::OnceLock;

// Wall-clock profiling hooks. Compiled out of loom model-check builds: the
// profiler uses real `Instant`/`thread_local!` state that loom cannot
// model, and the barrier protocol under test is unchanged by it (recording
// never branches the schedule).
#[cfg(not(loom))]
use crate::prof;
#[cfg(not(loom))]
use std::sync::atomic::AtomicU64;

type JoinHandle = thread::JoinHandle<()>;

/// Bounds `(z0, z1)` of slab `g` when `[0, n)` is split over `gangs`
/// contiguous chunks, remainder spread over the leading gangs — the same
/// partition the sequential reference loop produces.
#[inline]
pub fn slab_bounds(n: usize, gangs: usize, g: usize) -> (usize, usize) {
    debug_assert!(g < gangs);
    let base = n / gangs;
    let rem = n % gangs;
    let z0 = g * base + g.min(rem);
    let z1 = z0 + base + usize::from(g < rem);
    (z0, z1)
}

/// Spin until `ready()` holds or `SPIN_WINDOW` has passed; returns
/// whether it holds. With a zero window it looks once and reads no clock.
fn spin_until(mut ready: impl FnMut() -> bool) -> bool {
    if SPIN_WINDOW.is_zero() {
        return ready();
    }
    let start = std::time::Instant::now();
    loop {
        // Read the clock once per batch of polls, not once per poll.
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN_WINDOW {
            return false;
        }
    }
}

/// The body of one launch: `(gang index, z0, z1)`.
type Body<'a> = &'a (dyn Fn(usize, usize, usize) + Sync);

/// Type-erased job descriptor published to the workers for one launch.
#[derive(Clone, Copy)]
struct JobDesc {
    /// Fat pointer to the launch body. Valid only between the epoch bump
    /// that publishes it and the in-flight drain that retires it; the
    /// launching caller blocks across that whole window.
    body: *const (dyn Fn(usize, usize, usize) + Sync),
    n: usize,
    gangs: usize,
}

/// State guarded by the control mutex.
struct Ctl {
    /// Launch generation; workers run at most one claim loop per epoch.
    /// Mirrored in [`Shared::epoch`] for spinning workers.
    epoch: usize,
    /// True while a launch is published and workers may still join it.
    active: bool,
    /// Workers parked on `work_cv`.
    sleepers: usize,
    /// True while the launching caller is parked on `done_cv`.
    caller_parked: bool,
    /// Tells workers to exit (pool drop — test pools only; the global pool
    /// lives for the process).
    shutdown: bool,
}

struct Shared {
    ctl: Mutex<Ctl>,
    /// Idle workers park here once their spin window has passed.
    work_cv: Condvar,
    /// The launching caller parks here waiting for the in-flight drain.
    done_cv: Condvar,
    /// `ctl.epoch`, stored under the control mutex whenever it changes and
    /// read without it by spinning workers.
    epoch: AtomicUsize,
    /// Next slab index to claim (may overshoot `gangs`; harmless).
    claim: AtomicUsize,
    /// Workers holding the job pointer: incremented under the control
    /// mutex while the launch is active, decremented (`Release`) after the
    /// worker's last slab, so a caller that reads 0 (`Acquire`) after
    /// retiring the launch sees every slab's writes.
    in_flight: AtomicUsize,
    /// Current job. Written by the caller before the epoch bump, read by
    /// workers under the control mutex only while `active`.
    job: UnsafeCell<Option<JobDesc>>,
    /// Wall-clock stamp (ns since the profiler epoch) of the most recent
    /// job publish; workers subtract it from their pickup time to measure
    /// wake latency. Written before the epoch bump (the control mutex
    /// orders it for readers); 0 = profiler off at publish time.
    #[cfg(not(loom))]
    publish_ns: AtomicU64,
}

// SAFETY: `job` is only written while no launch is active (enforced by the
// launch mutex + in-flight drain) and only read under the control mutex by
// workers that observed `active` for a fresh epoch. Every other field is a
// mutex, condvar or atomic.
unsafe impl Sync for Shared {}
unsafe impl Send for Shared {}

/// A persistent pool of gang workers. See the module docs for the launch
/// protocol. Obtain the process-wide instance with [`GangPool::global`];
/// dedicated instances ([`GangPool::new`]) exist for tests and benches.
pub struct GangPool {
    shared: &'static Shared,
    workers: Vec<JoinHandle>,
    /// Serializes launches; contended callers run inline.
    launch: Mutex<()>,
    /// Total launches that went through the worker barrier.
    pooled_launches: AtomicUsize,
    /// Total launches executed inline (single gang, busy pool, no workers).
    inline_launches: AtomicUsize,
}

impl GangPool {
    /// Pool with exactly `workers` worker threads (the launching caller
    /// always participates as one extra executor).
    pub fn new(workers: usize) -> Self {
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            ctl: Mutex::new(Ctl {
                epoch: 0,
                active: false,
                sleepers: 0,
                caller_parked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epoch: AtomicUsize::new(0),
            claim: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            job: UnsafeCell::new(None),
            #[cfg(not(loom))]
            publish_ns: AtomicU64::new(0),
        }));
        let workers = (0..workers)
            .map(|i| {
                thread::Builder::new()
                    .name(format!("gang-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn gang worker")
            })
            .collect();
        Self {
            shared,
            workers,
            launch: Mutex::new(()),
            pooled_launches: AtomicUsize::new(0),
            inline_launches: AtomicUsize::new(0),
        }
    }

    /// The process-wide pool, created on first use with one worker per
    /// available core beyond the caller's (capped at 15 workers — the
    /// OpenACC gang clamp), so a launch of G gangs uses
    /// `min(G, cores)` threads and queues the rest through the claim
    /// counter.
    #[cfg(not(loom))]
    pub fn global() -> &'static GangPool {
        static POOL: OnceLock<GangPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            GangPool::new(cores.saturating_sub(1).min(15))
        })
    }

    /// Number of worker threads (excludes the launching caller).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Thread ids of the workers — lets tests verify that back-to-back
    /// launches reuse the same OS threads.
    #[cfg(not(loom))]
    pub fn worker_ids(&self) -> Vec<std::thread::ThreadId> {
        self.workers.iter().map(|h| h.thread().id()).collect()
    }

    /// Launches executed through the worker barrier so far.
    pub fn pooled_launches(&self) -> usize {
        self.pooled_launches.load(Ordering::Relaxed)
    }

    /// Launches executed inline (single gang, contended, or worker-less).
    pub fn inline_launches(&self) -> usize {
        self.inline_launches.load(Ordering::Relaxed)
    }

    /// Workers parked on the work condvar right now.
    #[cfg(test)]
    fn parked_workers(&self) -> usize {
        self.shared.ctl.lock().expect("pool poisoned").sleepers
    }

    /// Run `body(g, z0, z1)` for every slab of `[0, n)` split over `gangs`.
    ///
    /// Bit-identical to the sequential loop `for g in 0..gangs { body(g,
    /// slab_bounds(..)) }` for any body that writes only state owned by its
    /// slab (the `SyncSlice` discipline). Allocation-free after the pool
    /// exists.
    pub fn run(&self, n: usize, gangs: usize, body: Body<'_>) {
        assert!(gangs > 0, "need at least one gang");
        if n == 0 {
            return;
        }
        let gangs = gangs.min(n);
        if gangs == 1 || self.workers.is_empty() {
            self.run_inline(n, gangs, body);
            return;
        }
        // One launch at a time: a busy pool means another thread's gangs own
        // the cores right now, so computing our slabs inline is both correct
        // (deterministic slab map) and the right scheduling call.
        let Ok(_guard) = self.launch.try_lock() else {
            self.run_inline(n, gangs, body);
            return;
        };
        self.pooled_launches.fetch_add(1, Ordering::Relaxed);
        let shared = self.shared;
        // SAFETY: the fat pointer is only dereferenced while this call
        // blocks; the drain below guarantees no worker retains it.
        let erased: *const (dyn Fn(usize, usize, usize) + Sync) = unsafe {
            std::mem::transmute::<Body<'_>, *const (dyn Fn(usize, usize, usize) + Sync)>(body)
        };
        shared.claim.store(0, Ordering::Relaxed);
        // SAFETY: no launch is active (we hold the launch mutex and the
        // previous launch drained in_flight to zero), so no worker can read
        // `job` concurrently with this write.
        unsafe {
            *shared.job.get() = Some(JobDesc {
                body: erased,
                n,
                gangs,
            });
        }
        // Stamp the publish time so workers can report wake latency. The
        // control-mutex handoff below orders this store before any worker
        // reads it for the new epoch; 0 marks "profiler was off".
        #[cfg(not(loom))]
        shared.publish_ns.store(
            if prof::enabled() { prof::now_ns() } else { 0 },
            std::sync::atomic::Ordering::Relaxed,
        );
        {
            let mut ctl = shared.ctl.lock().expect("pool poisoned");
            ctl.epoch = ctl.epoch.wrapping_add(1);
            ctl.active = true;
            shared.epoch.store(ctl.epoch, Ordering::Release);
            // Spinning workers see the mirror; only parked ones need a wake.
            if ctl.sleepers > 0 {
                shared.work_cv.notify_all();
            }
        }
        // The caller is an executor too: claim slabs until none remain.
        loop {
            let g = shared.claim.fetch_add(1, Ordering::Relaxed);
            if g >= gangs {
                break;
            }
            let (z0, z1) = slab_bounds(n, gangs, g);
            #[cfg(not(loom))]
            let t_slab = prof::begin();
            body(g, z0, z1);
            #[cfg(not(loom))]
            prof::end(t_slab, prof::EventKind::Slab, g as u32, (z1 - z0) as u32);
        }
        // Fork-join barrier. Every slab is claimed, so retire the launch:
        // no worker may join it any more. Then wait for the workers that
        // did join to leave their claim loops — each finishes its slab
        // before it leaves, so a drained count means every slab is done.
        #[cfg(not(loom))]
        let t_barrier = prof::begin();
        shared.ctl.lock().expect("pool poisoned").active = false;
        let drained = || shared.in_flight.load(Ordering::Acquire) == 0;
        if !spin_until(drained) {
            let mut ctl = shared.ctl.lock().expect("pool poisoned");
            ctl.caller_parked = true;
            while !drained() {
                ctl = shared.done_cv.wait(ctl).expect("pool poisoned");
            }
            ctl.caller_parked = false;
        }
        #[cfg(not(loom))]
        prof::end(t_barrier, prof::EventKind::BarrierWait, gangs as u32, 0);
        // SAFETY: the launch is retired and in_flight drained (`Acquire`,
        // pairing with each worker's `Release` decrement): no reader left.
        unsafe {
            *shared.job.get() = None;
        }
    }

    /// Sequential in-caller execution with the same slab map.
    fn run_inline(&self, n: usize, gangs: usize, body: Body<'_>) {
        self.inline_launches.fetch_add(1, Ordering::Relaxed);
        for g in 0..gangs {
            let (z0, z1) = slab_bounds(n, gangs, g);
            #[cfg(not(loom))]
            let t_slab = prof::begin();
            body(g, z0, z1);
            #[cfg(not(loom))]
            prof::end(t_slab, prof::EventKind::Slab, g as u32, (z1 - z0) as u32);
        }
    }
}

/// Run `body(z0, z1)` over `gangs` contiguous chunks of `[0, n)` on the
/// process-wide [`GangPool`]. The body must only write state owned by its
/// chunk (the `SyncSlice` discipline of `seismic-grid`).
///
/// One gang runs the body inline over the whole range — the sequential
/// reference. Any gang count produces the same bits, because the slab
/// map is a pure function of `(n, gangs, g)`. Each launch records one
/// [`prof::EventKind::Sweep`] span on the launching thread, the
/// single-gang shortcut included.
#[cfg(not(loom))]
pub fn par_slabs<F>(n: usize, gangs: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    assert!(gangs > 0, "need at least one gang");
    if n == 0 {
        return;
    }
    let gangs = gangs.min(n);
    let t_sweep = prof::begin();
    if gangs == 1 {
        body(0, n);
    } else {
        GangPool::global().run(n, gangs, &|_g, z0, z1| body(z0, z1));
    }
    prof::end(
        t_sweep,
        prof::EventKind::Sweep,
        gangs as u32,
        n.min(u32::MAX as usize) as u32,
    );
}

impl Drop for GangPool {
    fn drop(&mut self) {
        {
            let mut ctl = self.shared.ctl.lock().expect("pool poisoned");
            ctl.shutdown = true;
            // Bump the mirror too, so spinning workers look at once.
            ctl.epoch = ctl.epoch.wrapping_add(1);
            self.shared.epoch.store(ctl.epoch, Ordering::Release);
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The leaked Shared stays alive; pools are few and long-lived.
    }
}

fn worker_loop(shared: &'static Shared) {
    let mut seen_epoch = 0usize;
    loop {
        spin_until(|| shared.epoch.load(Ordering::Acquire) != seen_epoch);
        let desc = {
            let mut ctl = shared.ctl.lock().expect("pool poisoned");
            loop {
                if ctl.shutdown {
                    return;
                }
                if ctl.epoch != seen_epoch {
                    seen_epoch = ctl.epoch;
                    if !ctl.active {
                        // Retired before we looked: the caller ran every
                        // slab. Skip it and spin for the next launch.
                        break None;
                    }
                    shared.in_flight.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: read under the control mutex while active.
                    break Some(unsafe { (*shared.job.get()).expect("active launch has a job") });
                }
                ctl.sleepers += 1;
                ctl = shared.work_cv.wait(ctl).expect("pool poisoned");
                ctl.sleepers -= 1;
            }
        };
        let Some(desc) = desc else {
            continue;
        };
        // Wake latency: publish stamp (caller clock) → here (worker clock).
        // The stamp was stored before the epoch bump we just observed under
        // the control mutex, so it happens-before this read; `Instant` is
        // monotonic across threads, making the span well-formed.
        #[cfg(not(loom))]
        if prof::enabled() {
            let stamp = shared.publish_ns.load(std::sync::atomic::Ordering::Relaxed);
            let now = prof::now_ns();
            if stamp != 0 && stamp <= now {
                prof::span_ns(prof::EventKind::Wake, seen_epoch as u32, 0, stamp, now);
            }
        }
        // SAFETY: the caller blocks until in_flight drains, so the body
        // outlives this claim loop.
        let body: Body<'_> = unsafe { &*desc.body };
        loop {
            let g = shared.claim.fetch_add(1, Ordering::Relaxed);
            if g >= desc.gangs {
                break;
            }
            let (z0, z1) = slab_bounds(desc.n, desc.gangs, g);
            #[cfg(not(loom))]
            let t_slab = prof::begin();
            body(g, z0, z1);
            #[cfg(not(loom))]
            prof::end(t_slab, prof::EventKind::Slab, g as u32, (z1 - z0) as u32);
        }
        // Release: this worker's slab writes happen-before the caller's
        // `Acquire` read of the drained count.
        if shared.in_flight.fetch_sub(1, Ordering::Release) == 1 {
            let ctl = shared.ctl.lock().expect("pool poisoned");
            if ctl.caller_parked {
                shared.done_cv.notify_all();
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn slab_bounds_partition_exactly() {
        for n in [0usize, 1, 2, 3, 7, 64, 103, 1000] {
            for gangs in [1usize, 2, 3, 7, 16] {
                if n == 0 {
                    continue;
                }
                let gangs = gangs.min(n);
                let mut z = 0usize;
                for g in 0..gangs {
                    let (z0, z1) = slab_bounds(n, gangs, g);
                    assert_eq!(z0, z, "n={n} gangs={gangs} g={g}");
                    assert!(z1 > z0);
                    z = z1;
                }
                assert_eq!(z, n);
            }
        }
    }

    #[test]
    fn covers_range_exactly_once_through_pool() {
        let pool = GangPool::new(3);
        let n = 103;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, 7, &|_, z0, z1| {
            for h in &hits[z0..z1] {
                h.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn many_back_to_back_launches() {
        let pool = GangPool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run(32, 4, &|_, z0, z1| {
                total.fetch_add(z1 - z0, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 500 * 32);
    }

    /// Back-to-back launches run on the same parked workers: no worker is
    /// spawned after construction, and every non-caller thread id observed
    /// during either launch belongs to the pool's original worker set.
    #[test]
    fn launches_reuse_the_same_workers() {
        let pool = GangPool::new(2);
        let allowed: HashSet<_> = pool.worker_ids().into_iter().collect();
        assert_eq!(pool.worker_count(), 2);
        let seen = StdMutex::new(Vec::<HashSet<std::thread::ThreadId>>::new());
        for _ in 0..2 {
            let ids = StdMutex::new(HashSet::new());
            pool.run(64, 8, &|_, _, _| {
                ids.lock().unwrap().insert(std::thread::current().id());
                // Give parked workers time to wake and claim a slab.
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            seen.lock().unwrap().push(ids.into_inner().unwrap());
        }
        let caller = std::thread::current().id();
        for ids in seen.lock().unwrap().iter() {
            for id in ids {
                assert!(
                    *id == caller || allowed.contains(id),
                    "launch ran on a thread outside the persistent pool"
                );
            }
        }
        // Still the same two workers — nothing was spawned per launch.
        assert_eq!(pool.worker_count(), 2);
        assert_eq!(
            allowed,
            pool.worker_ids().into_iter().collect::<HashSet<_>>()
        );
        assert_eq!(pool.pooled_launches(), 2);
    }

    /// A caller that finds the pool busy falls back to inline execution and
    /// still covers its range exactly.
    #[test]
    fn contended_launches_fall_back_inline() {
        let pool: &'static GangPool = Box::leak(Box::new(GangPool::new(1)));
        let sum = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        pool.run(64, 4, &|_, z0, z1| {
                            sum.fetch_add(z1 - z0, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4 * 50 * 64);
    }

    #[test]
    fn zero_rows_is_a_no_op_and_gangs_clamp() {
        let pool = GangPool::new(1);
        pool.run(0, 4, &|_, _, _| panic!("must not run"));
        let count = AtomicUsize::new(0);
        pool.run(3, 16, &|_, z0, z1| {
            assert_eq!(z1 - z0, 1);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    /// An idle pool goes quiet: once the spin window has passed, every
    /// worker is parked on the work condvar, and a launch still wakes them.
    #[test]
    fn idle_workers_park_after_the_spin_window() {
        let pool = GangPool::new(2);
        let wait_parked = |want: usize| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while pool.parked_workers() < want {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{} of {want} workers parked after 10 s",
                    pool.parked_workers()
                );
                std::thread::sleep(SPIN_WINDOW);
            }
        };
        wait_parked(2);
        let total = AtomicUsize::new(0);
        pool.run(64, 8, &|_, z0, z1| {
            total.fetch_add(z1 - z0, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
        wait_parked(2);
    }

    /// Nested launches (a body that launches again) run inline rather than
    /// deadlocking on the launch mutex.
    #[test]
    fn nested_launch_runs_inline() {
        let pool: &'static GangPool = Box::leak(Box::new(GangPool::new(1)));
        let count = AtomicUsize::new(0);
        pool.run(4, 2, &|_, _, _| {
            pool.run(4, 2, &|_, z0, z1| {
                count.fetch_add(z1 - z0, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }
}
