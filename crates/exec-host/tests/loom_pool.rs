//! Bounded model check of the gang pool's epoch fork-join barrier.
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p exec-host --release
//! --test loom_pool`. Under `--cfg loom` the pool's `sys` module swaps
//! `std::sync` for the model-checked primitives in the `loom` shim, and
//! the spin window is zero, so every wait parks: each launch runs under
//! many explored schedules (cooperative, round-robin, and seeded-random
//! interleavings at every sync op), and the checker turns a lost wakeup —
//! a worker parked on the epoch condvar that no notify reaches, or a
//! caller parked on the done condvar after the last worker left — into a
//! detected deadlock instead of a CI hang.
//!
//! Scenarios:
//!
//! * **two workers × two and three back-to-back epochs.** Later epochs
//!   reuse the same condvars and the same parked threads, and the caller
//!   notifies only when a worker is counted as parked, so a worker that
//!   misses the `epoch` bump or a caller that misses the drain notify
//!   hangs here. The body asserts that every slab is claimed exactly once
//!   per epoch.
//! * **a retired epoch, then a launch that needs a worker.** The first
//!   launch's caller runs every slab before the worker looks (in the
//!   cooperative schedule always, in others sometimes), so the worker
//!   finds the epoch retired, skips it and parks. The next launch's two
//!   slabs wait for each other, so it completes only if that worker is
//!   woken and joins.

#![cfg(loom)]

use exec_host::pool::GangPool;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};

const WORKERS: usize = 2;
const SLABS: usize = 3;
const ROWS: usize = 6;

/// `epochs` launches back to back on a fresh two-worker pool.
fn back_to_back(epochs: usize) {
    loom::model(move || {
        let pool = GangPool::new(WORKERS);
        for epoch in 0..epochs {
            // One claim counter per row: a slab claimed twice would bump a
            // row past 1, a lost slab would leave one at 0.
            let hits: Arc<Vec<AtomicUsize>> =
                Arc::new((0..ROWS).map(|_| AtomicUsize::new(0)).collect());
            let h = Arc::clone(&hits);
            pool.run(ROWS, SLABS, &move |_, z0, z1| {
                for row in &h[z0..z1] {
                    row.fetch_add(1, Ordering::SeqCst);
                }
            });
            // The barrier returned: every slab ran exactly once, on some
            // thread, under every explored schedule.
            for (row, hit) in hits.iter().enumerate() {
                assert_eq!(
                    hit.load(Ordering::SeqCst),
                    1,
                    "epoch {epoch}: row {row} not covered exactly once"
                );
            }
        }
        assert_eq!(
            pool.pooled_launches() + pool.inline_launches(),
            epochs,
            "every launch must retire"
        );
        // Dropping the pool joins the workers: shutdown must not lose the
        // wakeup either.
        drop(pool);
    });
}

#[test]
fn epoch_barrier_two_workers_two_epochs() {
    back_to_back(2);
}

#[test]
fn epoch_barrier_two_workers_three_epochs() {
    back_to_back(3);
}

#[test]
fn retired_epoch_is_skipped_and_the_next_launch_wakes_the_worker() {
    loom::model(|| {
        let pool = GangPool::new(1);
        // Before the worker has run at all (cooperative schedule), the
        // caller claims both slabs and retires the launch.
        pool.run(2, 2, &|_, _, _| {});
        // Block the caller once, so the worker runs: it finds that epoch
        // retired, skips it and parks.
        loom::thread::spawn(|| {}).join().expect("helper thread");
        // Each slab waits until both have started: the launch completes
        // only if the worker joins it, so a worker left parked deadlocks.
        let met = Arc::new((Mutex::new(0usize), Condvar::new()));
        let m = Arc::clone(&met);
        pool.run(2, 2, &move |_, _, _| {
            let (count, cv) = &*m;
            let mut n = count.lock().expect("rendezvous");
            *n += 1;
            cv.notify_all();
            while *n < 2 {
                n = cv.wait(n).expect("rendezvous");
            }
        });
        assert_eq!(*met.0.lock().expect("rendezvous"), 2);
        assert_eq!(pool.pooled_launches(), 2);
        drop(pool);
    });
}
