//! The steady-state time loops allocate nothing after warm-up.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after the
//! drivers' buffers exist (state, seismogram, preallocated snapshot
//! slots), a full per-step iteration — kernel step, source injection,
//! receiver recording, snapshot write — must perform zero heap
//! allocations. This is the write-into (`copy_from`) acceptance criterion
//! of the host execution engine made mechanical: any `clone()` or `Vec` growth
//! sneaking back into the hot loop fails this test immediately. A dense
//! RTM shot must also make as many allocations at 32 snapshots as at 16:
//! its snapshot set is one buffer, whatever the snapshot count.
//!
//! The whole check lives in ONE test fn: the counter is process-global, so
//! a sibling test allocating concurrently would pollute the window.
//!
//! Counting is opt-in per thread (the test thread flips `COUNT_ME`): the
//! libtest harness's main thread lazily allocates its mpsc receiver
//! context (48 B + 96 B) the first time its `recv` blocks, and on a
//! loaded single-core machine that one-time init lands mid-window often
//! enough to make an all-threads counter flaky. The driver code under
//! test — kernel launches included — runs on the calling thread, so the
//! per-thread scope loses nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
// Window-relative diagnostic breadcrumbs: sizes of the first few
// allocations after `WINDOW_BASE`, so a failure names its culprit instead
// of just a count.
static WINDOW_BASE: AtomicUsize = AtomicUsize::new(usize::MAX);
static SIZES: [AtomicUsize; 8] = [const { AtomicUsize::new(0) }; 8];

thread_local! {
    // Const-init + no Drop: reading this inside the allocator allocates
    // nothing and registers no TLS destructor.
    static COUNT_ME: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize) {
    if !COUNT_ME.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    let i = ALLOCS.fetch_add(1, Ordering::Relaxed);
    let base = WINDOW_BASE.load(Ordering::Relaxed);
    if i >= base {
        if let Some(s) = SIZES.get(i - base) {
            s.store(size, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use rtm_core::modeling::{Medium2, State2};
use rtm_core::rtm::run_rtm;
use rtm_core::OptimizationConfig;
use seismic_grid::cfl::stable_dt;
use seismic_grid::Field2;
use seismic_model::builder::{acoustic2_layered, iso2_constant, standard_layers};
use seismic_model::{extent2, Geometry};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_source::{Acquisition2, Seismogram, Wavelet};

fn media(n: usize) -> Vec<(&'static str, Medium2)> {
    let e = extent2(n, n);
    let h = 10.0;
    let d = DampProfile::new(n, e.halo, 10, 2000.0, h, 1e-4);
    let cp = CpmlAxis::new(
        n,
        e.halo,
        10,
        stable_dt(8, 2, 3200.0, h, 0.6),
        3200.0,
        h,
        1e-4,
    );
    vec![
        (
            "iso",
            Medium2::Iso {
                model: iso2_constant(
                    e,
                    2000.0,
                    Geometry::uniform(h, stable_dt(8, 2, 2000.0, h, 0.8)),
                ),
                damp_x: d.clone(),
                damp_z: d,
            },
        ),
        (
            "acoustic",
            Medium2::Acoustic {
                model: acoustic2_layered(
                    e,
                    &standard_layers(n),
                    Geometry::uniform(h, stable_dt(8, 2, 3200.0, h, 0.6)),
                ),
                cpml: [cp.clone(), cp],
            },
        ),
    ]
}

#[test]
fn modeling_step_loop_is_allocation_free_after_warmup() {
    COUNT_ME.with(|c| c.set(true));
    let n = 48;
    let gangs = 3;
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(22.0);
    for (name, medium) in media(n) {
        let acq = Acquisition2::surface_line(n, n / 2, n / 2, 2, 6);
        let dt = medium.dt();
        let mut state = State2::new(&medium);
        let mut seismogram = Seismogram::zeros(acq.n_receivers(), 64);
        let mut snap = Field2::zeros(medium.extent());

        // Warm-up: the pool's workers spawn lazily on the first launch, and
        // lazy one-time init anywhere below must happen outside the window.
        for t in 0..4usize {
            state.step(&medium, &cfg, gangs);
            state.inject(&medium, acq.src_ix, acq.src_iz, w.sample(t as f32 * dt));
            for (r, rcv) in acq.receivers.iter().enumerate() {
                seismogram.record(r, t, state.sample(rcv.ix, rcv.iz));
            }
            state.snapshot(&mut snap, gangs);
        }

        // Measured window: the exact per-step body of `run_modeling`.
        let before = ALLOCS.load(Ordering::SeqCst);
        WINDOW_BASE.store(before, Ordering::SeqCst);
        for t in 4..24usize {
            state.step(&medium, &cfg, gangs);
            state.inject(&medium, acq.src_ix, acq.src_iz, w.sample(t as f32 * dt));
            for (r, rcv) in acq.receivers.iter().enumerate() {
                seismogram.record(r, t, state.sample(rcv.ix, rcv.iz));
            }
            state.snapshot(&mut snap, gangs);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        WINDOW_BASE.store(usize::MAX, Ordering::SeqCst);
        let recent: Vec<usize> = SIZES.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        assert_eq!(
            after - before,
            0,
            "{name}: steady-state step loop allocated {} times (recent sizes ring: {recent:?})",
            after - before
        );

        // Checkpoint-slot reuse: storing/restoring through `copy_from`
        // allocates nothing once the slot exists.
        let mut slot = State2::new(&medium);
        slot.copy_from(&state);
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..16 {
            slot.copy_from(&state);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(after - before, 0, "{name}: copy_from allocated");

        // Snapshot storage: one allocation per shot, whatever its count.
        let rtm_allocs = |steps: usize| {
            let before = ALLOCS.load(Ordering::SeqCst);
            run_rtm(&medium, &acq, &w, &cfg, steps, 3, gangs);
            ALLOCS.load(Ordering::SeqCst) - before
        };
        let (short, long) = (rtm_allocs(48), rtm_allocs(96));
        assert_eq!(
            short, long,
            "{name}: a dense RTM shot allocated {short} times at 16 snapshots, {long} at 32"
        );
    }
}
