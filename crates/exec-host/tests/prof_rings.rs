//! Span-ring behaviour of the wall-clock profiler: recording on and off,
//! span arguments and order, one ring per thread, ring overflow, and the
//! raw spans behind the per-worker summaries and phase totals (the roll-up
//! itself is tested where it lives, in `acc-obs::wallclock`).
//!
//! The profiler switch is process-global. These tests run in their own
//! process, where nothing else launches gangs or records, and each one
//! holds [`PROF_GATE`] so they do not see each other's events.

#![cfg(not(loom))]

use exec_host::prof::*;
use std::sync::{Mutex, MutexGuard};

static PROF_GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    PROF_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_records_nothing() {
    let _g = gate();
    set_enabled(false);
    drain();
    end(begin(), EventKind::Slab, 0, 8);
    span_ns(EventKind::Wake, 4, 64, 0, 10);
    assert!(drain().is_empty());
}

#[test]
fn spans_round_trip_with_args_and_order() {
    let _g = gate();
    set_enabled(true);
    drain();
    let t0 = begin();
    std::thread::sleep(std::time::Duration::from_millis(1));
    end(t0, EventKind::Slab, 3, 17);
    let ns = now_ns();
    span_ns(EventKind::Wake, 5, 128, ns, ns);
    set_enabled(false);
    let p = drain();
    assert_eq!(p.len(), 2);
    let evs = &p.slots[0].events;
    assert_eq!(evs[0].kind, EventKind::Slab);
    assert_eq!((evs[0].arg0, evs[0].arg1), (3, 17));
    assert!(evs[0].dur_ns() >= 1_000_000, "slept 1ms: {:?}", evs[0]);
    assert_eq!(evs[1].kind, EventKind::Wake);
    assert_eq!((evs[1].arg0, evs[1].arg1), (5, 128));
    assert!(evs[1].start_ns >= evs[0].end_ns);
    assert_eq!(evs[1].dur_ns(), 0);
    assert_eq!(p.dropped, 0);
}

#[test]
fn concurrent_threads_get_distinct_slots() {
    let _g = gate();
    set_enabled(true);
    drain();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for i in 0..100u32 {
                    end(begin(), EventKind::Slab, i, 1);
                }
            });
        }
    });
    set_enabled(false);
    let p = drain();
    assert_eq!(p.len(), 400);
    assert!(p.slots.len() >= 2, "threads must not share one ring");
    for s in &p.slots {
        // Per-slot streams are in record order.
        for w in s.events.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    }
}

#[test]
fn full_ring_drops_and_counts() {
    let _g = gate();
    set_enabled(true);
    drain();
    for _ in 0..RING_CAP + 10 {
        end(begin(), EventKind::Slab, 1, 64);
    }
    set_enabled(false);
    let p = drain();
    assert_eq!(p.len(), RING_CAP);
    assert_eq!(p.dropped, 10);
    // Drained rings are reusable.
    set_enabled(true);
    end(begin(), EventKind::Slab, 1, 64);
    set_enabled(false);
    let p = drain();
    assert_eq!(p.len(), 1);
    assert_eq!(p.dropped, 0);
}

#[test]
fn summaries_and_phase_totals() {
    // The rings keep everything the per-worker roll-up in
    // `acc-obs::wallclock::report` reads: kind, arguments and exact
    // timestamps of each span, on the slot of the thread that recorded it.
    let _g = gate();
    set_enabled(true);
    drain();
    span_ns(EventKind::Phase, PHASE_FORWARD, 0, 0, 3_000);
    span_ns(EventKind::Phase, PHASE_BACKWARD, 0, 3_000, 9_000);
    span_ns(EventKind::Phase, PHASE_IMAGING, 0, 4_000, 5_000);
    span_ns(EventKind::Slab, 0, 10, 100, 200);
    span_ns(EventKind::Slab, 1, 12, 200, 350);
    span_ns(EventKind::BarrierWait, 2, 0, 350, 400);
    span_ns(EventKind::Wake, 0, 0, 90, 120);
    set_enabled(false);
    let p = drain();
    assert_eq!(p.slots.len(), 1, "one recording thread, one slot");
    assert_eq!((p.dropped, p.thread_overflow), (0, 0));
    let evs = &p.slots[0].events;
    assert_eq!(evs.len(), 7);

    let mut totals = [0u64; 3];
    let (mut slabs, mut rows, mut busy, mut barrier, mut wake) = (0, 0, 0, 0, 0);
    for e in evs {
        match e.kind {
            EventKind::Phase => totals[e.arg0 as usize] += e.dur_ns(),
            EventKind::Slab => {
                slabs += 1;
                rows += u64::from(e.arg1);
                busy += e.dur_ns();
            }
            EventKind::BarrierWait => barrier += e.dur_ns(),
            EventKind::Wake => wake += e.dur_ns(),
            EventKind::Sweep => unreachable!("no sweep was recorded"),
        }
    }
    assert_eq!(totals, [3_000, 6_000, 1_000]);
    assert_eq!(slabs, 2);
    assert_eq!(rows, 22);
    assert_eq!(busy, 100 + 150);
    assert_eq!(barrier, 50);
    assert_eq!(wake, 30);
    let lo = evs.iter().map(|e| e.start_ns).min().unwrap();
    let hi = evs.iter().map(|e| e.end_ns).max().unwrap();
    assert_eq!((lo, hi), (0, 9_000));
}
