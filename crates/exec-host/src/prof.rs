//! Wall-clock host-engine profiler: per-thread lock-free ring buffers.
//!
//! The simulated-device stack (`accel-sim`/`acc-obs`) times everything in
//! *modeled* seconds; the real gang engine in this crate ran dark until
//! now. This module records what the pool actually does — sweeps, slab
//! claims, barrier waits, worker wake latency, RTM phases —
//! with `Instant` timestamps, at a cost low enough to leave compiled in:
//!
//! * **Disabled** (the default), every record site is one relaxed atomic
//!   load and a predictable branch — the overhead budget test in
//!   `bench_host --overhead` holds this below 1% of a modeling run.
//! * **Enabled**, each span costs two `Instant::now()` calls and one SPSC
//!   ring push (no locks, no allocation after the ring exists); the same
//!   budget test holds the end-to-end cost below 5%.
//!
//! ## Ring discipline
//!
//! Each recording thread owns one single-producer ring (a slot, assigned
//! on first record, at most [`MAX_SLOTS`]); the drainer is the single
//! consumer. Producers never block: a full ring drops the event and bumps
//! a counter, a thread beyond the slot cap drops everything it records.
//! [`drain`] consumes every completed event and returns a [`HostProfile`];
//! `acc-obs::wallclock` turns that into spans on wall-clock tracks, a
//! metrics registry, and derived gang statistics.
//!
//! Timestamps are nanoseconds since a process-wide epoch pinned when the
//! profiler is first enabled, so events from different threads share one
//! monotonic timebase (`Instant` is monotonic across threads on every
//! platform the pool supports).
//!
//! Recording **never** touches the physics: no field, no RNG, no
//! scheduling decision reads profiler state, so enabled-vs-disabled runs
//! are bitwise identical (pinned by `integration_host_prof`).

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What one recorded event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// One gang launch (`par_slabs`) end to end, on the launching thread.
    /// `arg0` = gangs, `arg1` = rows `n`.
    Sweep,
    /// One slab execution. `arg0` = gang index, `arg1` = rows in slab.
    Slab,
    /// The launching caller waiting on the fork-join barrier (claim loop
    /// exhausted → all slabs done + job retired). `arg0` = gangs.
    BarrierWait,
    /// Worker wake latency: epoch publish (caller clock) → job pickup
    /// (worker clock). `arg0` = low 32 bits of the pool epoch.
    Wake,
    /// One RTM driver phase. `arg0` = [`PHASE_FORWARD`] /
    /// [`PHASE_BACKWARD`] / [`PHASE_IMAGING`].
    Phase,
}

/// Phase id for the forward-modeling loop.
pub const PHASE_FORWARD: u32 = 0;
/// Phase id for the backward (receiver back-propagation) loop.
pub const PHASE_BACKWARD: u32 = 1;
/// Phase id for the imaging-condition application (nested inside
/// backward; subtract to get exclusive backward time).
pub const PHASE_IMAGING: u32 = 2;

/// Human label of a phase id.
pub fn phase_name(id: u32) -> &'static str {
    match id {
        PHASE_FORWARD => "forward",
        PHASE_BACKWARD => "backward",
        PHASE_IMAGING => "imaging",
        _ => "phase?",
    }
}

/// One recorded interval, timestamps in ns since the profiler epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// Kind-specific argument (gang index, gangs, phase id).
    pub arg0: u32,
    /// Kind-specific argument (rows).
    pub arg1: u32,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

impl Event {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Maximum concurrently profiled threads; later threads drop their events
/// (counted in [`HostProfile::thread_overflow`]). 16 gangs + the caller +
/// shot-level threads fit comfortably.
pub const MAX_SLOTS: usize = 32;

/// Events one ring holds before dropping (per thread).
pub const RING_CAP: usize = 1 << 15;

/// The events of one thread slot, in record order.
#[derive(Debug, Clone)]
pub struct SlotEvents {
    /// Slot index (stable per thread for the process lifetime).
    pub slot: u32,
    /// Completed events, oldest first.
    pub events: Vec<Event>,
}

/// Everything one [`drain`] call recovered.
#[derive(Debug, Clone, Default)]
pub struct HostProfile {
    /// Per-slot event streams (slots with no events are omitted).
    pub slots: Vec<SlotEvents>,
    /// Events dropped because a ring was full.
    pub dropped: u64,
    /// Events dropped because more than [`MAX_SLOTS`] threads recorded.
    pub thread_overflow: u64,
}

impl HostProfile {
    /// Total completed events.
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.events.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One single-producer/single-consumer ring. The owning thread is the
/// only pusher; [`drain`] is the only popper. `head`/`tail` are
/// monotonically increasing indices (masked on access), so `head − tail`
/// is the live count and full/empty are unambiguous.
struct Ring {
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
    buf: Box<[UnsafeCell<Event>]>,
}

// SAFETY: slots in `buf` are only written by the producer between
// checking `head - tail < RING_CAP` and the Release store of `head`,
// and only read by the consumer between the Acquire load of `head`
// and the Release store of `tail` — never both sides on one index.
unsafe impl Sync for Ring {}

impl Ring {
    fn new() -> Self {
        let zero = Event {
            kind: EventKind::Sweep,
            arg0: 0,
            arg1: 0,
            start_ns: 0,
            end_ns: 0,
        };
        Self {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            buf: (0..RING_CAP).map(|_| UnsafeCell::new(zero)).collect(),
        }
    }

    /// Producer side; never blocks, drops when full.
    fn push(&self, ev: Event) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= RING_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: index `head` is unreachable by the consumer until
        // the Release store below publishes it.
        unsafe {
            *self.buf[head & (RING_CAP - 1)].get() = ev;
        }
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Consumer side.
    fn drain_into(&self, out: &mut Vec<Event>) {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail != head {
            // SAFETY: indices in [tail, head) were published by the
            // producer's Release store of `head`.
            out.push(unsafe { *self.buf[tail & (RING_CAP - 1)].get() });
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Release);
    }
}

struct ProfState {
    epoch: Instant,
    rings: [OnceLock<Ring>; MAX_SLOTS],
    next_slot: AtomicUsize,
    thread_overflow: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: OnceLock<ProfState> = OnceLock::new();

thread_local! {
    /// usize::MAX = unassigned; MAX_SLOTS = overflow (drop).
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn state() -> &'static ProfState {
    STATE.get_or_init(|| ProfState {
        epoch: Instant::now(),
        rings: [const { OnceLock::new() }; MAX_SLOTS],
        next_slot: AtomicUsize::new(0),
        thread_overflow: AtomicU64::new(0),
    })
}

fn to_ns(t: Instant) -> u64 {
    t.checked_duration_since(state().epoch)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

fn record(ev: Event) {
    let st = state();
    let slot = SLOT.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = st.next_slot.fetch_add(1, Ordering::Relaxed).min(MAX_SLOTS);
            s.set(v);
        }
        v
    });
    if slot >= MAX_SLOTS {
        st.thread_overflow.fetch_add(1, Ordering::Relaxed);
        return;
    }
    st.rings[slot].get_or_init(Ring::new).push(ev);
}

/// Turn recording on or off process-wide. Enabling pins the timestamp
/// epoch (idempotent); disabling leaves buffered events drainable.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before any recorder can observe `enabled`.
        let _ = state();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// True when recording is on (one relaxed load — the whole disabled-path
/// cost besides a branch).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start a span: `Some(now)` when recording, `None` otherwise. Pass the
/// result to [`end`] — a `None` start makes `end` free.
#[inline]
pub fn begin() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Close a span opened by [`begin`] and record it.
#[inline]
pub fn end(t0: Option<Instant>, kind: EventKind, arg0: u32, arg1: u32) {
    let Some(t0) = t0 else { return };
    let start_ns = to_ns(t0);
    let end_ns = to_ns(Instant::now());
    record(Event {
        kind,
        arg0,
        arg1,
        start_ns,
        end_ns: end_ns.max(start_ns),
    });
}

/// Nanoseconds since the profiler epoch, for cross-thread spans whose
/// start is stamped on one thread and recorded on another (worker wake).
#[inline]
pub fn now_ns() -> u64 {
    to_ns(Instant::now())
}

/// Record a span from explicit epoch-relative timestamps.
#[inline]
pub fn span_ns(kind: EventKind, arg0: u32, arg1: u32, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    record(Event {
        kind,
        arg0,
        arg1,
        start_ns,
        end_ns: end_ns.max(start_ns),
    });
}

/// Consume every completed event from every ring. The single consumer:
/// callers must not drain concurrently with each other (the engine's
/// drivers drain once per run, after the run).
pub fn drain() -> HostProfile {
    let Some(st) = STATE.get() else {
        return HostProfile::default();
    };
    let mut profile = HostProfile {
        slots: Vec::new(),
        dropped: 0,
        thread_overflow: st.thread_overflow.swap(0, Ordering::Relaxed),
    };
    for (i, cell) in st.rings.iter().enumerate() {
        let Some(ring) = cell.get() else { continue };
        let mut events = Vec::new();
        ring.drain_into(&mut events);
        profile.dropped += ring.dropped.swap(0, Ordering::Relaxed);
        if !events.is_empty() {
            profile.slots.push(SlotEvents {
                slot: i as u32,
                events,
            });
        }
    }
    profile
}
