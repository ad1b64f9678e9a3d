//! # exec-host
//!
//! The host execution engine: the machinery that makes *real* (wall-clock)
//! execution of the physics as fast as the hardware allows, independent of
//! the simulated-device timing model (`accel-sim`), which it never touches.
//!
//! The paper's optimization study is entirely about kernel scheduling and
//! memory-hierarchy efficiency on the accelerator; this crate applies the
//! same discipline to the host side that actually computes the wavefields:
//!
//! * [`pool`] — a persistent, lazily-initialized gang worker pool with a
//!   low-overhead fork-join barrier, and [`par_slabs`], the one
//!   slab-parallel launch every propagator step goes through. Workers
//!   spin briefly and then park between launches, pick up a launch from a
//!   generation counter and claim deterministically-partitioned slabs
//!   instead of being spawned per launch. Slab partitioning is a pure function of `(n, gangs, g)`, so
//!   parallel output is bit-identical to sequential regardless of which
//!   worker executes which slab.
//! * [`prof`] — the wall-clock host profiler: per-thread lock-free ring
//!   buffers recording sweep/slab/barrier/wake/phase events with
//!   `Instant` timestamps, drained into `acc-obs` wall-clock tracks. Off
//!   by default (one relaxed load per record site).
//!
//! There is no cache-blocking tuner: splitting rows into x-tiles measured
//! slower on every grid it split (EXPERIMENTS.md, "Untiled rows"), so the
//! stencil sweeps run each row over its full interior width.
//!
//! Everything here is `std`-only and dependency-free. `seismic-prop`
//! launches its kernel sequences through [`par_slabs`]; `openacc-sim`
//! re-exports it as its gang execution backend.

pub mod pool;
pub mod prof;

#[cfg(not(loom))]
pub use pool::par_slabs;
pub use pool::{slab_bounds, GangPool};
pub use prof::HostProfile;
