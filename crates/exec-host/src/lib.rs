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
//!   slab-parallel launch every propagator step goes through. Parked
//!   threads are woken by a generation counter and claim
//!   deterministically-partitioned slabs instead of being spawned per
//!   launch. Slab partitioning is a pure function of `(n, gangs, g)`, so
//!   parallel output is bit-identical to sequential regardless of which
//!   worker executes which slab.
//! * [`tile`] — the cache-blocking tuner: picks an x-tile width for the
//!   z-slab × x-tile loop schedule of the stencil sweeps from the stencil
//!   footprint and a cache budget (à la the paper's loop-schedule
//!   experiments).
//! * [`prof`] — the wall-clock host profiler: per-thread lock-free ring
//!   buffers recording sweep/slab/barrier/wake/tile/phase events with
//!   `Instant` timestamps, drained into `acc-obs` wall-clock tracks. Off
//!   by default (one relaxed load per record site), compile-out via the
//!   `measure` feature.
//!
//! Everything here is `std`-only and dependency-free. `seismic-prop`
//! launches its kernel sequences through [`par_slabs`]; `openacc-sim`
//! re-exports it as its gang execution backend.

pub mod pool;
pub mod prof;
pub mod tile;

#[cfg(not(loom))]
pub use pool::par_slabs;
pub use pool::{slab_bounds, GangPool};
pub use prof::{HostProfile, WorkerSummary};
pub use tile::{tiles, Tiling};
