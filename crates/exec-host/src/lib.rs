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
//! * [`arena`] — reusable buffer pools ([`Arena`]) that eliminate
//!   steady-state allocation from time loops: wavefield states, replay
//!   snapshots, and checkpoint slots are taken from and returned to an
//!   arena instead of being freshly allocated every segment/retry.
//! * [`tile`] — the cache-blocking tuner: picks an x-tile width for the
//!   z-slab × x-tile loop schedule of the stencil sweeps from the stencil
//!   footprint and a cache budget (à la the paper's loop-schedule
//!   experiments), with an `ACC_TILE_X` env override.
//! * [`simd`] — the registry of SIMD widths *certified* by the
//!   vectorization verifier (`acc-verify::vectorize`): sweeps annotate
//!   their tilings via [`tiles_for`] with the widest lane count whose
//!   legality was proven, never assumed.
//! * [`prof`] — the wall-clock host profiler: per-thread lock-free ring
//!   buffers recording sweep/slab/barrier/wake/tile/phase events with
//!   `Instant` timestamps, drained into `acc-obs` wall-clock tracks. Off
//!   by default (one relaxed load per record site), compile-out via the
//!   `measure` feature.
//!
//! Everything here is `std`-only and dependency-free. `seismic-prop`
//! launches its kernel sequences through [`par_slabs`]; `openacc-sim`
//! re-exports it as its gang execution backend.

pub mod arena;
pub mod pool;
pub mod prof;
pub mod simd;
pub mod tile;

pub use arena::Arena;
#[cfg(not(loom))]
pub use pool::par_slabs;
pub use pool::{slab_bounds, GangPool};
pub use prof::{HostProfile, WorkerSummary};
pub use tile::{tiles, tiles_for, TileEnvError, Tiling};
