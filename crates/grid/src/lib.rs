//! # seismic-grid
//!
//! Dense regular-grid containers and finite-difference machinery shared by
//! every propagator in the `acc-rtm` workspace.
//!
//! The paper ("GPU Technology Applied to Reverse Time Migration and Seismic
//! Modeling via OpenACC", PMAM'15) discretizes the isotropic, acoustic, and
//! elastic wave equations with an 8th-order spatial stencil ("operators with a
//! 3D stencil width of 8", a 25-point star in 3D) and 2nd-order leapfrog time
//! stepping. This crate provides:
//!
//! * [`Field2`] / [`Field3`] — flat, cache-friendly `f32` field storage with
//!   the *x* axis contiguous (matching the Fortran column-major innermost loop
//!   of the original code, which is what the coalescing experiments of the
//!   paper hinge on),
//! * [`fd`] — centered and staggered finite-difference coefficient tables for
//!   orders 2–8 with their Taylor-series derivations tested,
//! * [`deriv`] — 8th-order Laplacians built from those tables (the RTM
//!   image post-filter),
//! * [`cfl`] — Courant–Friedrichs–Lewy stability helpers,
//! * [`dispersion`] — von Neumann phase-velocity analysis of the stencils,
//! * [`Extent2`] / [`Extent3`] — index-space bookkeeping (interior vs halo),
//! * [`rng`] — dependency-free SplitMix64 and coordinate hashes for the
//!   seeded random-boundary construction (bitwise reproducible by design).
//!
//! Everything here is deliberately scalar and allocation-free in the hot path;
//! parallel execution lives in `openacc-sim` / `mpi-sim`, which iterate over
//! these containers.

pub mod cfl;
pub mod deriv;
pub mod dispersion;
pub mod extent;
pub mod fd;
pub mod field2;
pub mod field3;
pub mod rng;
pub mod sync_slice;

pub use extent::{Extent2, Extent3};
pub use fd::UnsupportedOrder;
pub use field2::Field2;
pub use field3::Field3;
pub use sync_slice::SyncSlice;

/// Half-width of the spatial stencil used throughout the workspace.
///
/// The paper uses operators with a stencil *width* of 8 (8th-order accuracy),
/// i.e. 4 points on each side of the center, which also fixes the ghost-node
/// thickness exchanged between MPI sub-domains.
pub const STENCIL_HALF: usize = 4;

/// Full spatial accuracy order of the default operators.
pub const STENCIL_ORDER: usize = 2 * STENCIL_HALF;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_constants_consistent() {
        assert_eq!(STENCIL_ORDER, 8);
        assert_eq!(STENCIL_HALF * 2, STENCIL_ORDER);
    }
}
