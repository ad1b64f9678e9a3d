//! # seismic-prop
//!
//! The six finite-difference propagators of the paper — {isotropic
//! constant-density, acoustic variable-density, elastic velocity–stress} ×
//! {2D, 3D} — plus the kernel variants its GPU optimization study compares:
//!
//! * **isotropic** ([`iso2d`], [`iso3d`]): 2nd-order-in-time leapfrog on the
//!   scalar wave equation with a damping-layer PML, one branch-free row
//!   kernel per dimension; the Figure 6/7 restructurings of its PML control
//!   flow ([`IsoPmlVariant`]) exist only in the [`desc`] pricing model,
//! * **acoustic** ([`acoustic2d`], [`acoustic3d`]): 1st-order staggered
//!   pressure–velocity system with C-PML; the 3D pressure kernel exists in
//!   *fused* and *fissioned* forms (Figure 12) and the 2D system in *direct*
//!   and *transposed* forms (Figure 13),
//! * **elastic** ([`elastic2d`], [`elastic3d`]): velocity–stress staggered
//!   grid (2D: 2 velocities + 3 stresses, 3D: 3 velocities + 6 stresses)
//!   with C-PML; its many independent kernels are what the paper overlaps
//!   with `async` streams (Figure 11).
//!
//! As an extension beyond the paper's evaluation, [`vti2d`] implements the
//! anisotropic (VTI pseudo-acoustic) formulation the authors defer to
//! future work.
//!
//! The isotropic and VTI kernels are `step_slab` loop nests over a z-slab
//! range `[z0, z1)`. The acoustic and elastic kernels are descriptions —
//! which staggered derivatives feed them, through which ψ fields, and the
//! point-local combination they add to their outputs — run by one private
//! staggered C-PML sweep that owns the loop nest, the 8th-order staggered
//! difference and the ψ recursion. Each state's `step(.., gangs)` is the
//! formulation's one kernel sequence (Algorithm 1's per-step kernels, in
//! order), each kernel launched slab-parallel through
//! `exec_host::par_slabs`; one gang runs it inline and is the sequential
//! reference. `step_reverse` undoes a
//! step through a lossless medium (random-boundary RTM). Decomposed
//! `mpi-sim` ranks call the same methods on their rank-local windows. The
//! [`desc`] module publishes per-kernel arithmetic descriptors (flops,
//! bytes, registers) consumed by the `accel-sim` performance model.
//!
//! ## Vector ISA dispatch
//!
//! The iso kernels and the staggered sweep are each built twice from one
//! `#[inline(always)]` source body: for baseline x86-64 (SSE2, 4 f32 lanes)
//! and as a `#[target_feature(enable = "avx2")]` twin (8 lanes). Each launch
//! runs the twin when `is_x86_feature_detected!("avx2")` holds (the sweep
//! only on rows long enough for it to pay); a CPU without AVX2, or another
//! target, runs the baseline build. Both store the same bits: `avx2` does
//! not enable FMA, Rust never contracts `a*b + c`, and IEEE add, mul, div
//! and the floor's compare/select give the same result in every lane
//! whatever the lane width.

pub mod acoustic2d;
pub mod acoustic3d;
pub mod desc;
pub mod elastic2d;
pub mod elastic3d;
pub mod iso2d;
pub mod iso3d;
mod stagger;
pub mod vti2d;

/// The rows `k·stride` after and before `c`, each `n` points long, for
/// k = 1..=`STENCIL_HALF`: the neighbour streams of one iso row kernel.
///
/// Written out pair by pair on purpose. With `std::array::from_fn` the
/// element closure stayed an out-of-line call in every row of whichever iso
/// kernel the inliner passed over, which changed with unrelated edits, and
/// those calls tripled the cost of a 48³ step (EXPERIMENTS.md, "Untiled
/// rows").
#[inline(always)]
fn shifted_rows(
    u: &[f32],
    c: usize,
    stride: usize,
    n: usize,
) -> [[&[f32]; 2]; seismic_grid::STENCIL_HALF] {
    let pair = |k: usize| [&u[c + k * stride..][..n], &u[c - k * stride..][..n]];
    [pair(1), pair(2), pair(3), pair(4)]
}

/// Whether this CPU can run the AVX2 twins; prints a note when it cannot,
/// so a test that checks only the baseline build says so.
#[cfg(all(test, target_arch = "x86_64"))]
fn has_avx2() -> bool {
    let yes = std::arch::is_x86_feature_detected!("avx2");
    if !yes {
        println!("note: this CPU lacks AVX2; the AVX2 twin is not checked");
    }
    yes
}

/// Which GPU variant of the isotropic PML kernel to price (Figures 6/7).
/// All three compute the same bits; the host runs one kernel for all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsoPmlVariant {
    /// Boundary `if`-statements inside the main loop (the original code).
    OriginalIfs,
    /// Loop region restructured so interior and boundary strips are separate
    /// perfectly-nested loops (no branches inside any kernel).
    RestructuredIndices,
    /// Damping terms evaluated at every grid point; σ = 0 in the interior
    /// makes this numerically identical while removing all branches.
    PmlEverywhere,
}

/// Which form of the acoustic 3D pressure-update kernel to run (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FissionVariant {
    /// One kernel computes the x, y, and z derivative contributions —
    /// maximum register pressure.
    Fused,
    /// Three kernels, one per dimension — the paper's loop-fission rewrite
    /// that gained 3× on Fermi.
    Fissioned,
}

/// Memory-access strategy of the acoustic 2D backward kernel (Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransposeVariant {
    /// Update sweeps the strided (z) axis innermost — uncoalesced.
    Direct,
    /// Transpose to scratch, sweep the contiguous axis, transpose back.
    Transposed,
}
