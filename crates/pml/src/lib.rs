//! # seismic-pml
//!
//! Absorbing boundary layers for the three propagators.
//!
//! The computational domain has to be truncated; the paper (Section 5) uses:
//!
//! * **standard PML** (Bérenger-style damping layer) for the 2nd-order
//!   isotropic formulation — implemented here as the damped wave equation
//!   `∂²ₜu + 2σ∂ₜu = v²∇²u` with a polynomial σ profile ([`DampProfile`]);
//!   like the paper's standard PML this absorbs traveling waves well but is
//!   imperfect for evanescent/grazing energy,
//! * **C-PML** (Convolutional PML, Komatitsch & Martin 2007) for the
//!   staggered acoustic and elastic systems, storing the per-axis
//!   one-dimensional coefficient arrays `a`, `b`, `1/κ` ([`CpmlAxis`]) plus
//!   per-field memory variables ψ updated as `ψ ← b·ψ + a·∂u`, with the
//!   effective derivative `∂u/κ + ψ` — exactly the "four different
//!   one-dimensional arrays with the cpml-coefficients for each dimension"
//!   of the paper,
//! * **random boundaries** ([`RandomBoundarySpec`]) for the checkpoint-free
//!   migration path: instead of absorbing outgoing energy, a seeded random
//!   velocity halo scatters it incoherently while the medium stays lossless
//!   and therefore time-reversible (paired with [`DampProfile::transparent`]
//!   / [`CpmlAxis::transparent`] so nothing dissipates).
//!
//! The isotropic kernel's PML is also where the paper's Figure 6/7
//! restructuring experiments live: the boundary-only `if`-statements hurt
//! GPU gridification, so the paper (a) kept the branches, (b) restructured
//! loop indices, or (c) "computed PML everywhere". The profile arrays here
//! make (c) numerically identical to (a) because σ and the ψ coefficients
//! vanish identically in the interior — which is why `seismic-prop` runs
//! the branch-free form (c) on the host and leaves the three to the GPU
//! pricing model.

pub mod cpml;
pub mod damp;
pub mod random;

pub use cpml::CpmlAxis;
pub use damp::DampProfile;
pub use random::RandomBoundarySpec;
