//! Arithmetic descriptors of the propagator kernels.
//!
//! Pure data consumed by the `accel-sim` roofline model via `rtm-core`:
//! per-grid-point floating-point work, effective DRAM traffic (assuming
//! ideal stencil reuse in cache/shared memory), and a register-pressure
//! estimate. Register counts matter because the paper's Figure 10/12
//! results hinge on them: Fermi caps at 63 registers per thread (spills
//! beyond), Kepler at 255.

/// Static description of one device kernel of a propagator step.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel name as it appears in profiler output (e.g. `kernel_2d_139_gpu`).
    pub name: &'static str,
    /// Floating-point operations per interior grid point.
    pub flops: f64,
    /// Effective `f32` loads per point after ideal neighbour reuse.
    pub reads: f64,
    /// `f32` stores per point.
    pub writes: f64,
    /// Registers per thread the straightforward translation needs.
    pub regs: u32,
    /// Whether consecutive threads touch consecutive addresses in the
    /// generated innermost loop (true unless the loop nest sweeps a strided
    /// axis innermost, as in the acoustic 2D backward kernel of Figure 13).
    pub coalesced: bool,
    /// Fraction of threads doing divergent extra work (boundary `if`s of the
    /// original isotropic kernel). 0 = uniform control flow.
    pub divergence: f64,
}

impl KernelDesc {
    /// Effective bytes moved per point (reads + writes, 4-byte words).
    pub fn bytes_per_point(&self) -> f64 {
        4.0 * (self.reads + self.writes)
    }

    /// Arithmetic intensity in flops/byte.
    pub fn intensity(&self) -> f64 {
        self.flops / self.bytes_per_point()
    }
}

const fn k(name: &'static str, flops: f64, reads: f64, writes: f64, regs: u32) -> KernelDesc {
    KernelDesc {
        name,
        flops,
        reads,
        writes,
        regs,
        coalesced: true,
        divergence: 0.0,
    }
}

/// Isotropic 2D main kernel (17-point stencil + leapfrog update).
pub fn iso2d(variant: crate::IsoPmlVariant) -> Vec<KernelDesc> {
    let base = k("iso_kernel_2d", 40.0, 3.6, 1.0, 40);
    match variant {
        crate::IsoPmlVariant::OriginalIfs => vec![KernelDesc {
            divergence: 0.35,
            ..base
        }],
        crate::IsoPmlVariant::RestructuredIndices => vec![
            k("iso_kernel_2d_interior", 38.0, 3.4, 1.0, 38),
            KernelDesc {
                // Boundary strips: small fraction of points, modeled as a
                // second kernel over ~width/n of the domain by the caller.
                ..k("iso_kernel_2d_pml", 46.0, 4.2, 1.0, 44)
            },
        ],
        crate::IsoPmlVariant::PmlEverywhere => vec![k("iso_kernel_2d_pml_all", 46.0, 4.2, 1.0, 44)],
    }
}

/// Isotropic 3D main kernel (25-point stencil). Effective reads are high:
/// the 8th-order star touches nine z-planes, far beyond what the cards'
/// L2 retains at production grid sizes, so most z-taps miss to DRAM —
/// the paper's "memory-bound application, which exhibits inefficient GPU
/// utilization".
pub fn iso3d(variant: crate::IsoPmlVariant) -> Vec<KernelDesc> {
    let base = k("iso_kernel_3d", 58.0, 7.0, 1.0, 52);
    match variant {
        crate::IsoPmlVariant::OriginalIfs => vec![KernelDesc {
            divergence: 0.35,
            ..base
        }],
        crate::IsoPmlVariant::RestructuredIndices => vec![
            k("iso_kernel_3d_interior", 55.0, 6.8, 1.0, 50),
            k("iso_kernel_3d_pml", 66.0, 7.8, 1.0, 58),
        ],
        crate::IsoPmlVariant::PmlEverywhere => vec![k("iso_kernel_3d_pml_all", 66.0, 7.8, 1.0, 58)],
    }
}

/// Acoustic 2D: velocity-update kernel then pressure-update kernel.
pub fn acoustic2d(variant: crate::TransposeVariant) -> Vec<KernelDesc> {
    let vel = k("ac2d_velocity", 42.0, 4.4, 4.0, 46);
    let prs = k("ac2d_pressure", 34.0, 5.2, 3.0, 44);
    match variant {
        crate::TransposeVariant::Direct => vec![
            KernelDesc {
                coalesced: false,
                ..vel
            },
            KernelDesc {
                coalesced: false,
                ..prs
            },
        ],
        crate::TransposeVariant::Transposed => vec![
            // Transposes add traffic but restore coalescing.
            k("ac2d_transpose_in", 0.0, 1.0, 1.0, 16),
            vel,
            prs,
            k("ac2d_transpose_out", 0.0, 1.0, 1.0, 16),
        ],
    }
}

/// Acoustic 3D: velocity kernel plus fused or fissioned pressure kernel(s).
pub fn acoustic3d(variant: crate::FissionVariant) -> Vec<KernelDesc> {
    let vel = k("ac3d_velocity", 66.0, 6.0, 6.0, 58);
    match variant {
        crate::FissionVariant::Fused => vec![
            vel,
            // All three dimension derivatives in one body: address arithmetic
            // for many multi-dimensional arrays → heavy register pressure,
            // beyond the Fermi 63-register cap.
            k("ac3d_pressure_fused", 52.0, 7.4, 4.0, 96),
        ],
        crate::FissionVariant::Fissioned => vec![
            vel,
            k("ac3d_pressure_dx", 18.0, 3.2, 2.0, 30),
            k("ac3d_pressure_dy", 18.0, 3.4, 2.0, 30),
            k("ac3d_pressure_dz", 20.0, 3.6, 2.0, 32),
        ],
    }
}

/// Elastic 2D: two velocity kernels + three stress kernels (independent of
/// each other within a group — the async-stream candidates of Figure 11).
pub fn elastic2d() -> Vec<KernelDesc> {
    vec![
        k("el2d_vx", 38.0, 4.2, 2.0, 44),
        k("el2d_vz", 38.0, 4.2, 2.0, 44),
        k("el2d_sxx_szz", 52.0, 5.6, 4.0, 54),
        k("el2d_sxz", 34.0, 4.0, 2.0, 42),
    ]
}

/// Elastic 3D: three velocity kernels + three stress-kernel groups.
///
/// Per-point costs are far above the naive operation count: each kernel
/// streams staggered fields at mutually misaligned offsets plus its share
/// of the 18 C-PML ψ arrays, and the z-direction staggered taps miss L2 at
/// production grids (same effect as the isotropic 3D kernel, multiplied by
/// the field count). This is what makes the paper's elastic 3D runs two
/// orders of magnitude longer than acoustic ones.
pub fn elastic3d() -> Vec<KernelDesc> {
    vec![
        k("el3d_vx", 140.0, 14.0, 2.0, 58),
        k("el3d_vy", 140.0, 14.0, 2.0, 58),
        k("el3d_vz", 140.0, 14.0, 2.0, 58),
        k("el3d_sdiag", 210.0, 19.0, 6.0, 62),
        k("el3d_sxy_sxz", 155.0, 15.5, 4.0, 56),
        k("el3d_syz", 100.0, 11.0, 2.0, 48),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FissionVariant, IsoPmlVariant, TransposeVariant};

    #[test]
    fn work_ordering_matches_paper() {
        // The paper: the elastic model "is more complicated and
        // computationally intensive"; isotropic is the lightest. Total
        // per-point flops per time step must rise iso → acoustic → elastic.
        let total = |ds: Vec<KernelDesc>| ds.iter().map(|d| d.flops).sum::<f64>();
        let iso = total(iso3d(IsoPmlVariant::OriginalIfs));
        let ac = total(acoustic3d(FissionVariant::Fused));
        let el = total(elastic3d());
        assert!(
            iso < ac && ac < el,
            "iso {iso}, acoustic {ac}, elastic {el}"
        );
    }

    #[test]
    fn fused_kernel_exceeds_fermi_register_cap() {
        let fused = &acoustic3d(FissionVariant::Fused)[1];
        assert!(fused.regs > 63, "fused kernel must spill on Fermi");
        for d in &acoustic3d(FissionVariant::Fissioned)[1..] {
            assert!(d.regs <= 63, "fissioned kernels must fit Fermi registers");
        }
    }

    #[test]
    fn direct_2d_backward_is_uncoalesced() {
        assert!(acoustic2d(TransposeVariant::Direct)
            .iter()
            .all(|d| !d.coalesced));
        let t = acoustic2d(TransposeVariant::Transposed);
        assert!(t.iter().all(|d| d.coalesced));
        // Transposed variant pays two extra copy kernels.
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn original_iso_diverges_restructured_does_not() {
        assert!(iso2d(IsoPmlVariant::OriginalIfs)[0].divergence > 0.0);
        for d in iso2d(IsoPmlVariant::RestructuredIndices) {
            assert_eq!(d.divergence, 0.0);
        }
        for d in iso3d(IsoPmlVariant::PmlEverywhere) {
            assert_eq!(d.divergence, 0.0);
        }
    }

    #[test]
    fn bytes_and_intensity_consistent() {
        let d = k("t", 40.0, 4.0, 1.0, 32);
        assert_eq!(d.bytes_per_point(), 20.0);
        assert_eq!(d.intensity(), 2.0);
    }

    #[test]
    fn elastic_has_independent_kernel_groups() {
        // The async experiment needs multiple kernels per step.
        assert!(elastic2d().len() >= 4);
        assert!(elastic3d().len() >= 6);
    }
}
