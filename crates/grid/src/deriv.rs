//! 8th-order Laplacians over [`Field2`] / [`Field3`].
//!
//! Plain loops over the interior, used by the RTM image post-filter
//! (`rtm_core::rtm::laplacian_filter`, `rtm_core::rtm3::laplacian_filter3`).
//! They read the halo, so the caller must have applied boundary conditions
//! / ghost exchange first. The propagators do not call them: each
//! `seismic-prop` state runs its own fused kernels.

use crate::fd::f32c;
use crate::{Field2, Field3, STENCIL_HALF};

/// 8th-order Laplacian of `u` into `out` (interior points only), grid
/// spacings `dx`, `dz`.
pub fn laplacian2(u: &Field2, out: &mut Field2, dx: f32, dz: f32) {
    let e = u.extent();
    assert_eq!(e, out.extent());
    assert!(
        e.halo >= STENCIL_HALF,
        "halo too thin for 8th-order stencil"
    );
    let fnx = e.full_nx();
    let ui = u.as_slice();
    let oi = out.as_mut_slice();
    let rdx2 = 1.0 / (dx * dx);
    let rdz2 = 1.0 / (dz * dz);
    for iz in 0..e.nz {
        for ix in 0..e.nx {
            let c = e.idx(ix, iz);
            let mut lap = f32c::C2[0] * ui[c] * (rdx2 + rdz2);
            for k in 1..=STENCIL_HALF {
                lap += f32c::C2[k] * ((ui[c + k] + ui[c - k]) * rdx2);
                lap += f32c::C2[k] * ((ui[c + k * fnx] + ui[c - k * fnx]) * rdz2);
            }
            oi[c] = lap;
        }
    }
}

/// 8th-order Laplacian in 3D.
pub fn laplacian3(u: &Field3, out: &mut Field3, dx: f32, dy: f32, dz: f32) {
    let e = u.extent();
    assert_eq!(e, out.extent());
    assert!(
        e.halo >= STENCIL_HALF,
        "halo too thin for 8th-order stencil"
    );
    let fnx = e.full_nx();
    let fnxy = fnx * e.full_ny();
    let ui = u.as_slice();
    let oi = out.as_mut_slice();
    let rdx2 = 1.0 / (dx * dx);
    let rdy2 = 1.0 / (dy * dy);
    let rdz2 = 1.0 / (dz * dz);
    for iz in 0..e.nz {
        for iy in 0..e.ny {
            for ix in 0..e.nx {
                let c = e.idx(ix, iy, iz);
                let mut lap = f32c::C2[0] * ui[c] * (rdx2 + rdy2 + rdz2);
                for k in 1..=STENCIL_HALF {
                    lap += f32c::C2[k] * ((ui[c + k] + ui[c - k]) * rdx2);
                    lap += f32c::C2[k] * ((ui[c + k * fnx] + ui[c - k * fnx]) * rdy2);
                    lap += f32c::C2[k] * ((ui[c + k * fnxy] + ui[c - k * fnxy]) * rdz2);
                }
                oi[c] = lap;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Extent2, Extent3};

    const H: usize = STENCIL_HALF;

    /// Laplacian of a quadratic is exact for any order ≥ 2.
    #[test]
    fn laplacian2_exact_on_quadratic() {
        let e = Extent2::new(16, 12, H);
        // u = x² + 2 z²  (in index units, h=1) → ∇²u = 2 + 4 = 6, but halo
        // values must also follow the quadratic for interior rows near edges.
        let mut u = Field2::zeros(e);
        for iz in 0..e.full_nz() {
            for ix in 0..e.full_nx() {
                let x = ix as f32;
                let z = iz as f32;
                u.as_mut_slice()[e.raw_idx(ix, iz)] = x * x + 2.0 * z * z;
            }
        }
        let mut out = Field2::zeros(e);
        laplacian2(&u, &mut out, 1.0, 1.0);
        for iz in 0..e.nz {
            for ix in 0..e.nx {
                assert!(
                    (out.get(ix, iz) - 6.0).abs() < 1e-2,
                    "({ix},{iz}) -> {}",
                    out.get(ix, iz)
                );
            }
        }
    }

    #[test]
    fn laplacian3_exact_on_quadratic() {
        let e = Extent3::new(10, 9, 8, H);
        let mut u = Field3::zeros(e);
        for iz in 0..e.full_nz() {
            for iy in 0..e.full_ny() {
                for ix in 0..e.full_nx() {
                    let (x, y, z) = (ix as f32, iy as f32, iz as f32);
                    u.as_mut_slice()[e.raw_idx(ix, iy, iz)] = x * x + y * y + 3.0 * z * z;
                }
            }
        }
        let mut out = Field3::zeros(e);
        laplacian3(&u, &mut out, 1.0, 1.0, 1.0);
        for iz in 0..e.nz {
            for iy in 0..e.ny {
                for ix in 0..e.nx {
                    assert!((out.get(ix, iy, iz) - 10.0).abs() < 5e-2);
                }
            }
        }
    }
}
