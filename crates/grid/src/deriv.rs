//! Reference derivative operators over [`Field2`] / [`Field3`].
//!
//! These are the *specification* implementations: simple, obviously-correct
//! loops used by the test-suite to validate the fused production kernels in
//! `seismic-prop`, and by small-scale experiments. They read the halo, so the
//! caller must have applied boundary conditions / ghost exchange first.
//!
//! The sweeps are cache-blocked along x (z-rows × x-tiles, tile width from
//! `exec_host::tile::tiles`). Blocking is bitwise-free: every output point
//! is written exactly once from inputs that never change during the sweep,
//! so any iteration order over points produces identical bits — the tuner
//! affects speed only.

use crate::fd::f32c;
use crate::{Field2, Field3, STENCIL_HALF};
use exec_host::tiles;

/// Stencil rows a Laplacian point touches along the slow axes.
const LAP_ROWS: usize = 2 * STENCIL_HALF + 1;

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
    let tiling = tiles(e.nx, 2, LAP_ROWS);
    for (x0, x1) in tiling.ranges(0, e.nx) {
        for iz in 0..e.nz {
            for ix in x0..x1 {
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
    let tiling = tiles(e.nx, 2, LAP_ROWS * LAP_ROWS);
    for (x0, x1) in tiling.ranges(0, e.nx) {
        for iz in 0..e.nz {
            for iy in 0..e.ny {
                for ix in x0..x1 {
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
}

/// Axis selector for staggered derivatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Contiguous axis.
    X,
    /// Lateral axis (3D only).
    Y,
    /// Depth axis.
    Z,
}

/// 8th-order staggered forward first derivative along `axis` in 2D:
/// `out[i] = (1/h) Σ cₖ (u[i+1+k] − u[i−k])`, i.e. the derivative evaluated
/// at the half point `i + 1/2`.
pub fn stag_d_forward2(u: &Field2, out: &mut Field2, axis: Axis, h: f32) {
    let e = u.extent();
    assert_eq!(e, out.extent());
    assert!(e.halo >= STENCIL_HALF);
    let stride = match axis {
        Axis::X => 1,
        Axis::Z => e.full_nx(),
        Axis::Y => panic!("no Y axis in 2D"),
    };
    let rh = 1.0 / h;
    let ui = u.as_slice();
    let oi = out.as_mut_slice();
    for iz in 0..e.nz {
        for ix in 0..e.nx {
            let c = e.idx(ix, iz);
            let mut d = 0.0f32;
            for (k, &ck) in f32c::S1.iter().enumerate() {
                d += ck * (ui[c + (k + 1) * stride] - ui[c - k * stride]);
            }
            oi[c] = d * rh;
        }
    }
}

/// 8th-order staggered backward first derivative along `axis` in 2D:
/// derivative evaluated at the half point `i − 1/2`.
pub fn stag_d_backward2(u: &Field2, out: &mut Field2, axis: Axis, h: f32) {
    let e = u.extent();
    assert_eq!(e, out.extent());
    assert!(e.halo >= STENCIL_HALF);
    let stride = match axis {
        Axis::X => 1,
        Axis::Z => e.full_nx(),
        Axis::Y => panic!("no Y axis in 2D"),
    };
    let rh = 1.0 / h;
    let ui = u.as_slice();
    let oi = out.as_mut_slice();
    for iz in 0..e.nz {
        for ix in 0..e.nx {
            let c = e.idx(ix, iz);
            let mut d = 0.0f32;
            for (k, &ck) in f32c::S1.iter().enumerate() {
                d += ck * (ui[c + k * stride] - ui[c - (k + 1) * stride]);
            }
            oi[c] = d * rh;
        }
    }
}

/// 8th-order staggered forward first derivative along `axis` in 3D.
pub fn stag_d_forward3(u: &Field3, out: &mut Field3, axis: Axis, h: f32) {
    let e = u.extent();
    assert_eq!(e, out.extent());
    assert!(e.halo >= STENCIL_HALF);
    let stride = match axis {
        Axis::X => 1,
        Axis::Y => e.full_nx(),
        Axis::Z => e.full_nx() * e.full_ny(),
    };
    let rh = 1.0 / h;
    let ui = u.as_slice();
    let oi = out.as_mut_slice();
    for iz in 0..e.nz {
        for iy in 0..e.ny {
            for ix in 0..e.nx {
                let c = e.idx(ix, iy, iz);
                let mut d = 0.0f32;
                for (k, &ck) in f32c::S1.iter().enumerate() {
                    d += ck * (ui[c + (k + 1) * stride] - ui[c - k * stride]);
                }
                oi[c] = d * rh;
            }
        }
    }
}

/// 8th-order staggered backward first derivative along `axis` in 3D.
pub fn stag_d_backward3(u: &Field3, out: &mut Field3, axis: Axis, h: f32) {
    let e = u.extent();
    assert_eq!(e, out.extent());
    assert!(e.halo >= STENCIL_HALF);
    let stride = match axis {
        Axis::X => 1,
        Axis::Y => e.full_nx(),
        Axis::Z => e.full_nx() * e.full_ny(),
    };
    let rh = 1.0 / h;
    let ui = u.as_slice();
    let oi = out.as_mut_slice();
    for iz in 0..e.nz {
        for iy in 0..e.ny {
            for ix in 0..e.nx {
                let c = e.idx(ix, iy, iz);
                let mut d = 0.0f32;
                for (k, &ck) in f32c::S1.iter().enumerate() {
                    d += ck * (ui[c + k * stride] - ui[c - (k + 1) * stride]);
                }
                oi[c] = d * rh;
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

    /// Forward/backward staggered derivatives of a linear ramp are exact and
    /// equal.
    #[test]
    fn staggered_derivatives_exact_on_linear() {
        let e = Extent2::new(12, 10, H);
        let mut u = Field2::zeros(e);
        for iz in 0..e.full_nz() {
            for ix in 0..e.full_nx() {
                u.as_mut_slice()[e.raw_idx(ix, iz)] = 3.0 * ix as f32 - 2.0 * iz as f32;
            }
        }
        let mut fx = Field2::zeros(e);
        let mut bx = Field2::zeros(e);
        let mut fz = Field2::zeros(e);
        stag_d_forward2(&u, &mut fx, Axis::X, 1.0);
        stag_d_backward2(&u, &mut bx, Axis::X, 1.0);
        stag_d_forward2(&u, &mut fz, Axis::Z, 1.0);
        for iz in 0..e.nz {
            for ix in 0..e.nx {
                assert!((fx.get(ix, iz) - 3.0).abs() < 1e-4);
                assert!((bx.get(ix, iz) - 3.0).abs() < 1e-4);
                assert!((fz.get(ix, iz) + 2.0).abs() < 1e-4);
            }
        }
    }

    /// Backward(Forward(u)) on a sine approximates the second derivative:
    /// the compound operator must be negative-definite-ish on a smooth bump.
    #[test]
    fn staggered_compound_acts_like_second_derivative() {
        let e = Extent2::new(64, 8, H);
        let h = 0.05f32;
        let mut u = Field2::zeros(e);
        for iz in 0..e.full_nz() {
            for ix in 0..e.full_nx() {
                let x = ix as f32 * h;
                u.as_mut_slice()[e.raw_idx(ix, iz)] = (2.0 * x).sin();
            }
        }
        let mut d1 = Field2::zeros(e);
        stag_d_forward2(&u, &mut d1, Axis::X, h);
        let mut d2 = Field2::zeros(e);
        stag_d_backward2(&d1, &mut d2, Axis::X, h);
        // d²/dx² sin(2x) = −4 sin(2x); check away from the unfilled halo of d1.
        for ix in 8..e.nx - 8 {
            let x = (ix + e.halo) as f32 * h;
            let want = -4.0 * (2.0 * x).sin();
            assert!(
                (d2.get(ix, 4) - want).abs() < 1e-2,
                "ix={ix}: {} vs {}",
                d2.get(ix, 4),
                want
            );
        }
    }

    #[test]
    fn staggered_3d_exact_on_linear() {
        let e = Extent3::new(8, 8, 8, H);
        let mut u = Field3::zeros(e);
        for iz in 0..e.full_nz() {
            for iy in 0..e.full_ny() {
                for ix in 0..e.full_nx() {
                    u.as_mut_slice()[e.raw_idx(ix, iy, iz)] =
                        1.0 * ix as f32 + 2.0 * iy as f32 + 4.0 * iz as f32;
                }
            }
        }
        let mut d = Field3::zeros(e);
        stag_d_forward3(&u, &mut d, Axis::Y, 1.0);
        assert!((d.get(4, 4, 4) - 2.0).abs() < 1e-4);
        stag_d_backward3(&u, &mut d, Axis::Z, 1.0);
        assert!((d.get(4, 4, 4) - 4.0).abs() < 1e-4);
        stag_d_forward3(&u, &mut d, Axis::X, 1.0);
        assert!((d.get(4, 4, 4) - 1.0).abs() < 1e-4);
    }

    /// A grid wide enough for the tuner to split into x-tiles gives the
    /// same Laplacian bits as an untiled per-point loop: the blocking
    /// schedule may only change speed, never bits.
    #[test]
    fn tiling_is_bitwise_invariant() {
        let e = Extent2::new(1900, 5, H);
        assert!(tiles(e.nx, 2, LAP_ROWS).tile_x < e.nx, "grid must split");
        let mut u = Field2::zeros(e);
        for iz in 0..e.full_nz() {
            for ix in 0..e.full_nx() {
                let v = ((ix * 31 + iz * 17) % 101) as f32 * 0.013 - 0.5;
                u.as_mut_slice()[e.raw_idx(ix, iz)] = v;
            }
        }
        let (dx, dz) = (0.7f32, 1.3f32);
        let mut tiled = Field2::zeros(e);
        laplacian2(&u, &mut tiled, dx, dz);
        let (rdx2, rdz2) = (1.0 / (dx * dx), 1.0 / (dz * dz));
        let (ui, fnx) = (u.as_slice(), e.full_nx());
        let mut expect = Field2::zeros(e);
        for iz in 0..e.nz {
            for ix in 0..e.nx {
                let c = e.idx(ix, iz);
                let mut lap = f32c::C2[0] * ui[c] * (rdx2 + rdz2);
                for k in 1..=STENCIL_HALF {
                    lap += f32c::C2[k] * ((ui[c + k] + ui[c - k]) * rdx2);
                    lap += f32c::C2[k] * ((ui[c + k * fnx] + ui[c - k * fnx]) * rdz2);
                }
                expect.as_mut_slice()[c] = lap;
            }
        }
        let bits = |f: &Field2| f.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tiled), bits(&expect));
    }

    #[test]
    #[should_panic(expected = "no Y axis in 2D")]
    fn y_axis_rejected_in_2d() {
        let e = Extent2::new(8, 8, H);
        let u = Field2::zeros(e);
        let mut out = Field2::zeros(e);
        stag_d_forward2(&u, &mut out, Axis::Y, 1.0);
    }
}
