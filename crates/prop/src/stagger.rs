//! The staggered C-PML sweep: the one loop nest behind every acoustic and
//! elastic kernel.
//!
//! Each kernel of Equations 2 and 3 does the same thing at every interior
//! point: take 8th-order staggered derivatives, pass each through its
//! C-PML memory field ψ, and add a point-local combination of the
//! corrected derivatives and the medium to one or more fields. Every ψ and
//! output store goes through the propagators' floor
//! (`seismic_grid::fd::flush`: a magnitude below 2⁻¹⁰⁰ is stored as 0).
//! A kernel is therefore described as data — its [`Deriv`]s, its medium fields, its
//! outputs and a `combine` closure — and [`sweep`] runs it: slab-parallel
//! over z through `exec_host::par_slabs`, then row by row.
//!
//! Each row is cut into blocks of about [`ROW_BLOCK`] points. Per block,
//! every derivative is its own short loop into a stack buffer (difference,
//! then the ψ recursion), and one loop combines the buffers and the medium
//! into the outputs. Short loops over equal-length slices and stack buffers
//! are what lets LLVM vectorise every instance without a pile of runtime
//! alias checks; the arithmetic per point, and so every bit, is that of the
//! fused per-point loop.

use exec_host::par_slabs;
use seismic_grid::fd::{f32c, flush};
use seismic_grid::{Extent2, Extent3, SyncSlice};
use seismic_pml::CpmlAxis;

/// Points per row block. A row's last block also takes a remainder shorter
/// than half a block, so no block is shorter than `ROW_BLOCK / 2` points
/// (or the row): short loops fall back to scalar code.
const ROW_BLOCK: usize = 128;

/// Longest block: one stack buffer per derivative holds it.
const MAX_BLOCK: usize = ROW_BLOCK + ROW_BLOCK / 2 - 1;

/// Shortest row the AVX2 build runs. Each of a block's loops leaves up to
/// 7 points to scalar code in that build, against 3 in the baseline, so
/// on short rows the remainders outweigh the wider body. On a 2-vCPU Xeon
/// a 20-point ac3d row ran 10 % slower in the AVX2 build, a 40-point row
/// 1.4× faster.
const MIN_AVX2_ROW: usize = 32;

/// Axis index of x (the contiguous axis).
pub(crate) const X: usize = 0;
/// Axis index of y (3-D only).
pub(crate) const Y: usize = 1;
/// Axis index of z (depth, the slab axis).
pub(crate) const Z: usize = 2;

/// Interior shape, strides, spacings and C-PML axes of a 2-D or 3-D grid,
/// indexed by [`X`], [`Y`], [`Z`]. A 2-D grid is one y-row deep.
#[derive(Clone, Copy)]
pub(crate) struct Grid<'a> {
    n: [usize; 3],
    stride: [usize; 3],
    origin: usize,
    len: usize,
    rh: [f32; 3],
    cpml: [&'a CpmlAxis; 3],
}

impl<'a> Grid<'a> {
    /// A 2-D grid with spacings `[dx, dz]` and C-PML axes `[x, z]`.
    pub(crate) fn new2(e: Extent2, [dx, dz]: [f32; 2], [cx, cz]: &'a [CpmlAxis; 2]) -> Self {
        Self {
            n: [e.nx, 1, e.nz],
            stride: [1, 0, e.full_nx()],
            origin: e.raw_idx(e.halo, e.halo),
            len: e.len(),
            rh: [1.0 / dx, 1.0, 1.0 / dz],
            cpml: [cx, cx, cz],
        }
    }

    /// A 3-D grid with spacings `h` and C-PML axes, both `[x, y, z]`.
    pub(crate) fn new3(e: Extent3, h: [f32; 3], cpml: &'a [CpmlAxis; 3]) -> Self {
        let fnx = e.full_nx();
        Self {
            n: [e.nx, e.ny, e.nz],
            stride: [1, fnx, fnx * e.full_ny()],
            origin: e.raw_idx(e.halo, e.halo, e.halo),
            len: e.len(),
            rh: h.map(|h| 1.0 / h),
            cpml: cpml.each_ref(),
        }
    }
}

/// One C-PML-corrected staggered derivative of a kernel: `∂axis src` at
/// the forward (`+½`) or backward (`−½`) half-point, with memory field
/// `psi` (borrowed exclusively for `'a`).
#[derive(Clone, Copy)]
pub(crate) struct Deriv<'a> {
    src: &'a [f32],
    psi: SyncSlice<'a>,
    axis: usize,
    forward: bool,
}

/// Forward staggered derivative `∂axis src` at `+½`.
pub(crate) fn fwd<'a>(src: &'a [f32], psi: &'a mut [f32], axis: usize) -> Deriv<'a> {
    Deriv {
        src,
        psi: SyncSlice::new(psi),
        axis,
        forward: true,
    }
}

/// Backward staggered derivative `∂axis src` at `−½`.
pub(crate) fn bwd<'a>(src: &'a [f32], psi: &'a mut [f32], axis: usize) -> Deriv<'a> {
    Deriv {
        src,
        psi: SyncSlice::new(psi),
        axis,
        forward: false,
    }
}

/// One kernel, ready to launch on a slab: everything [`slab`] reads, by
/// value.
#[derive(Clone, Copy)]
struct Plan<'a, const D: usize, const M: usize, const O: usize, F> {
    g: Grid<'a>,
    derivs: [Deriv<'a>; D],
    media: [&'a [f32]; M],
    outs: [SyncSlice<'a>; O],
    combine: F,
}

/// Run one kernel over the interior on `gangs` host threads:
/// `outs[o] = flush(outs[o] + combine(derivs, media)[o])` at every point,
/// where each derivative enters C-PML-corrected (`∂u/κ + ψ`, ψ updated in
/// place) and each medium field by its value at the point.
pub(crate) fn sweep<const D: usize, const M: usize, const O: usize, F>(
    g: Grid<'_>,
    derivs: [Deriv<'_>; D],
    media: [&[f32]; M],
    outs: [&mut [f32]; O],
    gangs: usize,
    combine: F,
) where
    F: Fn([f32; D], [f32; M]) -> [f32; O] + Copy + Sync,
{
    let plan = Plan::new(g, derivs, media, outs, combine);
    par_slabs(g.n[Z], gangs, |z0, z1| slab(plan, z0, z1));
}

impl<'a, const D: usize, const M: usize, const O: usize, F> Plan<'a, D, M, O, F> {
    /// The plan of one kernel; every field must span the grid.
    fn new(
        g: Grid<'a>,
        derivs: [Deriv<'a>; D],
        media: [&'a [f32]; M],
        outs: [&'a mut [f32]; O],
        combine: F,
    ) -> Self {
        let lens = derivs.iter().flat_map(|d| [d.src.len(), d.psi.len()]);
        let lens = lens.chain(media.iter().map(|m| m.len()));
        assert!(
            lens.chain(outs.iter().map(|o| o.len())).all(|l| l == g.len),
            "every field of a sweep must span the grid"
        );
        Self {
            g,
            derivs,
            media,
            outs: outs.map(SyncSlice::new),
            combine,
        }
    }
}

/// The kernel over interior z-rows `[z0, z1)`: the AVX2 build when the CPU
/// has AVX2 and rows are at least [`MIN_AVX2_ROW`] points long, the
/// baseline build otherwise (see the crate docs, "Vector ISA dispatch").
#[inline(never)]
fn slab<const D: usize, const M: usize, const O: usize, F>(
    k: Plan<'_, D, M, O, F>,
    z0: usize,
    z1: usize,
) where
    F: Fn([f32; D], [f32; M]) -> [f32; O] + Copy,
{
    #[cfg(target_arch = "x86_64")]
    if k.g.n[X] >= MIN_AVX2_ROW && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, checked just above.
        return unsafe { slab_avx2(k, z0, z1) };
    }
    slab_body(k, z0, z1)
}

/// [`slab_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn slab_avx2<const D: usize, const M: usize, const O: usize, F>(
    k: Plan<'_, D, M, O, F>,
    z0: usize,
    z1: usize,
) where
    F: Fn([f32; D], [f32; M]) -> [f32; O] + Copy,
{
    slab_body(k, z0, z1)
}

/// The one source body of [`slab`], inlined into each build.
#[inline(always)]
fn slab_body<const D: usize, const M: usize, const O: usize, F>(
    k: Plan<'_, D, M, O, F>,
    z0: usize,
    z1: usize,
) where
    F: Fn([f32; D], [f32; M]) -> [f32; O] + Copy,
{
    let g = k.g;
    let mut dbuf = [[0.0f32; MAX_BLOCK]; D];
    for iz in z0..z1 {
        for iy in 0..g.n[Y] {
            let at = [0, iy, iz];
            let row = g.origin + iy * g.stride[Y] + iz * g.stride[Z];
            let mut x0 = 0;
            while x0 < g.n[X] {
                let rest = g.n[X] - x0;
                let n = if rest <= MAX_BLOCK { rest } else { ROW_BLOCK };
                let c = row + x0;
                for (d, buf) in k.derivs.iter().zip(&mut dbuf) {
                    let cpml = g.cpml[d.axis];
                    let diff = |s: usize| Diff {
                        u: d.src,
                        base: if d.forward { c } else { c - s },
                        s,
                        rh: g.rh[d.axis],
                    };
                    // SAFETY: ψ and output fields are borrowed `&mut` for the
                    // whole sweep (by `fwd`/`bwd` and by `sweep`), so nothing
                    // outside it reads them; slabs are disjoint z-ranges, so
                    // no other gang touches this row; and this view dies
                    // before the next ψ or output view is taken.
                    let psi = unsafe { d.psi.range_mut(c, n) };
                    if d.axis == X {
                        // Unit stride as a constant: one base pointer for
                        // all eight taps. The coefficients vary along the row.
                        let [a, b, ik] = cpml.raw();
                        let x = cpml.halo() + x0;
                        let (a, b, ik) = (&a[x..][..n], &b[x..][..n], &ik[x..][..n]);
                        diff(1).run(&mut buf[..n], psi, |i| (a[i], b[i], ik[i]));
                    } else {
                        let coeffs = cpml.coeffs(at[d.axis]);
                        diff(g.stride[d.axis]).run(&mut buf[..n], psi, |_| coeffs);
                    }
                }
                let media = k.media.map(|m| &m[c..][..n]);
                // SAFETY: as for ψ above; the outputs are distinct `&mut`
                // slices, so these views do not overlap one another.
                let mut outs = k.outs.each_ref().map(|o| unsafe { o.range_mut(c, n) });
                for i in 0..n {
                    let d = std::array::from_fn(|j| dbuf[j][i]);
                    let r = (k.combine)(d, std::array::from_fn(|j| media[j][i]));
                    for (o, v) in outs.iter_mut().zip(r) {
                        o[i] = flush(o[i] + v);
                    }
                }
                x0 += n;
            }
        }
    }
}

/// The 8th-order staggered difference along stride `s` of the row block
/// starting at `base` (backward differences start one stride early), scaled
/// by `rh = 1/h`.
struct Diff<'a> {
    u: &'a [f32],
    base: usize,
    s: usize,
    rh: f32,
}

impl Diff<'_> {
    /// `out[i] = ∂u/κ + ψ` with `ψ ← flush(b·ψ + a·∂u)` at every point of
    /// the block, `(a, b, 1/κ) = coeffs(i)` (see [`CpmlAxis::apply`]).
    #[inline(always)]
    fn run(&self, out: &mut [f32], psi: &mut [f32], coeffs: impl Fn(usize) -> (f32, f32, f32)) {
        let n = out.len();
        let (u, b, s) = (self.u, self.base, self.s);
        let hi: [&[f32]; 4] = std::array::from_fn(|k| &u[b + (k + 1) * s..][..n]);
        let lo: [&[f32]; 4] = std::array::from_fn(|k| &u[b - k * s..][..n]);
        let psi = &mut psi[..n];
        for i in 0..n {
            let mut d = 0.0f32;
            for (k, &ck) in f32c::S1.iter().enumerate() {
                d += ck * (hi[k][i] - lo[k][i]);
            }
            out[i] = CpmlAxis::apply(coeffs(i), d * self.rh, &mut psi[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso2d::tests::noise;
    use seismic_grid::STENCIL_HALF;

    /// One staggered derivative of `u` through transparent C-PML, as the
    /// sweep computes it, written into a zeroed field (halo left at 0).
    fn derivative(g: Grid<'_>, u: &[f32], axis: usize, forward: bool, gangs: usize) -> Vec<f32> {
        let mut psi = vec![0.0; u.len()];
        let mut out = vec![0.0; u.len()];
        let d = if forward {
            fwd(u, &mut psi, axis)
        } else {
            bwd(u, &mut psi, axis)
        };
        sweep(g, [d], [] as [&[f32]; 0], [&mut out], gangs, |[d], _| [d]);
        out
    }

    /// Forward and backward staggered differences of a linear ramp are
    /// exact along x and z in 2-D.
    #[test]
    fn exact_on_linear_2d() {
        let e = Extent2::new(300, 10, STENCIL_HALF);
        let cpml = [
            CpmlAxis::transparent(e.nx, e.halo),
            CpmlAxis::transparent(e.nz, e.halo),
        ];
        let g = Grid::new2(e, [1.0, 1.0], &cpml);
        let mut u = vec![0.0f32; e.len()];
        for iz in 0..e.full_nz() {
            for ix in 0..e.full_nx() {
                u[e.raw_idx(ix, iz)] = 3.0 * ix as f32 - 2.0 * iz as f32;
            }
        }
        for (axis, slope) in [(X, 3.0), (Z, -2.0)] {
            for forward in [true, false] {
                let d = derivative(g, &u, axis, forward, 2);
                for iz in 0..e.nz {
                    for ix in 0..e.nx {
                        let v = d[e.idx(ix, iz)];
                        assert!(
                            (v - slope).abs() < 1e-4,
                            "axis {axis} fwd {forward} ({ix},{iz}): {v}"
                        );
                    }
                }
            }
        }
    }

    /// The same along x, y and z of a 3-D grid.
    #[test]
    fn exact_on_linear_3d() {
        let e = Extent3::new(8, 8, 8, STENCIL_HALF);
        let cpml = [e.nx, e.ny, e.nz].map(|n| CpmlAxis::transparent(n, e.halo));
        let g = Grid::new3(e, [1.0; 3], &cpml);
        let mut u = vec![0.0f32; e.len()];
        for iz in 0..e.full_nz() {
            for iy in 0..e.full_ny() {
                for ix in 0..e.full_nx() {
                    u[e.raw_idx(ix, iy, iz)] = ix as f32 + 2.0 * iy as f32 + 4.0 * iz as f32;
                }
            }
        }
        for (axis, slope) in [(X, 1.0), (Y, 2.0), (Z, 4.0)] {
            for forward in [true, false] {
                let d = derivative(g, &u, axis, forward, 2);
                for iz in 0..e.nz {
                    for iy in 0..e.ny {
                        for ix in 0..e.nx {
                            let v = d[e.idx(ix, iy, iz)];
                            assert!((v - slope).abs() < 1e-4, "axis {axis} fwd {forward}: {v}");
                        }
                    }
                }
            }
        }
    }

    /// One kernel run over every interior row by the baseline body
    /// (`avx2 = false`) or the AVX2 twin, from noise-filled ψ and output
    /// fields: the bits of its ψ and output fields afterwards.
    #[cfg(target_arch = "x86_64")]
    fn run_build<const D: usize, const M: usize, const O: usize>(
        g: Grid<'_>,
        taps: [(&[f32], usize, bool); D],
        media: [&[f32]; M],
        combine: impl Fn([f32; D], [f32; M]) -> [f32; O] + Copy,
        avx2: bool,
    ) -> Vec<u32> {
        let mut psi: [Vec<f32>; D] = std::array::from_fn(|j| noise(g.len, 10 + j as u32));
        let mut outs: [Vec<f32>; O] = std::array::from_fn(|j| noise(g.len, 20 + j as u32));
        let mut psi_views = psi.iter_mut();
        let derivs = taps.map(|(src, axis, forward)| {
            let p = psi_views.next().expect("one ψ per tap");
            if forward {
                fwd(src, p, axis)
            } else {
                bwd(src, p, axis)
            }
        });
        let plan = Plan::new(
            g,
            derivs,
            media,
            outs.each_mut().map(|o| &mut o[..]),
            combine,
        );
        if avx2 {
            // SAFETY: callers pass `avx2` only after `crate::has_avx2()`.
            unsafe { slab_avx2(plan, 0, g.n[Z]) }
        } else {
            slab_body(plan, 0, g.n[Z])
        }
        psi.iter()
            .chain(&outs)
            .flatten()
            .map(|x| x.to_bits())
            .collect()
    }

    /// The AVX2 twin of the sweep stores bitwise what the baseline build
    /// stores, ψ and outputs alike: the acoustic 2-D pressure kernel and
    /// the elastic 3-D normal-stress kernel through full C-PML, on grids
    /// whose rows end in a partial row block.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_twin_matches_baseline() {
        if !crate::has_avx2() {
            return;
        }
        let (nx, dt, vmax, h) = (ROW_BLOCK + 173, 1e-3, 2500.0, 10.0);
        let cpml =
            |n: usize, width: usize| CpmlAxis::new(n, STENCIL_HALF, width, dt, vmax, h, 1e-3);
        let positive = |len: usize, seed: u32, lo: f32| -> Vec<f32> {
            noise(len, seed)
                .iter()
                .map(|r| lo * (1.5 + 0.5 * r))
                .collect()
        };

        let e = Extent2::new(nx, 20, STENCIL_HALF);
        let axes = [cpml(e.nx, 12), cpml(e.nz, 6)];
        let g = Grid::new2(e, [h, h], &axes);
        let (qx, qz) = (noise(e.len(), 1), noise(e.len(), 2));
        let (vp, rho) = (positive(e.len(), 3, 1500.0), positive(e.len(), 4, 1000.0));
        let acoustic = |avx2| {
            run_build(
                g,
                [(&qx[..], X, false), (&qz[..], Z, false)],
                [&vp[..], &rho[..]],
                move |[dqx, dqz], [vp, rho]| [dt * (rho * vp * vp) * (dqx + dqz)],
                avx2,
            )
        };

        let e = Extent3::new(nx, 6, 5, STENCIL_HALF);
        let axes = [cpml(e.nx, 12), cpml(e.ny, 2), cpml(e.nz, 2)];
        let g = Grid::new3(e, [h, h, h], &axes);
        let v = [1, 2, 3].map(|seed| noise(e.len(), seed));
        let (lam, mu) = (positive(e.len(), 4, 1e9), positive(e.len(), 5, 1e9));
        let elastic = |avx2| {
            run_build(
                g,
                [
                    (&v[0][..], X, false),
                    (&v[1][..], Y, false),
                    (&v[2][..], Z, false),
                ],
                [&lam[..], &mu[..]],
                move |[exx, eyy, ezz], [l, mu]| {
                    let m2 = 2.0 * mu;
                    let tr = exx + eyy + ezz;
                    [
                        dt * (l * tr + m2 * exx),
                        dt * (l * tr + m2 * eyy),
                        dt * (l * tr + m2 * ezz),
                    ]
                },
                avx2,
            )
        };

        assert!(
            nx % ROW_BLOCK != 0 && nx - ROW_BLOCK <= MAX_BLOCK,
            "one partial block"
        );
        assert!(acoustic(false) == acoustic(true), "acoustic 2-D");
        assert!(elastic(false) == elastic(true), "elastic 3-D");
    }

    /// Backward after forward acts like the second derivative: on
    /// `sin(2x)` it gives `−4 sin(2x)` away from the zero halo of the first
    /// pass.
    #[test]
    fn forward_then_backward_is_second_derivative() {
        let e = Extent2::new(200, 8, STENCIL_HALF);
        let h = 0.05f32;
        let cpml = [
            CpmlAxis::transparent(e.nx, e.halo),
            CpmlAxis::transparent(e.nz, e.halo),
        ];
        let g = Grid::new2(e, [h, h], &cpml);
        let mut u = vec![0.0f32; e.len()];
        for iz in 0..e.full_nz() {
            for ix in 0..e.full_nx() {
                u[e.raw_idx(ix, iz)] = (2.0 * ix as f32 * h).sin();
            }
        }
        let d1 = derivative(g, &u, X, true, 1);
        let d2 = derivative(g, &d1, X, false, 1);
        for ix in 8..e.nx - 8 {
            let want = -4.0 * (2.0 * (ix + e.halo) as f32 * h).sin();
            let v = d2[e.idx(ix, 4)];
            assert!((v - want).abs() < 1e-2, "ix={ix}: {v} vs {want}");
        }
    }
}
