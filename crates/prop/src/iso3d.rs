//! Isotropic constant-density propagator, 3D (25-point Laplacian).
//!
//! Same scheme and the same branch-free row kernel as [`crate::iso2d`],
//! extended to three dimensions. The paper ran its Figure 6/7 PML
//! restructurings on this case; they are priced by `crate::desc`, not run
//! as separate host kernels.

use crate::shifted_rows;
use exec_host::par_slabs;
use seismic_grid::fd::{f32c, flush};
use seismic_grid::{Extent3, Field3, SyncSlice, STENCIL_HALF};
use seismic_model::IsoModel3;
use seismic_pml::DampProfile;

/// Wavefield state: two time levels, swapped every step.
#[derive(Debug, Clone)]
pub struct Iso3State {
    /// Previous time level; overwritten with the next level each step.
    pub u_prev: Field3,
    /// Current time level.
    pub u_cur: Field3,
}

impl Iso3State {
    /// Quiescent initial state.
    pub fn new(extent: Extent3) -> Self {
        Self {
            u_prev: Field3::zeros(extent),
            u_cur: Field3::zeros(extent),
        }
    }

    /// Advance one time step on `gangs` host threads and swap time levels.
    pub fn step(&mut self, model: &IsoModel3, damp: &[DampProfile; 3], gangs: usize) {
        let e = self.u_cur.extent();
        let u = SyncSlice::new(self.u_prev.as_mut_slice());
        let cur = self.u_cur.as_slice();
        par_slabs(e.nz, gangs, |z0, z1| {
            step_slab(
                u,
                cur,
                model.vp.as_slice(),
                e,
                [model.geom.dx, model.geom.dy, model.geom.dz],
                model.geom.dt,
                damp,
                z0,
                z1,
            );
        });
        self.u_prev.swap(&mut self.u_cur);
    }

    /// Undo one [`Self::step`] through a lossless medium: step forward
    /// from swapped levels (see [`crate::iso2d::Iso2State::step_reverse`]).
    pub fn step_reverse(&mut self, model: &IsoModel3, damp: &[DampProfile; 3], gangs: usize) {
        self.u_prev.swap(&mut self.u_cur);
        self.step(model, damp, gangs);
        self.u_prev.swap(&mut self.u_cur);
    }

    /// Inject a source sample scaled by `Δt²·vp²`.
    pub fn inject(&mut self, model: &IsoModel3, ix: usize, iy: usize, iz: usize, f: f32) {
        let dt = model.geom.dt;
        let vp = model.vp.get(ix, iy, iz);
        let v = self.u_cur.get(ix, iy, iz) + dt * dt * vp * vp * f;
        self.u_cur.set(ix, iy, iz, v);
    }

    /// Overwrite this state from `other` without allocating (both time
    /// levels; extents must match).
    pub fn copy_from(&mut self, other: &Self) {
        self.u_prev.copy_from(&other.u_prev);
        self.u_cur.copy_from(&other.u_cur);
    }
}

/// One time step over interior z rows `[z0, z1)`: the damped update with
/// `σ = σx[ix] + σy[iy] + σz[iz]` at every point, swept row by row and
/// stored through [`flush`] (see [`crate::iso2d::step_slab`]). Runs the
/// AVX2 build when the CPU has AVX2, as the 2D kernel does.
#[allow(clippy::too_many_arguments)]
pub fn step_slab(
    u: SyncSlice,
    u_cur: &[f32],
    vp: &[f32],
    e: Extent3,
    h: [f32; 3],
    dt: f32,
    damp: &[DampProfile; 3],
    z0: usize,
    z1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, checked just above.
        return unsafe { step_slab_avx2(u, u_cur, vp, e, h, dt, damp, z0, z1) };
    }
    step_slab_body(u, u_cur, vp, e, h, dt, damp, z0, z1)
}

/// [`step_slab_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn step_slab_avx2(
    u: SyncSlice,
    u_cur: &[f32],
    vp: &[f32],
    e: Extent3,
    h: [f32; 3],
    dt: f32,
    damp: &[DampProfile; 3],
    z0: usize,
    z1: usize,
) {
    step_slab_body(u, u_cur, vp, e, h, dt, damp, z0, z1)
}

/// The one source body of [`step_slab`], inlined into each build.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn step_slab_body(
    u: SyncSlice,
    u_cur: &[f32],
    vp: &[f32],
    e: Extent3,
    h: [f32; 3],
    dt: f32,
    damp: &[DampProfile; 3],
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    assert_eq!(u.len(), e.len());
    assert_eq!(u_cur.len(), e.len());
    assert_eq!(vp.len(), e.len());
    let [dpx, dpy, dpz] = damp;
    assert_eq!(dpx.as_slice().len(), e.full_nx());
    let fnx = e.full_nx();
    let fnxy = fnx * e.full_ny();
    let dt2 = dt * dt;
    let r2 = [
        1.0 / (h[0] * h[0]),
        1.0 / (h[1] * h[1]),
        1.0 / (h[2] * h[2]),
    ];
    let r2_sum = r2[0] + r2[1] + r2[2];
    let n = e.nx;
    let sx = &dpx.as_slice()[e.halo..][..n];
    for iz in z0..z1 {
        let sz = dpz.sigma(iz);
        for iy in 0..e.ny {
            let sy = dpy.sigma(iy);
            let c = e.idx(0, iy, iz);
            let centre = &u_cur[c..][..n];
            let (xs, ys, zs) = (
                shifted_rows(u_cur, c, 1, n),
                shifted_rows(u_cur, c, fnx, n),
                shifted_rows(u_cur, c, fnxy, n),
            );
            let vp = &vp[c..][..n];
            // SAFETY: slabs are disjoint z-ranges, so no other gang touches
            // row `(iy, iz)`; the view is dropped before the next is taken.
            let out = unsafe { u.range_mut(c, n) };
            for i in 0..n {
                let mut lap = f32c::C2[0] * centre[i] * r2_sum;
                for k in 0..STENCIL_HALF {
                    lap += f32c::C2[k + 1] * ((xs[k][0][i] + xs[k][1][i]) * r2[0]);
                    lap += f32c::C2[k + 1] * ((ys[k][0][i] + ys[k][1][i]) * r2[1]);
                    lap += f32c::C2[k + 1] * ((zs[k][0][i] + zs[k][1][i]) * r2[2]);
                }
                let sigma = sx[i] + sy + sz;
                let v = vp[i];
                out[i] = flush(
                    (2.0 * centre[i] - (1.0 - sigma * dt) * out[i] + dt2 * v * v * lap)
                        / (1.0 + sigma * dt),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso2d::tests::noise;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::iso3_constant;
    use seismic_model::{extent3, Geometry};
    use seismic_source::ricker;

    fn setup(n: usize, width: usize) -> (IsoModel3, [DampProfile; 3]) {
        let e = extent3(n, n, n);
        let h = 10.0;
        let vmax = 2000.0;
        let dt = stable_dt(8, 3, vmax, h, 0.8);
        let m = iso3_constant(e, vmax, Geometry::uniform(h, dt));
        let dp = DampProfile::new(n, e.halo, width, vmax, h, 1e-4);
        (m, [dp.clone(), dp.clone(), dp])
    }

    fn run(n: usize, steps: usize) -> Iso3State {
        let (m, damp) = setup(n, 6);
        let mut s = Iso3State::new(m.vp.extent());
        for t in 0..steps {
            s.step(&m, &damp, 1);
            s.inject(
                &m,
                n / 2,
                n / 2,
                n / 2,
                ricker(30.0, t as f32 * m.geom.dt - 0.04),
            );
        }
        s
    }

    /// The paper's original kernel, one point at a time, storing through the
    /// floor (see the 2D test).
    fn pointwise_reference(
        u_prev: &mut [f32],
        u_cur: &[f32],
        vp: &[f32],
        e: Extent3,
        h: [f32; 3],
        dt: f32,
        [dpx, dpy, dpz]: &[DampProfile; 3],
    ) {
        let (fnx, fnxy) = (e.full_nx(), e.full_nx() * e.full_ny());
        let dt2 = dt * dt;
        let r2 = h.map(|h| 1.0 / (h * h));
        for iz in 0..e.nz {
            for iy in 0..e.ny {
                for ix in 0..e.nx {
                    let c = e.idx(ix, iy, iz);
                    let u = u_cur;
                    let mut lap = f32c::C2[0] * u[c] * (r2[0] + r2[1] + r2[2]);
                    for k in 1..=STENCIL_HALF {
                        lap += f32c::C2[k] * ((u[c + k] + u[c - k]) * r2[0]);
                        lap += f32c::C2[k] * ((u[c + k * fnx] + u[c - k * fnx]) * r2[1]);
                        lap += f32c::C2[k] * ((u[c + k * fnxy] + u[c - k * fnxy]) * r2[2]);
                    }
                    let v = vp[c];
                    let damped = dpx.in_layer(ix) || dpy.in_layer(iy) || dpz.in_layer(iz);
                    u_prev[c] = flush(if damped {
                        let sigma = dpx.sigma(ix) + dpy.sigma(iy) + dpz.sigma(iz);
                        (2.0 * u[c] - (1.0 - sigma * dt) * u_prev[c] + dt2 * v * v * lap)
                            / (1.0 + sigma * dt)
                    } else {
                        2.0 * u[c] - u_prev[c] + dt2 * v * v * lap
                    });
                }
            }
        }
    }

    /// A build of [`step_slab`]'s body.
    type Slab3 =
        fn(SyncSlice, &[f32], &[f32], Extent3, [f32; 3], f32, &[DampProfile; 3], usize, usize);

    /// The baseline build, and the AVX2 twin when this CPU has AVX2.
    fn builds() -> Vec<(&'static str, Slab3)> {
        let mut builds: Vec<(&str, Slab3)> = vec![("baseline", step_slab_body)];
        #[cfg(target_arch = "x86_64")]
        if crate::has_avx2() {
            builds.push(("avx2", |u, c, vp, e, h, dt, damp, z0, z1| {
                // SAFETY: the CPU has AVX2, checked just above.
                unsafe { step_slab_avx2(u, c, vp, e, h, dt, damp, z0, z1) }
            }));
        }
        builds
    }

    /// Each build of the branch-free row kernel must be bitwise the
    /// per-point kernel it replaces (cases as in the 2D test).
    #[test]
    fn row_kernel_matches_pointwise_reference() {
        let (h, vmax, width) = ([10.0, 11.0, 12.5], 2000.0, 4);
        let dt = stable_dt(8, 3, vmax, h[0], 0.8);
        for (nx, ny, nz) in [(20usize, 18usize, 16usize), (150, 10, 12)] {
            let e = extent3(nx, ny, nz);
            let full = |n: usize| DampProfile::new(n, e.halo, width, vmax, h[0], 1e-4);
            let window = |n: usize| full(2 * n).window(3 * n / 2 - width, n);
            let transparent = |n: usize| DampProfile::transparent(n, e.halo);
            let profiles = [
                [full(nx), full(ny), full(nz)],
                [window(nx), window(ny), window(nz)],
                [transparent(nx), transparent(ny), transparent(nz)],
            ];
            let vp: Vec<f32> = noise(e.len(), 1)
                .iter()
                .map(|r| 1500.0 + 500.0 * r)
                .collect();
            let u_cur = noise(e.len(), 2);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for damp in &profiles {
                let mut expect = noise(e.len(), 3);
                pointwise_reference(&mut expect, &u_cur, &vp, e, h, dt, damp);
                for (build, slab) in builds() {
                    let mut got = noise(e.len(), 3);
                    let u = SyncSlice::new(&mut got);
                    for (z0, z1) in [(0, width / 2), (width / 2, nz - 1), (nz - 1, nz)] {
                        slab(u, &u_cur, &vp, e, h, dt, damp, z0, z1);
                    }
                    assert_eq!(bits(&got), bits(&expect), "{build} {nx}x{ny}x{nz}");
                }
            }
        }
    }

    #[test]
    fn propagates_spherically_symmetric() {
        let s = run(40, 40);
        let c = 20;
        let m = s.u_cur.max_abs();
        assert!(m.is_finite() && m > 0.0);
        // Constant model + center source ⇒ axis symmetry.
        let a = s.u_cur.get(c + 8, c, c);
        let b = s.u_cur.get(c, c + 8, c);
        let d = s.u_cur.get(c, c, c + 8);
        assert!((a - b).abs() < 1e-4 * m.max(1.0), "{a} vs {b}");
        assert!((a - d).abs() < 1e-4 * m.max(1.0), "{a} vs {d}");
    }

    #[test]
    fn energy_decays_after_source_stops() {
        let (m, damp) = setup(36, 8);
        let mut s = Iso3State::new(m.vp.extent());
        let mut peak = 0.0f64;
        for t in 0..300 {
            s.step(&m, &damp, 1);
            if t < 40 {
                s.inject(&m, 18, 18, 18, ricker(30.0, t as f32 * m.geom.dt - 0.04));
            }
            peak = peak.max(s.u_cur.energy());
        }
        let fin = s.u_cur.energy();
        assert!(fin < peak * 0.1, "final {fin} vs peak {peak}");
    }

    #[test]
    fn slab_split_matches_sequential() {
        let (m, damp) = setup(28, 6);
        let e = m.vp.extent();
        let mut seq = Iso3State::new(e);
        let mut par = Iso3State::new(e);
        for t in 0..20 {
            seq.step(&m, &damp, 1);
            {
                let u = SyncSlice::new(par.u_prev.as_mut_slice());
                for (z0, z1) in [(0usize, 9usize), (9, 20), (20, 28)] {
                    step_slab(
                        u,
                        par.u_cur.as_slice(),
                        m.vp.as_slice(),
                        e,
                        [m.geom.dx, m.geom.dy, m.geom.dz],
                        m.geom.dt,
                        &damp,
                        z0,
                        z1,
                    );
                }
                par.u_prev.swap(&mut par.u_cur);
            }
            let amp = ricker(30.0, t as f32 * m.geom.dt - 0.04);
            seq.inject(&m, 14, 14, 14, amp);
            par.inject(&m, 14, 14, 14, amp);
        }
        assert_eq!(seq.u_cur, par.u_cur);
    }
}
