//! Elastic isotropic propagator, 3D (Equation 3 of the paper).
//!
//! Velocity–stress staggered grid (Madariaga–Virieux layout): three particle
//! velocities and six stresses, 18 C-PML memory fields. Six kernels per
//! step — `vx`, `vy`, `vz`, diagonal stresses, (σxy, σxz), σyz — matching
//! the independent-kernel structure the paper overlaps with async streams
//! and the most memory-hungry case of the evaluation (the one that OOMs the
//! 6 GB Fermi card at production grid sizes).

use exec_host::par_slabs;
use seismic_grid::fd::f32c;
use seismic_grid::{Extent3, Field3, SyncSlice};
use seismic_model::ElasticModel3;
use seismic_pml::CpmlAxis;

/// Elastic 3D state: 9 wavefields + 18 ψ fields.
#[derive(Debug, Clone)]
pub struct El3State {
    /// Particle velocities (staggered +x/2, +y/2, +z/2 respectively).
    pub vx: Field3,
    /// Particle velocity along y.
    pub vy: Field3,
    /// Particle velocity along z.
    pub vz: Field3,
    /// Normal stresses at integer points.
    pub sxx: Field3,
    /// Normal stress σyy.
    pub syy: Field3,
    /// Normal stress σzz.
    pub szz: Field3,
    /// Shear stress σxy.
    pub sxy: Field3,
    /// Shear stress σxz.
    pub sxz: Field3,
    /// Shear stress σyz.
    pub syz: Field3,
    /// ψ memory fields, indexed by [`PsiIdx`].
    pub psi: Vec<Field3>,
}

/// Indices into [`El3State::psi`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum PsiIdx {
    SxxX = 0,
    SxyY = 1,
    SxzZ = 2,
    SxyX = 3,
    SyyY = 4,
    SyzZ = 5,
    SxzX = 6,
    SyzY = 7,
    SzzZ = 8,
    VxX = 9,
    VyY = 10,
    VzZ = 11,
    VxY = 12,
    VyX = 13,
    VxZ = 14,
    VzX = 15,
    VyZ = 16,
    VzY = 17,
}

impl El3State {
    /// Quiescent state.
    pub fn new(extent: Extent3) -> Self {
        let z = || Field3::zeros(extent);
        Self {
            vx: z(),
            vy: z(),
            vz: z(),
            sxx: z(),
            syy: z(),
            szz: z(),
            sxy: z(),
            sxz: z(),
            syz: z(),
            psi: (0..18).map(|_| Field3::zeros(extent)).collect(),
        }
    }

    /// Overwrite every field from `other` without allocating (extents must
    /// match) — the arena-reuse path for checkpoints and retries.
    pub fn copy_from(&mut self, other: &Self) {
        self.vx.copy_from(&other.vx);
        self.vy.copy_from(&other.vy);
        self.vz.copy_from(&other.vz);
        self.sxx.copy_from(&other.sxx);
        self.syy.copy_from(&other.syy);
        self.szz.copy_from(&other.szz);
        self.sxy.copy_from(&other.sxy);
        self.sxz.copy_from(&other.sxz);
        self.syz.copy_from(&other.syz);
        assert_eq!(self.psi.len(), other.psi.len());
        for (d, s) in self.psi.iter_mut().zip(other.psi.iter()) {
            d.copy_from(s);
        }
    }

    /// Advance one time step on `gangs` host threads: three velocity
    /// kernels, then three stress kernels.
    pub fn step(&mut self, model: &ElasticModel3, cpml: &[CpmlAxis; 3], gangs: usize) {
        self.velocity_phase(model, cpml, model.geom.dt, gangs);
        self.stress_phase(model, cpml, model.geom.dt, gangs);
    }

    /// Undo one [`Self::step`] through a lossless medium: the two phases
    /// in reverse order with `−dt` (see
    /// [`crate::acoustic2d::Ac2State::step_reverse`]).
    pub fn step_reverse(&mut self, model: &ElasticModel3, cpml: &[CpmlAxis; 3], gangs: usize) {
        self.stress_phase(model, cpml, -model.geom.dt, gangs);
        self.velocity_phase(model, cpml, -model.geom.dt, gangs);
    }

    /// Velocity phase: the vx, vy, vz kernels. Each reads only stresses and
    /// writes its own field and three ψ fields. `dt` is signed so the
    /// reverse step can undo it.
    fn velocity_phase(
        &mut self,
        model: &ElasticModel3,
        cpml: &[CpmlAxis; 3],
        dt: f32,
        gangs: usize,
    ) {
        let e = self.vx.extent();
        let g = &model.geom;
        let h = [g.dx, g.dy, g.dz];
        let rho = model.rho.as_slice();
        let (sxx, syy, szz) = (
            self.sxx.as_slice(),
            self.syy.as_slice(),
            self.szz.as_slice(),
        );
        let (sxy, sxz, syz) = (
            self.sxy.as_slice(),
            self.sxz.as_slice(),
            self.syz.as_slice(),
        );
        let vx = SyncSlice::new(self.vx.as_mut_slice());
        let [p0, p1, p2] = psi_slices(&mut self.psi, PsiIdx::SxxX);
        par_slabs(e.nz, gangs, |z0, z1| {
            vx_slab(vx, p0, p1, p2, sxx, sxy, sxz, rho, e, h, dt, cpml, z0, z1);
        });
        let vy = SyncSlice::new(self.vy.as_mut_slice());
        let [p0, p1, p2] = psi_slices(&mut self.psi, PsiIdx::SxyX);
        par_slabs(e.nz, gangs, |z0, z1| {
            vy_slab(vy, p0, p1, p2, sxy, syy, syz, rho, e, h, dt, cpml, z0, z1);
        });
        let vz = SyncSlice::new(self.vz.as_mut_slice());
        let [p0, p1, p2] = psi_slices(&mut self.psi, PsiIdx::SxzX);
        par_slabs(e.nz, gangs, |z0, z1| {
            vz_slab(vz, p0, p1, p2, sxz, syz, szz, rho, e, h, dt, cpml, z0, z1);
        });
    }

    /// Stress phase: the diagonal, (σxy, σxz) and σyz kernels. Each reads
    /// only velocities. `dt` is signed.
    fn stress_phase(&mut self, model: &ElasticModel3, cpml: &[CpmlAxis; 3], dt: f32, gangs: usize) {
        let e = self.vx.extent();
        let g = &model.geom;
        let h = [g.dx, g.dy, g.dz];
        let (lam, mu) = (model.lam.as_slice(), model.mu.as_slice());
        let (vx, vy, vz) = (self.vx.as_slice(), self.vy.as_slice(), self.vz.as_slice());
        let sxx = SyncSlice::new(self.sxx.as_mut_slice());
        let syy = SyncSlice::new(self.syy.as_mut_slice());
        let szz = SyncSlice::new(self.szz.as_mut_slice());
        let [p0, p1, p2] = psi_slices(&mut self.psi, PsiIdx::VxX);
        par_slabs(e.nz, gangs, |z0, z1| {
            stress_diag_slab(
                sxx, syy, szz, p0, p1, p2, vx, vy, vz, lam, mu, e, h, dt, cpml, z0, z1,
            );
        });
        let sxy = SyncSlice::new(self.sxy.as_mut_slice());
        let sxz = SyncSlice::new(self.sxz.as_mut_slice());
        let [p0, p1, p2, p3] = psi_slices(&mut self.psi, PsiIdx::VxY);
        par_slabs(e.nz, gangs, |z0, z1| {
            stress_sxy_sxz_slab(
                sxy, sxz, p0, p1, p2, p3, vx, vy, vz, mu, e, h, dt, cpml, z0, z1,
            );
        });
        let syz = SyncSlice::new(self.syz.as_mut_slice());
        let [p0, p1] = psi_slices(&mut self.psi, PsiIdx::VyZ);
        par_slabs(e.nz, gangs, |z0, z1| {
            stress_syz_slab(syz, p0, p1, vy, vz, mu, e, h, dt, cpml, z0, z1);
        });
    }

    /// Explosive source on the three normal stresses.
    pub fn inject(&mut self, model: &ElasticModel3, ix: usize, iy: usize, iz: usize, f: f32) {
        let a = model.geom.dt * f;
        for s in [&mut self.sxx, &mut self.syy, &mut self.szz] {
            let v = s.get(ix, iy, iz) + a;
            s.set(ix, iy, iz, v);
        }
    }
}

/// `SyncSlice`s over the `N` consecutive ψ fields starting at `first` —
/// the memory fields one kernel owns.
fn psi_slices<const N: usize>(psi: &mut [Field3], first: PsiIdx) -> [SyncSlice<'_>; N] {
    let first = first as usize;
    let mut fields = psi[first..first + N].iter_mut();
    std::array::from_fn(|_| SyncSlice::new(fields.next().expect("ψ field").as_mut_slice()))
}

#[inline(always)]
fn df(u: &[f32], c: usize, s: usize) -> f32 {
    let mut d = 0.0f32;
    for (k, &ck) in f32c::S1.iter().enumerate() {
        d += ck * (u[c + (k + 1) * s] - u[c - k * s]);
    }
    d
}

#[inline(always)]
fn db(u: &[f32], c: usize, s: usize) -> f32 {
    let mut d = 0.0f32;
    for (k, &ck) in f32c::S1.iter().enumerate() {
        d += ck * (u[c + k * s] - u[c - (k + 1) * s]);
    }
    d
}

macro_rules! vel_kernel {
    ($name:ident, $doc:literal, $d0:ident, $d1:ident, $d2:ident) => {
        #[doc = $doc]
        #[allow(clippy::too_many_arguments)]
        pub fn $name(
            v: SyncSlice,
            psi0: SyncSlice,
            psi1: SyncSlice,
            psi2: SyncSlice,
            s0: &[f32],
            s1: &[f32],
            s2: &[f32],
            rho: &[f32],
            e: Extent3,
            h: [f32; 3],
            dt: f32,
            cpml: &[CpmlAxis; 3],
            z0: usize,
            z1: usize,
        ) {
            assert!(z1 <= e.nz && z0 <= z1);
            let fnx = e.full_nx();
            let fnxy = fnx * e.full_ny();
            let strides = [1usize, fnx, fnxy];
            let rh = [1.0 / h[0], 1.0 / h[1], 1.0 / h[2]];
            let [cx, cy, cz] = cpml;
            for iz in z0..z1 {
                let cc2 = cz.coeffs(iz);
                for iy in 0..e.ny {
                    let cc1 = cy.coeffs(iy);
                    for ix in 0..e.nx {
                        let c = e.idx(ix, iy, iz);
                        let cc0 = cx.coeffs(ix);
                        let d0v = $d0(s0, c, strides[0]) * rh[0];
                        let p0 = cc0.1 * psi0.get(c) + cc0.0 * d0v;
                        unsafe { psi0.set(c, p0) };
                        let d1v = $d1(s1, c, strides[1]) * rh[1];
                        let p1 = cc1.1 * psi1.get(c) + cc1.0 * d1v;
                        unsafe { psi1.set(c, p1) };
                        let d2v = $d2(s2, c, strides[2]) * rh[2];
                        let p2 = cc2.1 * psi2.get(c) + cc2.0 * d2v;
                        unsafe { psi2.set(c, p2) };
                        let acc = (d0v * cc0.2 + p0) + (d1v * cc1.2 + p1) + (d2v * cc2.2 + p2);
                        unsafe { v.add(c, dt / rho[c] * acc) };
                    }
                }
            }
        }
    };
}

vel_kernel!(
    vx_slab,
    "`vx += Δt/ρ·(∂x σxx + ∂y σxy + ∂z σxz)` with C-PML on each derivative.",
    df,
    db,
    db
);
vel_kernel!(
    vy_slab,
    "`vy += Δt/ρ·(∂x σxy + ∂y σyy + ∂z σyz)` with C-PML on each derivative.",
    db,
    df,
    db
);
vel_kernel!(
    vz_slab,
    "`vz += Δt/ρ·(∂x σxz + ∂y σyz + ∂z σzz)` with C-PML on each derivative.",
    db,
    db,
    df
);

/// Diagonal stress kernel:
/// `σii += Δt·((λ+2μ)·e_ii + λ·(e_jj + e_kk))` for i ∈ {x, y, z}.
#[allow(clippy::too_many_arguments)]
pub fn stress_diag_slab(
    sxx: SyncSlice,
    syy: SyncSlice,
    szz: SyncSlice,
    psi_vx_x: SyncSlice,
    psi_vy_y: SyncSlice,
    psi_vz_z: SyncSlice,
    vx: &[f32],
    vy: &[f32],
    vz: &[f32],
    lam: &[f32],
    mu: &[f32],
    e: Extent3,
    h: [f32; 3],
    dt: f32,
    cpml: &[CpmlAxis; 3],
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    let fnx = e.full_nx();
    let fnxy = fnx * e.full_ny();
    let rh = [1.0 / h[0], 1.0 / h[1], 1.0 / h[2]];
    let [cx, cy, cz] = cpml;
    for iz in z0..z1 {
        let (az, bz, ikz) = cz.coeffs(iz);
        for iy in 0..e.ny {
            let (ay, by, iky) = cy.coeffs(iy);
            for ix in 0..e.nx {
                let c = e.idx(ix, iy, iz);
                let (ax, bx, ikx) = cx.coeffs(ix);
                let d0 = db(vx, c, 1) * rh[0];
                let p0 = bx * psi_vx_x.get(c) + ax * d0;
                unsafe { psi_vx_x.set(c, p0) };
                let exx = d0 * ikx + p0;

                let d1 = db(vy, c, fnx) * rh[1];
                let p1 = by * psi_vy_y.get(c) + ay * d1;
                unsafe { psi_vy_y.set(c, p1) };
                let eyy = d1 * iky + p1;

                let d2 = db(vz, c, fnxy) * rh[2];
                let p2 = bz * psi_vz_z.get(c) + az * d2;
                unsafe { psi_vz_z.set(c, p2) };
                let ezz = d2 * ikz + p2;

                let l = lam[c];
                let m2 = 2.0 * mu[c];
                let tr = exx + eyy + ezz;
                unsafe { sxx.add(c, dt * (l * tr + m2 * exx)) };
                unsafe { syy.add(c, dt * (l * tr + m2 * eyy)) };
                unsafe { szz.add(c, dt * (l * tr + m2 * ezz)) };
            }
        }
    }
}

/// Shear kernels σxy and σxz (share reads of `vx`):
/// `σxy += Δt·μ·(∂y vx + ∂x vy)`, `σxz += Δt·μ·(∂z vx + ∂x vz)`.
#[allow(clippy::too_many_arguments)]
pub fn stress_sxy_sxz_slab(
    sxy: SyncSlice,
    sxz: SyncSlice,
    psi_vx_y: SyncSlice,
    psi_vy_x: SyncSlice,
    psi_vx_z: SyncSlice,
    psi_vz_x: SyncSlice,
    vx: &[f32],
    vy: &[f32],
    vz: &[f32],
    mu: &[f32],
    e: Extent3,
    h: [f32; 3],
    dt: f32,
    cpml: &[CpmlAxis; 3],
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    let fnx = e.full_nx();
    let fnxy = fnx * e.full_ny();
    let rh = [1.0 / h[0], 1.0 / h[1], 1.0 / h[2]];
    let [cx, cy, cz] = cpml;
    for iz in z0..z1 {
        let (az, bz, ikz) = cz.coeffs(iz);
        for iy in 0..e.ny {
            let (ay, by, iky) = cy.coeffs(iy);
            for ix in 0..e.nx {
                let c = e.idx(ix, iy, iz);
                let (ax, bx, ikx) = cx.coeffs(ix);
                // σxy at (i+½, j+½, k).
                let d0 = df(vx, c, fnx) * rh[1];
                let p0 = by * psi_vx_y.get(c) + ay * d0;
                unsafe { psi_vx_y.set(c, p0) };
                let d1 = df(vy, c, 1) * rh[0];
                let p1 = bx * psi_vy_x.get(c) + ax * d1;
                unsafe { psi_vy_x.set(c, p1) };
                unsafe { sxy.add(c, dt * mu[c] * ((d0 * iky + p0) + (d1 * ikx + p1))) };

                // σxz at (i+½, j, k+½).
                let d2 = df(vx, c, fnxy) * rh[2];
                let p2 = bz * psi_vx_z.get(c) + az * d2;
                unsafe { psi_vx_z.set(c, p2) };
                let d3 = df(vz, c, 1) * rh[0];
                let p3 = bx * psi_vz_x.get(c) + ax * d3;
                unsafe { psi_vz_x.set(c, p3) };
                unsafe { sxz.add(c, dt * mu[c] * ((d2 * ikz + p2) + (d3 * ikx + p3))) };
            }
        }
    }
}

/// Shear kernel σyz: `σyz += Δt·μ·(∂z vy + ∂y vz)`.
#[allow(clippy::too_many_arguments)]
pub fn stress_syz_slab(
    syz: SyncSlice,
    psi_vy_z: SyncSlice,
    psi_vz_y: SyncSlice,
    vy: &[f32],
    vz: &[f32],
    mu: &[f32],
    e: Extent3,
    h: [f32; 3],
    dt: f32,
    cpml: &[CpmlAxis; 3],
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    let fnx = e.full_nx();
    let fnxy = fnx * e.full_ny();
    let rh = [1.0 / h[0], 1.0 / h[1], 1.0 / h[2]];
    let [cx, cy, cz] = cpml;
    let _ = cx;
    for iz in z0..z1 {
        let (az, bz, ikz) = cz.coeffs(iz);
        for iy in 0..e.ny {
            let (ay, by, iky) = cy.coeffs(iy);
            for ix in 0..e.nx {
                let c = e.idx(ix, iy, iz);
                let d0 = df(vy, c, fnxy) * rh[2];
                let p0 = bz * psi_vy_z.get(c) + az * d0;
                unsafe { psi_vy_z.set(c, p0) };
                let d1 = df(vz, c, fnx) * rh[1];
                let p1 = by * psi_vz_y.get(c) + ay * d1;
                unsafe { psi_vz_y.set(c, p1) };
                unsafe { syz.add(c, dt * mu[c] * ((d0 * ikz + p0) + (d1 * iky + p1))) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{elastic3_layered, Layer};
    use seismic_model::{extent3, ElasticModel3, Geometry};
    use seismic_source::ricker;

    fn setup_uniform(n: usize, vp: f32, vs: f32) -> (ElasticModel3, [CpmlAxis; 3]) {
        let e = extent3(n, n, n);
        let h = 10.0;
        let dt = stable_dt(8, 3, vp, h, 0.5);
        let layers = [Layer {
            z_top: 0,
            vp,
            vs,
            rho: 2200.0,
        }];
        let m = elastic3_layered(e, &layers, Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 6, dt, vp, h, 1e-4);
        (m, [c.clone(), c.clone(), c])
    }

    #[test]
    fn stable_and_propagates() {
        let n = 32;
        let (m, cpml) = setup_uniform(n, 3000.0, 1600.0);
        let mut s = El3State::new(m.rho.extent());
        for t in 0..60 {
            s.step(&m, &cpml, 1);
            s.inject(
                &m,
                n / 2,
                n / 2,
                n / 2,
                ricker(25.0, t as f32 * m.geom.dt - 0.048) * 1e6,
            );
        }
        let mx = s.vx.max_abs().max(s.vy.max_abs()).max(s.vz.max_abs());
        assert!(mx.is_finite() && mx > 0.0 && mx < 1e9, "max = {mx}");
    }

    /// Explosive source in a homogeneous medium ⇒ full axis symmetry:
    /// σxx along +x equals σyy along +y equals σzz along +z.
    #[test]
    fn axis_symmetry_of_explosive_source() {
        let n = 36;
        let (m, cpml) = setup_uniform(n, 3000.0, 1600.0);
        let mut s = El3State::new(m.rho.extent());
        let c = n / 2;
        for t in 0..50 {
            s.step(&m, &cpml, 1);
            s.inject(
                &m,
                c,
                c,
                c,
                ricker(25.0, t as f32 * m.geom.dt - 0.048) * 1e6,
            );
        }
        let mx = s.sxx.max_abs().max(1e-12);
        for d in 1..8 {
            let a = s.sxx.get(c + d, c, c);
            let b = s.syy.get(c, c + d, c);
            let cc = s.szz.get(c, c, c + d);
            assert!((a - b).abs() < 1e-3 * mx, "d={d}: {a} vs {b}");
            assert!((a - cc).abs() < 1e-3 * mx, "d={d}: {a} vs {cc}");
        }
    }

    #[test]
    fn fluid_generates_no_shear_3d() {
        let n = 24;
        let (m, cpml) = setup_uniform(n, 1500.0, 0.0);
        let mut s = El3State::new(m.rho.extent());
        for t in 0..40 {
            s.step(&m, &cpml, 1);
            s.inject(
                &m,
                12,
                12,
                12,
                ricker(25.0, t as f32 * m.geom.dt - 0.048) * 1e6,
            );
        }
        assert_eq!(s.sxy.max_abs(), 0.0);
        assert_eq!(s.sxz.max_abs(), 0.0);
        assert_eq!(s.syz.max_abs(), 0.0);
        assert!(s.sxx.max_abs() > 0.0);
    }

    #[test]
    fn energy_decays_with_cpml() {
        let n = 28;
        let (m, cpml) = setup_uniform(n, 2500.0, 1200.0);
        let mut s = El3State::new(m.rho.extent());
        let mut peak = 0.0f64;
        for t in 0..260 {
            s.step(&m, &cpml, 1);
            if t < 30 {
                s.inject(
                    &m,
                    14,
                    14,
                    14,
                    ricker(25.0, t as f32 * m.geom.dt - 0.048) * 1e6,
                );
            }
            let e = s.vx.energy() + s.vy.energy() + s.vz.energy();
            peak = peak.max(e);
        }
        let fin = s.vx.energy() + s.vy.energy() + s.vz.energy();
        assert!(fin < peak * 0.2, "final {fin} vs peak {peak}");
    }

    #[test]
    fn layered_3d_stable() {
        let n = 24;
        let e = extent3(n, n, n);
        let h = 10.0;
        let dt = stable_dt(8, 3, 3200.0, h, 0.5);
        let layers = [
            Layer {
                z_top: 0,
                vp: 1500.0,
                vs: 0.0,
                rho: 1000.0,
            },
            Layer {
                z_top: n / 2,
                vp: 3200.0,
                vs: 1800.0,
                rho: 2400.0,
            },
        ];
        let m = elastic3_layered(e, &layers, Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 6, dt, 3200.0, h, 1e-4);
        let cpml = [c.clone(), c.clone(), c];
        let mut s = El3State::new(e);
        for t in 0..60 {
            s.step(&m, &cpml, 1);
            s.inject(
                &m,
                n / 2,
                n / 2,
                4,
                ricker(25.0, t as f32 * dt - 0.048) * 1e6,
            );
        }
        assert!(s.vz.max_abs().is_finite());
        assert!(s.vz.max_abs() > 0.0);
    }
}
