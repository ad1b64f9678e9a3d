//! Elastic isotropic propagator, 2D P-SV (Equation 3, reduced to the plane).
//!
//! Virieux-style velocity–stress staggered grid:
//!
//! * `vx` at (i+½, j), `vz` at (i, j+½),
//! * normal stresses `σxx`, `σzz` at (i, j), shear `σxz` at (i+½, j+½).
//!
//! Each step runs four kernels — `vx`, `vz`, diagonal stresses, shear
//! stress — which are mutually independent inside each (velocity/stress)
//! phase. That independence is exactly what the paper exploits with the
//! `async` clause on the elastic model (Figure 11).

use exec_host::par_slabs;
use seismic_grid::fd::f32c;
use seismic_grid::{Extent2, Field2, SyncSlice};
use seismic_model::ElasticModel2;
use seismic_pml::CpmlAxis;

/// Elastic 2D state: 2 velocities + 3 stresses + 8 C-PML memory fields.
#[derive(Debug, Clone)]
pub struct El2State {
    /// Horizontal particle velocity (staggered +x/2).
    pub vx: Field2,
    /// Vertical particle velocity (staggered +z/2).
    pub vz: Field2,
    /// Normal stress σxx.
    pub sxx: Field2,
    /// Normal stress σzz.
    pub szz: Field2,
    /// Shear stress σxz (staggered +x/2, +z/2).
    pub sxz: Field2,
    /// ψ for ∂x σxx (vx kernel).
    pub psi_sxx_x: Field2,
    /// ψ for ∂z σxz (vx kernel).
    pub psi_sxz_z: Field2,
    /// ψ for ∂x σxz (vz kernel).
    pub psi_sxz_x: Field2,
    /// ψ for ∂z σzz (vz kernel).
    pub psi_szz_z: Field2,
    /// ψ for ∂x vx (diagonal stress kernel).
    pub psi_vx_x: Field2,
    /// ψ for ∂z vz (diagonal stress kernel).
    pub psi_vz_z: Field2,
    /// ψ for ∂z vx (shear kernel).
    pub psi_vx_z: Field2,
    /// ψ for ∂x vz (shear kernel).
    pub psi_vz_x: Field2,
}

impl El2State {
    /// Quiescent state.
    pub fn new(extent: Extent2) -> Self {
        let z = || Field2::zeros(extent);
        Self {
            vx: z(),
            vz: z(),
            sxx: z(),
            szz: z(),
            sxz: z(),
            psi_sxx_x: z(),
            psi_sxz_z: z(),
            psi_sxz_x: z(),
            psi_szz_z: z(),
            psi_vx_x: z(),
            psi_vz_z: z(),
            psi_vx_z: z(),
            psi_vz_x: z(),
        }
    }

    /// Overwrite every field from `other` without allocating (extents must
    /// match) — the arena-reuse path for checkpoints and retries.
    pub fn copy_from(&mut self, other: &Self) {
        self.vx.copy_from(&other.vx);
        self.vz.copy_from(&other.vz);
        self.sxx.copy_from(&other.sxx);
        self.szz.copy_from(&other.szz);
        self.sxz.copy_from(&other.sxz);
        self.psi_sxx_x.copy_from(&other.psi_sxx_x);
        self.psi_sxz_z.copy_from(&other.psi_sxz_z);
        self.psi_sxz_x.copy_from(&other.psi_sxz_x);
        self.psi_szz_z.copy_from(&other.psi_szz_z);
        self.psi_vx_x.copy_from(&other.psi_vx_x);
        self.psi_vz_z.copy_from(&other.psi_vz_z);
        self.psi_vx_z.copy_from(&other.psi_vx_z);
        self.psi_vz_x.copy_from(&other.psi_vz_x);
    }

    /// Advance one time step on `gangs` host threads: velocity kernels,
    /// then stress kernels.
    pub fn step(&mut self, model: &ElasticModel2, cpml: &[CpmlAxis; 2], gangs: usize) {
        self.velocity_phase(model, cpml, model.geom.dt, gangs);
        self.stress_phase(model, cpml, model.geom.dt, gangs);
    }

    /// Undo one [`Self::step`] through a lossless medium: the two phases
    /// in reverse order with `−dt` (see
    /// [`crate::acoustic2d::Ac2State::step_reverse`]).
    pub fn step_reverse(&mut self, model: &ElasticModel2, cpml: &[CpmlAxis; 2], gangs: usize) {
        self.stress_phase(model, cpml, -model.geom.dt, gangs);
        self.velocity_phase(model, cpml, -model.geom.dt, gangs);
    }

    /// Velocity phase: vx then vz. Both read only stresses, so their order
    /// is immaterial. `dt` is signed so the reverse step can undo it.
    fn velocity_phase(
        &mut self,
        model: &ElasticModel2,
        cpml: &[CpmlAxis; 2],
        dt: f32,
        gangs: usize,
    ) {
        let e = self.vx.extent();
        let g = &model.geom;
        let (sxx, szz, sxz) = (
            self.sxx.as_slice(),
            self.szz.as_slice(),
            self.sxz.as_slice(),
        );
        let vx = SyncSlice::new(self.vx.as_mut_slice());
        let p1 = SyncSlice::new(self.psi_sxx_x.as_mut_slice());
        let p2 = SyncSlice::new(self.psi_sxz_z.as_mut_slice());
        par_slabs(e.nz, gangs, |z0, z1| {
            vx_slab(
                vx,
                p1,
                p2,
                sxx,
                sxz,
                model.rho.as_slice(),
                e,
                g.dx,
                g.dz,
                dt,
                cpml,
                z0,
                z1,
            );
        });
        let vz = SyncSlice::new(self.vz.as_mut_slice());
        let p1 = SyncSlice::new(self.psi_sxz_x.as_mut_slice());
        let p2 = SyncSlice::new(self.psi_szz_z.as_mut_slice());
        par_slabs(e.nz, gangs, |z0, z1| {
            vz_slab(
                vz,
                p1,
                p2,
                sxz,
                szz,
                model.rho.as_slice(),
                e,
                g.dx,
                g.dz,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }

    /// Stress phase: diagonal then shear. Both read only velocities.
    fn stress_phase(&mut self, model: &ElasticModel2, cpml: &[CpmlAxis; 2], dt: f32, gangs: usize) {
        let e = self.vx.extent();
        let g = &model.geom;
        let (vx, vz) = (self.vx.as_slice(), self.vz.as_slice());
        let sxx = SyncSlice::new(self.sxx.as_mut_slice());
        let szz = SyncSlice::new(self.szz.as_mut_slice());
        let p1 = SyncSlice::new(self.psi_vx_x.as_mut_slice());
        let p2 = SyncSlice::new(self.psi_vz_z.as_mut_slice());
        par_slabs(e.nz, gangs, |z0, z1| {
            stress_diag_slab(
                sxx,
                szz,
                p1,
                p2,
                vx,
                vz,
                model.lam.as_slice(),
                model.mu.as_slice(),
                e,
                g.dx,
                g.dz,
                dt,
                cpml,
                z0,
                z1,
            );
        });
        let sxz = SyncSlice::new(self.sxz.as_mut_slice());
        let p1 = SyncSlice::new(self.psi_vx_z.as_mut_slice());
        let p2 = SyncSlice::new(self.psi_vz_x.as_mut_slice());
        par_slabs(e.nz, gangs, |z0, z1| {
            stress_shear_slab(
                sxz,
                p1,
                p2,
                vx,
                vz,
                model.mu.as_slice(),
                e,
                g.dx,
                g.dz,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }

    /// Explosive source: equal increments on both normal stresses.
    pub fn inject(&mut self, model: &ElasticModel2, ix: usize, iz: usize, f: f32) {
        let a = model.geom.dt * f;
        let v = self.sxx.get(ix, iz) + a;
        self.sxx.set(ix, iz, v);
        let v = self.szz.get(ix, iz) + a;
        self.szz.set(ix, iz, v);
    }
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

/// `vx += Δt/ρ·(CPML(∂x σxx) + CPML(∂z σxz))`.
#[allow(clippy::too_many_arguments)]
pub fn vx_slab(
    vx: SyncSlice,
    psi_sxx_x: SyncSlice,
    psi_sxz_z: SyncSlice,
    sxx: &[f32],
    sxz: &[f32],
    rho: &[f32],
    e: Extent2,
    dx: f32,
    dz: f32,
    dt: f32,
    cpml: &[CpmlAxis; 2],
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    let fnx = e.full_nx();
    let (rdx, rdz) = (1.0 / dx, 1.0 / dz);
    let [cx, cz] = cpml;
    for iz in z0..z1 {
        let (az, bz, ikz) = cz.coeffs(iz);
        for ix in 0..e.nx {
            let c = e.idx(ix, iz);
            let (ax, bx, ikx) = cx.coeffs(ix);
            let d1 = df(sxx, c, 1) * rdx;
            let p1 = bx * psi_sxx_x.get(c) + ax * d1;
            unsafe { psi_sxx_x.set(c, p1) };
            let d2 = db(sxz, c, fnx) * rdz;
            let p2 = bz * psi_sxz_z.get(c) + az * d2;
            unsafe { psi_sxz_z.set(c, p2) };
            unsafe { vx.add(c, dt / rho[c] * ((d1 * ikx + p1) + (d2 * ikz + p2))) };
        }
    }
}

/// `vz += Δt/ρ·(CPML(∂x σxz) + CPML(∂z σzz))`.
#[allow(clippy::too_many_arguments)]
pub fn vz_slab(
    vz: SyncSlice,
    psi_sxz_x: SyncSlice,
    psi_szz_z: SyncSlice,
    sxz: &[f32],
    szz: &[f32],
    rho: &[f32],
    e: Extent2,
    dx: f32,
    dz: f32,
    dt: f32,
    cpml: &[CpmlAxis; 2],
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    let fnx = e.full_nx();
    let (rdx, rdz) = (1.0 / dx, 1.0 / dz);
    let [cx, cz] = cpml;
    for iz in z0..z1 {
        let (az, bz, ikz) = cz.coeffs(iz);
        for ix in 0..e.nx {
            let c = e.idx(ix, iz);
            let (ax, bx, ikx) = cx.coeffs(ix);
            let d1 = db(sxz, c, 1) * rdx;
            let p1 = bx * psi_sxz_x.get(c) + ax * d1;
            unsafe { psi_sxz_x.set(c, p1) };
            let d2 = df(szz, c, fnx) * rdz;
            let p2 = bz * psi_szz_z.get(c) + az * d2;
            unsafe { psi_szz_z.set(c, p2) };
            unsafe { vz.add(c, dt / rho[c] * ((d1 * ikx + p1) + (d2 * ikz + p2))) };
        }
    }
}

/// Diagonal stresses:
/// `σxx += Δt·((λ+2μ)·∂x vx + λ·∂z vz)`, `σzz += Δt·(λ·∂x vx + (λ+2μ)·∂z vz)`.
#[allow(clippy::too_many_arguments)]
pub fn stress_diag_slab(
    sxx: SyncSlice,
    szz: SyncSlice,
    psi_vx_x: SyncSlice,
    psi_vz_z: SyncSlice,
    vx: &[f32],
    vz: &[f32],
    lam: &[f32],
    mu: &[f32],
    e: Extent2,
    dx: f32,
    dz: f32,
    dt: f32,
    cpml: &[CpmlAxis; 2],
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    let fnx = e.full_nx();
    let (rdx, rdz) = (1.0 / dx, 1.0 / dz);
    let [cx, cz] = cpml;
    for iz in z0..z1 {
        let (az, bz, ikz) = cz.coeffs(iz);
        for ix in 0..e.nx {
            let c = e.idx(ix, iz);
            let (ax, bx, ikx) = cx.coeffs(ix);
            let d1 = db(vx, c, 1) * rdx;
            let p1 = bx * psi_vx_x.get(c) + ax * d1;
            unsafe { psi_vx_x.set(c, p1) };
            let exx = d1 * ikx + p1;

            let d2 = db(vz, c, fnx) * rdz;
            let p2 = bz * psi_vz_z.get(c) + az * d2;
            unsafe { psi_vz_z.set(c, p2) };
            let ezz = d2 * ikz + p2;

            let l = lam[c];
            let l2m = l + 2.0 * mu[c];
            unsafe { sxx.add(c, dt * (l2m * exx + l * ezz)) };
            unsafe { szz.add(c, dt * (l * exx + l2m * ezz)) };
        }
    }
}

/// Shear stress: `σxz += Δt·μ·(∂z vx + ∂x vz)`.
#[allow(clippy::too_many_arguments)]
pub fn stress_shear_slab(
    sxz: SyncSlice,
    psi_vx_z: SyncSlice,
    psi_vz_x: SyncSlice,
    vx: &[f32],
    vz: &[f32],
    mu: &[f32],
    e: Extent2,
    dx: f32,
    dz: f32,
    dt: f32,
    cpml: &[CpmlAxis; 2],
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    let fnx = e.full_nx();
    let (rdx, rdz) = (1.0 / dx, 1.0 / dz);
    let [cx, cz] = cpml;
    for iz in z0..z1 {
        let (az, bz, ikz) = cz.coeffs(iz);
        for ix in 0..e.nx {
            let c = e.idx(ix, iz);
            let (ax, bx, ikx) = cx.coeffs(ix);
            let d1 = df(vx, c, fnx) * rdz;
            let p1 = bz * psi_vx_z.get(c) + az * d1;
            unsafe { psi_vx_z.set(c, p1) };
            let d2 = df(vz, c, 1) * rdx;
            let p2 = bx * psi_vz_x.get(c) + ax * d2;
            unsafe { psi_vz_x.set(c, p2) };
            unsafe { sxz.add(c, dt * mu[c] * ((d1 * ikz + p1) + (d2 * ikx + p2))) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{elastic2_layered, standard_layers, Layer};
    use seismic_model::{extent2, ElasticModel2, Geometry};
    use seismic_source::ricker;

    fn setup_uniform(n: usize, vp: f32, vs: f32) -> (ElasticModel2, [CpmlAxis; 2]) {
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, vp, h, 0.5);
        let layers = [Layer {
            z_top: 0,
            vp,
            vs,
            rho: 2200.0,
        }];
        let m = elastic2_layered(e, &layers, Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 10, dt, vp, h, 1e-4);
        (m, [c.clone(), c])
    }

    #[test]
    fn stable_and_propagates() {
        let n = 80;
        let (m, cpml) = setup_uniform(n, 3000.0, 1600.0);
        let mut s = El2State::new(m.rho.extent());
        for t in 0..150 {
            s.step(&m, &cpml, 1);
            s.inject(
                &m,
                n / 2,
                n / 2,
                ricker(20.0, t as f32 * m.geom.dt - 0.06) * 1e6,
            );
        }
        let mx = s.vx.max_abs().max(s.vz.max_abs());
        assert!(mx.is_finite() && mx > 0.0 && mx < 1e9, "max = {mx}");
    }

    /// An explosive source in a homogeneous solid is a pure P source:
    /// the P front along +x must arrive at vp·t.
    #[test]
    fn p_wave_speed_matches_vp() {
        let n = 180;
        let vp = 3000.0f32;
        let (m, cpml) = setup_uniform(n, vp, 1600.0);
        let mut s = El2State::new(m.rho.extent());
        let f = 22.0;
        let t0 = 1.2 / f;
        let steps = 150;
        for t in 0..steps {
            s.step(&m, &cpml, 1);
            s.inject(&m, n / 2, n / 2, ricker(f, t as f32 * m.geom.dt - t0) * 1e6);
        }
        let elapsed = steps as f32 * m.geom.dt - t0;
        let expect_r = vp * elapsed / m.geom.dx;
        // Peak |sxx| along the +x ray.
        let mut best = (0usize, 0.0f32);
        for r in 5..n / 2 - 2 {
            let v = s.sxx.get(n / 2 + r, n / 2).abs();
            if v > best.1 {
                best = (r, v);
            }
        }
        assert!(
            (best.0 as f32 - expect_r).abs() <= 5.0,
            "P front at {} points, expected ~{expect_r}",
            best.0
        );
    }

    /// In a fluid (μ = 0) the shear stress must remain identically zero.
    #[test]
    fn fluid_generates_no_shear() {
        let n = 48;
        let (m, cpml) = setup_uniform(n, 1500.0, 0.0);
        let mut s = El2State::new(m.rho.extent());
        for t in 0..80 {
            s.step(&m, &cpml, 1);
            s.inject(
                &m,
                n / 2,
                n / 2,
                ricker(25.0, t as f32 * m.geom.dt - 0.048) * 1e6,
            );
        }
        assert_eq!(s.sxz.max_abs(), 0.0);
        assert!(s.sxx.max_abs() > 0.0);
    }

    #[test]
    fn energy_decays_with_cpml() {
        let n = 72;
        let (m, cpml) = setup_uniform(n, 2500.0, 1200.0);
        let mut s = El2State::new(m.rho.extent());
        let mut peak = 0.0f64;
        for t in 0..900 {
            s.step(&m, &cpml, 1);
            if t < 60 {
                s.inject(
                    &m,
                    n / 2,
                    n / 2,
                    ricker(20.0, t as f32 * m.geom.dt - 0.06) * 1e6,
                );
            }
            let e = s.vx.energy() + s.vz.energy();
            peak = peak.max(e);
        }
        let fin = s.vx.energy() + s.vz.energy();
        assert!(fin < peak * 0.1, "final {fin} vs peak {peak}");
    }

    /// Layered model: run a few steps to make sure heterogeneous λ/μ paths
    /// (including the fluid→solid interface) stay finite.
    #[test]
    fn layered_model_stable() {
        let n = 60;
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 3200.0, h, 0.5);
        let m = elastic2_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 10, dt, 3200.0, h, 1e-4);
        let cpml = [c.clone(), c];
        let mut s = El2State::new(e);
        for t in 0..120 {
            s.step(&m, &cpml, 1);
            s.inject(&m, n / 2, 5, ricker(20.0, t as f32 * dt - 0.06) * 1e6);
        }
        assert!(s.vz.max_abs().is_finite());
        // Converted/transmitted energy exists below the first interface.
        let mut deep = 0.0f32;
        for ix in 0..n {
            deep = deep.max(s.vz.get(ix, n / 2).abs());
        }
        assert!(deep > 0.0);
    }
}
