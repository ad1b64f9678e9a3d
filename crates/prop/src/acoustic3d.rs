//! Acoustic variable-density propagator, 3D.
//!
//! 3D extension of [`crate::acoustic2d`] with the loop-fission variants of
//! the paper's Figure 12: "the most intensive 3D acoustic kernel ... consists
//! of computations that handle wave-fields derivations over three dimensions
//! for all grid points. We simply break this kernel into three kernels where
//! each is responsible for one dimension." The fused form needs many live
//! address/offset temporaries (register pressure, spilled on Fermi); the
//! fissioned form trades extra pressure-field traffic for low pressure.
//!
//! Both variants compute the same update; the accumulation order differs
//! (`p += Δt·K·(dx+dy+dz)` vs three separate `+=`), so equality tests use a
//! tight relative tolerance rather than bitwise comparison.

use crate::FissionVariant;
use exec_host::par_slabs;
use seismic_grid::fd::f32c;
use seismic_grid::{Extent3, Field3, SyncSlice};
use seismic_model::AcousticModel3;
use seismic_pml::CpmlAxis;

/// Acoustic 3D state: pressure, three velocity components, six ψ fields.
#[derive(Debug, Clone)]
pub struct Ac3State {
    /// Pressure.
    pub p: Field3,
    /// Velocity flow along x (staggered +x/2).
    pub qx: Field3,
    /// Velocity flow along y (staggered +y/2).
    pub qy: Field3,
    /// Velocity flow along z (staggered +z/2).
    pub qz: Field3,
    /// ψ for ∂x p.
    pub psi_px: Field3,
    /// ψ for ∂y p.
    pub psi_py: Field3,
    /// ψ for ∂z p.
    pub psi_pz: Field3,
    /// ψ for ∂x qx.
    pub psi_qx: Field3,
    /// ψ for ∂y qy.
    pub psi_qy: Field3,
    /// ψ for ∂z qz.
    pub psi_qz: Field3,
}

impl Ac3State {
    /// Quiescent state.
    pub fn new(extent: Extent3) -> Self {
        let z = || Field3::zeros(extent);
        Self {
            p: z(),
            qx: z(),
            qy: z(),
            qz: z(),
            psi_px: z(),
            psi_py: z(),
            psi_pz: z(),
            psi_qx: z(),
            psi_qy: z(),
            psi_qz: z(),
        }
    }

    /// Overwrite every field from `other` without allocating (extents must
    /// match) — the arena-reuse path for checkpoints and retries.
    pub fn copy_from(&mut self, other: &Self) {
        self.p.copy_from(&other.p);
        self.qx.copy_from(&other.qx);
        self.qy.copy_from(&other.qy);
        self.qz.copy_from(&other.qz);
        self.psi_px.copy_from(&other.psi_px);
        self.psi_py.copy_from(&other.psi_py);
        self.psi_pz.copy_from(&other.psi_pz);
        self.psi_qx.copy_from(&other.psi_qx);
        self.psi_qy.copy_from(&other.psi_qy);
        self.psi_qz.copy_from(&other.psi_qz);
    }

    /// Advance one time step on `gangs` host threads: velocity phase, then
    /// the fused or fissioned pressure phase.
    pub fn step(
        &mut self,
        model: &AcousticModel3,
        cpml: &[CpmlAxis; 3],
        variant: FissionVariant,
        gangs: usize,
    ) {
        self.velocity_phase(model, cpml, model.geom.dt, gangs);
        self.pressure_phase(model, cpml, variant, model.geom.dt, gangs);
    }

    /// Undo one [`Self::step`] through a lossless medium: the two phases
    /// in reverse order with `−dt` (see
    /// [`crate::acoustic2d::Ac2State::step_reverse`]).
    pub fn step_reverse(
        &mut self,
        model: &AcousticModel3,
        cpml: &[CpmlAxis; 3],
        variant: FissionVariant,
        gangs: usize,
    ) {
        self.pressure_phase(model, cpml, variant, -model.geom.dt, gangs);
        self.velocity_phase(model, cpml, -model.geom.dt, gangs);
    }

    /// Phase 1: particle velocities from the pressure gradient
    /// (`q += dt·D(p)` per axis, one fused kernel). `dt` is signed.
    fn velocity_phase(
        &mut self,
        model: &AcousticModel3,
        cpml: &[CpmlAxis; 3],
        dt: f32,
        gangs: usize,
    ) {
        let e = self.p.extent();
        let h = [model.geom.dx, model.geom.dy, model.geom.dz];
        let qx = SyncSlice::new(self.qx.as_mut_slice());
        let qy = SyncSlice::new(self.qy.as_mut_slice());
        let qz = SyncSlice::new(self.qz.as_mut_slice());
        let px = SyncSlice::new(self.psi_px.as_mut_slice());
        let py = SyncSlice::new(self.psi_py.as_mut_slice());
        let pz = SyncSlice::new(self.psi_pz.as_mut_slice());
        let p = self.p.as_slice();
        par_slabs(e.nz, gangs, |z0, z1| {
            velocity_slab(
                qx,
                qy,
                qz,
                px,
                py,
                pz,
                p,
                model.rho.as_slice(),
                e,
                h,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }

    /// Phase 2: pressure from the velocity divergence, fused or fissioned.
    /// The fissioned form updates `p` once per axis in sequence, so a
    /// reverse sweep (`dt < 0`) visits the axes in the opposite order; the
    /// fused form is a single update.
    fn pressure_phase(
        &mut self,
        model: &AcousticModel3,
        cpml: &[CpmlAxis; 3],
        variant: FissionVariant,
        dt: f32,
        gangs: usize,
    ) {
        let e = self.p.extent();
        let h = [model.geom.dx, model.geom.dy, model.geom.dz];
        match variant {
            FissionVariant::Fused => {
                let p = SyncSlice::new(self.p.as_mut_slice());
                let sx = SyncSlice::new(self.psi_qx.as_mut_slice());
                let sy = SyncSlice::new(self.psi_qy.as_mut_slice());
                let sz = SyncSlice::new(self.psi_qz.as_mut_slice());
                let (qx, qy, qz) = (self.qx.as_slice(), self.qy.as_slice(), self.qz.as_slice());
                par_slabs(e.nz, gangs, |z0, z1| {
                    pressure_fused_slab(
                        p,
                        sx,
                        sy,
                        sz,
                        qx,
                        qy,
                        qz,
                        model.vp.as_slice(),
                        model.rho.as_slice(),
                        e,
                        h,
                        dt,
                        cpml,
                        z0,
                        z1,
                    );
                });
            }
            FissionVariant::Fissioned => {
                let order = if dt < 0.0 { [2, 1, 0] } else { [0, 1, 2] };
                for axis in order {
                    let p = SyncSlice::new(self.p.as_mut_slice());
                    let (psi, q) = match axis {
                        0 => (&mut self.psi_qx, &self.qx),
                        1 => (&mut self.psi_qy, &self.qy),
                        _ => (&mut self.psi_qz, &self.qz),
                    };
                    let (psi, q) = (SyncSlice::new(psi.as_mut_slice()), q.as_slice());
                    par_slabs(e.nz, gangs, |z0, z1| {
                        pressure_axis_slab(
                            p,
                            psi,
                            q,
                            model.vp.as_slice(),
                            model.rho.as_slice(),
                            e,
                            axis,
                            h[axis],
                            dt,
                            &cpml[axis],
                            z0,
                            z1,
                        );
                    });
                }
            }
        }
    }

    /// Add a pressure source sample.
    pub fn inject(&mut self, model: &AcousticModel3, ix: usize, iy: usize, iz: usize, f: f32) {
        let dt = model.geom.dt;
        let vp = model.vp.get(ix, iy, iz);
        let rho = model.rho.get(ix, iy, iz);
        let v = self.p.get(ix, iy, iz) + dt * rho * vp * vp * f;
        self.p.set(ix, iy, iz, v);
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

/// Velocity kernel: `q_i += Δt/ρ · CPML(∂i p)` for i ∈ {x, y, z}.
#[allow(clippy::too_many_arguments)]
pub fn velocity_slab(
    qx: SyncSlice,
    qy: SyncSlice,
    qz: SyncSlice,
    psi_px: SyncSlice,
    psi_py: SyncSlice,
    psi_pz: SyncSlice,
    p: &[f32],
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
    let rh = [1.0 / h[0], 1.0 / h[1], 1.0 / h[2]];
    let [cx, cy, cz] = cpml;
    for iz in z0..z1 {
        let (az, bz, ikz) = cz.coeffs(iz);
        for iy in 0..e.ny {
            let (ay, by, iky) = cy.coeffs(iy);
            for ix in 0..e.nx {
                let c = e.idx(ix, iy, iz);
                let r = dt / rho[c];
                let (ax, bx, ikx) = cx.coeffs(ix);

                let dpx = df(p, c, 1) * rh[0];
                let px = bx * psi_px.get(c) + ax * dpx;
                unsafe { psi_px.set(c, px) };
                unsafe { qx.add(c, r * (dpx * ikx + px)) };

                let dpy = df(p, c, fnx) * rh[1];
                let py = by * psi_py.get(c) + ay * dpy;
                unsafe { psi_py.set(c, py) };
                unsafe { qy.add(c, r * (dpy * iky + py)) };

                let dpz = df(p, c, fnxy) * rh[2];
                let pz = bz * psi_pz.get(c) + az * dpz;
                unsafe { psi_pz.set(c, pz) };
                unsafe { qz.add(c, r * (dpz * ikz + pz)) };
            }
        }
    }
}

/// Fused pressure kernel: all three derivative contributions in one pass.
#[allow(clippy::too_many_arguments)]
pub fn pressure_fused_slab(
    p: SyncSlice,
    psi_qx: SyncSlice,
    psi_qy: SyncSlice,
    psi_qz: SyncSlice,
    qx: &[f32],
    qy: &[f32],
    qz: &[f32],
    vp: &[f32],
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
    let rh = [1.0 / h[0], 1.0 / h[1], 1.0 / h[2]];
    let [cx, cy, cz] = cpml;
    for iz in z0..z1 {
        let (az, bz, ikz) = cz.coeffs(iz);
        for iy in 0..e.ny {
            let (ay, by, iky) = cy.coeffs(iy);
            for ix in 0..e.nx {
                let c = e.idx(ix, iy, iz);
                let (ax, bx, ikx) = cx.coeffs(ix);

                let dqx = db(qx, c, 1) * rh[0];
                let sx = bx * psi_qx.get(c) + ax * dqx;
                unsafe { psi_qx.set(c, sx) };

                let dqy = db(qy, c, fnx) * rh[1];
                let sy = by * psi_qy.get(c) + ay * dqy;
                unsafe { psi_qy.set(c, sy) };

                let dqz = db(qz, c, fnxy) * rh[2];
                let sz = bz * psi_qz.get(c) + az * dqz;
                unsafe { psi_qz.set(c, sz) };

                let v = vp[c];
                let k = rho[c] * v * v;
                let div = (dqx * ikx + sx) + (dqy * iky + sy) + (dqz * ikz + sz);
                unsafe { p.add(c, dt * k * div) };
            }
        }
    }
}

/// One fissioned pressure kernel: the contribution of a single axis
/// (`axis` ∈ {0 = x, 1 = y, 2 = z}).
#[allow(clippy::too_many_arguments)]
pub fn pressure_axis_slab(
    p: SyncSlice,
    psi: SyncSlice,
    q: &[f32],
    vp: &[f32],
    rho: &[f32],
    e: Extent3,
    axis: usize,
    h: f32,
    dt: f32,
    cpml: &CpmlAxis,
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    let fnx = e.full_nx();
    let fnxy = fnx * e.full_ny();
    let stride = match axis {
        0 => 1,
        1 => fnx,
        2 => fnxy,
        _ => panic!("axis must be 0..3"),
    };
    let rh = 1.0 / h;
    for iz in z0..z1 {
        for iy in 0..e.ny {
            for ix in 0..e.nx {
                let c = e.idx(ix, iy, iz);
                let i_axis = [ix, iy, iz][axis];
                let (a, b, ik) = cpml.coeffs(i_axis);
                let dq = db(q, c, stride) * rh;
                let s = b * psi.get(c) + a * dq;
                unsafe { psi.set(c, s) };
                let v = vp[c];
                let k = rho[c] * v * v;
                unsafe { p.add(c, dt * k * (dq * ik + s)) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{acoustic3_layered, standard_layers};
    use seismic_model::{extent3, AcousticModel3, Geometry};
    use seismic_source::ricker;

    fn setup(n: usize) -> (AcousticModel3, [CpmlAxis; 3]) {
        let e = extent3(n, n, n);
        let h = 10.0;
        let vmax = 3200.0;
        let dt = stable_dt(8, 3, vmax, h, 0.6);
        let m = acoustic3_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 8, dt, vmax, h, 1e-4);
        (m, [c.clone(), c.clone(), c])
    }

    fn run(variant: FissionVariant, n: usize, steps: usize) -> Ac3State {
        let (m, cpml) = setup(n);
        let mut s = Ac3State::new(m.vp.extent());
        for t in 0..steps {
            s.step(&m, &cpml, variant, 1);
            s.inject(
                &m,
                n / 2,
                n / 2,
                6,
                ricker(25.0, t as f32 * m.geom.dt - 0.048),
            );
        }
        s
    }

    /// Figure 12's premise: fission changes performance, not results.
    #[test]
    fn fused_and_fissioned_agree() {
        let a = run(FissionVariant::Fused, 32, 40);
        let b = run(FissionVariant::Fissioned, 32, 40);
        let scale = a.p.max_abs().max(1e-12);
        let e = a.p.extent();
        for iz in 0..e.nz {
            for iy in 0..e.ny {
                for ix in 0..e.nx {
                    let d = (a.p.get(ix, iy, iz) - b.p.get(ix, iy, iz)).abs();
                    assert!(
                        d <= 1e-3 * scale,
                        "({ix},{iy},{iz}): {} vs {}",
                        a.p.get(ix, iy, iz),
                        b.p.get(ix, iy, iz)
                    );
                }
            }
        }
        // Velocity fields agree to the same tolerance (they read the
        // slightly-different pressure of the other variant's prior step).
        let qscale = a.qx.max_abs().max(1e-12);
        for (x, y) in a.qx.as_slice().iter().zip(b.qx.as_slice()) {
            assert!((x - y).abs() <= 1e-3 * qscale, "{x} vs {y}");
        }
    }

    #[test]
    fn stable_and_finite() {
        let s = run(FissionVariant::Fused, 28, 60);
        let m = s.p.max_abs();
        assert!(m.is_finite() && m > 0.0 && m < 1e8);
    }

    #[test]
    fn energy_decays_with_cpml() {
        let (m, cpml) = setup(28);
        let mut s = Ac3State::new(m.vp.extent());
        let mut peak = 0.0f64;
        for t in 0..300 {
            s.step(&m, &cpml, FissionVariant::Fissioned, 1);
            if t < 40 {
                s.inject(&m, 14, 14, 14, ricker(25.0, t as f32 * m.geom.dt - 0.048));
            }
            peak = peak.max(s.p.energy());
        }
        assert!(s.p.energy() < peak * 0.15);
    }

    #[test]
    #[should_panic(expected = "axis must be 0..3")]
    fn pressure_axis_rejects_bad_axis() {
        let (m, cpml) = setup(16);
        let e = m.vp.extent();
        let mut s = Ac3State::new(e);
        let p = SyncSlice::new(s.p.as_mut_slice());
        let psi = SyncSlice::new(s.psi_qx.as_mut_slice());
        pressure_axis_slab(
            p,
            psi,
            s.qx.as_slice(),
            m.vp.as_slice(),
            m.rho.as_slice(),
            e,
            7,
            10.0,
            1e-3,
            &cpml[0],
            0,
            e.nz,
        );
    }
}
