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

use crate::stagger::{bwd, fwd, sweep, Grid, X, Y, Z};
use crate::FissionVariant;
use seismic_grid::{Extent3, Field3};
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
    /// match) — the buffer-reuse path for checkpoints and retries.
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
        let g = &model.geom;
        let p = self.p.as_slice();
        sweep(
            Grid::new3(self.p.extent(), [g.dx, g.dy, g.dz], cpml),
            [
                fwd(p, self.psi_px.as_mut_slice(), X),
                fwd(p, self.psi_py.as_mut_slice(), Y),
                fwd(p, self.psi_pz.as_mut_slice(), Z),
            ],
            [model.rho.as_slice()],
            [
                self.qx.as_mut_slice(),
                self.qy.as_mut_slice(),
                self.qz.as_mut_slice(),
            ],
            gangs,
            move |[dpx, dpy, dpz], [rho]| {
                let r = dt / rho;
                [r * dpx, r * dpy, r * dpz]
            },
        );
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
        let g = Grid::new3(
            self.p.extent(),
            [model.geom.dx, model.geom.dy, model.geom.dz],
            cpml,
        );
        let media = [model.vp.as_slice(), model.rho.as_slice()];
        match variant {
            FissionVariant::Fused => sweep(
                g,
                [
                    bwd(self.qx.as_slice(), self.psi_qx.as_mut_slice(), X),
                    bwd(self.qy.as_slice(), self.psi_qy.as_mut_slice(), Y),
                    bwd(self.qz.as_slice(), self.psi_qz.as_mut_slice(), Z),
                ],
                media,
                [self.p.as_mut_slice()],
                gangs,
                move |[dqx, dqy, dqz], [vp, rho]| [dt * (rho * vp * vp) * (dqx + dqy + dqz)],
            ),
            FissionVariant::Fissioned => {
                let order = if dt < 0.0 { [Z, Y, X] } else { [X, Y, Z] };
                for axis in order {
                    let (q, psi) = match axis {
                        X => (&self.qx, &mut self.psi_qx),
                        Y => (&self.qy, &mut self.psi_qy),
                        _ => (&self.qz, &mut self.psi_qz),
                    };
                    sweep(
                        g,
                        [bwd(q.as_slice(), psi.as_mut_slice(), axis)],
                        media,
                        [self.p.as_mut_slice()],
                        gangs,
                        move |[dq], [vp, rho]| [dt * (rho * vp * vp) * dq],
                    );
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
}
