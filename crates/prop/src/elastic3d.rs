//! Elastic isotropic propagator, 3D (Equation 3 of the paper).
//!
//! Velocity–stress staggered grid (Madariaga–Virieux layout): three particle
//! velocities and six stresses, 18 C-PML memory fields. Six kernels per
//! step — `vx`, `vy`, `vz`, diagonal stresses, (σxy, σxz), σyz — matching
//! the independent-kernel structure the paper overlaps with async streams
//! and the most memory-hungry case of the evaluation (the one that OOMs the
//! 6 GB Fermi card at production grid sizes).

use crate::stagger::{bwd, fwd, sweep, Grid, X, Y, Z};
use seismic_grid::{Extent3, Field3};
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
    /// match) — the buffer-reuse path for checkpoints and retries.
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
    /// writes its own field and three ψ fields,
    /// `v_i += Δt/ρ·(∂x σ_ix + ∂y σ_iy + ∂z σ_iz)`. `dt` is signed so the
    /// reverse step can undo it.
    fn velocity_phase(
        &mut self,
        model: &ElasticModel3,
        cpml: &[CpmlAxis; 3],
        dt: f32,
        gangs: usize,
    ) {
        let geom = &model.geom;
        let g = Grid::new3(self.vx.extent(), [geom.dx, geom.dy, geom.dz], cpml);
        let rho = [model.rho.as_slice()];
        let accel = move |[d0, d1, d2]: [f32; 3], [rho]: [f32; 1]| [dt / rho * (d0 + d1 + d2)];
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
        let [p0, p1, p2] = psi_slices(&mut self.psi, PsiIdx::SxxX);
        let derivs = [fwd(sxx, p0, X), bwd(sxy, p1, Y), bwd(sxz, p2, Z)];
        sweep(g, derivs, rho, [self.vx.as_mut_slice()], gangs, accel);
        let [p0, p1, p2] = psi_slices(&mut self.psi, PsiIdx::SxyX);
        let derivs = [bwd(sxy, p0, X), fwd(syy, p1, Y), bwd(syz, p2, Z)];
        sweep(g, derivs, rho, [self.vy.as_mut_slice()], gangs, accel);
        let [p0, p1, p2] = psi_slices(&mut self.psi, PsiIdx::SxzX);
        let derivs = [bwd(sxz, p0, X), bwd(syz, p1, Y), fwd(szz, p2, Z)];
        sweep(g, derivs, rho, [self.vz.as_mut_slice()], gangs, accel);
    }

    /// Stress phase: the diagonal, (σxy, σxz) and σyz kernels. Each reads
    /// only velocities. `dt` is signed.
    fn stress_phase(&mut self, model: &ElasticModel3, cpml: &[CpmlAxis; 3], dt: f32, gangs: usize) {
        let geom = &model.geom;
        let g = Grid::new3(self.vx.extent(), [geom.dx, geom.dy, geom.dz], cpml);
        let (lam, mu) = (model.lam.as_slice(), model.mu.as_slice());
        let (vx, vy, vz) = (self.vx.as_slice(), self.vy.as_slice(), self.vz.as_slice());
        // σii += Δt·(λ·(exx + eyy + ezz) + 2μ·eii)
        let [p0, p1, p2] = psi_slices(&mut self.psi, PsiIdx::VxX);
        sweep(
            g,
            [bwd(vx, p0, X), bwd(vy, p1, Y), bwd(vz, p2, Z)],
            [lam, mu],
            [
                self.sxx.as_mut_slice(),
                self.syy.as_mut_slice(),
                self.szz.as_mut_slice(),
            ],
            gangs,
            move |[exx, eyy, ezz], [l, mu]| {
                let m2 = 2.0 * mu;
                let tr = exx + eyy + ezz;
                [
                    dt * (l * tr + m2 * exx),
                    dt * (l * tr + m2 * eyy),
                    dt * (l * tr + m2 * ezz),
                ]
            },
        );
        // σxy += Δt·μ·(∂y vx + ∂x vy), σxz += Δt·μ·(∂z vx + ∂x vz): one kernel
        let [p0, p1, p2, p3] = psi_slices(&mut self.psi, PsiIdx::VxY);
        sweep(
            g,
            [
                fwd(vx, p0, Y),
                fwd(vy, p1, X),
                fwd(vx, p2, Z),
                fwd(vz, p3, X),
            ],
            [mu],
            [self.sxy.as_mut_slice(), self.sxz.as_mut_slice()],
            gangs,
            move |[d0, d1, d2, d3], [mu]| [dt * mu * (d0 + d1), dt * mu * (d2 + d3)],
        );
        // σyz += Δt·μ·(∂z vy + ∂y vz)
        let [p0, p1] = psi_slices(&mut self.psi, PsiIdx::VyZ);
        sweep(
            g,
            [fwd(vy, p0, Z), fwd(vz, p1, Y)],
            [mu],
            [self.syz.as_mut_slice()],
            gangs,
            move |[d0, d1], [mu]| [dt * mu * (d0 + d1)],
        );
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

/// The `N` consecutive ψ fields starting at `first` — the memory fields
/// one kernel owns.
fn psi_slices<const N: usize>(psi: &mut [Field3], first: PsiIdx) -> [&mut [f32]; N] {
    let first = first as usize;
    let mut fields = psi[first..first + N].iter_mut();
    std::array::from_fn(|_| fields.next().expect("ψ field").as_mut_slice())
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
