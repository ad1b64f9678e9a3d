//! Acoustic variable-density propagator, 2D (Equation 2 of the paper).
//!
//! First-order pressure–velocity system on a staggered grid:
//!
//! ```text
//! ∂t p  = ρ·vp²·(∂x qx + ∂z qz) + source
//! ∂t qx = (1/ρ)·∂x p
//! ∂t qz = (1/ρ)·∂z p
//! ```
//!
//! 8th-order staggered operators, C-PML absorption via per-derivative memory
//! fields ψ. Each time step is two kernel phases: the *velocity* kernel
//! (writes `qx`, `qz` and their ψ fields, reads `p`) and the *pressure*
//! kernel (writes `p` and its ψ fields, reads `qx`, `qz`) — within a phase
//! every point is independent, which is what lets `openacc-sim` gangs and
//! `mpi-sim` ranks split the z-range.

use crate::stagger::{bwd, fwd, sweep, Grid, X, Z};
use seismic_grid::{Extent2, Field2};
use seismic_model::AcousticModel2;
use seismic_pml::CpmlAxis;

/// Acoustic 2D wavefield state: pressure, two velocity components, and four
/// C-PML memory fields (one per directional derivative).
#[derive(Debug, Clone)]
pub struct Ac2State {
    /// Pressure.
    pub p: Field2,
    /// Horizontal velocity flow (staggered +x/2).
    pub qx: Field2,
    /// Vertical velocity flow (staggered +z/2).
    pub qz: Field2,
    /// ψ for ∂x p (velocity kernel).
    pub psi_px: Field2,
    /// ψ for ∂z p (velocity kernel).
    pub psi_pz: Field2,
    /// ψ for ∂x qx (pressure kernel).
    pub psi_qx: Field2,
    /// ψ for ∂z qz (pressure kernel).
    pub psi_qz: Field2,
}

impl Ac2State {
    /// Quiescent state.
    pub fn new(extent: Extent2) -> Self {
        Self {
            p: Field2::zeros(extent),
            qx: Field2::zeros(extent),
            qz: Field2::zeros(extent),
            psi_px: Field2::zeros(extent),
            psi_pz: Field2::zeros(extent),
            psi_qx: Field2::zeros(extent),
            psi_qz: Field2::zeros(extent),
        }
    }

    /// Overwrite every field from `other` without allocating (extents must
    /// match) — the buffer-reuse path for checkpoints and retries.
    pub fn copy_from(&mut self, other: &Self) {
        self.p.copy_from(&other.p);
        self.qx.copy_from(&other.qx);
        self.qz.copy_from(&other.qz);
        self.psi_px.copy_from(&other.psi_px);
        self.psi_pz.copy_from(&other.psi_pz);
        self.psi_qx.copy_from(&other.psi_qx);
        self.psi_qz.copy_from(&other.psi_qz);
    }

    /// Advance one time step on `gangs` host threads: velocity phase, then
    /// pressure phase.
    pub fn step(&mut self, model: &AcousticModel2, cpml: &[CpmlAxis; 2], gangs: usize) {
        self.velocity_phase(model, cpml, model.geom.dt, gangs);
        self.pressure_phase(model, cpml, model.geom.dt, gangs);
    }

    /// Undo one [`Self::step`] through a lossless medium (transparent
    /// C-PML): each phase is an in-place `field += dt·F(other fields)`
    /// update, so the phases run in reverse order with `−dt`. The ψ fields
    /// stay zero under transparent C-PML, so no history is lost.
    pub fn step_reverse(&mut self, model: &AcousticModel2, cpml: &[CpmlAxis; 2], gangs: usize) {
        self.pressure_phase(model, cpml, -model.geom.dt, gangs);
        self.velocity_phase(model, cpml, -model.geom.dt, gangs);
    }

    /// Phase 1: particle velocities from the pressure gradient,
    /// `q += dt·D(p)`. `dt` is signed so the reverse step can undo it.
    pub fn velocity_phase(
        &mut self,
        model: &AcousticModel2,
        cpml: &[CpmlAxis; 2],
        dt: f32,
        gangs: usize,
    ) {
        let p = self.p.as_slice();
        sweep(
            Grid::new2(self.p.extent(), [model.geom.dx, model.geom.dz], cpml),
            [
                fwd(p, self.psi_px.as_mut_slice(), X),
                fwd(p, self.psi_pz.as_mut_slice(), Z),
            ],
            [model.rho.as_slice()],
            [self.qx.as_mut_slice(), self.qz.as_mut_slice()],
            gangs,
            move |[dpx, dpz], [rho]| {
                let r = dt / rho;
                [r * dpx, r * dpz]
            },
        );
    }

    /// Phase 2: pressure from the velocity divergence, `p += dt·E(q)`.
    pub fn pressure_phase(
        &mut self,
        model: &AcousticModel2,
        cpml: &[CpmlAxis; 2],
        dt: f32,
        gangs: usize,
    ) {
        sweep(
            Grid::new2(self.p.extent(), [model.geom.dx, model.geom.dz], cpml),
            [
                bwd(self.qx.as_slice(), self.psi_qx.as_mut_slice(), X),
                bwd(self.qz.as_slice(), self.psi_qz.as_mut_slice(), Z),
            ],
            [model.vp.as_slice(), model.rho.as_slice()],
            [self.p.as_mut_slice()],
            gangs,
            move |[dqx, dqz], [vp, rho]| [dt * (rho * vp * vp) * (dqx + dqz)],
        );
    }

    /// Add a pressure source sample: `p += Δt·ρ·vp²·f` (the `ρ·vp²·∂t⁻¹f`
    /// injection of Equation 2, integrated one step).
    pub fn inject(&mut self, model: &AcousticModel2, ix: usize, iz: usize, f: f32) {
        let dt = model.geom.dt;
        let vp = model.vp.get(ix, iz);
        let rho = model.rho.get(ix, iz);
        let v = self.p.get(ix, iz) + dt * rho * vp * vp * f;
        self.p.set(ix, iz, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{acoustic2_layered, standard_layers};
    use seismic_model::{extent2, AcousticModel2, Geometry};
    use seismic_pml::CpmlAxis;
    use seismic_source::ricker;

    fn setup(n: usize) -> (AcousticModel2, [CpmlAxis; 2]) {
        let e = extent2(n, n);
        let h = 10.0;
        let vmax = 3200.0;
        let dt = stable_dt(8, 2, vmax, h, 0.6);
        let m = acoustic2_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
        let cx = CpmlAxis::new(n, e.halo, 12, dt, vmax, h, 1e-4);
        let cz = CpmlAxis::new(n, e.halo, 12, dt, vmax, h, 1e-4);
        (m, [cx, cz])
    }

    #[test]
    fn stable_and_propagates() {
        let n = 96;
        let (m, cpml) = setup(n);
        let mut s = Ac2State::new(m.vp.extent());
        for t in 0..200 {
            s.step(&m, &cpml, 1);
            s.inject(&m, n / 2, 10, ricker(20.0, t as f32 * m.geom.dt - 0.06));
        }
        let mx = s.p.max_abs();
        assert!(mx.is_finite() && mx > 0.0);
        // Reflection from the first interface must have reached the surface
        // region; the direct wave must exist at depth.
        assert!(s.p.get(n / 2, n / 2).abs() + s.p.get(n / 2 + 10, 12).abs() > 0.0);
    }

    /// In a homogeneous fluid with a centered source, qx must be
    /// antisymmetric about the source column and qz about the source row.
    #[test]
    fn velocity_fields_have_dipole_symmetry() {
        let n = 64;
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 1500.0, h, 0.6);
        let m = AcousticModel2 {
            vp: Field2::filled(e, 1500.0),
            rho: Field2::filled(e, 1000.0),
            geom: Geometry::uniform(h, dt),
        };
        let cx = CpmlAxis::new(n, e.halo, 10, dt, 1500.0, h, 1e-4);
        let cz = CpmlAxis::new(n, e.halo, 10, dt, 1500.0, h, 1e-4);
        let cpml = [cx, cz];
        let mut s = Ac2State::new(e);
        let c = n / 2;
        for t in 0..80 {
            s.step(&m, &cpml, 1);
            s.inject(&m, c, c, ricker(25.0, t as f32 * dt - 0.048));
        }
        // qx staggered +x/2: antisymmetry maps ix ↔ (2c−1−ix).
        let tol = 2e-3 * s.qx.max_abs().max(1e-12);
        for d in 1..10 {
            let a = s.qx.get(c + d, c);
            let b = s.qx.get(c - 1 - d, c);
            assert!((a + b).abs() < tol, "d={d}: {a} vs {b}");
        }
        for d in 1..10 {
            let a = s.qz.get(c, c + d);
            let b = s.qz.get(c, c - 1 - d);
            assert!((a + b).abs() < tol, "d={d}: {a} vs {b}");
        }
    }

    #[test]
    fn cpml_absorbs_outgoing_waves() {
        let n = 80;
        let (m, cpml) = setup(n);
        let mut s = Ac2State::new(m.vp.extent());
        let mut peak = 0.0f64;
        for t in 0..700 {
            s.step(&m, &cpml, 1);
            if t < 60 {
                s.inject(&m, n / 2, n / 2, ricker(20.0, t as f32 * m.geom.dt - 0.06));
            }
            peak = peak.max(s.p.energy());
        }
        let fin = s.p.energy();
        assert!(fin < peak * 0.08, "final {fin} vs peak {peak}");
    }

    /// Three gangs split every sweep into z-slabs; the bits must match
    /// the one-gang sequential reference.
    #[test]
    fn slab_split_matches_sequential() {
        let n = 48;
        let (m, cpml) = setup(n);
        let e = m.vp.extent();
        let mut seq = Ac2State::new(e);
        let mut par = Ac2State::new(e);
        for t in 0..30 {
            seq.step(&m, &cpml, 1);
            par.step(&m, &cpml, 3);
            let amp = ricker(20.0, t as f32 * m.geom.dt - 0.06);
            seq.inject(&m, 24, 10, amp);
            par.inject(&m, 24, 10, amp);
        }
        assert_eq!(seq.p, par.p);
        assert_eq!(seq.qx, par.qx);
        assert_eq!(seq.psi_qz, par.psi_qz);
    }
}
