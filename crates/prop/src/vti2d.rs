//! Acoustic VTI (anisotropic) propagator, 2D — the paper's future work.
//!
//! Section 3.3: "There are three basic formulations ... purely isotropic or
//! acoustic, isotropic elastic, and anisotropic. In our experiments, we
//! focused on the first two ... However, we will consider the anisotropic
//! case in the future." This module implements that case for vertical
//! transverse isotropy, using the Alkhalifah–Zhou coupled pseudo-acoustic
//! system:
//!
//! ```text
//! ∂²p/∂t² = v²·[ (1+2ε)·∂²p/∂x² + ∂²q/∂z² ]
//! ∂²q/∂t² = v²·[ (1+2δ)·∂²p/∂x² + ∂²q/∂z² ]
//! ```
//!
//! With ε = δ = 0 the two equations coincide and the system degenerates to
//! the isotropic wave equation (tested). The P wavefront is elliptical:
//! horizontal speed `v·√(1+2ε)`, vertical speed `v` (tested). The same
//! damping-layer boundary as the isotropic kernel applies.

use exec_host::par_slabs;
use seismic_grid::fd::{f32c, flush};
use seismic_grid::{Extent2, Field2, SyncSlice, STENCIL_HALF};
use seismic_model::VtiModel2;
use seismic_pml::DampProfile;

/// VTI wavefield state: two coupled fields, two time levels each.
#[derive(Debug, Clone)]
pub struct Vti2State {
    /// Main wavefield, previous level (overwritten with next).
    pub p_prev: Field2,
    /// Main wavefield, current level.
    pub p_cur: Field2,
    /// Auxiliary wavefield, previous level.
    pub q_prev: Field2,
    /// Auxiliary wavefield, current level.
    pub q_cur: Field2,
}

impl Vti2State {
    /// Quiescent state.
    pub fn new(extent: Extent2) -> Self {
        Self {
            p_prev: Field2::zeros(extent),
            p_cur: Field2::zeros(extent),
            q_prev: Field2::zeros(extent),
            q_cur: Field2::zeros(extent),
        }
    }

    /// Overwrite every field from `other` without allocating (extents must
    /// match) — the buffer-reuse path for checkpoints and retries.
    pub fn copy_from(&mut self, other: &Self) {
        self.p_prev.copy_from(&other.p_prev);
        self.p_cur.copy_from(&other.p_cur);
        self.q_prev.copy_from(&other.q_prev);
        self.q_cur.copy_from(&other.q_cur);
    }

    /// Advance one time step on `gangs` host threads and swap both field
    /// pairs.
    pub fn step(
        &mut self,
        model: &VtiModel2,
        damp_x: &DampProfile,
        damp_z: &DampProfile,
        gangs: usize,
    ) {
        let e = self.p_cur.extent();
        let p = SyncSlice::new(self.p_prev.as_mut_slice());
        let q = SyncSlice::new(self.q_prev.as_mut_slice());
        let (pc, qc) = (self.p_cur.as_slice(), self.q_cur.as_slice());
        par_slabs(e.nz, gangs, |z0, z1| {
            step_slab(
                p,
                q,
                pc,
                qc,
                model.vp.as_slice(),
                model.epsilon.as_slice(),
                model.delta.as_slice(),
                e,
                model.geom.dx,
                model.geom.dz,
                model.geom.dt,
                damp_x,
                damp_z,
                z0,
                z1,
            );
        });
        self.swap_levels();
    }

    /// Undo one [`Self::step`] through a lossless medium: the coupled
    /// leapfrog is time-symmetric when σ = 0, so stepping forward from
    /// swapped levels recovers the previous level.
    pub fn step_reverse(
        &mut self,
        model: &VtiModel2,
        damp_x: &DampProfile,
        damp_z: &DampProfile,
        gangs: usize,
    ) {
        self.swap_levels();
        self.step(model, damp_x, damp_z, gangs);
        self.swap_levels();
    }

    fn swap_levels(&mut self) {
        self.p_prev.swap(&mut self.p_cur);
        self.q_prev.swap(&mut self.q_cur);
    }

    /// Inject a source sample into both coupled fields (the standard
    /// pseudo-acoustic source).
    pub fn inject(&mut self, model: &VtiModel2, ix: usize, iz: usize, f: f32) {
        let dt = model.geom.dt;
        let vp = model.vp.get(ix, iz);
        let a = dt * dt * vp * vp * f;
        let v = self.p_cur.get(ix, iz) + a;
        self.p_cur.set(ix, iz, v);
        let v = self.q_cur.get(ix, iz) + a;
        self.q_cur.set(ix, iz, v);
    }
}

/// 8th-order second derivative along stride `s`.
#[inline(always)]
fn d2(u: &[f32], c: usize, s: usize, rh2: f32) -> f32 {
    let mut acc = f32c::C2[0] * u[c];
    for k in 1..=STENCIL_HALF {
        acc += f32c::C2[k] * (u[c + k * s] + u[c - k * s]);
    }
    acc * rh2
}

/// One VTI time step over interior rows `[z0, z1)`.
///
/// `p`/`q` alias the previous time levels and receive the next ones,
/// stored through [`flush`].
#[allow(clippy::too_many_arguments)]
pub fn step_slab(
    p: SyncSlice,
    q: SyncSlice,
    p_cur: &[f32],
    q_cur: &[f32],
    vp: &[f32],
    epsilon: &[f32],
    delta: &[f32],
    e: Extent2,
    dx: f32,
    dz: f32,
    dt: f32,
    damp_x: &DampProfile,
    damp_z: &DampProfile,
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    let fnx = e.full_nx();
    let dt2 = dt * dt;
    let rdx2 = 1.0 / (dx * dx);
    let rdz2 = 1.0 / (dz * dz);
    for iz in z0..z1 {
        let sz = damp_z.sigma(iz);
        for ix in 0..e.nx {
            let c = e.idx(ix, iz);
            let sigma = damp_x.sigma(ix) + sz;
            let v2 = vp[c] * vp[c];
            let pxx = d2(p_cur, c, 1, rdx2);
            let qzz = d2(q_cur, c, fnx, rdz2);
            let rp = v2 * ((1.0 + 2.0 * epsilon[c]) * pxx + qzz);
            let rq = v2 * ((1.0 + 2.0 * delta[c]) * pxx + qzz);
            // Damped leapfrog (identical structure to the isotropic kernel;
            // exact when σ = 0).
            let denom = 1.0 + sigma * dt;
            let keep = 1.0 - sigma * dt;
            let pn = (2.0 * p_cur[c] - keep * p.get(c) + dt2 * rp) / denom;
            let qn = (2.0 * q_cur[c] - keep * q.get(c) + dt2 * rq) / denom;
            // Safety: each slab writes only its own rows.
            unsafe {
                p.set(c, flush(pn));
                q.set(c, flush(qn));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso2d::Iso2State;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::{extent2, Geometry, IsoModel2, VtiModel2};
    use seismic_source::ricker;

    fn setup(n: usize, eps: f32, delta: f32) -> (VtiModel2, DampProfile) {
        let e = extent2(n, n);
        let h = 10.0;
        let vp = 2000.0;
        let vmax = vp * (1.0 + 2.0 * eps).sqrt();
        let dt = stable_dt(8, 2, vmax, h, 0.7);
        let m = VtiModel2::constant(e, vp, eps, delta, Geometry::uniform(h, dt));
        let d = DampProfile::new(n, e.halo, 12, vmax, h, 1e-4);
        (m, d)
    }

    fn run(n: usize, eps: f32, delta: f32, steps: usize) -> Vti2State {
        let (m, d) = setup(n, eps, delta);
        let mut s = Vti2State::new(m.vp.extent());
        for t in 0..steps {
            s.step(&m, &d, &d, 1);
            s.inject(&m, n / 2, n / 2, ricker(25.0, t as f32 * m.geom.dt - 0.048));
        }
        s
    }

    /// ε = δ = 0 degenerates to the isotropic equation: p, q, and the
    /// isotropic propagator's u must coincide (same arithmetic, so exact).
    #[test]
    fn isotropic_limit_matches_iso_kernel() {
        let n = 64;
        let (m, d) = setup(n, 0.0, 0.0);
        let iso = IsoModel2 {
            vp: m.vp.clone(),
            geom: m.geom,
        };
        let mut vti = Vti2State::new(m.vp.extent());
        let mut ref_ = Iso2State::new(m.vp.extent());
        for t in 0..60 {
            vti.step(&m, &d, &d, 1);
            ref_.step(&iso, &d, &d, 1);
            let amp = ricker(25.0, t as f32 * m.geom.dt - 0.048);
            vti.inject(&m, 32, 32, amp);
            ref_.inject(&iso, 32, 32, amp);
        }
        assert_eq!(vti.p_cur, vti.q_cur, "p = q in the isotropic limit");
        // VTI and iso differ in Laplacian summation order; compare tightly.
        let scale = ref_.u_cur.max_abs().max(1e-12);
        for (a, b) in vti.p_cur.as_slice().iter().zip(ref_.u_cur.as_slice()) {
            assert!((a - b).abs() <= 1e-4 * scale, "{a} vs {b}");
        }
    }

    /// The wavefront is elliptical: the horizontal arrival sits √(1+2ε)
    /// further out than the vertical one.
    #[test]
    fn elliptical_wavefront() {
        let n = 180;
        let eps = 0.24;
        let s = run(n, eps, 0.1, 130);
        let c = n / 2;
        let peak_along = |dx: usize, dz: usize| {
            let mut best = (0usize, 0.0f32);
            for r in 6..c - 4 {
                let v = s.p_cur.get(c + r * dx, c + r * dz).abs();
                if v > best.1 {
                    best = (r, v);
                }
            }
            best.0 as f32
        };
        let rx = peak_along(1, 0);
        let rz = peak_along(0, 1);
        let want = (1.0 + 2.0 * eps).sqrt();
        let got = rx / rz;
        assert!(
            (got - want).abs() < 0.12,
            "anisotropy ratio {got} vs √(1+2ε) = {want} (rx {rx}, rz {rz})"
        );
    }

    /// Stability at the elliptic CFL bound and absorption at boundaries.
    #[test]
    fn stable_and_absorbing() {
        let n = 96;
        let (m, d) = setup(n, 0.2, 0.08);
        let mut s = Vti2State::new(m.vp.extent());
        let mut peak = 0.0f64;
        for t in 0..500 {
            s.step(&m, &d, &d, 1);
            if t < 60 {
                s.inject(&m, n / 2, n / 2, ricker(25.0, t as f32 * m.geom.dt - 0.048));
            }
            peak = peak.max(s.p_cur.energy());
        }
        let fin = s.p_cur.energy();
        assert!(fin.is_finite());
        assert!(fin < 0.1 * peak, "energy absorbed: {fin} vs {peak}");
    }

    #[test]
    #[should_panic(expected = "instability")]
    fn epsilon_below_delta_rejected() {
        let e = extent2(8, 8);
        VtiModel2::constant(e, 2000.0, 0.05, 0.2, Geometry::uniform(10.0, 1e-3));
    }

    /// Slab-parallel equality for the coupled system.
    #[test]
    fn slab_split_matches_sequential() {
        let n = 48;
        let (m, d) = setup(n, 0.15, 0.05);
        let e = m.vp.extent();
        let mut seq = Vti2State::new(e);
        let mut par = Vti2State::new(e);
        for t in 0..30 {
            seq.step(&m, &d, &d, 1);
            {
                let p = SyncSlice::new(par.p_prev.as_mut_slice());
                let q = SyncSlice::new(par.q_prev.as_mut_slice());
                for (z0, z1) in [(0usize, 17usize), (17, 32), (32, 48)] {
                    step_slab(
                        p,
                        q,
                        par.p_cur.as_slice(),
                        par.q_cur.as_slice(),
                        m.vp.as_slice(),
                        m.epsilon.as_slice(),
                        m.delta.as_slice(),
                        e,
                        m.geom.dx,
                        m.geom.dz,
                        m.geom.dt,
                        &d,
                        &d,
                        z0,
                        z1,
                    );
                }
                par.p_prev.swap(&mut par.p_cur);
                par.q_prev.swap(&mut par.q_cur);
            }
            let amp = ricker(25.0, t as f32 * m.geom.dt - 0.048);
            seq.inject(&m, 24, 24, amp);
            par.inject(&m, 24, 24, amp);
        }
        assert_eq!(seq.p_cur, par.p_cur);
        assert_eq!(seq.q_cur, par.q_cur);
    }
}
