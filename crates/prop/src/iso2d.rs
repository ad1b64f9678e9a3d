//! Isotropic constant-density propagator, 2D.
//!
//! Solves Equation 1 of the paper — the 2nd-order scalar wave equation
//! `u⁺ = 2u − u⁻ + Δt²·vp²·∇²u` with an 8th-order (17-point in 2D)
//! Laplacian and a damping-layer PML:
//! `u⁺ = (2u − (1−σΔt)u⁻ + Δt²vp²∇²u)/(1+σΔt)`, `σ = σx + σz`.
//!
//! One branch-free kernel evaluates the damped form at every point. σ ≡ 0
//! off the absorbing strips, IEEE multiplication/division by exactly 1.0
//! is exact, and Rust never contracts `a*b + c` into an FMA, so this is
//! bitwise the paper's original per-point-branch kernel with every store
//! passed through the propagators' floor (`seismic_grid::fd::flush`: a
//! magnitude below 2⁻¹⁰⁰ is stored as 0). Each row is swept as
//! equal-length slices, which lets the compiler drop the bounds checks and
//! vectorise the x loop. The paper's Figure 6/7 restructurings of the PML
//! control flow (boundary `if`s vs restructured indices vs PML-everywhere)
//! are priced by the GPU mapping model (`crate::desc`), not run as
//! separate host kernels.

use crate::shifted_rows;
use exec_host::par_slabs;
use seismic_grid::fd::{f32c, flush};
use seismic_grid::{Extent2, Field2, SyncSlice, STENCIL_HALF};
use seismic_model::IsoModel2;
use seismic_pml::DampProfile;

/// Wavefield state: two time levels, updated leapfrog-style in place.
#[derive(Debug, Clone)]
pub struct Iso2State {
    /// Previous time level; overwritten with the next level each step.
    pub u_prev: Field2,
    /// Current time level.
    pub u_cur: Field2,
}

impl Iso2State {
    /// Quiescent state (`u⁻¹ = u⁰ = 0`, as in Equation 1).
    pub fn new(extent: Extent2) -> Self {
        Self {
            u_prev: Field2::zeros(extent),
            u_cur: Field2::zeros(extent),
        }
    }

    /// Advance one time step on `gangs` host threads, then swap time
    /// levels so `u_cur` is the newest field. One gang is the sequential
    /// reference; every gang count produces the same bits.
    pub fn step(
        &mut self,
        model: &IsoModel2,
        damp_x: &DampProfile,
        damp_z: &DampProfile,
        gangs: usize,
    ) {
        let e = self.u_cur.extent();
        let u = SyncSlice::new(self.u_prev.as_mut_slice());
        let cur = self.u_cur.as_slice();
        par_slabs(e.nz, gangs, |z0, z1| {
            step_slab(
                u,
                cur,
                model.vp.as_slice(),
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
        self.u_prev.swap(&mut self.u_cur);
    }

    /// Undo one [`Self::step`] through a lossless medium (σ ≡ 0). The
    /// update `u⁺ = 2u − u⁻ + A(u)` is then symmetric in time, so stepping
    /// forward from swapped levels recovers the previous level.
    pub fn step_reverse(
        &mut self,
        model: &IsoModel2,
        damp_x: &DampProfile,
        damp_z: &DampProfile,
        gangs: usize,
    ) {
        self.u_prev.swap(&mut self.u_cur);
        self.step(model, damp_x, damp_z, gangs);
        self.u_prev.swap(&mut self.u_cur);
    }

    /// Add a source sample at an interior point, scaled the way Equation 1
    /// injects the point term: `Δt²·vp²·f`.
    pub fn inject(&mut self, model: &IsoModel2, ix: usize, iz: usize, f: f32) {
        let dt = model.geom.dt;
        let vp = model.vp.get(ix, iz);
        let v = self.u_cur.get(ix, iz) + dt * dt * vp * vp * f;
        self.u_cur.set(ix, iz, v);
    }

    /// Overwrite this state from `other` without allocating (both time
    /// levels; extents must match). Checkpoint/restart and buffer reuse go
    /// through this instead of `clone()`.
    pub fn copy_from(&mut self, other: &Self) {
        self.u_prev.copy_from(&other.u_prev);
        self.u_cur.copy_from(&other.u_cur);
    }
}

/// One time step over interior rows `[z0, z1)`.
///
/// `u` aliases the *previous* time level and receives the next one (each
/// point reads its own `u⁻` before writing `u⁺` — no cross-point dependency
/// exists, which is also why the paper's OpenACC `independent` clause is
/// legal on this loop nest). Every point takes the damped update with
/// `σ = σx[ix] + σz[iz]`; the Laplacian sums the centre term, then the x and
/// z terms for k = 1..=4, the association order of the Fortran original.
/// The new value is stored through [`flush`].
///
/// Runs the AVX2 build of the kernel when the CPU has AVX2, the baseline
/// build otherwise; both compile one body and store the same bits (see the
/// crate docs, "Vector ISA dispatch").
#[allow(clippy::too_many_arguments)]
pub fn step_slab(
    u: SyncSlice,
    u_cur: &[f32],
    vp: &[f32],
    e: Extent2,
    dx: f32,
    dz: f32,
    dt: f32,
    damp_x: &DampProfile,
    damp_z: &DampProfile,
    z0: usize,
    z1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, checked just above.
        return unsafe { step_slab_avx2(u, u_cur, vp, e, dx, dz, dt, damp_x, damp_z, z0, z1) };
    }
    step_slab_body(u, u_cur, vp, e, dx, dz, dt, damp_x, damp_z, z0, z1)
}

/// [`step_slab_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn step_slab_avx2(
    u: SyncSlice,
    u_cur: &[f32],
    vp: &[f32],
    e: Extent2,
    dx: f32,
    dz: f32,
    dt: f32,
    damp_x: &DampProfile,
    damp_z: &DampProfile,
    z0: usize,
    z1: usize,
) {
    step_slab_body(u, u_cur, vp, e, dx, dz, dt, damp_x, damp_z, z0, z1)
}

/// The one source body of [`step_slab`], inlined into each build.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn step_slab_body(
    u: SyncSlice,
    u_cur: &[f32],
    vp: &[f32],
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
    assert_eq!(u.len(), e.len());
    assert_eq!(u_cur.len(), e.len());
    assert_eq!(vp.len(), e.len());
    assert_eq!(damp_x.as_slice().len(), e.full_nx());
    let fnx = e.full_nx();
    let dt2 = dt * dt;
    let rdx2 = 1.0 / (dx * dx);
    let rdz2 = 1.0 / (dz * dz);
    let r2_sum = rdx2 + rdz2;
    let n = e.nx;
    let sx = &damp_x.as_slice()[e.halo..][..n];
    for iz in z0..z1 {
        let c = e.idx(0, iz);
        let centre = &u_cur[c..][..n];
        let (xs, zs) = (shifted_rows(u_cur, c, 1, n), shifted_rows(u_cur, c, fnx, n));
        let vp = &vp[c..][..n];
        let sz = damp_z.sigma(iz);
        // SAFETY: slabs are disjoint z-ranges, so no other gang touches
        // row `iz`; the view is dropped before the next row is taken.
        let out = unsafe { u.range_mut(c, n) };
        for i in 0..n {
            let mut lap = f32c::C2[0] * centre[i] * r2_sum;
            for k in 0..STENCIL_HALF {
                lap += f32c::C2[k + 1] * ((xs[k][0][i] + xs[k][1][i]) * rdx2);
                lap += f32c::C2[k + 1] * ((zs[k][0][i] + zs[k][1][i]) * rdz2);
            }
            let sigma = sx[i] + sz;
            let v = vp[i];
            out[i] = flush(
                (2.0 * centre[i] - (1.0 - sigma * dt) * out[i] + dt2 * v * v * lap)
                    / (1.0 + sigma * dt),
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::iso2_constant;
    use seismic_model::{extent2, Geometry};
    use seismic_pml::DampProfile;
    use seismic_source::ricker;

    fn setup(n: usize, width: usize) -> (IsoModel2, DampProfile, DampProfile) {
        let e = extent2(n, n);
        let h = 10.0;
        let vmax = 2000.0;
        let dt = stable_dt(8, 2, vmax, h, 0.8);
        let m = iso2_constant(e, vmax, Geometry::uniform(h, dt));
        let dx = DampProfile::new(n, e.halo, width, vmax, h, 1e-4);
        let dz = DampProfile::new(n, e.halo, width, vmax, h, 1e-4);
        (m, dx, dz)
    }

    fn run(n: usize, steps: usize) -> Iso2State {
        let (m, dpx, dpz) = setup(n, 12);
        let mut s = Iso2State::new(m.vp.extent());
        for t in 0..steps {
            s.step(&m, &dpx, &dpz, 1);
            let amp = ricker(25.0, t as f32 * m.geom.dt - 0.048);
            s.inject(&m, n / 2, n / 2, amp);
        }
        s
    }

    /// The paper's original kernel, one point at a time: branch on the
    /// absorbing strips, undamped update elsewhere; stores through the floor.
    #[allow(clippy::too_many_arguments)]
    fn pointwise_reference(
        u_prev: &mut [f32],
        u_cur: &[f32],
        vp: &[f32],
        e: Extent2,
        [dx, dz]: [f32; 2],
        dt: f32,
        damp_x: &DampProfile,
        damp_z: &DampProfile,
    ) {
        let fnx = e.full_nx();
        let (dt2, rdx2, rdz2) = (dt * dt, 1.0 / (dx * dx), 1.0 / (dz * dz));
        for iz in 0..e.nz {
            for ix in 0..e.nx {
                let c = e.idx(ix, iz);
                let mut lap = f32c::C2[0] * u_cur[c] * (rdx2 + rdz2);
                for k in 1..=STENCIL_HALF {
                    lap += f32c::C2[k] * ((u_cur[c + k] + u_cur[c - k]) * rdx2);
                    lap += f32c::C2[k] * ((u_cur[c + k * fnx] + u_cur[c - k * fnx]) * rdz2);
                }
                let v = vp[c];
                u_prev[c] = flush(if damp_x.in_layer(ix) || damp_z.in_layer(iz) {
                    let sigma = damp_x.sigma(ix) + damp_z.sigma(iz);
                    (2.0 * u_cur[c] - (1.0 - sigma * dt) * u_prev[c] + dt2 * v * v * lap)
                        / (1.0 + sigma * dt)
                } else {
                    2.0 * u_cur[c] - u_prev[c] + dt2 * v * v * lap
                });
            }
        }
    }

    /// Deterministic values in `[-1, 1)` so every point, halo included,
    /// contributes to the stencil.
    pub(crate) fn noise(len: usize, seed: u32) -> Vec<f32> {
        let mut x = seed.wrapping_mul(2_654_435_761) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    /// A build of [`step_slab`]'s body.
    type Slab2 = fn(
        SyncSlice,
        &[f32],
        &[f32],
        Extent2,
        f32,
        f32,
        f32,
        &DampProfile,
        &DampProfile,
        usize,
        usize,
    );

    /// The baseline build, and the AVX2 twin when this CPU has AVX2.
    fn builds() -> Vec<(&'static str, Slab2)> {
        let mut builds: Vec<(&str, Slab2)> = vec![("baseline", step_slab_body)];
        #[cfg(target_arch = "x86_64")]
        if crate::has_avx2() {
            builds.push(("avx2", |u, c, vp, e, dx, dz, dt, px, pz, z0, z1| {
                // SAFETY: the CPU has AVX2, checked just above.
                unsafe { step_slab_avx2(u, c, vp, e, dx, dz, dt, px, pz, z0, z1) }
            }));
        }
        builds
    }

    /// Each build of the branch-free row kernel must be bitwise the
    /// per-point kernel it replaces — full, windowed and transparent
    /// profiles, slabs cut through a z strip, and a 1300-point row.
    #[test]
    fn row_kernel_matches_pointwise_reference() {
        let (dx, dz, vmax, width) = (10.0, 12.5, 2000.0, 6);
        let dt = stable_dt(8, 2, vmax, dx, 0.8);
        for (nx, nz) in [(64usize, 48usize), (1300, 24)] {
            let e = extent2(nx, nz);
            let full = |n: usize| DampProfile::new(n, e.halo, width, vmax, dx, 1e-4);
            // The far strip of a profile twice the size, starting mid-window.
            let window = |n: usize| full(2 * n).window(3 * n / 2 - width, n);
            let profiles = [
                (full(nx), full(nz)),
                (window(nx), window(nz)),
                (
                    DampProfile::transparent(nx, e.halo),
                    DampProfile::transparent(nz, e.halo),
                ),
            ];
            let vp: Vec<f32> = noise(e.len(), 1)
                .iter()
                .map(|r| 1500.0 + 500.0 * r)
                .collect();
            let u_cur = noise(e.len(), 2);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (dpx, dpz) in &profiles {
                let mut expect = noise(e.len(), 3);
                pointwise_reference(&mut expect, &u_cur, &vp, e, [dx, dz], dt, dpx, dpz);
                for (build, slab) in builds() {
                    let mut got = noise(e.len(), 3);
                    let u = SyncSlice::new(&mut got);
                    for (z0, z1) in [(0, width / 2), (width / 2, nz - 1), (nz - 1, nz)] {
                        slab(u, &u_cur, &vp, e, dx, dz, dt, dpx, dpz, z0, z1);
                    }
                    assert_eq!(bits(&got), bits(&expect), "{build} {nx}x{nz}");
                }
            }
        }
    }

    /// A stable run must not blow up and must actually propagate energy.
    #[test]
    fn stable_run_propagates() {
        let s = run(96, 120);
        let m = s.u_cur.max_abs();
        assert!(m.is_finite() && m > 0.0, "max = {m}");
        assert!(m < 100.0, "unexpected growth: {m}");
        // Wave must have reached away from the source.
        assert!(s.u_cur.get(48 + 20, 48).abs() > 0.0);
    }

    /// Violating the CFL bound must blow up (sanity of the stability limit).
    #[test]
    fn cfl_violation_blows_up() {
        let e = extent2(48, 48);
        let h = 10.0;
        let vmax = 2000.0;
        let dt = stable_dt(8, 2, vmax, h, 0.8) * 3.0; // ~3x over the limit
        let m = iso2_constant(e, vmax, Geometry::uniform(h, dt));
        let dpx = DampProfile::new(48, e.halo, 8, vmax, h, 1e-4);
        let dpz = DampProfile::new(48, e.halo, 8, vmax, h, 1e-4);
        let mut s = Iso2State::new(e);
        for t in 0..200 {
            s.step(&m, &dpx, &dpz, 1);
            s.inject(&m, 24, 24, ricker(25.0, t as f32 * dt - 0.048));
            if !s.u_cur.max_abs().is_finite() || s.u_cur.max_abs() > 1e6 {
                return; // blew up as expected
            }
        }
        panic!("unstable dt did not blow up");
    }

    /// The wavefront must travel at the model velocity: after time T the
    /// peak along a ray from the source sits near radius vp·T.
    #[test]
    fn wavefront_speed_matches_velocity() {
        let n = 160;
        let (m, dpx, dpz) = setup(n, 16);
        let mut s = Iso2State::new(m.vp.extent());
        let steps = 140;
        let f = 25.0;
        let t0 = 1.2 / f;
        for t in 0..steps {
            s.step(&m, &dpx, &dpz, 1);
            s.inject(&m, n / 2, n / 2, ricker(f, t as f32 * m.geom.dt - t0));
        }
        let elapsed = steps as f32 * m.geom.dt - t0; // since wavelet peak
        let expect_r = 2000.0 * elapsed / m.geom.dx; // in grid points
                                                     // Scan along +x from the source for the absolute peak.
        let mut best = (0usize, 0.0f32);
        for r in 5..n / 2 - 2 {
            let v = s.u_cur.get(n / 2 + r, n / 2).abs();
            if v > best.1 {
                best = (r, v);
            }
        }
        let err = (best.0 as f32 - expect_r).abs();
        assert!(
            err <= 4.0,
            "wavefront at r = {} points, expected ~{expect_r}",
            best.0
        );
    }

    /// With absorbing boundaries, total field energy must decay after the
    /// source stops — spurious reflections would keep it high.
    #[test]
    fn damping_layer_absorbs_energy() {
        let n = 96;
        let (m, dpx, dpz) = setup(n, 16);
        let mut s = Iso2State::new(m.vp.extent());
        let mut peak = 0.0f64;
        // Source active for 80 steps, then free propagation.
        for t in 0..600 {
            s.step(&m, &dpx, &dpz, 1);
            if t < 80 {
                s.inject(&m, n / 2, n / 2, ricker(25.0, t as f32 * m.geom.dt - 0.048));
            }
            peak = peak.max(s.u_cur.energy());
        }
        let final_e = s.u_cur.energy();
        assert!(
            final_e < peak * 0.05,
            "energy not absorbed: final {final_e} vs peak {peak}"
        );
    }

    /// Slab-parallel decomposition must agree with the sequential sweep.
    #[test]
    fn slab_split_matches_sequential() {
        let (m, dpx, dpz) = setup(64, 12);
        let e = m.vp.extent();
        let mut seq = Iso2State::new(e);
        let mut par = Iso2State::new(e);
        for t in 0..40 {
            seq.step(&m, &dpx, &dpz, 1);
            // Manual 3-slab split of the same kernel.
            {
                let u = SyncSlice::new(par.u_prev.as_mut_slice());
                for (z0, z1) in [(0usize, 20usize), (20, 43), (43, 64)] {
                    step_slab(
                        u,
                        par.u_cur.as_slice(),
                        m.vp.as_slice(),
                        e,
                        m.geom.dx,
                        m.geom.dz,
                        m.geom.dt,
                        &dpx,
                        &dpz,
                        z0,
                        z1,
                    );
                }
                par.u_prev.swap(&mut par.u_cur);
            }
            let amp = ricker(25.0, t as f32 * m.geom.dt - 0.048);
            seq.inject(&m, 32, 32, amp);
            par.inject(&m, 32, 32, amp);
        }
        assert_eq!(seq.u_cur, par.u_cur);
    }
}
