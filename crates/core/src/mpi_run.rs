//! Real decomposed CPU execution over `mpi-sim` ranks.
//!
//! The reference implementation of Algorithm 1: the domain is slab-split
//! along z across ranks, each step exchanges ghost rows with nonblocking
//! sends/receives, and the rank owning the source row injects. This is the
//! executable counterpart of the Table 3/4 CPU baseline timing model, and
//! its output is verified bit-for-bit against the sequential propagator.
//! Each rank runs the prop state's own step sequence (one gang) on its
//! rank-local model window; only the halo exchanges live here.

use mpi_sim::comm::{Communicator, RankCtx};
use mpi_sim::decomp::SlabDecomp;
use mpi_sim::halo::{exchange_halo, ZPlanes};
use seismic_grid::{Extent2, Extent3, Field2, Field3, STENCIL_HALF};
use seismic_model::{AcousticModel2, IsoModel2, IsoModel3};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_prop::acoustic2d::Ac2State;
use seismic_prop::iso2d::Iso2State;
use seismic_prop::iso3d::Iso3State;
use seismic_source::Wavelet;

/// Gather every rank's interior z-planes of `local` onto rank 0, which
/// returns them placed in `global()` (a zeroed field of the global
/// extent); other ranks return `None`. Each plane travels whole, x (and
/// y) halo columns included.
fn gather<F: ZPlanes>(
    ctx: &mut RankCtx,
    decomp: &SlabDecomp,
    local: &F,
    global: impl FnOnce() -> F,
    tag: u64,
) -> Option<F> {
    let (plane, nz, g) = local.z_planes();
    let interior = &local.raw()[g * plane..(g + nz) * plane];
    if ctx.rank() != 0 {
        ctx.isend(0, tag, interior.to_vec());
        return None;
    }
    let mut out = global();
    assert_eq!(
        out.z_planes().0,
        plane,
        "global halo must match the rank halo"
    );
    let mut place = |rank: usize, data: &[f32]| {
        let s = decomp.slab(rank);
        out.raw_mut()[(g + s.z0) * plane..(g + s.z1) * plane].copy_from_slice(data);
    };
    place(0, interior);
    for r in 1..ctx.size() {
        place(r, &ctx.recv(r, tag));
    }
    Some(out)
}

/// Run isotropic 2D modeling decomposed over `ranks` ranks; returns the
/// final wavefield assembled on rank 0 (global extent).
#[allow(clippy::too_many_arguments)]
pub fn modeling_iso2_mpi(
    model: &IsoModel2,
    damp_x: &DampProfile,
    damp_z: &DampProfile,
    src: (usize, usize),
    wavelet: &Wavelet,
    steps: usize,
    ranks: usize,
) -> Field2 {
    let ge = model.vp.extent();
    let decomp = SlabDecomp::new(ge.nz, ranks, STENCIL_HALF);

    let mut results = Communicator::run(ranks, |ctx| {
        let slab = decomp.slab(ctx.rank());
        let le = Extent2::new(ge.nx, slab.nz(), STENCIL_HALF);
        // Rank-local views of the model and damping.
        let local = IsoModel2 {
            vp: Field2::from_fn(le, |ix, iz| model.vp.get(ix, iz + slab.z0)),
            geom: model.geom,
        };
        let damp_z_local = damp_z.window(slab.z0, slab.nz());
        let mut st = Iso2State::new(le);
        let src_local = (src.1 >= slab.z0 && src.1 < slab.z1).then(|| (src.0, src.1 - slab.z0));

        for t in 0..steps {
            // exchange_boundaries: both time levels feed the update (u_cur
            // through the stencil, u_prev pointwise — only u_cur's halo is
            // read, so one exchange per step suffices).
            exchange_halo(ctx, &mut st.u_cur, &slab, 100);
            st.step(&local, damp_x, &damp_z_local, 1);
            // source_injection by the owning rank.
            if let Some((ix, iz)) = src_local {
                st.inject(&local, ix, iz, wavelet.sample(t as f32 * model.geom.dt));
            }
        }
        gather(ctx, &decomp, &st.u_cur, || Field2::zeros(ge), 999)
    });
    results
        .remove(0)
        .expect("rank 0 returns the assembled field")
}

/// Run isotropic 3D modeling decomposed over `ranks` ranks; returns the
/// final wavefield assembled on rank 0.
pub fn modeling_iso3_mpi(
    model: &IsoModel3,
    damp: &[DampProfile; 3],
    src: (usize, usize, usize),
    wavelet: &Wavelet,
    steps: usize,
    ranks: usize,
) -> Field3 {
    let ge = model.vp.extent();
    let decomp = SlabDecomp::new(ge.nz, ranks, STENCIL_HALF);

    let mut results = Communicator::run(ranks, |ctx| {
        let slab = decomp.slab(ctx.rank());
        let le = Extent3::new(ge.nx, ge.ny, slab.nz(), STENCIL_HALF);
        let local = IsoModel3 {
            vp: Field3::from_fn(le, |ix, iy, iz| model.vp.get(ix, iy, iz + slab.z0)),
            geom: model.geom,
        };
        let damp_local = [
            damp[0].clone(),
            damp[1].clone(),
            damp[2].window(slab.z0, slab.nz()),
        ];
        let mut st = Iso3State::new(le);
        let src_local =
            (src.2 >= slab.z0 && src.2 < slab.z1).then(|| (src.0, src.1, src.2 - slab.z0));

        for t in 0..steps {
            exchange_halo(ctx, &mut st.u_cur, &slab, 300);
            st.step(&local, &damp_local, 1);
            if let Some((ix, iy, iz)) = src_local {
                st.inject(&local, ix, iy, iz, wavelet.sample(t as f32 * model.geom.dt));
            }
        }

        gather(ctx, &decomp, &st.u_cur, || Field3::zeros(ge), 998)
    });
    results
        .remove(0)
        .expect("rank 0 returns the assembled field")
}

/// Run acoustic (staggered, variable-density) 2D modeling decomposed over
/// `ranks` ranks; returns the final pressure field assembled on rank 0.
///
/// The staggered system needs *two* exchanges per step — the pressure halo
/// before the velocity phase and the velocity halos before the pressure
/// phase — exactly the multi-field `exchange_boundaries` of Algorithm 1.
pub fn modeling_ac2_mpi(
    model: &AcousticModel2,
    cpml: &[CpmlAxis; 2],
    src: (usize, usize),
    wavelet: &Wavelet,
    steps: usize,
    ranks: usize,
) -> Field2 {
    let ge = model.vp.extent();
    let decomp = SlabDecomp::new(ge.nz, ranks, STENCIL_HALF);
    let dt = model.geom.dt;

    let mut results = Communicator::run(ranks, |ctx| {
        let slab = decomp.slab(ctx.rank());
        let le = Extent2::new(ge.nx, slab.nz(), STENCIL_HALF);
        let local = AcousticModel2 {
            vp: Field2::from_fn(le, |ix, iz| model.vp.get(ix, iz + slab.z0)),
            rho: Field2::from_fn(le, |ix, iz| model.rho.get(ix, iz + slab.z0)),
            geom: model.geom,
        };
        // C-PML coefficients are 1-D per axis; the z axis needs the
        // rank-local window (x is replicated).
        let cpml_local = [cpml[0].clone(), cpml[1].window(slab.z0, slab.nz())];
        let mut st = Ac2State::new(le);
        let src_local = (src.1 >= slab.z0 && src.1 < slab.z1).then(|| (src.0, src.1 - slab.z0));

        for t in 0..steps {
            // Velocity phase reads p's halo.
            exchange_halo(ctx, &mut st.p, &slab, 200);
            st.velocity_phase(&local, &cpml_local, dt, 1);
            // Pressure phase reads qx/qz halos.
            exchange_halo(ctx, &mut st.qx, &slab, 210);
            exchange_halo(ctx, &mut st.qz, &slab, 220);
            st.pressure_phase(&local, &cpml_local, dt, 1);
            if let Some((ix, iz)) = src_local {
                st.inject(&local, ix, iz, wavelet.sample(t as f32 * dt));
            }
        }
        gather(ctx, &decomp, &st.p, || Field2::zeros(ge), 997)
    });
    results
        .remove(0)
        .expect("rank 0 returns the assembled field")
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::iso2_layered;
    use seismic_model::builder::standard_layers;
    use seismic_model::{extent2, Geometry};
    use seismic_prop::iso2d::Iso2State;

    fn setup(n: usize) -> (IsoModel2, DampProfile, DampProfile) {
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 3200.0, h, 0.7);
        let m = iso2_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
        let d = DampProfile::new(n, e.halo, 12, 3200.0, h, 1e-4);
        (m, d.clone(), d)
    }

    /// The decomposed run must reproduce the sequential propagator exactly
    /// — Algorithm 1's ghost exchange is lossless.
    #[test]
    fn mpi_matches_sequential_bitwise() {
        let n = 60;
        let (m, dx, dz) = setup(n);
        let w = Wavelet::ricker(20.0);
        let steps = 60;
        // Sequential reference.
        let mut seq = Iso2State::new(m.vp.extent());
        for t in 0..steps {
            seq.step(&m, &dx, &dz, 1);
            seq.inject(&m, n / 2, 10, w.sample(t as f32 * m.geom.dt));
        }
        for ranks in [1usize, 2, 3, 4] {
            let got = modeling_iso2_mpi(&m, &dx, &dz, (n / 2, 10), &w, steps, ranks);
            for iz in 0..n {
                for ix in 0..n {
                    assert_eq!(
                        got.get(ix, iz),
                        seq.u_cur.get(ix, iz),
                        "ranks={ranks} at ({ix},{iz})"
                    );
                }
            }
        }
    }

    /// The 3D decomposition is lossless too.
    #[test]
    fn mpi3_matches_sequential_bitwise() {
        use seismic_model::builder::iso3_layered;
        use seismic_prop::iso3d::Iso3State;
        let n = 26;
        let e = seismic_model::extent3(n, n, n);
        let h = 10.0;
        let dt = stable_dt(8, 3, 3200.0, h, 0.7);
        let m = iso3_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
        let d = DampProfile::new(n, e.halo, 6, 3200.0, h, 1e-4);
        let damp = [d.clone(), d.clone(), d];
        let w = Wavelet::ricker(25.0);
        let steps = 25;
        let mut seq = Iso3State::new(e);
        for t in 0..steps {
            seq.step(&m, &damp, 1);
            seq.inject(&m, n / 2, n / 2, 6, w.sample(t as f32 * dt));
        }
        for ranks in [1usize, 3] {
            let got = modeling_iso3_mpi(&m, &damp, (n / 2, n / 2, 6), &w, steps, ranks);
            assert_eq!(got, seq.u_cur, "ranks={ranks}");
        }
    }

    /// The staggered multi-field exchange is lossless too.
    #[test]
    fn acoustic_mpi_matches_sequential_bitwise() {
        use seismic_model::builder::acoustic2_layered;
        use seismic_prop::acoustic2d::Ac2State;
        let n = 54;
        let e = seismic_model::extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 3200.0, h, 0.55);
        let m = acoustic2_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
        let c = seismic_pml::CpmlAxis::new(n, e.halo, 10, dt, 3200.0, h, 1e-4);
        let cpml = [c.clone(), c];
        let w = Wavelet::ricker(20.0);
        let steps = 50;
        let mut seq = Ac2State::new(e);
        for t in 0..steps {
            seq.step(&m, &cpml, 1);
            let vp = m.vp.get(n / 2, 8);
            let rho = m.rho.get(n / 2, 8);
            let v = seq.p.get(n / 2, 8) + dt * rho * vp * vp * w.sample(t as f32 * dt);
            seq.p.set(n / 2, 8, v);
        }
        for ranks in [1usize, 3] {
            let got = modeling_ac2_mpi(&m, &cpml, (n / 2, 8), &w, steps, ranks);
            assert_eq!(got, seq.p, "ranks = {ranks}");
        }
    }

    /// Source ownership: works when the source row sits in the last slab.
    #[test]
    fn source_in_last_slab() {
        let n = 48;
        let (m, dx, dz) = setup(n);
        let w = Wavelet::ricker(25.0);
        let got = modeling_iso2_mpi(&m, &dx, &dz, (n / 2, n - 5), &w, 30, 3);
        assert!(got.max_abs() > 0.0);
        let mut seq = Iso2State::new(m.vp.extent());
        for t in 0..30 {
            seq.step(&m, &dx, &dz, 1);
            seq.inject(&m, n / 2, n - 5, w.sample(t as f32 * m.geom.dt));
        }
        assert_eq!(got, seq.u_cur.clone());
    }
}
