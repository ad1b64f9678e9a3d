//! Apply a seeded random-boundary perturbation to concrete earth models.
//!
//! The perturbation *law* lives in [`seismic_pml::random`]; this module maps
//! it onto each model type's material fields. Invariants, shared by every
//! applier:
//!
//! * only **interior** cells are touched (halo cells never enter a material
//!   read of the kernels — properties are sampled at the update point, which
//!   is always interior),
//! * velocities only **decrease** (factors in `[1 − amp, 1]`), so the
//!   unperturbed model's CFL-stable `dt` remains stable,
//! * density is left alone — scattering comes from the velocity contrast,
//!   and keeping ρ fixed keeps the staggered-grid buoyancy terms identical
//!   in the interior,
//! * elastic models scale the Lamé parameters by `f²` (both P and S
//!   velocities scale by `f` at fixed ρ, since `v² = modulus/ρ`), and keep
//!   `vp_max` — it is only used for CFL/absorber design and the true
//!   maximum is unchanged by a slowdown,
//! * VTI keeps ε and δ: the anisotropy *ratios* are untouched, only the
//!   reference velocity scatters.

use crate::{AcousticModel2, AcousticModel3, ElasticModel2, ElasticModel3};
use crate::{IsoModel2, IsoModel3, VtiModel2};
use seismic_pml::RandomBoundarySpec;

/// Scale every interior cell of a 2-D field by the spec's factor.
fn scale2(f: &mut seismic_grid::Field2, spec: &RandomBoundarySpec, pow2: bool) {
    let e = f.extent();
    for iz in 0..e.nz {
        for ix in 0..e.nx {
            let s = spec.factor2(e.nx, e.nz, ix, iz);
            if s != 1.0 {
                let s = if pow2 { s * s } else { s };
                f.set(ix, iz, f.get(ix, iz) * s);
            }
        }
    }
}

/// Scale every interior cell of a 3-D field by the spec's factor.
fn scale3(f: &mut seismic_grid::Field3, spec: &RandomBoundarySpec, pow2: bool) {
    let e = f.extent();
    for iz in 0..e.nz {
        for iy in 0..e.ny {
            for ix in 0..e.nx {
                let s = spec.factor3([e.nx, e.ny, e.nz], ix, iy, iz);
                if s != 1.0 {
                    let s = if pow2 { s * s } else { s };
                    f.set(ix, iy, iz, f.get(ix, iy, iz) * s);
                }
            }
        }
    }
}

/// Isotropic 2-D model with a randomized velocity halo.
pub fn randomize_iso2(m: &IsoModel2, spec: &RandomBoundarySpec) -> IsoModel2 {
    let mut vp = m.vp.clone();
    scale2(&mut vp, spec, false);
    IsoModel2 { vp, geom: m.geom }
}

/// Acoustic 2-D model with a randomized velocity halo (ρ untouched).
pub fn randomize_acoustic2(m: &AcousticModel2, spec: &RandomBoundarySpec) -> AcousticModel2 {
    let mut vp = m.vp.clone();
    scale2(&mut vp, spec, false);
    AcousticModel2 {
        vp,
        rho: m.rho.clone(),
        geom: m.geom,
    }
}

/// Elastic 2-D model with randomized P and S velocities: λ and μ scale by
/// `f²` at fixed ρ.
pub fn randomize_elastic2(m: &ElasticModel2, spec: &RandomBoundarySpec) -> ElasticModel2 {
    let mut lam = m.lam.clone();
    let mut mu = m.mu.clone();
    scale2(&mut lam, spec, true);
    scale2(&mut mu, spec, true);
    ElasticModel2 {
        lam,
        mu,
        rho: m.rho.clone(),
        geom: m.geom,
        vp_max: m.vp_max,
    }
}

/// VTI 2-D model with a randomized reference velocity (ε, δ untouched).
pub fn randomize_vti2(m: &VtiModel2, spec: &RandomBoundarySpec) -> VtiModel2 {
    let mut vp = m.vp.clone();
    scale2(&mut vp, spec, false);
    VtiModel2 {
        vp,
        epsilon: m.epsilon.clone(),
        delta: m.delta.clone(),
        geom: m.geom,
    }
}

/// Isotropic 3-D model with a randomized velocity halo.
pub fn randomize_iso3(m: &IsoModel3, spec: &RandomBoundarySpec) -> IsoModel3 {
    let mut vp = m.vp.clone();
    scale3(&mut vp, spec, false);
    IsoModel3 { vp, geom: m.geom }
}

/// Acoustic 3-D model with a randomized velocity halo (ρ untouched).
pub fn randomize_acoustic3(m: &AcousticModel3, spec: &RandomBoundarySpec) -> AcousticModel3 {
    let mut vp = m.vp.clone();
    scale3(&mut vp, spec, false);
    AcousticModel3 {
        vp,
        rho: m.rho.clone(),
        geom: m.geom,
    }
}

/// Elastic 3-D model with randomized P and S velocities (λ, μ × f²).
pub fn randomize_elastic3(m: &ElasticModel3, spec: &RandomBoundarySpec) -> ElasticModel3 {
    let mut lam = m.lam.clone();
    let mut mu = m.mu.clone();
    scale3(&mut lam, spec, true);
    scale3(&mut mu, spec, true);
    ElasticModel3 {
        lam,
        mu,
        rho: m.rho.clone(),
        geom: m.geom,
        vp_max: m.vp_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extent2, extent3, Geometry};
    use seismic_grid::{Extent2, Extent3, Field2, Field3};

    fn fill2(e: Extent2, v: f32) -> Field2 {
        Field2::filled(e, v)
    }

    fn fill3(e: Extent3, v: f32) -> Field3 {
        Field3::filled(e, v)
    }

    fn spec() -> RandomBoundarySpec {
        RandomBoundarySpec::new(6, 77)
    }

    #[test]
    fn iso2_interior_untouched_boundary_slowed() {
        let e = extent2(40, 40);
        let m = IsoModel2 {
            vp: fill2(e, 3000.0),
            geom: Geometry::uniform(10.0, 1e-3),
        };
        let r = randomize_iso2(&m, &spec());
        assert_eq!(r.vp.get(20, 20), 3000.0);
        let mut changed = 0;
        for ix in 0..40 {
            let v = r.vp.get(ix, 0);
            assert!((3000.0 * (1.0 - seismic_pml::random::AMP)..=3000.0).contains(&v));
            changed += (v != 3000.0) as usize;
        }
        assert!(changed > 20, "edge row barely perturbed: {changed}/40");
    }

    #[test]
    fn same_seed_rebuilds_bitwise_identical_models() {
        let e = extent2(32, 32);
        let m = AcousticModel2 {
            vp: fill2(e, 2500.0),
            rho: fill2(e, 1000.0),
            geom: Geometry::uniform(10.0, 1e-3),
        };
        let a = randomize_acoustic2(&m, &spec());
        let b = randomize_acoustic2(&m, &spec());
        assert_eq!(a.vp.as_slice(), b.vp.as_slice());
        let c = randomize_acoustic2(&m, &RandomBoundarySpec::new(6, 78));
        assert_ne!(a.vp.as_slice(), c.vp.as_slice());
        // Density is never perturbed.
        assert_eq!(a.rho.as_slice(), m.rho.as_slice());
    }

    #[test]
    fn elastic_moduli_scale_as_velocity_squared() {
        let e = extent2(32, 32);
        let m = ElasticModel2::from_velocities(
            &fill2(e, 3000.0),
            &fill2(e, 1700.0),
            &fill2(e, 2200.0),
            Geometry::uniform(10.0, 1e-3),
        );
        let s = spec();
        let r = randomize_elastic2(&m, &s);
        // At a corner cell, the same factor applies to lam and mu as f².
        let f = s.factor2(32, 32, 0, 0);
        assert!(f < 1.0);
        let rel = |a: f32, b: f32| (a - b).abs() / b.abs();
        assert!(rel(r.lam.get(0, 0), m.lam.get(0, 0) * f * f) < 1e-6);
        assert!(rel(r.mu.get(0, 0), m.mu.get(0, 0) * f * f) < 1e-6);
        assert_eq!(r.rho.as_slice(), m.rho.as_slice());
        assert_eq!(r.vp_max, m.vp_max);
        // Interior untouched.
        assert_eq!(r.lam.get(16, 16), m.lam.get(16, 16));
    }

    #[test]
    fn three_d_models_randomize_all_six_faces() {
        let e = extent3(24, 24, 24);
        let m = IsoModel3 {
            vp: fill3(e, 3000.0),
            geom: Geometry::uniform(10.0, 1e-3),
        };
        let r = randomize_iso3(&m, &RandomBoundarySpec::new(4, 5));
        assert_eq!(r.vp.get(12, 12, 12), 3000.0);
        // Each face center must see some perturbation.
        for (ix, iy, iz) in [
            (0, 12, 12),
            (23, 12, 12),
            (12, 0, 12),
            (12, 23, 12),
            (12, 12, 0),
            (12, 12, 23),
        ] {
            // The exact cell may hash near u≈0; scan the face row instead.
            let mut any = false;
            for d in 0..24 {
                let v = match () {
                    _ if ix == 0 || ix == 23 => r.vp.get(ix, d, iz),
                    _ if iy == 0 || iy == 23 => r.vp.get(d, iy, iz),
                    _ => r.vp.get(d, iy, iz),
                };
                any |= v != 3000.0;
            }
            assert!(any, "face through ({ix},{iy},{iz}) unperturbed");
        }
    }

    #[test]
    fn vti_keeps_anisotropy_ratios() {
        let m = VtiModel2::constant(
            extent2(32, 32),
            3000.0,
            0.2,
            0.1,
            Geometry::uniform(10.0, 1e-3),
        );
        let r = randomize_vti2(&m, &spec());
        assert_eq!(r.epsilon.as_slice(), m.epsilon.as_slice());
        assert_eq!(r.delta.as_slice(), m.delta.as_slice());
        assert!(r.vp.get(0, 0) <= m.vp.get(0, 0));
    }
}
