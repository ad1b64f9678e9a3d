//! # seismic-model
//!
//! Earth-model containers and synthetic model builders.
//!
//! The paper evaluates three formulations of the earth model (Section 3.3):
//!
//! * **Isotropic (constant density)** — wave propagation defined by the
//!   pressure velocity `vp` alone ([`IsoModel2`]/[`IsoModel3`]),
//! * **Acoustic (variable density)** — `vp` and density `ρ`
//!   ([`AcousticModel2`]/[`AcousticModel3`]),
//! * **Elastic (isotropic solid)** — `vp`, shear velocity `vs`, and `ρ`,
//!   converted to Lamé parameters `λ`, `μ`
//!   ([`ElasticModel2`]/[`ElasticModel3`]).
//!
//! The original work ran on proprietary TOTAL velocity models; here the
//! [`builder`] module provides synthetic equivalents (constant, layered,
//! wedge) that exercise the same code paths and produce recognisable
//! reflectors for the RTM imaging tests.
//!
//! [`footprint`] estimates GPU global-memory requirements for each seismic
//! case — the mechanism behind the paper's "elastic variables could not fit
//! in GPU memory when the Fermi card was used" (the `X` cells of Tables 3/4).

pub mod builder;
pub mod footprint;
pub mod random_boundary;

use seismic_grid::{Extent2, Extent3, Field2, Field3};

/// Physical grid geometry shared by all models: spacings in meters and the
/// time step in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Grid spacing along x (m).
    pub dx: f32,
    /// Grid spacing along y (m); unused in 2D.
    pub dy: f32,
    /// Grid spacing along z (m).
    pub dz: f32,
    /// Time step (s).
    pub dt: f32,
}

impl Geometry {
    /// Uniform spacing `h` and time step `dt`.
    pub fn uniform(h: f32, dt: f32) -> Self {
        Self {
            dx: h,
            dy: h,
            dz: h,
            dt,
        }
    }

    /// Smallest spatial spacing (CFL denominator).
    pub fn h_min(&self) -> f32 {
        self.dx.min(self.dy).min(self.dz)
    }
}

/// Isotropic constant-density model in 2D: `vp` only.
#[derive(Debug, Clone)]
pub struct IsoModel2 {
    /// Pressure velocity (m/s).
    pub vp: Field2,
    /// Grid geometry.
    pub geom: Geometry,
}

/// Isotropic constant-density model in 3D.
#[derive(Debug, Clone)]
pub struct IsoModel3 {
    /// Pressure velocity (m/s).
    pub vp: Field3,
    /// Grid geometry.
    pub geom: Geometry,
}

/// Acoustic variable-density model in 2D: `vp` and `ρ`.
#[derive(Debug, Clone)]
pub struct AcousticModel2 {
    /// Pressure velocity (m/s).
    pub vp: Field2,
    /// Density (kg/m³).
    pub rho: Field2,
    /// Grid geometry.
    pub geom: Geometry,
}

/// Acoustic variable-density model in 3D.
#[derive(Debug, Clone)]
pub struct AcousticModel3 {
    /// Pressure velocity (m/s).
    pub vp: Field3,
    /// Density (kg/m³).
    pub rho: Field3,
    /// Grid geometry.
    pub geom: Geometry,
}

/// Elastic isotropic model in 2D: Lamé parameters and density.
///
/// Constructed from (`vp`, `vs`, `ρ`) via `μ = ρ·vs²`, `λ = ρ·vp² − 2μ`.
#[derive(Debug, Clone)]
pub struct ElasticModel2 {
    /// First Lamé parameter λ (Pa).
    pub lam: Field2,
    /// Shear modulus μ (Pa).
    pub mu: Field2,
    /// Density (kg/m³).
    pub rho: Field2,
    /// Grid geometry.
    pub geom: Geometry,
    /// Maximum compressional velocity, retained for CFL checks (m/s).
    pub vp_max: f32,
}

/// Elastic isotropic model in 3D.
#[derive(Debug, Clone)]
pub struct ElasticModel3 {
    /// First Lamé parameter λ (Pa).
    pub lam: Field3,
    /// Shear modulus μ (Pa).
    pub mu: Field3,
    /// Density (kg/m³).
    pub rho: Field3,
    /// Grid geometry.
    pub geom: Geometry,
    /// Maximum compressional velocity (m/s).
    pub vp_max: f32,
}

impl ElasticModel2 {
    /// Build from velocities and density; all three fields share an extent.
    pub fn from_velocities(vp: &Field2, vs: &Field2, rho: &Field2, geom: Geometry) -> Self {
        assert_eq!(vp.extent(), vs.extent());
        assert_eq!(vp.extent(), rho.extent());
        let e = vp.extent();
        let mut lam = Field2::zeros(e);
        let mut mu = Field2::zeros(e);
        let mut vp_max = 0.0f32;
        for iz in 0..e.full_nz() {
            for ix in 0..e.full_nx() {
                let i = e.raw_idx(ix, iz);
                let (vpv, vsv, r) = (vp.as_slice()[i], vs.as_slice()[i], rho.as_slice()[i]);
                assert!(
                    vsv <= vpv,
                    "shear velocity must not exceed compressional velocity"
                );
                let m = r * vsv * vsv;
                mu.as_mut_slice()[i] = m;
                lam.as_mut_slice()[i] = r * vpv * vpv - 2.0 * m;
                vp_max = vp_max.max(vpv);
            }
        }
        Self {
            lam,
            mu,
            rho: rho.clone(),
            geom,
            vp_max,
        }
    }
}

impl ElasticModel3 {
    /// Build from velocities and density; all three fields share an extent.
    pub fn from_velocities(vp: &Field3, vs: &Field3, rho: &Field3, geom: Geometry) -> Self {
        assert_eq!(vp.extent(), vs.extent());
        assert_eq!(vp.extent(), rho.extent());
        let e = vp.extent();
        let mut lam = Field3::zeros(e);
        let mut mu = Field3::zeros(e);
        let mut vp_max = 0.0f32;
        let n = e.len();
        for i in 0..n {
            let (vpv, vsv, r) = (vp.as_slice()[i], vs.as_slice()[i], rho.as_slice()[i]);
            assert!(
                vsv <= vpv,
                "shear velocity must not exceed compressional velocity"
            );
            let m = r * vsv * vsv;
            mu.as_mut_slice()[i] = m;
            lam.as_mut_slice()[i] = r * vpv * vpv - 2.0 * m;
            vp_max = vp_max.max(vpv);
        }
        Self {
            lam,
            mu,
            rho: rho.clone(),
            geom,
            vp_max,
        }
    }
}

/// Min/max of the interior of a 2D field (velocity bounds for CFL and
/// dispersion checks).
pub fn min_max2(f: &Field2) -> (f32, f32) {
    let e = f.extent();
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for iz in 0..e.nz {
        for ix in 0..e.nx {
            let v = f.get(ix, iz);
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (lo, hi)
}

/// Extent helpers for building matched model sets.
pub fn extent2(nx: usize, nz: usize) -> Extent2 {
    Extent2::new(nx, nz, seismic_grid::STENCIL_HALF)
}

/// 3D analogue of [`extent2`].
pub fn extent3(nx: usize, ny: usize, nz: usize) -> Extent3 {
    Extent3::new(nx, ny, nz, seismic_grid::STENCIL_HALF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_conversion_roundtrip_2d() {
        let e = extent2(8, 8);
        let vp = Field2::filled(e, 3000.0);
        let vs = Field2::filled(e, 1500.0);
        let rho = Field2::filled(e, 2200.0);
        let m = ElasticModel2::from_velocities(&vp, &vs, &rho, Geometry::uniform(10.0, 1e-3));
        let mu = 2200.0f32 * 1500.0 * 1500.0;
        let lam = 2200.0f32 * 3000.0 * 3000.0 - 2.0 * mu;
        assert_eq!(m.mu.get(3, 3), mu);
        assert_eq!(m.lam.get(3, 3), lam);
        assert_eq!(m.vp_max, 3000.0);
        // Recover vp: sqrt((λ+2μ)/ρ).
        let vp_back = ((m.lam.get(0, 0) + 2.0 * m.mu.get(0, 0)) / m.rho.get(0, 0)).sqrt();
        assert!((vp_back - 3000.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "shear velocity")]
    fn elastic_rejects_vs_above_vp() {
        let e = extent2(4, 4);
        let vp = Field2::filled(e, 1000.0);
        let vs = Field2::filled(e, 2000.0);
        let rho = Field2::filled(e, 2000.0);
        ElasticModel2::from_velocities(&vp, &vs, &rho, Geometry::uniform(10.0, 1e-3));
    }

    #[test]
    fn elastic_conversion_3d() {
        let e = extent3(4, 4, 4);
        let vp = Field3::filled(e, 2500.0);
        let vs = Field3::filled(e, 0.0); // fluid limit: μ = 0
        let rho = Field3::filled(e, 1000.0);
        let m = ElasticModel3::from_velocities(&vp, &vs, &rho, Geometry::uniform(10.0, 1e-3));
        assert_eq!(m.mu.get(1, 1, 1), 0.0);
        assert_eq!(m.lam.get(1, 1, 1), 1000.0 * 2500.0f32 * 2500.0);
    }

    #[test]
    fn min_max_scan() {
        let e = extent2(8, 4);
        let f = Field2::from_fn(e, |ix, iz| 1000.0 + (ix + iz) as f32);
        let (lo, hi) = min_max2(&f);
        assert_eq!(lo, 1000.0);
        assert_eq!(hi, 1000.0 + 7.0 + 3.0);
    }

    #[test]
    fn geometry_uniform() {
        let g = Geometry::uniform(12.5, 1e-3);
        assert_eq!(g.dx, 12.5);
        assert_eq!(g.dy, 12.5);
        assert_eq!(g.dz, 12.5);
        assert_eq!(g.h_min(), 12.5);
    }
}

/// Acoustic VTI (vertically transverse isotropic) model in 2D — the
/// anisotropic formulation the paper lists as future work ("we will
/// consider the anisotropic case in the future").
///
/// Thomsen parameters: `epsilon` controls the horizontal/vertical velocity
/// ratio (`vx = vp·√(1+2ε)`), `delta` the near-vertical moveout.
#[derive(Debug, Clone)]
pub struct VtiModel2 {
    /// Vertical P velocity (m/s).
    pub vp: Field2,
    /// Thomsen ε.
    pub epsilon: Field2,
    /// Thomsen δ.
    pub delta: Field2,
    /// Grid geometry.
    pub geom: Geometry,
}

impl VtiModel2 {
    /// Constant-parameter model.
    pub fn constant(e: Extent2, vp: f32, epsilon: f32, delta: f32, geom: Geometry) -> Self {
        assert!(
            epsilon >= delta,
            "ε >= δ avoids the known pseudo-acoustic instability"
        );
        assert!((0.0..1.0).contains(&epsilon));
        Self {
            vp: Field2::filled(e, vp),
            epsilon: Field2::filled(e, epsilon),
            delta: Field2::filled(e, delta),
            geom,
        }
    }

    /// Largest phase velocity (CFL bound): `vp·√(1+2ε)`.
    pub fn v_max(&self) -> f32 {
        let (_, vp_hi) = min_max2(&self.vp);
        let (_, eps_hi) = min_max2(&self.epsilon);
        vp_hi * (1.0 + 2.0 * eps_hi).sqrt()
    }
}
