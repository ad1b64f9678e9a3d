//! Synthetic earth-model builders.
//!
//! Substitutes for the proprietary velocity models used in the paper's
//! industrial setting. Each builder fills the full allocated grid (halo
//! included) so the absorbing boundary sees physically sensible parameters.

use crate::{AcousticModel2, AcousticModel3, Geometry, IsoModel2, IsoModel3};
use seismic_grid::{Extent2, Extent3, Field2, Field3};

/// A horizontal layer: constant properties from `z_top` (interior index) down
/// to the next layer's top (or the grid bottom).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Interior z index where the layer starts.
    pub z_top: usize,
    /// Compressional velocity (m/s).
    pub vp: f32,
    /// Shear velocity (m/s); ignored by acoustic/iso builders.
    pub vs: f32,
    /// Density (kg/m³).
    pub rho: f32,
}

/// Classic water-over-sediment-over-basement stack used by the examples and
/// the RTM imaging tests: three strong, flat reflectors.
pub fn standard_layers(nz: usize) -> Vec<Layer> {
    vec![
        Layer {
            z_top: 0,
            vp: 1500.0,
            vs: 0.0,
            rho: 1000.0,
        },
        Layer {
            z_top: nz / 3,
            vp: 2200.0,
            vs: 1100.0,
            rho: 2100.0,
        },
        Layer {
            z_top: 2 * nz / 3,
            vp: 3200.0,
            vs: 1800.0,
            rho: 2400.0,
        },
    ]
}

fn layer_at(layers: &[Layer], iz: usize) -> &Layer {
    debug_assert!(!layers.is_empty());
    let mut cur = &layers[0];
    for l in layers {
        if iz >= l.z_top {
            cur = l;
        }
    }
    cur
}

/// Fill a 2D field from a per-(raw z) value function, covering the halo by
/// clamping to the nearest interior row.
fn fill2(e: Extent2, f: impl Fn(usize) -> f32) -> Field2 {
    let mut out = Field2::zeros(e);
    for rz in 0..e.full_nz() {
        let iz = rz.saturating_sub(e.halo).min(e.nz - 1);
        let v = f(iz);
        for rx in 0..e.full_nx() {
            out.as_mut_slice()[e.raw_idx(rx, rz)] = v;
        }
    }
    out
}

fn fill3(e: Extent3, f: impl Fn(usize) -> f32) -> Field3 {
    let mut out = Field3::zeros(e);
    for rz in 0..e.full_nz() {
        let iz = rz.saturating_sub(e.halo).min(e.nz - 1);
        let v = f(iz);
        for ry in 0..e.full_ny() {
            for rx in 0..e.full_nx() {
                out.as_mut_slice()[e.raw_idx(rx, ry, rz)] = v;
            }
        }
    }
    out
}

/// Constant-velocity 2D isotropic model (analytic-comparison tests).
pub fn iso2_constant(e: Extent2, vp: f32, geom: Geometry) -> IsoModel2 {
    IsoModel2 {
        vp: Field2::filled(e, vp),
        geom,
    }
}

/// Constant-velocity 3D isotropic model.
pub fn iso3_constant(e: Extent3, vp: f32, geom: Geometry) -> IsoModel3 {
    IsoModel3 {
        vp: Field3::filled(e, vp),
        geom,
    }
}

/// Layered 2D isotropic model.
pub fn iso2_layered(e: Extent2, layers: &[Layer], geom: Geometry) -> IsoModel2 {
    IsoModel2 {
        vp: fill2(e, |iz| layer_at(layers, iz).vp),
        geom,
    }
}

/// Layered 3D isotropic model.
pub fn iso3_layered(e: Extent3, layers: &[Layer], geom: Geometry) -> IsoModel3 {
    IsoModel3 {
        vp: fill3(e, |iz| layer_at(layers, iz).vp),
        geom,
    }
}

/// Layered 2D acoustic (variable-density) model.
pub fn acoustic2_layered(e: Extent2, layers: &[Layer], geom: Geometry) -> AcousticModel2 {
    AcousticModel2 {
        vp: fill2(e, |iz| layer_at(layers, iz).vp),
        rho: fill2(e, |iz| layer_at(layers, iz).rho),
        geom,
    }
}

/// Layered 3D acoustic model.
pub fn acoustic3_layered(e: Extent3, layers: &[Layer], geom: Geometry) -> AcousticModel3 {
    AcousticModel3 {
        vp: fill3(e, |iz| layer_at(layers, iz).vp),
        rho: fill3(e, |iz| layer_at(layers, iz).rho),
        geom,
    }
}

/// Layered 2D elastic model (velocities converted to Lamé parameters).
pub fn elastic2_layered(e: Extent2, layers: &[Layer], geom: Geometry) -> crate::ElasticModel2 {
    let vp = fill2(e, |iz| layer_at(layers, iz).vp);
    let vs = fill2(e, |iz| layer_at(layers, iz).vs);
    let rho = fill2(e, |iz| layer_at(layers, iz).rho);
    crate::ElasticModel2::from_velocities(&vp, &vs, &rho, geom)
}

/// Layered 3D elastic model.
pub fn elastic3_layered(e: Extent3, layers: &[Layer], geom: Geometry) -> crate::ElasticModel3 {
    let vp = fill3(e, |iz| layer_at(layers, iz).vp);
    let vs = fill3(e, |iz| layer_at(layers, iz).vs);
    let rho = fill3(e, |iz| layer_at(layers, iz).rho);
    crate::ElasticModel3::from_velocities(&vp, &vs, &rho, geom)
}

/// 2D wedge model: a dipping interface (Marmousi-flavoured structure) over a
/// basement, producing a non-flat reflector for imaging tests.
pub fn acoustic2_wedge(
    e: Extent2,
    vp_top: f32,
    vp_bottom: f32,
    z_left: usize,
    z_right: usize,
    geom: Geometry,
) -> AcousticModel2 {
    let mut vp = Field2::filled(e, vp_top);
    let mut rho = Field2::filled(e, 1000.0);
    let nx = e.nx.max(2);
    for ix in 0..e.nx {
        let t = ix as f32 / (nx - 1) as f32;
        let z_if = (z_left as f32 + t * (z_right as f32 - z_left as f32)) as usize;
        for iz in 0..e.nz {
            if iz >= z_if {
                vp.set(ix, iz, vp_bottom);
                rho.set(ix, iz, 2300.0);
            }
        }
    }
    AcousticModel2 { vp, rho, geom }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extent2, extent3};

    fn geom() -> Geometry {
        Geometry::uniform(10.0, 1e-3)
    }

    #[test]
    fn layered_iso_has_discontinuity_at_interface() {
        let e = extent2(16, 30);
        let m = iso2_layered(e, &standard_layers(30), geom());
        assert_eq!(m.vp.get(5, 0), 1500.0);
        assert_eq!(m.vp.get(5, 10), 2200.0);
        assert_eq!(m.vp.get(5, 20), 3200.0);
    }

    #[test]
    fn layered_fills_halo_by_clamping() {
        let e = extent2(8, 12);
        let m = iso2_layered(e, &standard_layers(12), geom());
        // Top halo row mirrors the first interior layer.
        assert_eq!(m.vp.as_slice()[e.raw_idx(0, 0)], 1500.0);
        // Bottom halo row mirrors the deepest layer.
        let last = e.full_nz() - 1;
        assert_eq!(m.vp.as_slice()[e.raw_idx(0, last)], 3200.0);
    }

    #[test]
    fn layered_3d_matches_2d_profile() {
        let e = extent3(6, 6, 30);
        let m = iso3_layered(e, &standard_layers(30), geom());
        assert_eq!(m.vp.get(2, 2, 0), 1500.0);
        assert_eq!(m.vp.get(2, 2, 29), 3200.0);
    }

    #[test]
    fn wedge_interface_dips() {
        let e = extent2(20, 40);
        let m = acoustic2_wedge(e, 1500.0, 3000.0, 10, 30, geom());
        // Left column: interface at z=10.
        assert_eq!(m.vp.get(0, 9), 1500.0);
        assert_eq!(m.vp.get(0, 10), 3000.0);
        // Right column: interface at z≈30.
        assert_eq!(m.vp.get(19, 29), 1500.0);
        assert_eq!(m.vp.get(19, 30), 3000.0);
        // Density follows.
        assert_eq!(m.rho.get(0, 10), 2300.0);
    }

    #[test]
    fn elastic_layered_builders() {
        let e = extent2(8, 30);
        let m = elastic2_layered(e, &standard_layers(30), geom());
        // Water layer: μ = 0.
        assert_eq!(m.mu.get(3, 0), 0.0);
        // Sediment: μ = ρ vs².
        assert!((m.mu.get(3, 15) - 2100.0 * 1100.0f32 * 1100.0).abs() < 1.0);
        let e3 = extent3(4, 4, 30);
        let m3 = elastic3_layered(e3, &standard_layers(30), geom());
        assert_eq!(m3.mu.get(1, 1, 0), 0.0);
        assert_eq!(m3.vp_max, 3200.0);
    }
}
