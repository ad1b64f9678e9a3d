//! Real-execution 3D Reverse Time Migration.
//!
//! Volumetric Algorithm 1 is the same driver as [`crate::rtm`] over
//! [`crate::modeling3::Medium3`] — forward modeling with volume snapshots,
//! direct-wave muting, backward receiver propagation, and the 3D
//! cross-correlation imaging condition; this module gives it its 3D names
//! and adds the volume post-processing. Snapshot volumes make this
//! memory-hungry; it runs the paper's 3D cases at laptop scale (the
//! production-scale costs go through [`crate::gpu_time`] /
//! [`crate::cpu_time`], which model exactly this schedule).

use crate::rtm::RtmResult;
use seismic_grid::Field3;

/// Output of a 3D RTM run: the image volume, the muted shot record and
/// the number of snapshot volumes stored during the forward phase.
pub type Rtm3Result = RtmResult<Field3>;

/// Mute the direct wave of a 3D shot record (3D offsets, same taper logic
/// as the 2D [`crate::rtm::mute_direct`] — it is the same function).
pub use crate::rtm::mute_direct as mute_direct3;

/// Run 3D RTM for one shot.
pub use crate::rtm::run_rtm as run_rtm3;

/// 3D Laplacian post-filter (see [`crate::rtm::laplacian_filter`]): removes
/// the smooth backscatter artifact, sharpens reflectors. Returns `−∇²I`.
pub fn laplacian_filter3(image: &Field3, dx: f32, dy: f32, dz: f32) -> Field3 {
    let mut out = Field3::zeros(image.extent());
    seismic_grid::deriv::laplacian3(image, &mut out, dx, dy, dz);
    for v in out.as_mut_slice().iter_mut() {
        *v = -*v;
    }
    out
}

/// Depth profile of an image volume: max |I| per depth, normalised,
/// skipping a margin near the lateral boundaries.
pub fn depth_profile3(image: &Field3, margin: usize) -> Vec<f32> {
    let e = image.extent();
    let mut prof = vec![0.0f32; e.nz];
    for (iz, p) in prof.iter_mut().enumerate() {
        for iy in margin..e.ny.saturating_sub(margin) {
            for ix in margin..e.nx.saturating_sub(margin) {
                *p = p.max(image.get(ix, iy, iz).abs());
            }
        }
    }
    let peak = prof.iter().cloned().fold(0.0f32, f32::max).max(1e-30);
    for p in &mut prof {
        *p /= peak;
    }
    prof
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::OptimizationConfig;
    use crate::modeling3::Medium3;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{acoustic3_layered, Layer};
    use seismic_model::{extent3, Geometry};
    use seismic_pml::CpmlAxis;
    use seismic_source::Seismogram;
    use seismic_source::{Acquisition3, Wavelet};

    /// End-to-end volumetric imaging: a flat reflector in a small 3D model
    /// is recovered near its true depth.
    #[test]
    fn images_flat_reflector_3d() {
        let n = 48;
        let z_if = 24;
        let e = extent3(n, n, n);
        let h = 10.0;
        let dt = stable_dt(8, 3, 3000.0, h, 0.55);
        let layers = [
            Layer {
                z_top: 0,
                vp: 1500.0,
                vs: 0.0,
                rho: 1000.0,
            },
            Layer {
                z_top: z_if,
                vp: 3000.0,
                vs: 0.0,
                rho: 2400.0,
            },
        ];
        let model = acoustic3_layered(e, &layers, Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 8, dt, 3000.0, h, 1e-4);
        let medium = Medium3::Acoustic {
            model,
            cpml: [c.clone(), c.clone(), c],
        };
        let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2, 4), 4, 2);
        // Two-way time to the reflector: 2·200 m / 1500 ≈ 0.27 s.
        let steps = 650;
        let r = run_rtm3(
            &medium,
            &acq,
            &Wavelet::ricker(18.0),
            &OptimizationConfig::default(),
            steps,
            3,
            6,
        );
        assert!(r.snapshots_saved > 100);
        let img = laplacian_filter3(&r.image, h, h, h);
        let prof = depth_profile3(&img, 10);
        // Search below the acquisition-artifact zone (the 2D driver uses
        // the same skip; 3D spreading makes the reflector weaker still).
        let (z_peak, _) = prof
            .iter()
            .enumerate()
            .skip(16)
            .take(n - 24)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!(
            (z_peak as isize - z_if as isize).unsigned_abs() <= 4,
            "peak at z = {z_peak}, reflector at {z_if}"
        );
    }

    #[test]
    fn mute3_removes_direct_preserves_late() {
        let acq = Acquisition3::surface_patch(20, 20, (10, 10, 2), 2, 5);
        let nt = 200;
        let mut s = Seismogram::zeros(acq.n_receivers(), nt);
        for r in 0..acq.n_receivers() {
            for t in 0..nt {
                s.record(r, t, 1.0);
            }
        }
        let m = mute_direct3(&s, &acq, 10.0, 1500.0, 1e-3, 0.05);
        // At the source-adjacent receiver the mute ends after ~taper.
        for r in 0..acq.n_receivers() {
            assert_eq!(m.get(r, 0), 0.0, "receiver {r}: early sample muted");
            assert_eq!(m.get(r, nt - 1), 1.0, "receiver {r}: late sample kept");
        }
    }
}
