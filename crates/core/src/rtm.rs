//! Real-execution 2D Reverse Time Migration (Algorithm 1).
//!
//! Forward phase: propagate the source wavefield through the migration
//! model, saving snapshots each `snap_period`. Backward phase: re-inject
//! the recorded shot record time-reversed at the receiver positions,
//! propagate backward, and at each snapshot time apply the imaging
//! condition `I(x, z) += S(x, z, t) · R(x, z, t)` — the cross-correlation
//! of Figure 2 — producing the seismic image of Figure 5.

use crate::case::OptimizationConfig;
use crate::drive::{self, AcqOf, FieldOf, Medium, Shot, ShotPoints, Stored};
use crate::modeling::{Medium2, State2};
use seismic_grid::Field2;
use seismic_source::{Acquisition2, Seismogram, Wavelet};

/// The imaging condition applied during the backward phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImagingCondition {
    /// Plain cross-correlation `I += S·R` (the paper's condition, Fig. 2).
    #[default]
    CrossCorrelation,
    /// Source-normalised (deconvolution-style) condition
    /// `I = Σ S·R / (Σ S² + ε)`: compensates geometric spreading of the
    /// source illumination so deep reflectors keep their amplitude.
    SourceNormalized,
}

/// Output of an RTM run (`F` is the image field: 2D by default, see
/// [`crate::rtm3::Rtm3Result`] for 3D).
pub struct RtmResult<F = Field2> {
    /// The migrated image (cross-correlation stack).
    pub image: F,
    /// The forward-modeled shot record that was migrated.
    pub seismogram: Seismogram,
    /// Snapshots saved during the forward phase.
    pub snapshots_saved: usize,
}

/// Zero every sample that arrives before the direct wave plus a taper —
/// standard pre-migration processing: un-muted direct arrivals correlate
/// along the whole near-surface and swamp the reflectivity. Works on 2D
/// and 3D shots alike (`mute_direct3` is the same function).
pub fn mute_direct<A: ShotPoints>(
    seis: &Seismogram,
    acq: &A,
    h: f32,
    v_surface: f32,
    dt: f32,
    taper_s: f32,
) -> Seismogram {
    let mut out = Seismogram::zeros(seis.n_receivers(), seis.nt());
    // Soft edge: a hard cut would back-propagate as broadband noise.
    let ramp = ((0.25 * taper_s / dt) as usize).max(8);
    let src = acq.source();
    for (r, rcv) in acq.receiver_points().enumerate() {
        let [dx, dy, dz] = [0, 1, 2].map(|a| (rcv[a] as f32 - src[a] as f32) * h);
        let t_direct = (dx * dx + dy * dy + dz * dz).sqrt() / v_surface + taper_s;
        let first = (t_direct / dt).ceil() as usize;
        for t in first.min(seis.nt())..seis.nt() {
            let w = if t < first + ramp {
                let x = (t - first) as f32 / ramp as f32;
                0.5 * (1.0 - (std::f32::consts::PI * x).cos())
            } else {
                1.0
            };
            out.record(r, t, seis.get(r, t) * w);
        }
    }
    out
}

/// Run RTM for one shot: forward modeling through `medium`, direct-wave
/// muting of the recorded data, then backward receiver propagation and
/// imaging. 2D and 3D alike (`run_rtm3` is the same function).
pub fn run_rtm<M: Medium>(
    medium: &M,
    acq: &AcqOf<M>,
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    gangs: usize,
) -> RtmResult<FieldOf<M>> {
    let shot = Shot::<M::Wave>::new(medium, acq, config, steps, snap_period, gangs);
    drive::rtm(&shot, wavelet, None, None)
}

/// Backward phase only: migrate a recorded shot given saved forward
/// snapshots (exposed separately so field data could be migrated through a
/// different velocity model than the one that generated it).
#[allow(clippy::too_many_arguments)]
pub fn migrate_shot(
    medium: &Medium2,
    acq: &Acquisition2,
    seismogram: &Seismogram,
    snapshots: &[Field2],
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    gangs: usize,
) -> RtmResult {
    migrate_shot_with(
        medium,
        acq,
        seismogram,
        snapshots,
        config,
        steps,
        snap_period,
        gangs,
        ImagingCondition::CrossCorrelation,
    )
}

/// [`migrate_shot`] with an explicit imaging condition.
#[allow(clippy::too_many_arguments)]
pub fn migrate_shot_with(
    medium: &Medium2,
    acq: &Acquisition2,
    seismogram: &Seismogram,
    snapshots: &[Field2],
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    gangs: usize,
    condition: ImagingCondition,
) -> RtmResult {
    let shot = Shot::<State2>::new(medium, acq, config, steps, snap_period, gangs);
    let normalized = condition == ImagingCondition::SourceNormalized;
    let mut illum = normalized.then(|| Field2::zeros(medium.extent()));
    let mut image = drive::backward(&shot, seismogram, &mut Stored(snapshots), illum.as_mut());
    if let Some(illum) = illum {
        // ε keeps un-illuminated corners from exploding. The peak sits at
        // the source point and is orders of magnitude above the body of the
        // domain, so ε must be far below it or it flattens the
        // compensation everywhere. Outside the interior both fields are 0.
        let peak = illum
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v))
            .max(1e-30);
        let eps = 1e-6 * peak;
        for (v, w) in image.as_mut_slice().iter_mut().zip(illum.as_slice()) {
            *v /= w + eps;
        }
    }
    RtmResult {
        image,
        seismogram: seismogram.clone(),
        snapshots_saved: snapshots.len(),
    }
}

/// Laplacian post-filter: the standard low-cut that removes the smooth
/// backscatter artifact of cross-correlation RTM (long-wavelength energy
/// along raypaths) and sharpens reflectors. Returns `−∇²I`.
pub fn laplacian_filter(image: &Field2, dx: f32, dz: f32) -> Field2 {
    let mut out = Field2::zeros(image.extent());
    seismic_grid::deriv::laplacian2(image, &mut out, dx, dz);
    let s = out.as_mut_slice();
    for v in s.iter_mut() {
        *v = -*v;
    }
    out
}

/// Column-wise envelope of an image: max |I| per depth row, normalised to
/// its peak — used by tests and examples to locate imaged reflectors.
pub fn depth_profile(image: &Field2) -> Vec<f32> {
    let e = image.extent();
    let mut prof = vec![0.0f32; e.nz];
    for (iz, p) in prof.iter_mut().enumerate() {
        // Skip the PML strips where injection artifacts concentrate.
        for ix in 20..e.nx.saturating_sub(20) {
            *p = p.max(image.get(ix, iz).abs());
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
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{acoustic2_layered, Layer};
    use seismic_model::{extent2, Geometry};
    use seismic_pml::CpmlAxis;

    /// Two-layer acoustic medium with a strong contrast at `z_if`.
    fn two_layer(n: usize, z_if: usize) -> Medium2 {
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 3000.0, h, 0.6);
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
        let model = acoustic2_layered(e, &layers, Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 12, dt, 3000.0, h, 1e-4);
        Medium2::Acoustic {
            model,
            cpml: [c.clone(), c],
        }
    }

    /// The headline correctness property of RTM: the image peaks at the
    /// reflector depth.
    #[test]
    fn image_peaks_at_reflector() {
        let n = 128;
        let z_if = 64;
        let medium = two_layer(n, z_if);
        let acq = Acquisition2::surface_line(n, n / 2, 6, 6, 2);
        let r = run_rtm(
            &medium,
            &acq,
            &Wavelet::ricker(18.0),
            &OptimizationConfig::default(),
            1100, // two-way time to the reflector is ~0.78 s = ~700 steps
            3,
            4,
        );
        assert!(r.snapshots_saved > 0);
        let filtered = laplacian_filter(&r.image, 10.0, 10.0);
        let prof = depth_profile(&filtered);
        // Find the depth of the maximum image amplitude outside the source
        // and receiver rows (which carry injection artifacts).
        let (z_peak, _) = prof
            .iter()
            .enumerate()
            .skip(20)
            .take(n - 40)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!(
            (z_peak as isize - z_if as isize).unsigned_abs() <= 6,
            "image peak at z = {z_peak}, reflector at {z_if}"
        );
    }

    /// Without a reflector there is (almost) nothing to image: a constant
    /// medium must produce far weaker image energy away from the
    /// acquisition rows than a layered one.
    #[test]
    fn homogeneous_medium_images_nothing() {
        let n = 96;
        let layered = two_layer(n, n / 2);
        let constant = two_layer(n, n + 10); // interface outside the grid
        let acq = Acquisition2::surface_line(n, n / 2, 6, 6, 2);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(18.0);
        let a = run_rtm(&layered, &acq, &w, &cfg, 800, 3, 4);
        let b = run_rtm(&constant, &acq, &w, &cfg, 800, 3, 4);
        // Energy in the mid-depth band (where the reflector sits).
        let band = |raw: &Field2| {
            let img = &laplacian_filter(raw, 10.0, 10.0);
            let e = img.extent();
            let mut s = 0.0f64;
            for iz in n / 2 - 6..n / 2 + 6 {
                for ix in 20..e.nx - 20 {
                    s += (img.get(ix, iz) as f64).powi(2);
                }
            }
            s
        };
        let ea = band(&a.image);
        let eb = band(&b.image);
        assert!(ea > 20.0 * eb, "layered {ea} vs constant {eb}");
    }

    /// The source-normalised condition boosts the deep reflector relative
    /// to shallow artifacts compared with plain cross-correlation.
    #[test]
    fn source_normalization_rebalances_depth() {
        let n = 112;
        let z_if = 62;
        let medium = two_layer(n, z_if);
        let acq = Acquisition2::surface_line(n, n / 2, 6, 6, 2);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(18.0);
        let steps = 1000;
        let fwd = crate::modeling::run_modeling(&medium, &acq, &w, &cfg, steps, 3, 4);
        let shot = Shot::<State2> {
            medium: &medium,
            acq: &acq,
            config: &cfg,
            steps,
            snap_period: 3,
            gangs: 4,
        };
        let muted = drive::mute(&shot, &fwd.seismogram, &w);
        let ratio_at_reflector = |cond: ImagingCondition| {
            let r = migrate_shot_with(
                &medium,
                &acq,
                &muted,
                &fwd.snapshots,
                &cfg,
                steps,
                3,
                4,
                cond,
            );
            let img = laplacian_filter(&r.image, 10.0, 10.0);
            let prof = depth_profile(&img);
            // Reflector amplitude relative to the shallow artifact band.
            let refl: f32 = prof[z_if - 2..z_if + 3].iter().cloned().fold(0.0, f32::max);
            let shallow: f32 = prof[16..30].iter().cloned().fold(0.0, f32::max);
            refl / shallow.max(1e-12)
        };
        let plain = ratio_at_reflector(ImagingCondition::CrossCorrelation);
        let norm = ratio_at_reflector(ImagingCondition::SourceNormalized);
        assert!(
            norm > plain,
            "normalisation must rebalance depth: {norm} vs {plain}"
        );
        assert!(plain > 0.0);
    }

    #[test]
    fn gang_invariance_of_image() {
        let n = 64;
        let medium = two_layer(n, 32);
        let acq = Acquisition2::surface_line(n, n / 2, 5, 5, 4);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let a = run_rtm(&medium, &acq, &w, &cfg, 120, 4, 1);
        let b = run_rtm(&medium, &acq, &w, &cfg, 120, 4, 6);
        assert_eq!(a.image, b.image);
    }
}
