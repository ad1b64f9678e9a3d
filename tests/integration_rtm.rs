//! Cross-crate integration tests for Reverse Time Migration: end-to-end
//! imaging correctness on structures beyond the unit-test flat layer.

use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::Medium2;
use rtm_core::rtm::{depth_profile, laplacian_filter, run_rtm};
use seismic_grid::cfl::stable_dt;
use seismic_grid::Field2;
use seismic_model::builder::{acoustic2_layered, acoustic2_wedge, Layer};
use seismic_model::{extent2, Geometry};
use seismic_pml::CpmlAxis;
use seismic_source::{Acquisition2, Wavelet};

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

/// A dipping reflector images at the correct depth under each shot point —
/// the wedge scenario of the `rtm_imaging` example, asserted.
#[test]
fn wedge_images_follow_the_dip() {
    let n = 128;
    let (z_left, z_right) = (52, 76);
    let e = extent2(n, n);
    let h = 10.0;
    let dt = stable_dt(8, 2, 3000.0, h, 0.6);
    let model = acoustic2_wedge(e, 1500.0, 3000.0, z_left, z_right, Geometry::uniform(h, dt));
    let c = CpmlAxis::new(n, e.halo, 12, dt, 3000.0, h, 1e-4);
    let medium = Medium2::Acoustic {
        model,
        cpml: [c.clone(), c],
    };
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(18.0);

    let mut stack = Field2::zeros(e);
    for src_x in [n / 4, n / 2, 3 * n / 4] {
        let acq = Acquisition2::surface_line(n, src_x, 6, 6, 2);
        let r = run_rtm(&medium, &acq, &w, &cfg, 1100, 3, 6);
        for (dst, src) in stack.as_mut_slice().iter_mut().zip(r.image.as_slice()) {
            *dst += *src;
        }
    }
    let img = laplacian_filter(&stack, h, h);
    // Below each probe column the image must peak near the local interface
    // depth (interpolated along the dip).
    for ix in [n / 4, n / 2, 3 * n / 4] {
        let expect = z_left as f32 + (ix as f32 / (n - 1) as f32) * (z_right - z_left) as f32;
        let mut best = (0usize, 0.0f32);
        for iz in 30..n - 30 {
            let v = img.get(ix, iz).abs();
            if v > best.1 {
                best = (iz, v);
            }
        }
        assert!(
            (best.0 as f32 - expect).abs() <= 7.0,
            "x = {ix}: peak at z = {}, expected ~{expect}",
            best.0
        );
    }
}

/// Migrating with more shots sharpens the image: the stacked reflector
/// amplitude grows faster than the off-reflector background.
#[test]
fn stacking_improves_signal_to_artifact_ratio() {
    let n = 112;
    let z_if = 56;
    let medium = two_layer(n, z_if);
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(18.0);
    let steps = 950;

    let shot = |src_x: usize| {
        let acq = Acquisition2::surface_line(n, src_x, 6, 6, 2);
        run_rtm(&medium, &acq, &w, &cfg, steps, 3, 6).image
    };
    let one = shot(n / 2);
    let mut stacked = shot(n / 3);
    for (d, s) in stacked.as_mut_slice().iter_mut().zip(one.as_slice()) {
        *d += *s;
    }
    let snr = |raw: &Field2| {
        let img = laplacian_filter(raw, 10.0, 10.0);
        let band = |lo: usize, hi: usize| {
            let mut s = 0.0f64;
            for iz in lo..hi {
                for ix in 25..n - 25 {
                    s += (img.get(ix, iz) as f64).powi(2);
                }
            }
            s / (hi - lo) as f64
        };
        band(z_if - 5, z_if + 5) / band(30, 45).max(1e-30)
    };
    let snr1 = snr(&one);
    let snr2 = snr(&stacked);
    assert!(snr1 > 1.0, "single shot must already image: snr {snr1}");
    assert!(snr2 > snr1, "stacking must not degrade: {snr2} vs {snr1}");
}

/// The imaged reflector depth tracks the true interface as it moves.
#[test]
fn image_depth_tracks_interface() {
    let n = 112;
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(18.0);
    let mut peaks = Vec::new();
    for z_if in [48usize, 64] {
        let medium = two_layer(n, z_if);
        let acq = Acquisition2::surface_line(n, n / 2, 6, 6, 2);
        let r = run_rtm(&medium, &acq, &w, &cfg, 1000, 3, 6);
        let img = laplacian_filter(&r.image, 10.0, 10.0);
        let prof = depth_profile(&img);
        let (z_peak, _) = prof
            .iter()
            .enumerate()
            .skip(25)
            .take(n - 50)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!(
            (z_peak as isize - z_if as isize).unsigned_abs() <= 6,
            "interface {z_if}: imaged at {z_peak}"
        );
        peaks.push(z_peak);
    }
    assert!(peaks[1] > peaks[0], "deeper interface images deeper");
}

/// RTM through the drivers is bitwise deterministic across gang counts —
/// the imaging loop inherits the propagators' determinism.
#[test]
fn rtm_image_gang_invariant() {
    let n = 80;
    let medium = two_layer(n, 40);
    let acq = Acquisition2::surface_line(n, n / 2, 5, 5, 4);
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(20.0);
    let a = run_rtm(&medium, &acq, &w, &cfg, 300, 4, 2);
    let b = run_rtm(&medium, &acq, &w, &cfg, 300, 4, 5);
    assert_eq!(a.image, b.image);
    assert_eq!(a.seismogram, b.seismogram);
}

/// Elastic RTM through the generic driver: stays finite and concentrates
/// image energy above the basement (smoke-level; elastic imaging quality
/// needs mode separation beyond the paper's scope).
#[test]
fn elastic_rtm_smoke() {
    use seismic_model::builder::{elastic2_layered, Layer};
    let n = 80;
    let e = extent2(n, n);
    let h = 10.0;
    let dt = stable_dt(8, 2, 3000.0, h, 0.45);
    let layers = [
        Layer {
            z_top: 0,
            vp: 1800.0,
            vs: 900.0,
            rho: 1800.0,
        },
        Layer {
            z_top: n / 2,
            vp: 3000.0,
            vs: 1700.0,
            rho: 2400.0,
        },
    ];
    let model = elastic2_layered(e, &layers, Geometry::uniform(h, dt));
    let c = CpmlAxis::new(n, e.halo, 10, dt, 3000.0, h, 1e-4);
    let medium = Medium2::Elastic {
        model,
        cpml: [c.clone(), c],
    };
    let acq = Acquisition2::surface_line(n, n / 2, 6, 6, 4);
    let r = run_rtm(
        &medium,
        &acq,
        &Wavelet::ricker(16.0),
        &OptimizationConfig::default(),
        700,
        4,
        4,
    );
    let m = r.image.max_abs();
    assert!(m.is_finite() && m > 0.0, "image finite: {m}");
    assert!(r.seismogram.rms().is_finite());
    assert!(r.snapshots_saved > 100);
}

/// The source-normalised imaging condition plugs into the same pipeline
/// and still places the reflector correctly.
#[test]
fn normalized_condition_images_reflector() {
    use rtm_core::modeling::run_modeling;
    use rtm_core::rtm::{migrate_shot_with, mute_direct, ImagingCondition};
    let n = 112;
    let z_if = 56;
    let medium = two_layer(n, z_if);
    let acq = Acquisition2::surface_line(n, n / 2, 6, 6, 2);
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(18.0);
    let steps = 950;
    let fwd = run_modeling(&medium, &acq, &w, &cfg, steps, 3, 4);
    let muted = mute_direct(&fwd.seismogram, &acq, 10.0, 1500.0, medium.dt(), 2.4 / 18.0);
    let r = migrate_shot_with(
        &medium,
        &acq,
        &muted,
        &fwd.snapshots,
        &cfg,
        steps,
        3,
        4,
        ImagingCondition::SourceNormalized,
    );
    let img = laplacian_filter(&r.image, 10.0, 10.0);
    let prof = depth_profile(&img);
    let (z_peak, _) = prof
        .iter()
        .enumerate()
        .skip(25)
        .take(n - 50)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    assert!(
        (z_peak as isize - z_if as isize).unsigned_abs() <= 6,
        "normalised image peak at {z_peak}, reflector at {z_if}"
    );
}

/// One forward loop records every shot: the dense driver, the
/// random-boundary driver and plain modeling (muted the way the drivers
/// mute) produce bit-identical shot records, in 2D and in 3D.
#[test]
fn forward_loops_record_identical_shots() {
    use rtm_core::modeling3::{run_modeling3, Medium3};
    use rtm_core::rand_boundary::{run_rtm_random_boundary, run_rtm_random_boundary3};
    use rtm_core::rtm3::{mute_direct3, run_rtm3};
    use seismic_model::builder::acoustic3_layered;
    use seismic_model::extent3;
    use seismic_pml::RandomBoundarySpec;
    use seismic_source::Acquisition3;

    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(20.0);
    let spec = RandomBoundarySpec::new(8, 2015);

    let n = 48;
    let medium = two_layer(n, n / 2);
    let acq = Acquisition2::surface_line(n, n / 2, 5, 5, 4);
    let dense = run_rtm(&medium, &acq, &w, &cfg, 90, 4, 2);
    let randb = run_rtm_random_boundary(&medium, &acq, &w, &cfg, 90, 4, &spec, 3).unwrap();
    assert_eq!(dense.seismogram, randb.seismogram, "2D shot records differ");

    let n = 20;
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
            z_top: n / 2,
            vp: 3000.0,
            vs: 0.0,
            rho: 2400.0,
        },
    ];
    let c = CpmlAxis::new(n, e.halo, 6, dt, 3000.0, h, 1e-4);
    let medium = Medium3::Acoustic {
        model: acoustic3_layered(e, &layers, Geometry::uniform(h, dt)),
        cpml: [c.clone(), c.clone(), c],
    };
    let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2 - 1, 3), 3, 3);
    let (steps, snap) = (40, 3);
    let dense = run_rtm3(&medium, &acq, &w, &cfg, steps, snap, 2);
    let randb = run_rtm_random_boundary3(&medium, &acq, &w, &cfg, steps, snap, &spec, 3).unwrap();
    let modeled = run_modeling3(&medium, &acq, &w, &cfg, steps, snap, 1);
    let muted = mute_direct3(&modeled.seismogram, &acq, h, 1500.0, dt, 2.4 / w.f_peak());
    assert_eq!(
        dense.seismogram, randb.seismogram,
        "3D dense vs random boundary"
    );
    assert_eq!(dense.seismogram, muted, "3D dense vs muted modeling");
}

/// A zero snapshot period is a typed configuration error from every driver
/// that returns `Result`, not a division-by-zero panic.
#[test]
fn zero_snap_period_is_a_typed_error() {
    use rtm_core::checkpoint::migrate_checkpointed;
    use rtm_core::rand_boundary::{migrate_random_boundary, run_rtm_random_boundary};
    use rtm_core::resilient::run_rtm_with_restart;
    use rtm_core::{ConfigError, RtmError};
    use seismic_pml::RandomBoundarySpec;
    use seismic_source::Seismogram;

    fn zero_snap<T>(r: Result<T, RtmError>) -> bool {
        matches!(r, Err(RtmError::Config(ConfigError::ZeroSnapPeriod)))
    }
    let n = 32;
    let m = two_layer(n, n / 2);
    let acq = Acquisition2::surface_line(n, n / 2, 3, 5, 4);
    let seis = Seismogram::zeros(acq.n_receivers(), 20);
    let (cfg, w) = (OptimizationConfig::default(), Wavelet::ricker(20.0));
    let spec = RandomBoundarySpec::new(8, 1);
    assert!(zero_snap(migrate_random_boundary(
        &m, &acq, &seis, &w, &cfg, 20, 0, &spec, 2
    )));
    assert!(zero_snap(run_rtm_random_boundary(
        &m, &acq, &w, &cfg, 20, 0, &spec, 2
    )));
    assert!(zero_snap(migrate_checkpointed(
        &m, &acq, &seis, &w, &cfg, 20, 0, 3, 2
    )));
    for randomized in [None, Some(&spec)] {
        assert!(zero_snap(run_rtm_with_restart(
            &m,
            &acq,
            &w,
            &cfg,
            20,
            0,
            2,
            &[0, 5, 10, 15],
            randomized,
            &[]
        )));
    }
}
