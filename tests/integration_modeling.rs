//! Cross-crate integration tests for forward seismic modeling: real
//! propagation through drivers, MPI decomposition, and the device-time
//! bookkeeping, exercised together.

use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::{run_modeling, Medium2};
use rtm_core::mpi_run::modeling_iso2_mpi;
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{acoustic2_layered, elastic2_layered, iso2_layered, standard_layers};
use seismic_model::{extent2, Geometry};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_prop::iso2d::Iso2State;
use seismic_source::{Acquisition2, Wavelet};

fn media(n: usize) -> Vec<(&'static str, Medium2)> {
    let e = extent2(n, n);
    let h = 10.0;
    let vmax = 3200.0;
    let geom = |safety| Geometry::uniform(h, stable_dt(8, 2, vmax, h, safety));
    let layers = standard_layers(n);
    let damp = DampProfile::new(n, e.halo, 12, vmax, h, 1e-4);
    let cpml = CpmlAxis::new(n, e.halo, 12, stable_dt(8, 2, vmax, h, 0.55), vmax, h, 1e-4);
    vec![
        (
            "iso",
            Medium2::Iso {
                model: iso2_layered(e, &layers, geom(0.7)),
                damp_x: damp.clone(),
                damp_z: damp,
            },
        ),
        (
            "acoustic",
            Medium2::Acoustic {
                model: acoustic2_layered(e, &layers, geom(0.55)),
                cpml: [cpml.clone(), cpml.clone()],
            },
        ),
        (
            "elastic",
            Medium2::Elastic {
                model: elastic2_layered(e, &layers, geom(0.5)),
                cpml: [cpml.clone(), cpml],
            },
        ),
    ]
}

/// Every formulation propagates stably through the same driver and records
/// energy at the receivers.
#[test]
fn all_formulations_model_stably() {
    let n = 96;
    for (name, medium) in media(n) {
        let acq = Acquisition2::surface_line(n, n / 2, 8, 4, 4);
        let r = run_modeling(
            &medium,
            &acq,
            &Wavelet::ricker(18.0),
            &OptimizationConfig::default(),
            250,
            25,
            4,
        );
        assert_eq!(r.snapshots.len(), 10, "{name}");
        let rms = r.seismogram.rms();
        assert!(rms.is_finite() && rms > 0.0, "{name}: rms {rms}");
        let peak = r
            .snapshots
            .iter()
            .map(|s| s.max_abs())
            .fold(0.0f32, f32::max);
        assert!(peak.is_finite() && peak > 0.0, "{name}");
    }
}

/// The optimization knobs change performance modeling, never physics:
/// naive and best configurations produce identical seismograms.
#[test]
fn optimization_config_does_not_change_physics() {
    let n = 72;
    for (name, medium) in media(n) {
        let acq = Acquisition2::surface_line(n, n / 2, 6, 4, 6);
        let w = Wavelet::ricker(20.0);
        let a = run_modeling(
            &medium,
            &acq,
            &w,
            &OptimizationConfig::default(),
            120,
            20,
            3,
        );
        let b = run_modeling(&medium, &acq, &w, &OptimizationConfig::naive(), 120, 20, 3);
        assert_eq!(a.seismogram, b.seismogram, "{name}");
    }
}

/// Full pipeline determinism: same inputs, same bits, across repeated runs
/// and gang counts.
#[test]
fn modeling_is_deterministic() {
    let n = 64;
    let (_, medium) = media(n).swap_remove(1);
    let acq = Acquisition2::surface_line(n, n / 3, 5, 3, 4);
    let w = Wavelet::ricker(22.0);
    let cfg = OptimizationConfig::default();
    let r1 = run_modeling(&medium, &acq, &w, &cfg, 150, 30, 1);
    let r2 = run_modeling(&medium, &acq, &w, &cfg, 150, 30, 7);
    let r3 = run_modeling(&medium, &acq, &w, &cfg, 150, 30, 7);
    assert_eq!(r1.seismogram, r2.seismogram);
    assert_eq!(r2.seismogram, r3.seismogram);
    assert_eq!(r1.snapshots, r2.snapshots);
}

/// Algorithm 1's decomposed reference equals the sequential propagator for
/// a rank count that does not divide the grid evenly.
#[test]
fn mpi_decomposition_matches_sequential_uneven_split() {
    let n = 70;
    let e = extent2(n, n);
    let h = 10.0;
    let dt = stable_dt(8, 2, 3200.0, h, 0.7);
    let m = iso2_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
    let damp = DampProfile::new(n, e.halo, 12, 3200.0, h, 1e-4);
    let w = Wavelet::ricker(20.0);
    let steps = 80;
    let mut seq = Iso2State::new(e);
    for t in 0..steps {
        seq.step(&m, &damp, &damp, 1);
        seq.inject(&m, 20, 30, w.sample(t as f32 * dt));
    }
    let got = modeling_iso2_mpi(&m, &damp, &damp, (20, 30), &w, steps, 6);
    assert_eq!(got, seq.u_cur);
}

/// A wave recorded at two receivers equidistant from the source in a
/// laterally homogeneous model arrives identically (lateral symmetry
/// through the full driver stack).
#[test]
fn lateral_symmetry_of_recordings() {
    let n = 96;
    let (_, medium) = media(n).swap_remove(0);
    let acq = Acquisition2::surface_line(n, n / 2, 10, 6, 1);
    let r = run_modeling(
        &medium,
        &acq,
        &Wavelet::ricker(18.0),
        &OptimizationConfig::default(),
        220,
        50,
        4,
    );
    for off in [4usize, 12, 20] {
        let left = n / 2 - off;
        let right = n / 2 + off;
        let tl = r.seismogram.trace(left);
        let tr = r.seismogram.trace(right);
        let scale = tl.iter().fold(0.0f32, |a, &b| a.max(b.abs())).max(1e-12);
        for (a, b) in tl.iter().zip(tr.iter()) {
            assert!((a - b).abs() <= 2e-3 * scale, "offset {off}: {a} vs {b}");
        }
    }
}

/// Extension: the VTI (anisotropic) formulation runs through the same 2D
/// driver and shows the elliptical kinematics end-to-end.
#[test]
fn vti_medium_through_driver() {
    use seismic_model::VtiModel2;
    let n = 140;
    let e = extent2(n, n);
    let h = 10.0;
    let vp = 2000.0f32;
    let eps = 0.2f32;
    let vmax = vp * (1.0 + 2.0 * eps).sqrt();
    let dt = stable_dt(8, 2, vmax, h, 0.6);
    let model = VtiModel2::constant(e, vp, eps, 0.08, Geometry::uniform(h, dt));
    let damp = DampProfile::new(n, e.halo, 12, vmax, h, 1e-4);
    let medium = Medium2::Vti {
        model,
        damp_x: damp.clone(),
        damp_z: damp,
    };
    let acq = Acquisition2::surface_line(n, n / 2, n / 2, n / 2, 10);
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(22.0);
    let a = run_modeling(&medium, &acq, &w, &cfg, 220, 110, 1);
    let b = run_modeling(&medium, &acq, &w, &cfg, 220, 110, 6);
    assert_eq!(a.seismogram, b.seismogram, "gang invariance holds for VTI");
    // Elliptical front in the last snapshot.
    let snap = a.snapshots.last().unwrap();
    let c = n / 2;
    let peak_along = |dx: usize, dz: usize| {
        let mut best = (0usize, 0.0f32);
        for r in 6..c - 4 {
            let v = snap.get(c + r * dx, c + r * dz).abs();
            if v > best.1 {
                best = (r, v);
            }
        }
        best.0 as f32
    };
    let ratio = peak_along(1, 0) / peak_along(0, 1);
    let want = (1.0 + 2.0 * eps).sqrt();
    assert!((ratio - want).abs() < 0.15, "ratio {ratio} vs {want}");
}

/// Extension: a 3D run decomposed over message-passing ranks matches the
/// sequential 3D propagator bitwise (ghost planes are lossless).
#[test]
fn mpi3_decomposition_matches_sequential() {
    use rtm_core::mpi_run::modeling_iso3_mpi;
    use seismic_model::builder::iso3_layered;
    use seismic_prop::iso3d::Iso3State;
    let n = 30;
    let e = seismic_model::extent3(n, n, n);
    let h = 10.0;
    let dt = stable_dt(8, 3, 3200.0, h, 0.7);
    let m = iso3_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
    let d = DampProfile::new(n, e.halo, 6, 3200.0, h, 1e-4);
    let damp = [d.clone(), d.clone(), d];
    let w = Wavelet::ricker(25.0);
    let steps = 30;
    let mut seq = Iso3State::new(e);
    for t in 0..steps {
        seq.step(&m, &damp, 1);
        seq.inject(&m, n / 2, n / 2, 8, w.sample(t as f32 * dt));
    }
    let got = modeling_iso3_mpi(&m, &damp, (n / 2, n / 2, 8), &w, steps, 4);
    assert_eq!(got, seq.u_cur);
}

/// Runs `acc_rtm` with `args`, adding `env` to the child's environment
/// only, and returns its exit code and stderr.
fn acc_rtm_run(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_acc_rtm"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("acc_rtm runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

/// Runs `acc_rtm` with `args` and returns its exit code.
fn acc_rtm_exit(args: &[&str]) -> Option<i32> {
    acc_rtm_run(args, &[]).0
}

/// `acc_rtm model --snap 0` is a usage error (exit 2), not a
/// division-by-zero panic.
#[test]
fn cli_model_rejects_zero_snap_period() {
    assert_eq!(
        acc_rtm_exit(&["model", "--n", "40", "--snap", "0"]),
        Some(2)
    );
}

/// `acc_rtm model --steps 0` is a usage error (exit 2), not an
/// out-of-bounds snapshot index.
#[test]
fn cli_model_rejects_zero_steps() {
    assert_eq!(
        acc_rtm_exit(&["model", "--n", "40", "--steps", "0"]),
        Some(2)
    );
}

/// `acc_rtm model --gangs 0` is a usage error (exit 2) naming the flag,
/// not the gang pool's "need at least one gang" assert.
#[test]
fn cli_model_rejects_zero_gangs() {
    let (code, stderr) = acc_rtm_run(
        &["model", "--n", "40", "--steps", "10", "--gangs", "0"],
        &[],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--gangs: 0"), "{stderr}");
}

/// A malformed `ACC_GANGS` is a typed usage error (exit 2) when it is the
/// gang source, and is never read when `--gangs` is given.
#[test]
fn cli_model_rejects_malformed_acc_gangs() {
    let args = [
        "model",
        "--n",
        "40",
        "--steps",
        "10",
        "--formulation",
        "iso",
    ];
    let (code, stderr) = acc_rtm_run(&args, &[("ACC_GANGS", "wide")]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("ACC_GANGS=\"wide\""), "{stderr}");
    let with_flag = [&args[..], &["--gangs", "2"]].concat();
    let (code, stderr) = acc_rtm_run(&with_flag, &[("ACC_GANGS", "wide")]);
    assert_eq!(code, Some(0), "{stderr}");
}
