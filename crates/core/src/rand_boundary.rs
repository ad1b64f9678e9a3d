//! Random-boundary RTM: checkpoint-free source-wavefield reconstruction.
//!
//! [`crate::rtm`] stores forward snapshots and [`crate::checkpoint`] trades
//! that storage for recompute; both keep *some* stored state whose size
//! grows with the run. This module removes the storage entirely with the
//! random-boundary method: the source wavefield is propagated forward
//! through a medium whose absorbing layer is replaced by a seeded
//! **randomized-velocity halo** over **transparent** (lossless) absorbers
//! ([`randomize_medium2`]/[`randomize_medium3`]), and during migration the
//! same propagation is run *backward in time* from its final state
//! ([`crate::modeling::State2::step_reverse`]). Because the randomized
//! medium dissipates nothing, the reversed propagation reconstructs the
//! forward states step for step, and the imaging condition correlates the
//! reconstructed source field with the receiver field in lockstep — no
//! snapshots, no checkpoints, no per-segment replay buffers.
//!
//! The randomized halo exists to scramble what the absorbing layer used to
//! remove: energy hitting the boundary scatters off the velocity jitter
//! into incoherent noise instead of reflecting coherently back across the
//! reflectors, and incoherent noise stacks out of the cross-correlation
//! image. The receiver field still propagates through the **original
//! absorbing medium** — only the source propagation (forward and
//! reconstructed) uses the randomized one.
//!
//! Costs and guarantees:
//!
//! * memory: two resident propagation states (source + receiver) and the
//!   image — `O(1)` in `steps` (see
//!   `seismic_model::footprint::rtm_breakdown`),
//! * compute: one extra source propagation (the backward reconstruction),
//!   the same price checkpointing pays for its replay,
//! * determinism: the halo is a pure function of `(seed, cell)` and the
//!   propagators are bitwise deterministic, so a fixed
//!   [`RandomBoundarySpec`] reproduces the image **bit for bit** across
//!   reruns, gang counts, and resilient-executor restarts,
//! * the time loops allocate nothing after setup: states are stepped in
//!   place and the image accumulates into one preallocated field.

use crate::case::OptimizationConfig;
use crate::drive::{self, AcqOf, FieldOf, Medium, Reversed, Shot};
use crate::error::RtmError;
use crate::modeling::Medium2;
use crate::modeling3::Medium3;
use crate::rtm::RtmResult;
use seismic_model::random_boundary as rb;
use seismic_pml::{CpmlAxis, DampProfile, RandomBoundarySpec};
use seismic_source::{Seismogram, Wavelet};

/// Replace a 2-D medium's absorbing machinery with transparent absorbers
/// and a seeded randomized-velocity halo. The interior model is untouched;
/// the returned medium is what the source propagation (forward and
/// time-reversed) runs through.
pub fn randomize_medium2(medium: &Medium2, spec: &RandomBoundarySpec) -> Medium2 {
    let e = medium.extent();
    match medium {
        Medium2::Iso { model, .. } => Medium2::Iso {
            model: rb::randomize_iso2(model, spec),
            damp_x: DampProfile::transparent(e.nx, e.halo),
            damp_z: DampProfile::transparent(e.nz, e.halo),
        },
        Medium2::Acoustic { model, .. } => Medium2::Acoustic {
            model: rb::randomize_acoustic2(model, spec),
            cpml: [
                CpmlAxis::transparent(e.nx, e.halo),
                CpmlAxis::transparent(e.nz, e.halo),
            ],
        },
        Medium2::Elastic { model, .. } => Medium2::Elastic {
            model: rb::randomize_elastic2(model, spec),
            cpml: [
                CpmlAxis::transparent(e.nx, e.halo),
                CpmlAxis::transparent(e.nz, e.halo),
            ],
        },
        Medium2::Vti { model, .. } => Medium2::Vti {
            model: rb::randomize_vti2(model, spec),
            damp_x: DampProfile::transparent(e.nx, e.halo),
            damp_z: DampProfile::transparent(e.nz, e.halo),
        },
    }
}

/// 3-D analogue of [`randomize_medium2`].
pub fn randomize_medium3(medium: &Medium3, spec: &RandomBoundarySpec) -> Medium3 {
    let e = medium.extent();
    match medium {
        Medium3::Iso { model, .. } => Medium3::Iso {
            model: rb::randomize_iso3(model, spec),
            damp: [
                DampProfile::transparent(e.nx, e.halo),
                DampProfile::transparent(e.ny, e.halo),
                DampProfile::transparent(e.nz, e.halo),
            ],
        },
        Medium3::Acoustic { model, .. } => Medium3::Acoustic {
            model: rb::randomize_acoustic3(model, spec),
            cpml: [
                CpmlAxis::transparent(e.nx, e.halo),
                CpmlAxis::transparent(e.ny, e.halo),
                CpmlAxis::transparent(e.nz, e.halo),
            ],
        },
        Medium3::Elastic { model, .. } => Medium3::Elastic {
            model: rb::randomize_elastic3(model, spec),
            cpml: [
                CpmlAxis::transparent(e.nx, e.halo),
                CpmlAxis::transparent(e.ny, e.halo),
                CpmlAxis::transparent(e.nz, e.halo),
            ],
        },
    }
}

/// Backward phase with checkpoint-free source reconstruction: migrate a
/// recorded (muted) shot with **zero snapshot storage**. The source field
/// is propagated forward through the randomized medium (storing nothing),
/// then both fields walk backward in lockstep — the source by exact time
/// reversal, the receiver by ordinary back-propagation — and the imaging
/// condition fires at every `snap_period`-th step, exactly the times
/// [`crate::rtm::migrate_shot`] images at. 2D and 3D alike
/// (`migrate_random_boundary3` is the same function) — in 3D, where each
/// dense snapshot is a full `nx·ny·nz` volume, the saving is largest.
#[allow(clippy::too_many_arguments)]
pub fn migrate_random_boundary<M: Medium>(
    medium: &M,
    acq: &AcqOf<M>,
    seismogram: &Seismogram,
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    spec: &RandomBoundarySpec,
    gangs: usize,
) -> Result<FieldOf<M>, RtmError> {
    let shot = Shot::<M::Wave>::new(medium, acq, config, steps, snap_period, gangs).checked()?;
    let randomized = medium.randomized(spec);
    let mut src = Reversed::new(shot.through(&randomized), wavelet);
    Ok(drive::backward(&shot, seismogram, &mut src, None))
}

/// Run random-boundary RTM for one shot: forward modeling through the
/// **original absorbing** medium records the shot (the acquisition is
/// unchanged by the migration backend), the direct wave is muted, and the
/// shot is migrated checkpoint-free. `snapshots_saved` is 0 by
/// construction. 2D and 3D alike (`run_rtm_random_boundary3` is the same
/// function).
#[allow(clippy::too_many_arguments)]
pub fn run_rtm_random_boundary<M: Medium>(
    medium: &M,
    acq: &AcqOf<M>,
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    spec: &RandomBoundarySpec,
    gangs: usize,
) -> Result<RtmResult<FieldOf<M>>, RtmError> {
    let shot = Shot::<M::Wave>::new(medium, acq, config, steps, snap_period, gangs).checked()?;
    Ok(drive::rtm(
        &shot,
        wavelet,
        Some(&medium.randomized(spec)),
        None,
    ))
}

/// 3-D [`migrate_random_boundary`].
pub use migrate_random_boundary as migrate_random_boundary3;

/// 3-D [`run_rtm_random_boundary`].
pub use run_rtm_random_boundary as run_rtm_random_boundary3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::migrate_checkpointed;
    use crate::error::ConfigError;
    use crate::modeling::run_modeling;
    use crate::modeling::State2;
    use crate::rtm::{depth_profile, laplacian_filter};
    use seismic_grid::cfl::stable_dt;
    use seismic_grid::Field2;
    use seismic_model::builder::{acoustic2_layered, acoustic3_layered, Layer};
    use seismic_model::{extent2, extent3, Geometry};
    use seismic_pml::CpmlAxis;
    use seismic_source::{Acquisition2, Acquisition3};

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
        let c = CpmlAxis::new(n, e.halo, 10, dt, 3000.0, h, 1e-4);
        Medium2::Acoustic {
            model,
            cpml: [c.clone(), c],
        }
    }

    fn spec() -> RandomBoundarySpec {
        RandomBoundarySpec::new(10, 4242)
    }

    /// The randomized medium keeps the interior model and geometry; only
    /// the halo strip scatters.
    #[test]
    fn randomized_medium_keeps_interior() {
        let n = 64;
        let m = two_layer(n, n / 2);
        let r = randomize_medium2(&m, &spec());
        assert_eq!(r.extent(), m.extent());
        assert_eq!(r.dt(), m.dt());
        let (Medium2::Acoustic { model: rm, .. }, Medium2::Acoustic { model: om, .. }) = (&r, &m)
        else {
            panic!("formulation changed");
        };
        assert_eq!(rm.vp.get(n / 2, n / 2), om.vp.get(n / 2, n / 2));
        assert_eq!(rm.rho.as_slice(), om.rho.as_slice());
        // The edge strip is actually perturbed somewhere.
        let perturbed = (0..n).any(|ix| rm.vp.get(ix, 0) != om.vp.get(ix, 0));
        assert!(perturbed, "halo unperturbed");
    }

    /// The headline determinism contract: a fixed seed reproduces the image
    /// bit for bit; a different seed does not.
    #[test]
    fn same_seed_same_image_bitwise() {
        let n = 64;
        let m = two_layer(n, n / 2);
        let acq = Acquisition2::surface_line(n, n / 2, 5, 5, 4);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let run = |s: &RandomBoundarySpec| {
            run_rtm_random_boundary(&m, &acq, &w, &cfg, 240, 4, s, 3)
                .unwrap()
                .image
        };
        let a = run(&spec());
        let b = run(&spec());
        assert_eq!(a, b, "fixed seed must be bitwise reproducible");
        let c = run(&RandomBoundarySpec::new(10, 4243));
        assert_ne!(a, c, "a different seed must change the image");
    }

    /// Gang count must not change a single bit (coordinate-hashed halo +
    /// deterministic kernels).
    #[test]
    fn gang_invariance_of_image() {
        let n = 64;
        let m = two_layer(n, 32);
        let acq = Acquisition2::surface_line(n, n / 2, 5, 5, 4);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let s = spec();
        let a = run_rtm_random_boundary(&m, &acq, &w, &cfg, 120, 4, &s, 1).unwrap();
        let b = run_rtm_random_boundary(&m, &acq, &w, &cfg, 120, 4, &s, 6).unwrap();
        assert_eq!(a.image, b.image);
        assert_eq!(a.snapshots_saved, 0);
    }

    /// The checkpoint-free image still finds the reflector, and stays close
    /// to the checkpointed reference: the boundary difference (randomized
    /// halo vs C-PML) is bounded incoherent noise, not a structural change.
    #[test]
    fn image_close_to_checkpointed_reference() {
        let n = 96;
        let z_if = 48;
        let m = two_layer(n, z_if);
        let acq = Acquisition2::surface_line(n, n / 2, 6, 6, 2);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(18.0);
        let steps = 700;
        let snap = 3;

        let fwd = run_modeling(&m, &acq, &w, &cfg, steps, steps, 4);
        let shot = Shot::<State2> {
            medium: &m,
            acq: &acq,
            config: &cfg,
            steps,
            snap_period: snap,
            gangs: 4,
        };
        let muted = drive::mute(&shot, &fwd.seismogram, &w);
        let reference =
            migrate_checkpointed(&m, &acq, &muted, &w, &cfg, steps, snap, 6, 4).unwrap();
        let rand =
            migrate_random_boundary(&m, &acq, &muted, &w, &cfg, steps, snap, &spec(), 4).unwrap();

        // Both images peak at the reflector.
        let peak_depth = |img: &Field2| {
            let prof = depth_profile(&laplacian_filter(img, 10.0, 10.0));
            prof.iter()
                .enumerate()
                .skip(20)
                .take(n - 40)
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0
        };
        let z_ref = peak_depth(&reference);
        let z_rand = peak_depth(&rand);
        assert!(
            (z_rand as isize - z_if as isize).unsigned_abs() <= 6,
            "random-boundary peak at z = {z_rand}, reflector at {z_if}"
        );
        assert!(
            (z_rand as isize - z_ref as isize).unsigned_abs() <= 4,
            "peaks disagree: random {z_rand} vs checkpointed {z_ref}"
        );

        // Bounded delta: relative L2 difference well below the signal.
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for (a, b) in rand.as_slice().iter().zip(reference.as_slice()) {
            num += ((a - b) as f64).powi(2);
            den += (*b as f64).powi(2);
        }
        let rel = (num / den.max(1e-300)).sqrt();
        assert!(rel < 0.8, "image delta too large: rel L2 = {rel}");
        assert!(rel > 0.0, "images cannot be identical across backends");
    }

    #[test]
    fn zero_steps_is_a_typed_error() {
        let n = 32;
        let m = two_layer(n, 16);
        let acq = Acquisition2::surface_line(n, n / 2, 3, 5, 4);
        let seis = Seismogram::zeros(acq.n_receivers(), 1);
        let r = migrate_random_boundary(
            &m,
            &acq,
            &seis,
            &Wavelet::ricker(20.0),
            &OptimizationConfig::default(),
            0,
            4,
            &spec(),
            2,
        );
        assert_eq!(r.unwrap_err(), RtmError::Config(ConfigError::ZeroSteps));
    }

    /// 3-D: fixed seed ⇒ bitwise-identical volume, zero snapshots, and a
    /// nontrivial image.
    #[test]
    fn volume_image_is_seed_deterministic() {
        let n = 36;
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
        let model = acoustic3_layered(e, &layers, Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 8, dt, 3000.0, h, 1e-4);
        let medium = Medium3::Acoustic {
            model,
            cpml: [c.clone(), c.clone(), c],
        };
        let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2, 4), 4, 3);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(18.0);
        let s = RandomBoundarySpec::new(6, 99);
        let a = run_rtm_random_boundary3(&medium, &acq, &w, &cfg, 220, 3, &s, 4).unwrap();
        let b = run_rtm_random_boundary3(&medium, &acq, &w, &cfg, 220, 3, &s, 2).unwrap();
        assert_eq!(a.snapshots_saved, 0);
        assert_eq!(
            a.image, b.image,
            "fixed seed, any gang count: bitwise-identical volume"
        );
        let peak = a
            .image
            .as_slice()
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(peak > 0.0 && peak.is_finite());
    }
}
