//! Checkpointed RTM: bounded-memory source-wavefield storage.
//!
//! The paper's Algorithm 1 stores a snapshot every `snap_period` — at
//! production 3D sizes that stream is what exhausts node RAM and spills to
//! the filesystem (see `crate::cpu_time`). The standard remedy is
//! checkpointing (Griewank-style store-vs-recompute): keep only `slots`
//! full propagation states, and during migration re-run the forward
//! propagator segment by segment from the nearest checkpoint, correlating
//! while the receiver field walks backward.
//!
//! Memory drops from `O(steps/snap_period)` snapshots to
//! `O(slots + steps/slots)` states, at the cost of one extra forward
//! propagation. Because the propagators are bitwise deterministic, the
//! checkpointed image equals the full-storage image **exactly** — which is
//! the headline test of this module.

use crate::case::OptimizationConfig;
use crate::drive::{self, Replay, Shot};
use crate::error::{ConfigError, RtmError};
use crate::modeling::{Medium2, State2};
use seismic_grid::Field2;
use seismic_source::{Acquisition2, Seismogram, Wavelet};

/// Evenly spaced checkpoint schedule: which forward steps get a stored
/// state. Always includes step 0; never exceeds `slots` entries.
pub fn plan_checkpoints(steps: usize, slots: usize) -> Result<Vec<usize>, ConfigError> {
    if slots == 0 {
        return Err(ConfigError::ZeroSlots);
    }
    if steps == 0 {
        return Err(ConfigError::ZeroSteps);
    }
    let n = slots.min(steps);
    Ok((0..n).map(|k| k * steps / n).collect())
}

/// Peak states resident under the schedule: the stored checkpoints plus
/// the replay buffer for the longest segment (in snapshot units).
pub fn peak_states(steps: usize, slots: usize, snap_period: usize) -> Result<usize, ConfigError> {
    let cps = plan_checkpoints(steps, slots)?;
    let longest = cps
        .windows(2)
        .map(|w| w[1] - w[0])
        .chain(std::iter::once(steps - cps.last().copied().unwrap_or(0)))
        .max()
        .unwrap_or(steps);
    Ok(slots + longest.div_ceil(snap_period.max(1)))
}

/// Run RTM with at most `slots` stored forward states (plus one segment's
/// worth of replay snapshots). Produces exactly the image of
/// [`crate::rtm::migrate_shot`] run on densely stored snapshots.
#[allow(clippy::too_many_arguments)]
pub fn migrate_checkpointed(
    medium: &Medium2,
    acq: &Acquisition2,
    seismogram: &Seismogram,
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    slots: usize,
    gangs: usize,
) -> Result<Field2, RtmError> {
    let checkpoints = plan_checkpoints(steps, slots)?;
    let shot = Shot::<State2>::new(medium, acq, config, steps, snap_period, gangs).checked()?;
    let mut src = Replay::new(shot, wavelet, checkpoints);
    Ok(drive::backward(&shot, seismogram, &mut src, None))
}

impl Clone for State2 {
    fn clone(&self) -> Self {
        match self {
            State2::Iso(s) => State2::Iso(s.clone()),
            State2::Acoustic(s) => State2::Acoustic(s.clone()),
            State2::Elastic(s) => State2::Elastic(s.clone()),
            State2::Vti(s) => State2::Vti(s.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeling::run_modeling;
    use crate::rtm::migrate_shot;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{acoustic2_layered, Layer};
    use seismic_model::{extent2, Geometry};
    use seismic_pml::CpmlAxis;

    fn medium(n: usize) -> Medium2 {
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
                z_top: n / 2,
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

    #[test]
    fn schedule_properties() {
        let cps = plan_checkpoints(100, 4).unwrap();
        assert_eq!(cps, vec![0, 25, 50, 75]);
        assert_eq!(
            plan_checkpoints(10, 100).unwrap(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(plan_checkpoints(100, 1).unwrap(), vec![0]);
        // Peak memory shrinks as slots grow (until the replay buffer floor).
        let p2 = peak_states(1000, 2, 5).unwrap();
        let p10 = peak_states(1000, 10, 5).unwrap();
        assert!(p10 < p2, "{p10} vs {p2}");
    }

    /// The headline property: checkpointed migration reproduces the
    /// dense-storage image bit for bit (deterministic replay).
    #[test]
    fn checkpointed_image_is_bitwise_identical() {
        let n = 64;
        let m = medium(n);
        let acq = Acquisition2::surface_line(n, n / 2, 5, 5, 4);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let steps = 240;
        let snap = 4;
        // Dense reference: store every snapshot.
        let fwd = run_modeling(&m, &acq, &w, &cfg, steps, snap, 3);
        let dense = migrate_shot(
            &m,
            &acq,
            &fwd.seismogram,
            &fwd.snapshots,
            &cfg,
            steps,
            snap,
            3,
        );
        for slots in [1usize, 3, 7] {
            let img =
                migrate_checkpointed(&m, &acq, &fwd.seismogram, &w, &cfg, steps, snap, slots, 3)
                    .unwrap();
            assert_eq!(img, dense.image, "slots = {slots}");
        }
    }

    /// Memory accounting: the checkpointed plan stores far fewer states
    /// than dense snapshots for long runs.
    #[test]
    fn checkpointing_reduces_resident_states() {
        let steps = 4000;
        let snap = 4;
        let dense_states = steps / snap;
        let ckpt = peak_states(steps, 16, snap).unwrap();
        assert!(
            ckpt < dense_states / 8,
            "checkpointed {ckpt} vs dense {dense_states}"
        );
    }

    #[test]
    fn bad_schedules_are_typed_errors() {
        use crate::error::ConfigError;
        assert_eq!(plan_checkpoints(10, 0), Err(ConfigError::ZeroSlots));
        assert_eq!(plan_checkpoints(0, 4), Err(ConfigError::ZeroSteps));
        assert_eq!(peak_states(0, 4, 2), Err(ConfigError::ZeroSteps));
    }
}
