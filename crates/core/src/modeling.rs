//! Real-execution seismic modeling: 2D media and states, and the driver.
//!
//! The forward phase of Algorithm 1, executed for real on host gangs:
//! at each step it exchanges nothing (single domain), advances the
//! wavefield with the configured kernel variant, injects the source,
//! records the seismogram, and saves a snapshot each `snap_period` — the
//! outputs being the movie-of-snapshots (Figure 3) and the shot record the
//! RTM backward phase consumes.

use crate::case::OptimizationConfig;
use crate::drive::{self, AcqOf, Medium, Shot, Wave};
use seismic_grid::{Extent2, Field2};
use seismic_model::{AcousticModel2, ElasticModel2, IsoModel2, VtiModel2};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_prop::{acoustic2d, elastic2d, iso2d, vti2d};
use seismic_source::{Seismogram, Wavelet};

/// A 2D medium: model + matching absorbing boundary.
pub enum Medium2 {
    /// Isotropic constant-density.
    Iso {
        /// Earth model.
        model: IsoModel2,
        /// Damping profile along x.
        damp_x: DampProfile,
        /// Damping profile along z.
        damp_z: DampProfile,
    },
    /// Acoustic variable-density.
    Acoustic {
        /// Earth model.
        model: AcousticModel2,
        /// C-PML coefficients for x and z.
        cpml: [CpmlAxis; 2],
    },
    /// Elastic isotropic.
    Elastic {
        /// Earth model.
        model: ElasticModel2,
        /// C-PML coefficients for x and z.
        cpml: [CpmlAxis; 2],
    },
    /// Acoustic VTI (anisotropic) — the paper's future-work formulation.
    Vti {
        /// Earth model with Thomsen parameters.
        model: VtiModel2,
        /// Damping profile along x.
        damp_x: DampProfile,
        /// Damping profile along z.
        damp_z: DampProfile,
    },
}

impl Medium2 {
    /// Grid extent.
    pub fn extent(&self) -> Extent2 {
        match self {
            Medium2::Iso { model, .. } => model.vp.extent(),
            Medium2::Acoustic { model, .. } => model.vp.extent(),
            Medium2::Elastic { model, .. } => model.rho.extent(),
            Medium2::Vti { model, .. } => model.vp.extent(),
        }
    }

    /// Time step of the medium's geometry.
    pub fn dt(&self) -> f32 {
        match self {
            Medium2::Iso { model, .. } => model.geom.dt,
            Medium2::Acoustic { model, .. } => model.geom.dt,
            Medium2::Elastic { model, .. } => model.geom.dt,
            Medium2::Vti { model, .. } => model.geom.dt,
        }
    }
}

/// Wavefield state matching a [`Medium2`].
///
/// Variant sizes differ by their field-handle counts (the data itself is
/// heap-allocated); boxing would only add indirection to the hot path.
#[allow(clippy::large_enum_variant)]
pub enum State2 {
    /// Isotropic two-level state.
    Iso(iso2d::Iso2State),
    /// Acoustic staggered state.
    Acoustic(acoustic2d::Ac2State),
    /// Elastic velocity–stress state.
    Elastic(elastic2d::El2State),
    /// VTI coupled pseudo-acoustic state.
    Vti(vti2d::Vti2State),
}

impl State2 {
    /// Quiescent state for a medium.
    pub fn new(medium: &Medium2) -> Self {
        let e = medium.extent();
        match medium {
            Medium2::Iso { .. } => State2::Iso(iso2d::Iso2State::new(e)),
            Medium2::Acoustic { .. } => State2::Acoustic(acoustic2d::Ac2State::new(e)),
            Medium2::Elastic { .. } => State2::Elastic(elastic2d::El2State::new(e)),
            Medium2::Vti { .. } => State2::Vti(vti2d::Vti2State::new(e)),
        }
    }

    /// The pressure-like field sampled by receivers and snapshots:
    /// `u` (iso), `p` (acoustic), `(σxx+σzz)/2` (elastic).
    pub fn sample(&self, ix: usize, iz: usize) -> f32 {
        match self {
            State2::Iso(s) => s.u_cur.get(ix, iz),
            State2::Acoustic(s) => s.p.get(ix, iz),
            State2::Elastic(s) => 0.5 * (s.sxx.get(ix, iz) + s.szz.get(ix, iz)),
            State2::Vti(s) => s.p_cur.get(ix, iz),
        }
    }

    /// Snapshot of the pressure-like field into a caller-owned field
    /// without allocating — the steady-state snapshot path (extents must
    /// match).
    pub fn write_wavefield_into(&self, out: &mut Field2) {
        match self {
            State2::Iso(s) => out.copy_from(&s.u_cur),
            State2::Acoustic(s) => out.copy_from(&s.p),
            State2::Elastic(s) => {
                assert_eq!(out.extent(), s.sxx.extent(), "wavefield extent mismatch");
                for (d, (a, b)) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(s.sxx.as_slice().iter().zip(s.szz.as_slice()))
                {
                    *d = 0.5 * (a + b);
                }
            }
            State2::Vti(s) => out.copy_from(&s.p_cur),
        }
    }

    /// Overwrite this state from `other` without allocating. Both must be
    /// the same formulation on the same extent — the checkpoint-slot and
    /// buffer-reuse path (a clone allocates every field; this recycles them).
    pub fn copy_from(&mut self, other: &Self) {
        match (self, other) {
            (State2::Iso(d), State2::Iso(s)) => d.copy_from(s),
            (State2::Acoustic(d), State2::Acoustic(s)) => d.copy_from(s),
            (State2::Elastic(d), State2::Elastic(s)) => d.copy_from(s),
            (State2::Vti(d), State2::Vti(s)) => d.copy_from(s),
            _ => panic!("state/state formulation mismatch"),
        }
    }

    /// Pressure-like source injection at an interior point.
    pub fn inject(&mut self, medium: &Medium2, ix: usize, iz: usize, amp: f32) {
        match (self, medium) {
            (State2::Iso(s), Medium2::Iso { model, .. }) => s.inject(model, ix, iz, amp),
            (State2::Acoustic(s), Medium2::Acoustic { model, .. }) => s.inject(model, ix, iz, amp),
            (State2::Elastic(s), Medium2::Elastic { model, .. }) => {
                s.inject(model, ix, iz, amp * 1e6)
            }
            (State2::Vti(s), Medium2::Vti { model, .. }) => s.inject(model, ix, iz, amp),
            _ => panic!("state/medium formulation mismatch"),
        }
    }

    /// Advance one time step on `gangs` host threads (the prop state's
    /// own gang-parallel step sequence). No 2D host kernel has a variant to
    /// select, so the config only keeps the call shape of
    /// [`crate::modeling3::State3::step`].
    pub fn step(&mut self, medium: &Medium2, _config: &OptimizationConfig, gangs: usize) {
        match (self, medium) {
            (
                State2::Iso(s),
                Medium2::Iso {
                    model,
                    damp_x,
                    damp_z,
                },
            ) => s.step(model, damp_x, damp_z, gangs),
            (State2::Acoustic(s), Medium2::Acoustic { model, cpml }) => s.step(model, cpml, gangs),
            (State2::Elastic(s), Medium2::Elastic { model, cpml }) => s.step(model, cpml, gangs),
            (
                State2::Vti(s),
                Medium2::Vti {
                    model,
                    damp_x,
                    damp_z,
                },
            ) => s.step(model, damp_x, damp_z, gangs),
            _ => panic!("state/medium formulation mismatch"),
        }
    }

    /// Undo one [`State2::step`]: advance the wavefield *backward* one step
    /// through a **lossless** medium (σ ≡ 0 damping / transparent C-PML, as
    /// built by [`crate::rand_boundary::randomize_medium2`]).
    ///
    /// * Leapfrog states (iso, VTI) step forward from swapped time levels:
    ///   with σ = 0 the update is symmetric in time.
    /// * Staggered states (acoustic, elastic) run their in-place phases in
    ///   reverse order with `−dt`; the ψ memory variables stay identically
    ///   zero under transparent C-PML, so no dissipative history is lost.
    ///
    /// The inverse is exact in real arithmetic and deterministic (but not
    /// bit-exact — floating-point addition does not cancel perfectly) in
    /// `f32`; callers must have removed the step's source injection first.
    /// Calling this on a dissipative medium silently diverges instead of
    /// reconstructing — the random-boundary driver owns that contract.
    pub fn step_reverse(&mut self, medium: &Medium2, _config: &OptimizationConfig, gangs: usize) {
        match (self, medium) {
            (
                State2::Iso(s),
                Medium2::Iso {
                    model,
                    damp_x,
                    damp_z,
                },
            ) => s.step_reverse(model, damp_x, damp_z, gangs),
            (State2::Acoustic(s), Medium2::Acoustic { model, cpml }) => {
                s.step_reverse(model, cpml, gangs)
            }
            (State2::Elastic(s), Medium2::Elastic { model, cpml }) => {
                s.step_reverse(model, cpml, gangs)
            }
            (
                State2::Vti(s),
                Medium2::Vti {
                    model,
                    damp_x,
                    damp_z,
                },
            ) => s.step_reverse(model, damp_x, damp_z, gangs),
            _ => panic!("state/medium formulation mismatch"),
        }
    }
}

/// Output of a modeling run.
pub struct ModelingResult {
    /// Snapshots saved every `snap_period` steps.
    pub snapshots: Vec<Field2>,
    /// The recorded shot record.
    pub seismogram: Seismogram,
}

/// Run forward modeling: `steps` time steps with source injection, receiver
/// recording, and a snapshot every `snap_period` steps — the whole field
/// in 2D, the x–z plane through the source in 3D (`run_modeling3`).
pub fn run_modeling<M: Medium>(
    medium: &M,
    acq: &AcqOf<M>,
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    gangs: usize,
) -> ModelingResult {
    let shot = Shot::<M::Wave>::new(medium, acq, config, steps, snap_period, gangs);
    // Snapshot storage is sized up front so the time loop itself performs
    // no allocation — every step only writes into preexisting buffers.
    let mut snapshots: Vec<Field2> = (0..steps.div_ceil(snap_period))
        .map(|_| M::Wave::frame(medium))
        .collect();
    let seismogram = drive::record(&shot, wavelet, None, |k, s| {
        s.write_frame(acq, &mut snapshots[k])
    });
    ModelingResult {
        snapshots,
        seismogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{acoustic2_layered, iso2_constant, standard_layers};
    use seismic_model::{extent2, Geometry};
    use seismic_source::Acquisition2;

    fn acoustic_medium(n: usize) -> Medium2 {
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 3200.0, h, 0.6);
        let model = acoustic2_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 12, dt, 3200.0, h, 1e-4);
        Medium2::Acoustic {
            model,
            cpml: [c.clone(), c],
        }
    }

    fn iso_medium(n: usize) -> Medium2 {
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 2000.0, h, 0.8);
        let model = iso2_constant(e, 2000.0, Geometry::uniform(h, dt));
        let d = DampProfile::new(n, e.halo, 12, 2000.0, h, 1e-4);
        Medium2::Iso {
            model,
            damp_x: d.clone(),
            damp_z: d,
        }
    }

    #[test]
    fn acoustic_modeling_produces_snapshots_and_records() {
        let n = 72;
        let medium = acoustic_medium(n);
        let acq = Acquisition2::surface_line(n, n / 2, 4, 2, 4);
        let r = run_modeling(
            &medium,
            &acq,
            &Wavelet::ricker(20.0),
            &OptimizationConfig::default(),
            120,
            10,
            3,
        );
        assert_eq!(r.snapshots.len(), 12);
        assert_eq!(r.seismogram.nt(), 120);
        assert!(r.seismogram.rms() > 0.0, "receivers recorded energy");
        // Later snapshots carry the expanding wavefront.
        assert!(r.snapshots.last().unwrap().max_abs() > 0.0);
    }

    /// Gang count must not change results (the OpenACC gang ↔ host thread
    /// mapping is bitwise-deterministic).
    #[test]
    fn gang_count_invariance() {
        let n = 48;
        for mk in [iso_medium as fn(usize) -> Medium2, acoustic_medium] {
            let medium = mk(n);
            let acq = Acquisition2::surface_line(n, n / 2, n / 2, 2, 8);
            let cfg = OptimizationConfig::default();
            let w = Wavelet::ricker(22.0);
            let a = run_modeling(&medium, &acq, &w, &cfg, 40, 8, 1);
            let b = run_modeling(&medium, &acq, &w, &cfg, 40, 8, 5);
            assert_eq!(a.seismogram, b.seismogram);
            assert_eq!(a.snapshots.last(), b.snapshots.last());
        }
    }

    /// Nearest receivers record the direct arrival earliest.
    #[test]
    fn direct_arrival_order() {
        let n = 96;
        let medium = iso_medium(n);
        // Receivers along the surface, source at center-depth below.
        let acq = Acquisition2::surface_line(n, n / 2, n / 2, 4, 8);
        let r = run_modeling(
            &medium,
            &acq,
            &Wavelet::ricker(25.0),
            &OptimizationConfig::default(),
            200,
            50,
            4,
        );
        // Receiver closest to source x records the biggest peak earliest.
        let n_rcv = acq.n_receivers();
        let center = (0..n_rcv)
            .min_by_key(|&r_| (acq.receivers[r_].ix as isize - (n / 2) as isize).unsigned_abs())
            .unwrap();
        let edge = 0usize;
        assert!(
            r.seismogram.peak_time(center) < r.seismogram.peak_time(edge),
            "center {} vs edge {}",
            r.seismogram.peak_time(center),
            r.seismogram.peak_time(edge)
        );
    }

    #[test]
    #[should_panic(expected = "formulation mismatch")]
    fn mismatched_state_and_medium_panics() {
        let iso = iso_medium(32);
        let ac = acoustic_medium(32);
        let mut s = State2::new(&iso);
        s.step(&ac, &OptimizationConfig::default(), 1);
    }

    /// All four lossless (transparent-boundary) media of size n — the
    /// configuration under which `step_reverse` must undo `step`.
    fn transparent_media(n: usize) -> Vec<Medium2> {
        let e = extent2(n, n);
        let h = 10.0;
        let tr_damp = || DampProfile::transparent(n, e.halo);
        let tr_cpml = || {
            [
                CpmlAxis::transparent(n, e.halo),
                CpmlAxis::transparent(n, e.halo),
            ]
        };
        let iso = Medium2::Iso {
            model: iso2_constant(
                e,
                2000.0,
                Geometry::uniform(h, stable_dt(8, 2, 2000.0, h, 0.8)),
            ),
            damp_x: tr_damp(),
            damp_z: tr_damp(),
        };
        let ac = Medium2::Acoustic {
            model: acoustic2_layered(
                e,
                &standard_layers(n),
                Geometry::uniform(h, stable_dt(8, 2, 3200.0, h, 0.6)),
            ),
            cpml: tr_cpml(),
        };
        let el = Medium2::Elastic {
            model: seismic_model::ElasticModel2::from_velocities(
                &Field2::filled(e, 3000.0),
                &Field2::filled(e, 1700.0),
                &Field2::filled(e, 2200.0),
                Geometry::uniform(h, stable_dt(8, 2, 3000.0, h, 0.5)),
            ),
            cpml: tr_cpml(),
        };
        let v_max = 2500.0 * (1.0f32 + 2.0 * 0.2).sqrt();
        let vti = Medium2::Vti {
            model: seismic_model::VtiModel2::constant(
                e,
                2500.0,
                0.2,
                0.1,
                Geometry::uniform(h, stable_dt(8, 2, v_max, h, 0.5)),
            ),
            damp_x: tr_damp(),
            damp_z: tr_damp(),
        };
        vec![iso, ac, el, vti]
    }

    /// The random-boundary contract: through a lossless medium,
    /// `inject(−s_t); step_reverse()` walks the forward trajectory
    /// backwards, reconstructing every intermediate wavefield to
    /// f32-roundoff accuracy (exact in real arithmetic, deterministic but
    /// not bit-exact in floating point).
    #[test]
    fn step_reverse_reconstructs_forward_states() {
        let n = 48;
        let e = extent2(n, n);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let steps = 60;
        for medium in transparent_media(n) {
            let dt = medium.dt();
            let mut s = State2::new(&medium);
            let mut stored = Vec::new();
            let mut peak = 0.0f32;
            for t in 0..steps {
                s.step(&medium, &cfg, 3);
                s.inject(&medium, n / 2, n / 2, w.sample(t as f32 * dt));
                let mut f = Field2::zeros(e);
                s.write_wavefield_into(&mut f);
                peak = peak.max(f.max_abs());
                stored.push(f);
            }
            let mut recon = Field2::zeros(e);
            for t in (1..steps).rev() {
                s.inject(&medium, n / 2, n / 2, -w.sample(t as f32 * dt));
                s.step_reverse(&medium, &cfg, 3);
                recon.fill_zero();
                s.write_wavefield_into(&mut recon);
                let max_d = recon
                    .as_slice()
                    .iter()
                    .zip(stored[t - 1].as_slice())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                assert!(
                    max_d / peak < 1e-3,
                    "step {t}: reconstruction error {max_d} vs peak {peak}"
                );
            }
        }
    }

    /// Reversing through a *dissipative* medium must not silently work —
    /// this pins the lossless-medium contract of `step_reverse` (energy the
    /// absorber removed cannot come back).
    #[test]
    fn step_reverse_diverges_through_absorbing_boundaries() {
        let n = 48;
        let e = extent2(n, n);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let medium = iso_medium(n); // real damping layer
        let steps = 200; // long enough for the wavefront to hit the absorber
        let dt = medium.dt();
        let mut s = State2::new(&medium);
        let mut first = Field2::zeros(e);
        for t in 0..steps {
            s.step(&medium, &cfg, 2);
            s.inject(&medium, n / 2, n / 2, w.sample(t as f32 * dt));
            if t == 0 {
                s.write_wavefield_into(&mut first);
            }
        }
        for t in (1..steps).rev() {
            s.inject(&medium, n / 2, n / 2, -w.sample(t as f32 * dt));
            s.step_reverse(&medium, &cfg, 2);
        }
        let mut recon = Field2::zeros(e);
        s.write_wavefield_into(&mut recon);
        let max_d = recon
            .as_slice()
            .iter()
            .zip(first.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_d / first.max_abs().max(1e-20) > 1e-2,
            "a damped medium reconstructed cleanly (max_d {max_d}) — the \
             transparent-boundary requirement would be vacuous"
        );
    }
}
