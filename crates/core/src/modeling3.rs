//! Real-execution 3D seismic modeling.
//!
//! 3D media and wavefield states for the Algorithm-1 driver of
//! [`crate::modeling`], with gang-parallel slab execution along z. 3D runs
//! are what the paper's headline table rows measure; here they execute for
//! real at laptop scale (the production-scale timing goes through
//! [`crate::gpu_time`]).

use crate::case::OptimizationConfig;
use crate::drive::Wave;
use seismic_grid::{Extent3, Field3};
use seismic_model::{AcousticModel3, ElasticModel3, IsoModel3};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_prop::{acoustic3d, elastic3d, iso3d};

/// A 3D medium: model + matching absorbing boundary.
pub enum Medium3 {
    /// Isotropic constant-density.
    Iso {
        /// Earth model.
        model: IsoModel3,
        /// Damping profiles along x, y, z.
        damp: [DampProfile; 3],
    },
    /// Acoustic variable-density.
    Acoustic {
        /// Earth model.
        model: AcousticModel3,
        /// C-PML coefficients for x, y, z.
        cpml: [CpmlAxis; 3],
    },
    /// Elastic isotropic.
    Elastic {
        /// Earth model.
        model: ElasticModel3,
        /// C-PML coefficients for x, y, z.
        cpml: [CpmlAxis; 3],
    },
}

impl Medium3 {
    /// Grid extent.
    pub fn extent(&self) -> Extent3 {
        match self {
            Medium3::Iso { model, .. } => model.vp.extent(),
            Medium3::Acoustic { model, .. } => model.vp.extent(),
            Medium3::Elastic { model, .. } => model.rho.extent(),
        }
    }

    /// Time step.
    pub fn dt(&self) -> f32 {
        match self {
            Medium3::Iso { model, .. } => model.geom.dt,
            Medium3::Acoustic { model, .. } => model.geom.dt,
            Medium3::Elastic { model, .. } => model.geom.dt,
        }
    }
}

/// Wavefield state matching a [`Medium3`].
pub enum State3 {
    /// Isotropic two-level state.
    Iso(iso3d::Iso3State),
    /// Acoustic staggered state.
    Acoustic(acoustic3d::Ac3State),
    /// Elastic velocity–stress state.
    Elastic(elastic3d::El3State),
}

impl State3 {
    /// Quiescent state for a medium.
    pub fn new(medium: &Medium3) -> Self {
        let e = medium.extent();
        match medium {
            Medium3::Iso { .. } => State3::Iso(iso3d::Iso3State::new(e)),
            Medium3::Acoustic { .. } => State3::Acoustic(acoustic3d::Ac3State::new(e)),
            Medium3::Elastic { .. } => State3::Elastic(elastic3d::El3State::new(e)),
        }
    }

    /// The pressure-like field sampled by receivers and snapshots.
    pub fn sample(&self, ix: usize, iy: usize, iz: usize) -> f32 {
        match self {
            State3::Iso(s) => s.u_cur.get(ix, iy, iz),
            State3::Acoustic(s) => s.p.get(ix, iy, iz),
            State3::Elastic(s) => {
                (s.sxx.get(ix, iy, iz) + s.syy.get(ix, iy, iz) + s.szz.get(ix, iy, iz)) / 3.0
            }
        }
    }

    /// Snapshot of the pressure-like volume's interior into a
    /// caller-owned field of the same extent without allocating (the halo
    /// of `out` is not written).
    pub fn write_wavefield_into(&self, out: &mut Field3) {
        Wave::snapshot(self, out, 1)
    }

    /// The x–z plane of the pressure-like field at interior `iy`, into a
    /// caller-owned plane without allocating (interior writes only, so
    /// `out` should start zeroed).
    pub fn write_slice_y_into(&self, iy: usize, out: &mut seismic_grid::Field2) {
        match self {
            State3::Iso(s) => s.u_cur.write_slice_y_into(iy, out),
            State3::Acoustic(s) => s.p.write_slice_y_into(iy, out),
            State3::Elastic(s) => {
                let e = s.sxx.extent();
                let e2 = out.extent();
                assert_eq!(
                    (e2.nx, e2.nz, e2.halo),
                    (e.nx, e.nz, e.halo),
                    "plane extent mismatch"
                );
                for iz in 0..e.nz {
                    for ix in 0..e.nx {
                        out.set(ix, iz, self.sample(ix, iy, iz));
                    }
                }
            }
        }
    }

    /// Overwrite this state from `other` without allocating. Both must be
    /// the same formulation on the same extent — the checkpoint-slot and
    /// buffer-reuse path.
    pub fn copy_from(&mut self, other: &Self) {
        match (self, other) {
            (State3::Iso(d), State3::Iso(s)) => d.copy_from(s),
            (State3::Acoustic(d), State3::Acoustic(s)) => d.copy_from(s),
            (State3::Elastic(d), State3::Elastic(s)) => d.copy_from(s),
            _ => panic!("state/state formulation mismatch"),
        }
    }

    /// Pressure-like source injection at an interior point.
    pub fn inject(&mut self, medium: &Medium3, ix: usize, iy: usize, iz: usize, amp: f32) {
        match (self, medium) {
            (State3::Iso(s), Medium3::Iso { model, .. }) => s.inject(model, ix, iy, iz, amp),
            (State3::Acoustic(s), Medium3::Acoustic { model, .. }) => {
                s.inject(model, ix, iy, iz, amp)
            }
            (State3::Elastic(s), Medium3::Elastic { model, .. }) => {
                s.inject(model, ix, iy, iz, amp * 1e6)
            }
            _ => panic!("state/medium formulation mismatch"),
        }
    }

    /// Advance one time step on `gangs` host threads (the prop state's
    /// own gang-parallel step sequence).
    pub fn step(&mut self, medium: &Medium3, config: &OptimizationConfig, gangs: usize) {
        match (self, medium) {
            (State3::Iso(s), Medium3::Iso { model, damp }) => s.step(model, damp, gangs),
            (State3::Acoustic(s), Medium3::Acoustic { model, cpml }) => {
                s.step(model, cpml, config.fission, gangs)
            }
            (State3::Elastic(s), Medium3::Elastic { model, cpml }) => s.step(model, cpml, gangs),
            _ => panic!("state/medium formulation mismatch"),
        }
    }

    /// Undo one [`State3::step`] through a **lossless** medium (transparent
    /// absorbers) — the 3-D counterpart of [`crate::modeling::State2::step_reverse`],
    /// with the same contract. The fissioned acoustic pressure phase also
    /// reverses its per-axis order, since the three axis updates accumulate
    /// into `p` in sequence. Callers remove the source injection first.
    pub fn step_reverse(&mut self, medium: &Medium3, config: &OptimizationConfig, gangs: usize) {
        match (self, medium) {
            (State3::Iso(s), Medium3::Iso { model, damp }) => s.step_reverse(model, damp, gangs),
            (State3::Acoustic(s), Medium3::Acoustic { model, cpml }) => {
                s.step_reverse(model, cpml, config.fission, gangs)
            }
            (State3::Elastic(s), Medium3::Elastic { model, cpml }) => {
                s.step_reverse(model, cpml, gangs)
            }
            _ => panic!("state/medium formulation mismatch"),
        }
    }
}

/// Run 3D forward modeling with plane-snapshot saves.
pub use crate::modeling::run_modeling as run_modeling3;

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{
        acoustic3_layered, elastic3_layered, iso3_layered, standard_layers,
    };
    use seismic_model::{extent3, Geometry};
    use seismic_source::{Acquisition3, Wavelet};

    fn media(n: usize) -> Vec<(&'static str, Medium3)> {
        let e = extent3(n, n, n);
        let h = 10.0;
        let vmax = 3200.0;
        let geom = |safety| Geometry::uniform(h, stable_dt(8, 3, vmax, h, safety));
        let layers = standard_layers(n);
        let d = DampProfile::new(n, e.halo, 6, vmax, h, 1e-4);
        let cp = CpmlAxis::new(n, e.halo, 6, stable_dt(8, 3, vmax, h, 0.5), vmax, h, 1e-4);
        vec![
            (
                "iso",
                Medium3::Iso {
                    model: iso3_layered(e, &layers, geom(0.7)),
                    damp: [d.clone(), d.clone(), d],
                },
            ),
            (
                "acoustic",
                Medium3::Acoustic {
                    model: acoustic3_layered(e, &layers, geom(0.55)),
                    cpml: [cp.clone(), cp.clone(), cp.clone()],
                },
            ),
            (
                "elastic",
                Medium3::Elastic {
                    model: elastic3_layered(e, &layers, geom(0.5)),
                    cpml: [cp.clone(), cp.clone(), cp],
                },
            ),
        ]
    }

    #[test]
    fn all_formulations_model_stably_3d() {
        let n = 28;
        for (name, medium) in media(n) {
            let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2, 6), 3, 8);
            let r = run_modeling3(
                &medium,
                &acq,
                &Wavelet::ricker(25.0),
                &OptimizationConfig::default(),
                50,
                10,
                4,
            );
            assert_eq!(r.snapshots.len(), 5, "{name}");
            assert!(r.seismogram.rms() > 0.0, "{name}");
            let peak = r.snapshots.last().unwrap().max_abs();
            assert!(peak.is_finite(), "{name}: {peak}");
        }
    }

    /// Gang-count invariance in 3D, including the six-kernel elastic path.
    #[test]
    fn gang_invariance_3d() {
        let n = 24;
        for (name, medium) in media(n) {
            let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2, n / 2), 3, 12);
            let cfg = OptimizationConfig::default();
            let w = Wavelet::ricker(25.0);
            let a = run_modeling3(&medium, &acq, &w, &cfg, 25, 5, 1);
            let b = run_modeling3(&medium, &acq, &w, &cfg, 25, 5, 6);
            assert_eq!(a.seismogram, b.seismogram, "{name}");
            assert_eq!(a.snapshots, b.snapshots, "{name}");
        }
    }

    /// The 3D fission knob is physics-preserving through the driver too.
    #[test]
    fn fission_variants_agree_through_driver() {
        let n = 24;
        let medium = &media(n)[1].1;
        let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2, 6), 3, 12);
        let w = Wavelet::ricker(25.0);
        let fused = run_modeling3(
            medium,
            &acq,
            &w,
            &OptimizationConfig {
                fission: seismic_prop::FissionVariant::Fused,
                ..OptimizationConfig::default()
            },
            30,
            6,
            4,
        );
        let fiss = run_modeling3(medium, &acq, &w, &OptimizationConfig::default(), 30, 6, 4);
        // Reassociated accumulation: tight tolerance, not bitwise.
        let scale = fused.seismogram.rms().max(1e-30);
        for r in 0..acq.n_receivers() {
            for t in 0..30 {
                let d = (fused.seismogram.get(r, t) - fiss.seismogram.get(r, t)).abs() as f64;
                assert!(d < 1e-3 * scale, "r={r} t={t}");
            }
        }
    }

    /// 3-D counterpart of the 2-D reversibility test: through transparent
    /// boundaries, `inject(−s_t); step_reverse()` reconstructs every forward
    /// wavefield to f32 roundoff — for all three formulations, and for the
    /// acoustic path under *both* fission variants (the fissioned reverse
    /// must re-visit the per-axis updates in the opposite order).
    #[test]
    fn step_reverse_reconstructs_forward_states_3d() {
        let n = 20;
        let e = extent3(n, n, n);
        let h = 10.0;
        let vmax = 3200.0;
        let geom = |safety| Geometry::uniform(h, stable_dt(8, 3, vmax, h, safety));
        let layers = standard_layers(n);
        let tr_d = || DampProfile::transparent(n, e.halo);
        let tr_c = || CpmlAxis::transparent(n, e.halo);
        let media: Vec<(&str, Medium3)> = vec![
            (
                "iso",
                Medium3::Iso {
                    model: iso3_layered(e, &layers, geom(0.7)),
                    damp: [tr_d(), tr_d(), tr_d()],
                },
            ),
            (
                "acoustic",
                Medium3::Acoustic {
                    model: acoustic3_layered(e, &layers, geom(0.55)),
                    cpml: [tr_c(), tr_c(), tr_c()],
                },
            ),
            (
                "elastic",
                Medium3::Elastic {
                    model: elastic3_layered(e, &layers, geom(0.5)),
                    cpml: [tr_c(), tr_c(), tr_c()],
                },
            ),
        ];
        let w = Wavelet::ricker(25.0);
        let steps = 30;
        for (name, medium) in &media {
            let variants: &[seismic_prop::FissionVariant] = if *name == "acoustic" {
                &[
                    seismic_prop::FissionVariant::Fused,
                    seismic_prop::FissionVariant::Fissioned,
                ]
            } else {
                &[seismic_prop::FissionVariant::Fissioned]
            };
            for &fission in variants {
                let cfg = OptimizationConfig {
                    fission,
                    ..OptimizationConfig::default()
                };
                let dt = medium.dt();
                let mut s = State3::new(medium);
                let mut stored = Vec::new();
                let mut peak = 0.0f32;
                for t in 0..steps {
                    s.step(medium, &cfg, 3);
                    s.inject(medium, n / 2, n / 2, n / 2, w.sample(t as f32 * dt));
                    let mut f = Field3::zeros(e);
                    s.write_wavefield_into(&mut f);
                    peak = peak.max(f.max_abs());
                    stored.push(f);
                }
                let mut recon = Field3::zeros(e);
                for t in (1..steps).rev() {
                    s.inject(medium, n / 2, n / 2, n / 2, -w.sample(t as f32 * dt));
                    s.step_reverse(medium, &cfg, 3);
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
                        "{name}/{fission:?} step {t}: error {max_d} vs peak {peak}"
                    );
                }
            }
        }
    }
}
