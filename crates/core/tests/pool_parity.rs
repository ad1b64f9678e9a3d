//! Driver-level parity of the persistent gang pool.
//!
//! The tentpole invariant of the host execution engine: running the real
//! 2D drivers through the pooled engine produces *bit-for-bit* the output
//! of sequential execution (gangs = 1), for every formulation and a spread
//! of gang counts including more gangs than rows would warrant.

use rtm_core::modeling::{run_modeling, Medium2};
use rtm_core::OptimizationConfig;
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{acoustic2_layered, elastic2_layered, iso2_constant, standard_layers};
use seismic_model::{extent2, Geometry};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_source::{Acquisition2, Wavelet};

fn media(n: usize) -> Vec<(&'static str, Medium2)> {
    let e = extent2(n, n);
    let h = 10.0;
    let vmax = 3200.0;
    let layers = standard_layers(n);
    let d = DampProfile::new(n, e.halo, 10, vmax, h, 1e-4);
    let cp = |safety: f32| {
        CpmlAxis::new(
            n,
            e.halo,
            10,
            stable_dt(8, 2, vmax, h, safety),
            vmax,
            h,
            1e-4,
        )
    };
    vec![
        (
            "iso",
            Medium2::Iso {
                model: iso2_constant(
                    e,
                    2000.0,
                    Geometry::uniform(h, stable_dt(8, 2, 2000.0, h, 0.8)),
                ),
                damp_x: d.clone(),
                damp_z: d,
            },
        ),
        (
            "acoustic",
            Medium2::Acoustic {
                model: acoustic2_layered(
                    e,
                    &layers,
                    Geometry::uniform(h, stable_dt(8, 2, vmax, h, 0.6)),
                ),
                cpml: [cp(0.6), cp(0.6)],
            },
        ),
        (
            "elastic",
            Medium2::Elastic {
                model: elastic2_layered(
                    e,
                    &layers,
                    Geometry::uniform(h, stable_dt(8, 2, vmax, h, 0.5)),
                ),
                cpml: [cp(0.5), cp(0.5)],
            },
        ),
    ]
}

#[test]
fn pooled_engine_is_bitwise_identical_across_formulations_and_gangs() {
    let n = 48;
    let steps = 30;
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(22.0);
    for (name, medium) in media(n) {
        let acq = Acquisition2::surface_line(n, n / 2, n / 2, 2, 6);

        // Sequential reference: one gang runs every sweep inline.
        let seq = run_modeling(&medium, &acq, &w, &cfg, steps, 6, 1);

        for gangs in [1usize, 2, 3, 7, 16] {
            let pooled = run_modeling(&medium, &acq, &w, &cfg, steps, 6, gangs);
            assert_eq!(
                seq.seismogram, pooled.seismogram,
                "{name}: pooled seismogram, gangs = {gangs}"
            );
            assert_eq!(
                seq.snapshots, pooled.snapshots,
                "{name}: pooled snapshots, gangs = {gangs}"
            );
        }
    }
}
