//! The store rule of every propagator kernel, checked on whole states.
//!
//! Every formulation runs forward from rest with a point source through
//! its absorbing medium (damping layers or C-PML, so every ψ memory field
//! is written). After each step every state field, ψ included, may hold
//! only `0.0`, values with `|x| ≥ FLOOR` (`seismic_grid::fd::FLOOR`), or
//! non-finite values: no field ever holds a subnormal, or any other value
//! below the floor, that a later step would have to read.

use rtm_core::modeling::{Medium2, State2};
use rtm_core::modeling3::{Medium3, State3};
use rtm_core::OptimizationConfig;
use seismic_grid::cfl::stable_dt;
use seismic_grid::fd::FLOOR;
use seismic_grid::{Field2, Field3};
use seismic_model::builder::{
    acoustic2_layered, acoustic3_layered, elastic2_layered, elastic3_layered, iso2_layered,
    iso3_layered, standard_layers,
};
use seismic_model::{extent2, extent3, Geometry, VtiModel2};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_prop::FissionVariant;
use seismic_source::Wavelet;

/// 2-D and 3-D grid sizes, and steps per run: the wavefront stays inside
/// the grid, so the whole run has field ahead of it decaying towards zero.
const N2: usize = 64;
const N3: usize = 24;
const STEPS2: usize = 60;
const STEPS3: usize = 24;
const H: f32 = 10.0;
const VMAX: f32 = 3200.0;

fn fields2(s: &State2) -> Vec<(&'static str, &Field2)> {
    match s {
        State2::Iso(s) => vec![("u_prev", &s.u_prev), ("u_cur", &s.u_cur)],
        State2::Acoustic(s) => vec![
            ("p", &s.p),
            ("qx", &s.qx),
            ("qz", &s.qz),
            ("psi_px", &s.psi_px),
            ("psi_pz", &s.psi_pz),
            ("psi_qx", &s.psi_qx),
            ("psi_qz", &s.psi_qz),
        ],
        State2::Elastic(s) => vec![
            ("vx", &s.vx),
            ("vz", &s.vz),
            ("sxx", &s.sxx),
            ("szz", &s.szz),
            ("sxz", &s.sxz),
            ("psi_sxx_x", &s.psi_sxx_x),
            ("psi_sxz_z", &s.psi_sxz_z),
            ("psi_sxz_x", &s.psi_sxz_x),
            ("psi_szz_z", &s.psi_szz_z),
            ("psi_vx_x", &s.psi_vx_x),
            ("psi_vz_z", &s.psi_vz_z),
            ("psi_vx_z", &s.psi_vx_z),
            ("psi_vz_x", &s.psi_vz_x),
        ],
        State2::Vti(s) => vec![
            ("p_prev", &s.p_prev),
            ("p_cur", &s.p_cur),
            ("q_prev", &s.q_prev),
            ("q_cur", &s.q_cur),
        ],
    }
}

fn fields3(s: &State3) -> Vec<(&'static str, &Field3)> {
    match s {
        State3::Iso(s) => vec![("u_prev", &s.u_prev), ("u_cur", &s.u_cur)],
        State3::Acoustic(s) => vec![
            ("p", &s.p),
            ("qx", &s.qx),
            ("qy", &s.qy),
            ("qz", &s.qz),
            ("psi_px", &s.psi_px),
            ("psi_py", &s.psi_py),
            ("psi_pz", &s.psi_pz),
            ("psi_qx", &s.psi_qx),
            ("psi_qy", &s.psi_qy),
            ("psi_qz", &s.psi_qz),
        ],
        State3::Elastic(s) => {
            let mut f = vec![
                ("vx", &s.vx),
                ("vy", &s.vy),
                ("vz", &s.vz),
                ("sxx", &s.sxx),
                ("syy", &s.syy),
                ("szz", &s.szz),
                ("sxy", &s.sxy),
                ("sxz", &s.sxz),
                ("syz", &s.syz),
            ];
            f.extend(s.psi.iter().map(|p| ("psi", p)));
            f
        }
    }
}

/// The stored values that break the rule: finite, nonzero and
/// below the floor in magnitude.
fn below_floor(values: &[f32]) -> impl Iterator<Item = f32> + '_ {
    values
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x != 0.0 && x.abs() < FLOOR)
}

/// One line per field that broke the rule at `step`, with a count and one
/// offending value.
fn violations<'a>(
    step: usize,
    fields: impl IntoIterator<Item = (&'static str, &'a [f32])>,
) -> Vec<String> {
    fields
        .into_iter()
        .filter_map(|(name, values)| {
            let bad: Vec<f32> = below_floor(values).collect();
            let first = *bad.first()?;
            Some(format!(
                "step {step}: {name} holds {} values below the floor, e.g. {first:e}",
                bad.len()
            ))
        })
        .collect()
}

fn geom(dims: usize, safety: f32) -> Geometry {
    Geometry::uniform(H, stable_dt(8, dims, VMAX, H, safety))
}

fn media2() -> Vec<(&'static str, Medium2)> {
    let e = extent2(N2, N2);
    let layers = standard_layers(N2);
    let damp = || DampProfile::new(N2, e.halo, 10, VMAX, H, 1e-4);
    let cpml = |safety| {
        let c = || CpmlAxis::new(N2, e.halo, 10, geom(2, safety).dt, VMAX, H, 1e-4);
        [c(), c()]
    };
    vec![
        (
            "iso2d",
            Medium2::Iso {
                model: iso2_layered(e, &layers, geom(2, 0.7)),
                damp_x: damp(),
                damp_z: damp(),
            },
        ),
        (
            "acoustic2d",
            Medium2::Acoustic {
                model: acoustic2_layered(e, &layers, geom(2, 0.6)),
                cpml: cpml(0.6),
            },
        ),
        (
            "elastic2d",
            Medium2::Elastic {
                model: elastic2_layered(e, &layers, geom(2, 0.5)),
                cpml: cpml(0.5),
            },
        ),
        (
            "vti2d",
            Medium2::Vti {
                model: VtiModel2::constant(e, 2200.0, 0.2, 0.1, geom(2, 0.5)),
                damp_x: damp(),
                damp_z: damp(),
            },
        ),
    ]
}

fn media3() -> Vec<(&'static str, Medium3, FissionVariant)> {
    let e = extent3(N3, N3, N3);
    let layers = standard_layers(N3);
    let damp = || DampProfile::new(N3, e.halo, 5, VMAX, H, 1e-4);
    let cpml = |safety| {
        let c = || CpmlAxis::new(N3, e.halo, 5, geom(3, safety).dt, VMAX, H, 1e-4);
        [c(), c(), c()]
    };
    let acoustic = || Medium3::Acoustic {
        model: acoustic3_layered(e, &layers, geom(3, 0.55)),
        cpml: cpml(0.55),
    };
    vec![
        (
            "iso3d",
            Medium3::Iso {
                model: iso3_layered(e, &layers, geom(3, 0.7)),
                damp: [damp(), damp(), damp()],
            },
            FissionVariant::Fused,
        ),
        ("acoustic3d/fused", acoustic(), FissionVariant::Fused),
        (
            "acoustic3d/fissioned",
            acoustic(),
            FissionVariant::Fissioned,
        ),
        (
            "elastic3d",
            Medium3::Elastic {
                model: elastic3_layered(e, &layers, geom(3, 0.5)),
                cpml: cpml(0.5),
            },
            FissionVariant::Fused,
        ),
    ]
}

/// One line for a case whose fields broke the rule: how many (step,
/// field) pairs did, and the first of them.
fn summary(case: &str, found: &[String]) -> Option<String> {
    let first = found.first()?;
    Some(format!(
        "{case}: {} (step, field) pairs; first: {first}",
        found.len()
    ))
}

/// Every formulation, forward from rest with a source: no stored value
/// below the floor after any step, and the wave did propagate.
#[test]
fn forward_from_rest_stores_nothing_below_the_floor() {
    let w = Wavelet::ricker(25.0);
    let mut failed = Vec::new();
    for (case, medium) in media2() {
        let dt = medium.dt();
        let mut s = State2::new(&medium);
        let mut found = Vec::new();
        for t in 0..STEPS2 {
            s.step(&medium, &OptimizationConfig::default(), 2);
            s.inject(&medium, N2 / 2, N2 / 3, w.sample(t as f32 * dt));
            let fields = fields2(&s).into_iter().map(|(n, f)| (n, f.as_slice()));
            found.extend(violations(t, fields));
        }
        assert!(s.sample(N2 / 2 + 8, N2 / 3).abs() > 0.0, "{case}: no wave");
        failed.extend(summary(case, &found));
    }
    for (case, medium, fission) in media3() {
        let dt = medium.dt();
        let cfg = OptimizationConfig {
            fission,
            ..OptimizationConfig::default()
        };
        let mut s = State3::new(&medium);
        let mut found = Vec::new();
        for t in 0..STEPS3 {
            s.step(&medium, &cfg, 2);
            s.inject(&medium, N3 / 2, N3 / 2, N3 / 3, w.sample(t as f32 * dt));
            let fields = fields3(&s).into_iter().map(|(n, f)| (n, f.as_slice()));
            found.extend(violations(t, fields));
        }
        assert!(
            s.sample(N3 / 2 + 4, N3 / 2, N3 / 3).abs() > 0.0,
            "{case}: no wave"
        );
        failed.extend(summary(case, &found));
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
