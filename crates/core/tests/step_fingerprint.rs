//! Bit-level fingerprints of every formulation's step sequence.
//!
//! Each case runs a small grid with a point source through `State2` /
//! `State3`: `N` forward steps through the absorbing medium (exercising
//! the PML damping and every C-PML memory field), then `N` forward steps
//! followed by `N` `step_reverse` steps through the randomized transparent
//! medium of `randomize_medium{2,3}` (exercising the signed-`dt` reverse
//! phases). The f32 bits of every state field are folded into one FNV-1a
//! hash and compared with a recorded constant, at gangs 1 and 3.
//!
//! The square grids are narrower than one row block of the staggered
//! C-PML sweep, so the staggered formulations also run on wide grids whose
//! x extent spans several row blocks and ends in a partial one.
//!
//! Gang invariance alone cannot see a reordered kernel sequence — every
//! gang count would run the same wrong sequence. These constants can: any
//! change to which kernels run, in which order, on which fields or ψ
//! slices, or to the arithmetic inside a kernel, moves the hash. A change
//! that is *meant* to alter the numerics must re-record them and say why.

use rtm_core::modeling::{Medium2, State2};
use rtm_core::modeling3::{Medium3, State3};
use rtm_core::rand_boundary::{randomize_medium2, randomize_medium3};
use rtm_core::OptimizationConfig;
use seismic_grid::cfl::stable_dt;
use seismic_grid::{Field2, Field3};
use seismic_model::builder::{
    acoustic2_layered, acoustic3_layered, elastic2_layered, elastic3_layered, iso2_layered,
    iso3_layered, standard_layers,
};
use seismic_model::{extent2, extent3, Geometry, VtiModel2};
use seismic_pml::{CpmlAxis, DampProfile, RandomBoundarySpec};
use seismic_prop::{FissionVariant, IsoPmlVariant};
use seismic_source::Wavelet;

/// Time steps per phase.
const N: usize = 12;
const N2: usize = 32;
const N3: usize = 16;
/// x extents of the wide staggered grids: several row blocks of the
/// staggered sweep, and not a multiple of one.
const WIDE2: usize = 300;
const WIDE3: usize = 200;
const H: f32 = 10.0;
const VMAX: f32 = 3200.0;

const ISO_VARIANTS: [IsoPmlVariant; 3] = [
    IsoPmlVariant::OriginalIfs,
    IsoPmlVariant::RestructuredIndices,
    IsoPmlVariant::PmlEverywhere,
];

fn fnv1a(hash: &mut u64, values: &[f32]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn fields2(s: &State2) -> Vec<&Field2> {
    match s {
        State2::Iso(s) => vec![&s.u_prev, &s.u_cur],
        State2::Acoustic(s) => vec![
            &s.p, &s.qx, &s.qz, &s.psi_px, &s.psi_pz, &s.psi_qx, &s.psi_qz,
        ],
        State2::Elastic(s) => vec![
            &s.vx,
            &s.vz,
            &s.sxx,
            &s.szz,
            &s.sxz,
            &s.psi_sxx_x,
            &s.psi_sxz_z,
            &s.psi_sxz_x,
            &s.psi_szz_z,
            &s.psi_vx_x,
            &s.psi_vz_z,
            &s.psi_vx_z,
            &s.psi_vz_x,
        ],
        State2::Vti(s) => vec![&s.p_prev, &s.p_cur, &s.q_prev, &s.q_cur],
    }
}

fn fields3(s: &State3) -> Vec<&Field3> {
    match s {
        State3::Iso(s) => vec![&s.u_prev, &s.u_cur],
        State3::Acoustic(s) => vec![
            &s.p, &s.qx, &s.qy, &s.qz, &s.psi_px, &s.psi_py, &s.psi_pz, &s.psi_qx, &s.psi_qy,
            &s.psi_qz,
        ],
        State3::Elastic(s) => {
            let mut f = vec![
                &s.vx, &s.vy, &s.vz, &s.sxx, &s.syy, &s.szz, &s.sxy, &s.sxz, &s.syz,
            ];
            f.extend(s.psi.iter());
            f
        }
    }
}

fn spec() -> RandomBoundarySpec {
    RandomBoundarySpec::new(6, 0x5eed)
}

/// Forward through the absorbing medium, then forward and back through
/// its randomized transparent twin; one hash over both end states.
fn fingerprint2(medium: &Medium2, cfg: &OptimizationConfig, gangs: usize) -> u64 {
    let w = Wavelet::ricker(25.0);
    let dt = medium.dt();
    let e = medium.extent();
    // Centred on the square grid; on a wide grid, in the last (partial) row
    // block, next to the x C-PML strip.
    let (sx, sz) = (e.nx - N2 / 2, e.nz / 3);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let transparent = randomize_medium2(medium, &spec());
    for (m, reverse) in [(medium, false), (&transparent, true)] {
        let mut s = State2::new(m);
        for t in 0..N {
            s.step(m, cfg, gangs);
            s.inject(m, sx, sz, w.sample(t as f32 * dt));
        }
        if reverse {
            for _ in 0..N {
                s.step_reverse(m, cfg, gangs);
            }
        }
        for f in fields2(&s) {
            fnv1a(&mut hash, f.as_slice());
        }
    }
    hash
}

/// 3-D counterpart of [`fingerprint2`].
fn fingerprint3(medium: &Medium3, cfg: &OptimizationConfig, gangs: usize) -> u64 {
    let w = Wavelet::ricker(25.0);
    let dt = medium.dt();
    let e = medium.extent();
    let src = (e.nx - N3 / 2, e.ny / 2 + 1, e.nz / 3);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let transparent = randomize_medium3(medium, &spec());
    for (m, reverse) in [(medium, false), (&transparent, true)] {
        let mut s = State3::new(m);
        for t in 0..N {
            s.step(m, cfg, gangs);
            s.inject(m, src.0, src.1, src.2, w.sample(t as f32 * dt));
        }
        if reverse {
            for _ in 0..N {
                s.step_reverse(m, cfg, gangs);
            }
        }
        for f in fields3(&s) {
            fnv1a(&mut hash, f.as_slice());
        }
    }
    hash
}

fn geom(dims: usize, safety: f32) -> Geometry {
    Geometry::uniform(H, stable_dt(8, dims, VMAX, H, safety))
}

fn media2(nx: usize) -> Vec<(&'static str, Medium2)> {
    let e = extent2(nx, N2);
    let layers = standard_layers(N2);
    let damp = |n| DampProfile::new(n, e.halo, 8, VMAX, H, 1e-4);
    let cpml = |safety| {
        let c = |n| CpmlAxis::new(n, e.halo, 8, geom(2, safety).dt, VMAX, H, 1e-4);
        [c(nx), c(N2)]
    };
    vec![
        (
            "iso2",
            Medium2::Iso {
                model: iso2_layered(e, &layers, geom(2, 0.7)),
                damp_x: damp(nx),
                damp_z: damp(N2),
            },
        ),
        (
            "ac2",
            Medium2::Acoustic {
                model: acoustic2_layered(e, &layers, geom(2, 0.6)),
                cpml: cpml(0.6),
            },
        ),
        (
            "el2",
            Medium2::Elastic {
                model: elastic2_layered(e, &layers, geom(2, 0.5)),
                cpml: cpml(0.5),
            },
        ),
        (
            "vti2",
            Medium2::Vti {
                model: VtiModel2::constant(e, 2200.0, 0.2, 0.1, geom(2, 0.5)),
                damp_x: damp(nx),
                damp_z: damp(N2),
            },
        ),
    ]
}

fn media3(nx: usize) -> Vec<(&'static str, Medium3)> {
    let e = extent3(nx, N3, N3);
    let layers = standard_layers(N3);
    let damp = |n| DampProfile::new(n, e.halo, 5, VMAX, H, 1e-4);
    let cpml = |safety| {
        let c = |n| CpmlAxis::new(n, e.halo, 5, geom(3, safety).dt, VMAX, H, 1e-4);
        [c(nx), c(N3), c(N3)]
    };
    vec![
        (
            "iso3",
            Medium3::Iso {
                model: iso3_layered(e, &layers, geom(3, 0.7)),
                damp: [damp(nx), damp(N3), damp(N3)],
            },
        ),
        (
            "ac3",
            Medium3::Acoustic {
                model: acoustic3_layered(e, &layers, geom(3, 0.55)),
                cpml: cpml(0.55),
            },
        ),
        (
            "el3",
            Medium3::Elastic {
                model: elastic3_layered(e, &layers, geom(3, 0.5)),
                cpml: cpml(0.5),
            },
        ),
    ]
}

/// Every (formulation, kernel variant) pair: the isotropic cases under
/// each PML variant, the 3-D acoustic case under both fission variants.
fn configs(name: &str) -> Vec<(String, OptimizationConfig)> {
    let base = OptimizationConfig::default();
    match name {
        "iso2" | "iso3" => ISO_VARIANTS
            .iter()
            .map(|&iso_pml| {
                (
                    format!("{name}/{iso_pml:?}"),
                    OptimizationConfig { iso_pml, ..base },
                )
            })
            .collect(),
        "ac3" => [FissionVariant::Fused, FissionVariant::Fissioned]
            .iter()
            .map(|&fission| {
                (
                    format!("{name}/{fission:?}"),
                    OptimizationConfig { fission, ..base },
                )
            })
            .collect(),
        _ => vec![(name.to_string(), base)],
    }
}

/// Recorded fingerprints. The three isotropic PML variants are bitwise
/// identical by construction (σ ≡ 0 in the interior), so they share one;
/// the two fission variants reassociate the pressure sum and do not.
fn expected(case: &str) -> u64 {
    match case {
        "iso2/OriginalIfs" | "iso2/RestructuredIndices" | "iso2/PmlEverywhere" => {
            0x5797_099f_2ed1_8216
        }
        "ac2" => 0x4c72_2dc3_3010_1551,
        "el2" => 0x4e37_78c2_466f_f042,
        "vti2" => 0xf639_f5ed_2b74_c4f6,
        "iso3/OriginalIfs" | "iso3/RestructuredIndices" | "iso3/PmlEverywhere" => {
            0xbf07_ef65_a9e6_8bde
        }
        "ac3/Fused" => 0x4679_1253_d964_7dc5,
        "ac3/Fissioned" => 0x3014_7664_98c5_51d1,
        "el3" => 0x6636_e6f5_a560_2d42,
        "ac2/wide" => 0xbfa3_4708_1f8c_0596,
        "el2/wide" => 0xf0ed_d6f8_7364_ab8f,
        "ac3/Fused/wide" => 0xbfcf_29e4_cb20_2538,
        "ac3/Fissioned/wide" => 0xcdc3_bf52_106b_728c,
        "el3/wide" => 0x5d55_feeb_456c_b3d2,
        other => panic!("no recorded fingerprint for {other}"),
    }
}

fn is_staggered(name: &str) -> bool {
    matches!(name, "ac2" | "el2" | "ac3" | "el3")
}

/// Fingerprints of every case on `nx2`-wide 2-D and `nx3`-wide 3-D grids
/// at gangs 1 and 3, keyed `case` (square grids) or `case/wide`.
fn fingerprints(nx2: usize, nx3: usize, keep: fn(&str) -> bool) -> Vec<(String, usize, u64)> {
    let key = |case: String, nx: usize| {
        if nx == N2 || nx == N3 {
            case
        } else {
            format!("{case}/wide")
        }
    };
    let mut got = Vec::new();
    for (name, medium) in media2(nx2).into_iter().filter(|(n, _)| keep(n)) {
        for (case, cfg) in configs(name) {
            for gangs in [1, 3] {
                got.push((
                    key(case.clone(), nx2),
                    gangs,
                    fingerprint2(&medium, &cfg, gangs),
                ));
            }
        }
    }
    for (name, medium) in media3(nx3).into_iter().filter(|(n, _)| keep(n)) {
        for (case, cfg) in configs(name) {
            for gangs in [1, 3] {
                got.push((
                    key(case.clone(), nx3),
                    gangs,
                    fingerprint3(&medium, &cfg, gangs),
                ));
            }
        }
    }
    got
}

fn assert_recorded(got: &[(String, usize, u64)]) {
    let mismatches: Vec<String> = got
        .iter()
        .filter(|(case, _, h)| *h != expected(case))
        .map(|(case, gangs, h)| {
            format!(
                "{case} gangs={gangs}: {h:#018x} (recorded {:#018x})",
                expected(case)
            )
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn step_sequences_match_recorded_fingerprints() {
    assert_recorded(&fingerprints(N2, N3, |_| true));
}

/// The staggered formulations on grids wider than a row block, forward and
/// reverse, both fission variants.
#[test]
fn wide_staggered_rows_match_recorded_fingerprints() {
    assert_recorded(&fingerprints(WIDE2, WIDE3, is_staggered));
}
