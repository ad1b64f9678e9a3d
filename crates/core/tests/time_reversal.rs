//! Time-reversal oracle for the isotropic propagators.
//!
//! Random-boundary RTM rebuilds the source wavefield by running the
//! propagation backward through a lossless medium. This checks that
//! inverse against the physics rather than against recorded bits: from a
//! smooth, normal-valued two-level field, `N` forward `step`s through the
//! randomized transparent medium of `randomize_medium{2,3}` followed by
//! `N` `step_reverse` steps must return to the start, up to the f32
//! rounding the leapfrog accumulates. The relative L2 error over both time
//! levels is held to a bound per `N`.
//!
//! The bounds are twice the largest error measured, at `N` ∈ {50, 100,
//! 200}, on the kernels before and after the subnormal store floor (figures
//! in EXPERIMENTS.md, "Subnormal store floor"). The field here never comes
//! near the floor, so both sets of kernels give the same errors; a kernel
//! whose reverse step no longer undoes its forward step misses the bound
//! by orders of magnitude.

use rtm_core::modeling::{Medium2, State2};
use rtm_core::modeling3::{Medium3, State3};
use rtm_core::rand_boundary::{randomize_medium2, randomize_medium3};
use rtm_core::OptimizationConfig;
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{iso2_layered, iso3_layered, standard_layers};
use seismic_model::{extent2, extent3, Geometry};
use seismic_pml::{DampProfile, RandomBoundarySpec};

const N2: usize = 64;
const N3: usize = 24;
const H: f32 = 10.0;
const VMAX: f32 = 3200.0;

/// `(steps, bound on the relative L2 error)`: twice the measured error
/// (2-D: 7.98e-7, 1.32e-6, 1.65e-6; 3-D: 4.09e-7, 5.35e-7, 7.76e-7).
const BOUNDS_2D: [(usize, f64); 3] = [(50, 1.6e-6), (100, 2.7e-6), (200, 3.3e-6)];
const BOUNDS_3D: [(usize, f64); 3] = [(50, 8.2e-7), (100, 1.1e-6), (200, 1.6e-6)];

/// Interior mode `k` of an axis of `n` points: `sin(kπ(i+1)/(n+1))`, which
/// vanishes only beyond both ends, so a product of modes is smooth,
/// nonzero at every interior point and tapers to the halo.
fn mode(k: usize, i: usize, n: usize) -> f32 {
    (k as f32 * std::f32::consts::PI * (i + 1) as f32 / (n + 1) as f32).sin()
}

/// A smooth start field at amplitude `a`: one low mode plus a weaker,
/// higher one, so the wave is not a single standing mode.
fn start(a: f32, x: usize, z: usize, y: Option<usize>, n: usize) -> f32 {
    let ym = |k| y.map_or(1.0, |y| mode(k, y, n));
    a * (mode(1, x, n) * mode(1, z, n) * ym(1) + 0.25 * mode(3, x, n) * mode(2, z, n) * ym(2))
}

/// `‖got − want‖₂ / ‖want‖₂` over all given field pairs, in f64.
fn rel_l2<'a>(pairs: impl IntoIterator<Item = (&'a [f32], &'a [f32])>) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (got, want) in pairs {
        for (g, w) in got.iter().zip(want) {
            num += (f64::from(*g) - f64::from(*w)).powi(2);
            den += f64::from(*w).powi(2);
        }
    }
    (num / den).sqrt()
}

fn medium2() -> Medium2 {
    let e = extent2(N2, N2);
    let dt = stable_dt(8, 2, VMAX, H, 0.7);
    let damp = DampProfile::new(N2, e.halo, 8, VMAX, H, 1e-4);
    let m = Medium2::Iso {
        model: iso2_layered(e, &standard_layers(N2), Geometry::uniform(H, dt)),
        damp_x: damp.clone(),
        damp_z: damp,
    };
    randomize_medium2(&m, &RandomBoundarySpec::new(8, 0x5eed))
}

fn medium3() -> Medium3 {
    let e = extent3(N3, N3, N3);
    let dt = stable_dt(8, 3, VMAX, H, 0.7);
    let damp = DampProfile::new(N3, e.halo, 5, VMAX, H, 1e-4);
    let m = Medium3::Iso {
        model: iso3_layered(e, &standard_layers(N3), Geometry::uniform(H, dt)),
        damp: [damp.clone(), damp.clone(), damp],
    };
    randomize_medium3(&m, &RandomBoundarySpec::new(5, 0x5eed))
}

/// Relative error of iso2d after `steps` forward and `steps` reverse steps.
fn reversal_error2(medium: &Medium2, steps: usize, gangs: usize) -> f64 {
    let cfg = OptimizationConfig::default();
    let mut s = State2::new(medium);
    let State2::Iso(iso) = &mut s else {
        unreachable!("isotropic medium")
    };
    for iz in 0..N2 {
        for ix in 0..N2 {
            iso.u_prev.set(ix, iz, start(0.98, ix, iz, None, N2));
            iso.u_cur.set(ix, iz, start(1.0, ix, iz, None, N2));
        }
    }
    let init = [iso.u_prev.clone(), iso.u_cur.clone()];
    assert!(init
        .iter()
        .all(|f| f.as_slice().iter().all(|x| *x == 0.0 || x.is_normal())));
    for _ in 0..steps {
        s.step(medium, &cfg, gangs);
    }
    for _ in 0..steps {
        s.step_reverse(medium, &cfg, gangs);
    }
    let State2::Iso(iso) = &s else { unreachable!() };
    rel_l2([
        (iso.u_prev.as_slice(), init[0].as_slice()),
        (iso.u_cur.as_slice(), init[1].as_slice()),
    ])
}

/// Relative error of iso3d after `steps` forward and `steps` reverse steps.
fn reversal_error3(medium: &Medium3, steps: usize, gangs: usize) -> f64 {
    let cfg = OptimizationConfig::default();
    let mut s = State3::new(medium);
    let State3::Iso(iso) = &mut s else {
        unreachable!("isotropic medium")
    };
    for iz in 0..N3 {
        for iy in 0..N3 {
            for ix in 0..N3 {
                iso.u_prev
                    .set(ix, iy, iz, start(0.98, ix, iz, Some(iy), N3));
                iso.u_cur.set(ix, iy, iz, start(1.0, ix, iz, Some(iy), N3));
            }
        }
    }
    let init = [iso.u_prev.clone(), iso.u_cur.clone()];
    assert!(init
        .iter()
        .all(|f| f.as_slice().iter().all(|x| *x == 0.0 || x.is_normal())));
    for _ in 0..steps {
        s.step(medium, &cfg, gangs);
    }
    for _ in 0..steps {
        s.step_reverse(medium, &cfg, gangs);
    }
    let State3::Iso(iso) = &s else { unreachable!() };
    rel_l2([
        (iso.u_prev.as_slice(), init[0].as_slice()),
        (iso.u_cur.as_slice(), init[1].as_slice()),
    ])
}

#[test]
fn iso2d_reverse_steps_undo_forward_steps() {
    let m = medium2();
    for (steps, bound) in BOUNDS_2D {
        let err = reversal_error2(&m, steps, 2);
        println!("iso2d N = {steps}: relative L2 error {err:.3e} (bound {bound:.1e})");
        assert!(err <= bound, "iso2d N = {steps}: {err:e} > {bound:e}");
    }
}

#[test]
fn iso3d_reverse_steps_undo_forward_steps() {
    let m = medium3();
    for (steps, bound) in BOUNDS_3D {
        let err = reversal_error3(&m, steps, 2);
        println!("iso3d N = {steps}: relative L2 error {err:.3e} (bound {bound:.1e})");
        assert!(err <= bound, "iso3d N = {steps}: {err:e} > {bound:e}");
    }
}
