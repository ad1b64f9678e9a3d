//! Elastic wave physics: P and S fronts from a shear-generating source.
//!
//! The paper's most expensive formulation exists because solids carry two
//! body-wave types. This example drives the elastic propagator with a
//! directional (vertical-force-like) source that radiates both waves,
//! renders the particle-velocity magnitude, and verifies both fronts travel
//! at their theoretical speeds.
//!
//! ```text
//! cargo run --release --example elastic_waves
//! ```

use repro::render::ascii_field;
use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::{Medium2, State2};
use seismic_grid::cfl::stable_dt;
use seismic_grid::Field2;
use seismic_model::builder::{elastic2_layered, Layer};
use seismic_model::{extent2, Geometry};
use seismic_pml::CpmlAxis;
use seismic_source::Wavelet;

fn main() {
    let gangs = openacc_sim::exec::try_default_gangs().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let n = 240;
    let extent = extent2(n, n);
    let h = 10.0;
    let vp = 3000.0f32;
    let vs = 1600.0f32;
    let dt = stable_dt(seismic_grid::STENCIL_ORDER, 2, vp, h, 0.5);
    let layers = [Layer {
        z_top: 0,
        vp,
        vs,
        rho: 2200.0,
    }];
    let model = elastic2_layered(extent, &layers, Geometry::uniform(h, dt));
    let cpml = CpmlAxis::new(n, extent.halo, 16, dt, vp, h, 1e-4);
    let medium = Medium2::Elastic {
        model,
        cpml: [cpml.clone(), cpml],
    };

    let mut state = State2::new(&medium);
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(16.0);
    let c = n / 2;
    let steps = 260;
    for t in 0..steps {
        state.step(&medium, &cfg, gangs);
        // Vertical shear couple: opposite-signed σxz increments straddling
        // the source point radiate a strong S wave alongside the P wave.
        if let State2::Elastic(s) = &mut state {
            let amp = w.sample(t as f32 * dt) * 1e6 * dt;
            let v = s.sxz.get(c, c - 1) + amp;
            s.sxz.set(c, c - 1, v);
            let v = s.sxz.get(c, c + 1) - amp;
            s.sxz.set(c, c + 1, v);
        }
    }

    // Particle-velocity magnitude field for display.
    let speed = match &state {
        State2::Elastic(s) => Field2::from_fn(extent, |ix, iz| {
            (s.vx.get(ix, iz).powi(2) + s.vz.get(ix, iz).powi(2)).sqrt()
        }),
        _ => unreachable!(),
    };
    println!("elastic wavefield after {steps} steps (vp = {vp} m/s, vs = {vs} m/s):\n");
    print!("{}", ascii_field(&speed, 76, 8.0));

    // Measure both fronts along +x: the P front leads, the S front is the
    // stronger inner ring for a shear couple.
    let elapsed = steps as f32 * dt - 1.2 / 16.0;
    let expect_p = vp * elapsed / h;
    let expect_s = vs * elapsed / h;
    // P front = furthest point with significant motion; S peak = global max.
    let peak = (0..c - 4)
        .map(|r| speed.get(c + r, c))
        .fold(0.0f32, f32::max);
    let mut r_p = 0;
    for r in (4..c - 4).rev() {
        if speed.get(c + r, c) > 0.05 * peak {
            r_p = r;
            break;
        }
    }
    let mut r_s = (0, 0.0f32);
    for r in 4..c - 4 {
        let v = speed.get(c + r, c);
        if v > r_s.1 {
            r_s = (r, v);
        }
    }
    println!("\nP front at r = {r_p} cells (theory {expect_p:.0});");
    println!("S peak  at r = {} cells (theory {expect_s:.0}).", r_s.0);
    println!(
        "vp/vs from the grid: {:.2} (theory {:.2})",
        r_p as f32 / r_s.0 as f32,
        vp / vs
    );
}
