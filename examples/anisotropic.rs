//! Anisotropic (VTI) modeling — the paper's future work, implemented.
//!
//! "We will consider the anisotropic case in the future" (Section 3.3.1).
//! This example propagates the coupled VTI pseudo-acoustic system and
//! renders the elliptical wavefront: the horizontal front runs √(1+2ε)
//! faster than the vertical one.
//!
//! ```text
//! cargo run --release --example anisotropic
//! ```

use repro::render::ascii_field;
use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::{run_modeling, Medium2};
use seismic_grid::cfl::stable_dt;
use seismic_model::{extent2, Geometry, VtiModel2};
use seismic_pml::DampProfile;
use seismic_source::{Acquisition2, Wavelet};

fn main() {
    let gangs = openacc_sim::exec::try_default_gangs().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let n = 220;
    let extent = extent2(n, n);
    let h = 10.0;
    let vp = 2000.0f32;
    let epsilon = 0.24f32;
    let delta = 0.10f32;
    let v_max = vp * (1.0 + 2.0 * epsilon).sqrt();
    let dt = stable_dt(seismic_grid::STENCIL_ORDER, 2, v_max, h, 0.6);
    let model = VtiModel2::constant(extent, vp, epsilon, delta, Geometry::uniform(h, dt));
    let damp = DampProfile::new(n, extent.halo, 16, v_max, h, 1e-4);
    let medium = Medium2::Vti {
        model,
        damp_x: damp.clone(),
        damp_z: damp,
    };
    // Source in the middle; a sparse ring of "receivers" for arrival QC.
    let acq = Acquisition2::surface_line(n, n / 2, n / 2, n / 2, 16);
    let steps = 360;
    let r = run_modeling(
        &medium,
        &acq,
        &Wavelet::ricker(20.0),
        &OptimizationConfig::default(),
        steps,
        120,
        gangs,
    );

    println!("VTI pseudo-acoustic wavefront (vp = {vp} m/s, ε = {epsilon}, δ = {delta}):\n");
    let snap = r.snapshots.last().expect("snapshots saved");
    print!("{}", ascii_field(snap, 76, 5.0));

    // Measure the front along both axes.
    let c = n / 2;
    let peak_along = |dx: usize, dz: usize| {
        let mut best = (0usize, 0.0f32);
        for rr in 6..c - 4 {
            let v = snap.get(c + rr * dx, c + rr * dz).abs();
            if v > best.1 {
                best = (rr, v);
            }
        }
        best.0
    };
    let rx = peak_along(1, 0);
    let rz = peak_along(0, 1);
    println!(
        "\nfront radius: horizontal {rx} cells, vertical {rz} cells — ratio {:.3}",
        rx as f32 / rz as f32
    );
    println!(
        "theory: vx/vz = sqrt(1+2*eps) = {:.3}",
        (1.0 + 2.0 * epsilon).sqrt()
    );
}
