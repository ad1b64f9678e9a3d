//! Reverse Time Migration of a dipping (wedge) reflector.
//!
//! The motivating workload of the paper's introduction: image subsurface
//! structure from surface recordings. This example shoots three shots over
//! a wedge model, migrates each (forward modeling → direct-wave mute →
//! backward propagation → cross-correlation imaging), stacks the images,
//! and renders the result — the dipping interface should appear in the
//! stack.
//!
//! ```text
//! cargo run --release --example rtm_imaging
//! ```

use repro::render::{ascii_field, write_pgm};
use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::Medium2;
use rtm_core::rtm::{laplacian_filter, run_rtm};
use seismic_grid::cfl::stable_dt;
use seismic_grid::Field2;
use seismic_model::builder::acoustic2_wedge;
use seismic_model::{extent2, Geometry};
use seismic_pml::CpmlAxis;
use seismic_source::{Acquisition2, Wavelet};

fn main() {
    let gangs = openacc_sim::exec::try_default_gangs().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let n = 128;
    let extent = extent2(n, n);
    let h = 10.0;
    let v_max = 3000.0;
    let dt = stable_dt(seismic_grid::STENCIL_ORDER, 2, v_max, h, 0.6);
    // Wedge: interface dips from z = 56 on the left to z = 72 on the right.
    let model = acoustic2_wedge(extent, 1500.0, 3000.0, 56, 72, Geometry::uniform(h, dt));
    let cpml = CpmlAxis::new(n, extent.halo, 14, dt, v_max, h, 1e-4);
    let medium = Medium2::Acoustic {
        model,
        cpml: [cpml.clone(), cpml],
    };

    let config = OptimizationConfig::default();
    let wavelet = Wavelet::ricker(18.0);
    let steps = 1100;
    let snap_period = 3;

    println!("RTM of a dipping wedge — {n}x{n} grid, 3 shots, {steps} steps each\n");
    let mut stack = Field2::zeros(extent);
    for (i, src_x) in [n / 4, n / 2, 3 * n / 4].into_iter().enumerate() {
        let acq = Acquisition2::surface_line(n, src_x, 6, 6, 2);
        let r = run_rtm(&medium, &acq, &wavelet, &config, steps, snap_period, gangs);
        // Stack: migrated shots add coherently at true reflectors.
        stack.axpy(1.0, &r.image);
        println!(
            "shot {} at x = {src_x} migrated ({} snapshots)",
            i + 1,
            r.snapshots_saved
        );
    }

    let img = laplacian_filter(&stack, h, h);
    println!("\nstacked image (wedge dips left 56 -> right 72):");
    print!("{}", ascii_field(&img, 76, 2.5));
    std::fs::create_dir_all("out").ok();
    write_pgm(&img, std::path::Path::new("out/rtm_wedge_stack.pgm")).expect("write PGM");
    println!("\n(full-resolution image written to out/rtm_wedge_stack.pgm)");

    // Report where the image peaks along two columns — should follow the dip.
    for ix in [n / 4, 3 * n / 4] {
        let mut best = (0, 0.0f32);
        for iz in 25..n - 25 {
            let v = img.get(ix, iz).abs();
            if v > best.1 {
                best = (iz, v);
            }
        }
        println!("column x = {ix:3}: image peak at z = {}", best.0);
    }
}
