//! Figure 5: "A 2D seismic image in acoustic media for RTM" — full RTM of
//! a layered model, rendering the migrated image.

use repro::render::{ascii_field, write_pgm};
use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::Medium2;
use rtm_core::rtm::{depth_profile, laplacian_filter, run_rtm};
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{acoustic2_layered, Layer};
use seismic_model::{extent2, Geometry};
use seismic_pml::CpmlAxis;
use seismic_source::{Acquisition2, Wavelet};

fn main() {
    let gangs = openacc_sim::exec::try_default_gangs().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let n = 128;
    let z_if = 64;
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
            z_top: z_if,
            vp: 3000.0,
            vs: 0.0,
            rho: 2400.0,
        },
    ];
    let model = acoustic2_layered(e, &layers, Geometry::uniform(h, dt));
    let c = CpmlAxis::new(n, e.halo, 14, dt, 3000.0, h, 1e-4);
    let medium = Medium2::Acoustic {
        model,
        cpml: [c.clone(), c],
    };
    let acq = Acquisition2::surface_line(n, n / 2, 6, 6, 2);
    println!("Figure 5: RTM image of a two-layer acoustic model (reflector at z = {z_if})");
    let r = run_rtm(
        &medium,
        &acq,
        &Wavelet::ricker(18.0),
        &OptimizationConfig::default(),
        1100,
        3,
        gangs,
    );
    let img = laplacian_filter(&r.image, h, h);
    print!("{}", ascii_field(&img, 80, 3.0));
    std::fs::create_dir_all("out").ok();
    write_pgm(&img, std::path::Path::new("out/fig05_rtm_image.pgm")).expect("write PGM");
    let prof = depth_profile(&img);
    let (z_peak, _) = prof
        .iter()
        .enumerate()
        .skip(20)
        .take(n - 40)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    println!(
        "\nimage peak depth: z = {z_peak} (reflector at {z_if}); {} snapshots used",
        r.snapshots_saved
    );
    println!("(written to out/fig05_rtm_image.pgm)");
}
