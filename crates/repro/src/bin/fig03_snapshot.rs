//! Figure 3: "A 2D seismic modeling snapshot in acoustic media" — runs real
//! acoustic 2D modeling over a layered model and renders wavefield
//! snapshots (ASCII to stdout, PGM files to ./out).

use repro::render::{ascii_field, write_pgm};
use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::{run_modeling, Medium2};
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{acoustic2_layered, standard_layers};
use seismic_model::{extent2, Geometry};
use seismic_pml::CpmlAxis;
use seismic_source::{Acquisition2, Wavelet};

fn main() {
    let gangs = openacc_sim::exec::try_default_gangs().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let n = 240;
    let e = extent2(n, n);
    let h = 10.0;
    let dt = stable_dt(8, 2, 3200.0, h, 0.6);
    let model = acoustic2_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
    let c = CpmlAxis::new(n, e.halo, 16, dt, 3200.0, h, 1e-4);
    let medium = Medium2::Acoustic {
        model,
        cpml: [c.clone(), c],
    };
    let acq = Acquisition2::surface_line(n, n / 2, 6, 4, 4);
    let r = run_modeling(
        &medium,
        &acq,
        &Wavelet::ricker(15.0),
        &OptimizationConfig::default(),
        700,
        100,
        gangs,
    );
    println!("Figure 3: acoustic 2D modeling snapshots (layered model, Ricker 15 Hz)\n");
    std::fs::create_dir_all("out").ok();
    for (i, snap) in r.snapshots.iter().enumerate().skip(2) {
        println!("--- snapshot t = step {} ---", i * 100);
        print!("{}", ascii_field(snap, 80, 6.0));
        let path = std::path::PathBuf::from(format!("out/fig03_snapshot_{i}.pgm"));
        write_pgm(snap, &path).expect("write PGM");
        println!("(written to {})\n", path.display());
    }
    println!("seismogram rms: {:.3e}", r.seismogram.rms());
}
