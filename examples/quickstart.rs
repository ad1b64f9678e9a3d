//! Quickstart: forward seismic modeling in ~40 lines.
//!
//! Builds a layered 2D acoustic earth model, runs the forward propagator on
//! host gangs (the OpenACC-gang analogue), and prints a wavefield snapshot
//! plus the recorded shot gather statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use repro::render::ascii_field;
use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::{run_modeling, Medium2};
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{acoustic2_layered, standard_layers};
use seismic_model::{extent2, Geometry};
use seismic_pml::CpmlAxis;
use seismic_source::{Acquisition2, Wavelet};

fn main() {
    // 0. Host gangs: ACC_GANGS when set, else one per core.
    let gangs = openacc_sim::exec::try_default_gangs().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });

    // 1. Grid: 200 x 200 interior points, 10 m spacing, CFL-stable dt.
    let n = 200;
    let extent = extent2(n, n);
    let h = 10.0;
    let v_max = 3200.0;
    let dt = stable_dt(seismic_grid::STENCIL_ORDER, 2, v_max, h, 0.6);

    // 2. Earth model: water over sediment over basement.
    let model = acoustic2_layered(extent, &standard_layers(n), Geometry::uniform(h, dt));

    // 3. Absorbing boundaries: C-PML on both axes.
    let cpml = CpmlAxis::new(n, extent.halo, 16, dt, v_max, h, 1e-4);
    let medium = Medium2::Acoustic {
        model,
        cpml: [cpml.clone(), cpml],
    };

    // 4. Acquisition: center shot, receiver cable near the surface.
    let acq = Acquisition2::surface_line(n, n / 2, 6, 4, 4);

    // 5. Run 600 steps of forward modeling on all available host gangs.
    let result = run_modeling(
        &medium,
        &acq,
        &Wavelet::ricker(15.0),
        &OptimizationConfig::default(),
        600,
        75,
        gangs,
    );

    println!("acc-rtm quickstart — acoustic 2D forward modeling ({n}x{n}, dt = {dt:.2e} s)\n");
    // A mid-run snapshot: direct wave plus the first interface reflection.
    let snap = &result.snapshots[result.snapshots.len() / 2];
    print!("{}", ascii_field(snap, 76, 6.0));
    println!(
        "\n{} receivers recorded {} samples each; shot-gather rms = {:.3e}",
        result.seismogram.n_receivers(),
        result.seismogram.nt(),
        result.seismogram.rms()
    );
    println!("snapshots saved: {}", result.snapshots.len());
}
