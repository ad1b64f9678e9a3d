//! The CPU reference path: domain-decomposed modeling over real
//! message-passing ranks, validated against the sequential propagator,
//! plus the modeled full-socket baseline for both clusters.
//!
//! ```text
//! cargo run --release --example mpi_scaling
//! ```

use rtm_core::case::{Cluster, SeismicCase, Workload};
use rtm_core::cpu_time::modeling_cpu_time;
use rtm_core::mpi_run::modeling_iso2_mpi;
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{iso2_layered, standard_layers};
use seismic_model::footprint::{Dims, Formulation};
use seismic_model::{extent2, Geometry};
use seismic_pml::DampProfile;
use seismic_prop::iso2d::Iso2State;
use seismic_source::Wavelet;

fn main() {
    let n = 240;
    let extent = extent2(n, n);
    let h = 10.0;
    let v_max = 3200.0;
    let dt = stable_dt(seismic_grid::STENCIL_ORDER, 2, v_max, h, 0.7);
    let model = iso2_layered(extent, &standard_layers(n), Geometry::uniform(h, dt));
    let damp = DampProfile::new(n, extent.halo, 16, v_max, h, 1e-4);
    let wavelet = Wavelet::ricker(20.0);
    let steps = 300;
    let src = (n / 2, 10);

    // Sequential reference.
    let t0 = std::time::Instant::now();
    let mut seq = Iso2State::new(extent);
    for t in 0..steps {
        seq.step(&model, &damp, &damp, 1);
        seq.inject(&model, src.0, src.1, wavelet.sample(t as f32 * dt));
    }
    let t_seq = t0.elapsed();
    println!("isotropic 2D modeling, {n}x{n}, {steps} steps (real execution)\n");
    println!(
        "{:>7} {:>12} {:>10} {:>10}",
        "ranks", "wall time", "speedup", "bitwise"
    );

    for ranks in [1usize, 2, 4, 8] {
        let t0 = std::time::Instant::now();
        let dist = modeling_iso2_mpi(&model, &damp, &damp, src, &wavelet, steps, ranks);
        let wall = t0.elapsed();
        // The decomposed run must agree with the sequential one exactly:
        // ghost exchange is lossless.
        let exact = dist
            .as_slice()
            .iter()
            .zip(seq.u_cur.as_slice())
            .all(|(a, b)| a == b);
        println!(
            "{ranks:>7} {:>10.1?} {:>9.2}x {:>10}",
            wall,
            t_seq.as_secs_f64() / wall.as_secs_f64(),
            if exact { "yes" } else { "NO" }
        );
        assert!(
            exact,
            "decomposed run diverged from the sequential reference"
        );
    }

    // The modeled full-socket baselines of the paper's evaluation platform.
    println!("\nmodeled full-socket MPI baselines (table workload, isotropic 2D):");
    let case = SeismicCase {
        formulation: Formulation::Isotropic,
        dims: Dims::Two,
    };
    let w = Workload {
        nx: 2000,
        ny: 1,
        nz: 2000,
        steps: 5000,
        snap_period: 10,
        n_receivers: 500,
    };
    for cluster in [Cluster::CrayXc30, Cluster::Ibm] {
        let b = modeling_cpu_time(&case, cluster, &w);
        println!(
            "  {:10} ({} ranks): kernels {:6.2} s + comm {:5.2} s = {:6.2} s",
            cluster.label(),
            cluster.baseline_ranks(),
            b.kernel_s,
            b.comm_s,
            b.total_s()
        );
    }
}
