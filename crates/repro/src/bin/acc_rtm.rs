//! `acc-rtm` — the command-line driver for the library.
//!
//! ```text
//! acc_rtm model    [--formulation iso|acoustic|elastic|vti] [--n 160]
//!                  [--steps 600] [--freq 18] [--gangs N] [--snap 50]
//!                  [--out PREFIX]
//! acc_rtm rtm      [--model layered|wedge] [--n 128] [--steps 1100]
//!                  [--freq 18] [--shots 1] [--gangs N] [--out PREFIX]
//! acc_rtm simulate [--case iso2d|ac2d|el2d|iso3d|ac3d|el3d]
//!                  [--cluster cray|ibm] [--compiler cray|pgi143|pgi146]
//!                  [--rtm] [--trace FILE.json]
//! acc_rtm info
//! ```
//!
//! `model` and `rtm` execute real physics on host gangs; `simulate` prices
//! a production-scale run on the simulated cards; `info` prints the
//! platform tables.

use repro::cases::table_workload;
use repro::render::{ascii_field, write_pgm};
use repro::table::{CRAY_COMPILER, PGI_ON_CRAY, PGI_ON_IBM};
use rtm_core::case::{Cluster, OptimizationConfig, SeismicCase};
use rtm_core::modeling::{run_modeling, Medium2};
use rtm_core::rtm::{depth_profile, laplacian_filter, run_rtm};
use seismic_grid::cfl::stable_dt;
use seismic_grid::Field2;
use seismic_model::builder::{
    acoustic2_layered, acoustic2_wedge, elastic2_layered, iso2_layered, standard_layers,
};
use seismic_model::footprint::{Dims, Formulation};
use seismic_model::{extent2, Geometry, VtiModel2};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_source::{Acquisition2, Wavelet};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage: acc_rtm <model|rtm|simulate|info> [--key value ...]");
    eprintln!("run with a subcommand and see the module docs for its flags");
    exit(2)
}

/// Minimal `--key value` parser (no external dependencies).
fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("unexpected argument: {a}");
            usage();
        };
        match it.next() {
            Some(v) => {
                out.insert(key.to_string(), v.clone());
            }
            None => {
                // Bare flags act as booleans.
                out.insert(key.to_string(), "true".to_string());
            }
        }
    }
    out
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --{key}: {v}");
            exit(2)
        }),
        None => default,
    }
}

/// The gang count: `--gangs` when given, else `ACC_GANGS` or one gang per
/// core. A malformed or out-of-range value from either source is a usage
/// error (exit 2), and `ACC_GANGS` is read only when the flag is absent.
fn gangs(flags: &HashMap<String, String>) -> usize {
    use openacc_sim::exec::{parse_gangs, try_default_gangs, MAX_GANGS};
    match flags.get("gangs") {
        Some(v) => parse_gangs(v).unwrap_or_else(|_| {
            eprintln!("invalid value for --gangs: {v} (expected 1..={MAX_GANGS})");
            exit(2)
        }),
        None => try_default_gangs().unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        }),
    }
}

fn build_medium(formulation: &str, n: usize, h: f32) -> (Medium2, f32) {
    let e = extent2(n, n);
    let vmax = 3200.0f32;
    let layers = standard_layers(n);
    match formulation {
        "iso" => {
            let dt = stable_dt(8, 2, vmax, h, 0.7);
            let damp = DampProfile::new(n, e.halo, 16, vmax, h, 1e-4);
            (
                Medium2::Iso {
                    model: iso2_layered(e, &layers, Geometry::uniform(h, dt)),
                    damp_x: damp.clone(),
                    damp_z: damp,
                },
                dt,
            )
        }
        "acoustic" => {
            let dt = stable_dt(8, 2, vmax, h, 0.55);
            let c = CpmlAxis::new(n, e.halo, 16, dt, vmax, h, 1e-4);
            (
                Medium2::Acoustic {
                    model: acoustic2_layered(e, &layers, Geometry::uniform(h, dt)),
                    cpml: [c.clone(), c],
                },
                dt,
            )
        }
        "elastic" => {
            let dt = stable_dt(8, 2, vmax, h, 0.5);
            let c = CpmlAxis::new(n, e.halo, 16, dt, vmax, h, 1e-4);
            (
                Medium2::Elastic {
                    model: elastic2_layered(e, &layers, Geometry::uniform(h, dt)),
                    cpml: [c.clone(), c],
                },
                dt,
            )
        }
        "vti" => {
            let vp = 2000.0f32;
            let eps = 0.2f32;
            let ani_vmax = vp * (1.0 + 2.0 * eps).sqrt();
            let dt = stable_dt(8, 2, ani_vmax, h, 0.6);
            let damp = DampProfile::new(n, e.halo, 16, ani_vmax, h, 1e-4);
            (
                Medium2::Vti {
                    model: VtiModel2::constant(e, vp, eps, 0.08, Geometry::uniform(h, dt)),
                    damp_x: damp.clone(),
                    damp_z: damp,
                },
                dt,
            )
        }
        other => {
            eprintln!("unknown formulation: {other} (iso|acoustic|elastic|vti)");
            exit(2)
        }
    }
}

fn cmd_model(flags: HashMap<String, String>) {
    let n: usize = get(&flags, "n", 160);
    let steps: usize = get(&flags, "steps", 600);
    let freq: f32 = get(&flags, "freq", 18.0);
    let gangs = gangs(&flags);
    let snap: usize = get(&flags, "snap", (steps / 6).max(1));
    if steps == 0 || snap == 0 {
        eprintln!("--steps and --snap must be positive");
        exit(2)
    }
    let formulation = flags
        .get("formulation")
        .map(String::as_str)
        .unwrap_or("acoustic");
    let out: Option<String> = flags.get("out").cloned();

    let (medium, dt) = build_medium(formulation, n, 10.0);
    let acq = Acquisition2::surface_line(n, n / 2, 6, 4, 4);
    println!("modeling: {formulation}, {n}x{n}, {steps} steps, dt = {dt:.2e} s, {gangs} gangs");
    let r = run_modeling(
        &medium,
        &acq,
        &Wavelet::ricker(freq),
        &OptimizationConfig::default(),
        steps,
        snap,
        gangs,
    );
    let last = &r.snapshots[r.snapshots.len() / 2];
    print!("{}", ascii_field(last, 76, 6.0));
    println!(
        "\nseismogram: {} receivers x {} samples, rms {:.3e}",
        r.seismogram.n_receivers(),
        r.seismogram.nt(),
        r.seismogram.rms()
    );
    if let Some(prefix) = out {
        std::fs::create_dir_all("out").ok();
        for (i, s) in r.snapshots.iter().enumerate() {
            let p = PathBuf::from(format!("out/{prefix}_snap{i}.pgm"));
            write_pgm(s, &p).expect("write PGM");
        }
        println!(
            "wrote {} snapshots under out/{prefix}_snap*.pgm",
            r.snapshots.len()
        );
    }
}

fn cmd_rtm(flags: HashMap<String, String>) {
    let n: usize = get(&flags, "n", 128);
    let steps: usize = get(&flags, "steps", 1100);
    let freq: f32 = get(&flags, "freq", 18.0);
    let gangs = gangs(&flags);
    let shots: usize = get(&flags, "shots", 1);
    let model_kind = flags.get("model").map(String::as_str).unwrap_or("layered");
    let out: Option<String> = flags.get("out").cloned();

    let e = extent2(n, n);
    let h = 10.0;
    let dt = stable_dt(8, 2, 3000.0, h, 0.6);
    let model = match model_kind {
        "layered" => {
            let layers = [
                seismic_model::builder::Layer {
                    z_top: 0,
                    vp: 1500.0,
                    vs: 0.0,
                    rho: 1000.0,
                },
                seismic_model::builder::Layer {
                    z_top: n / 2,
                    vp: 3000.0,
                    vs: 0.0,
                    rho: 2400.0,
                },
            ];
            acoustic2_layered(e, &layers, Geometry::uniform(h, dt))
        }
        "wedge" => acoustic2_wedge(
            e,
            1500.0,
            3000.0,
            7 * n / 16,
            9 * n / 16,
            Geometry::uniform(h, dt),
        ),
        other => {
            eprintln!("unknown model: {other} (layered|wedge)");
            exit(2)
        }
    };
    let c = CpmlAxis::new(n, e.halo, 14, dt, 3000.0, h, 1e-4);
    let medium = Medium2::Acoustic {
        model,
        cpml: [c.clone(), c],
    };
    println!("RTM: {model_kind} model, {n}x{n}, {shots} shot(s), {steps} steps each");

    let mut stack = Field2::zeros(e);
    for s in 0..shots {
        let src_x = (s + 1) * n / (shots + 1);
        let acq = Acquisition2::surface_line(n, src_x, 6, 6, 2);
        let r = run_rtm(
            &medium,
            &acq,
            &Wavelet::ricker(freq),
            &OptimizationConfig::default(),
            steps,
            3,
            gangs,
        );
        for (d, v) in stack.as_mut_slice().iter_mut().zip(r.image.as_slice()) {
            *d += *v;
        }
        println!("  shot {} at x = {src_x} migrated", s + 1);
    }
    let img = laplacian_filter(&stack, h, h);
    print!("{}", ascii_field(&img, 76, 3.0));
    let prof = depth_profile(&img);
    let (z_peak, _) = prof
        .iter()
        .enumerate()
        .skip(20)
        .take(n - 40)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    println!(
        "\nimage peak depth: z = {z_peak} (true interface around z = {})",
        n / 2
    );
    if let Some(prefix) = out {
        std::fs::create_dir_all("out").ok();
        let p = PathBuf::from(format!("out/{prefix}_image.pgm"));
        write_pgm(&img, &p).expect("write PGM");
        println!("wrote out/{prefix}_image.pgm");
    }
}

fn cmd_simulate(flags: HashMap<String, String>) {
    let case_key = flags.get("case").map(String::as_str).unwrap_or("ac3d");
    let (formulation, dims) = match case_key {
        "iso2d" => (Formulation::Isotropic, Dims::Two),
        "ac2d" => (Formulation::Acoustic, Dims::Two),
        "el2d" => (Formulation::Elastic, Dims::Two),
        "iso3d" => (Formulation::Isotropic, Dims::Three),
        "ac3d" => (Formulation::Acoustic, Dims::Three),
        "el3d" => (Formulation::Elastic, Dims::Three),
        other => {
            eprintln!("unknown case: {other}");
            exit(2)
        }
    };
    let case = SeismicCase { formulation, dims };
    let cluster = match flags.get("cluster").map(String::as_str).unwrap_or("cray") {
        "cray" => Cluster::CrayXc30,
        "ibm" => Cluster::Ibm,
        other => {
            eprintln!("unknown cluster: {other} (cray|ibm)");
            exit(2)
        }
    };
    let compiler = match flags
        .get("compiler")
        .map(String::as_str)
        .unwrap_or("pgi146")
    {
        "cray" => CRAY_COMPILER,
        "pgi143" => PGI_ON_IBM,
        "pgi146" => PGI_ON_CRAY,
        other => {
            eprintln!("unknown compiler: {other} (cray|pgi143|pgi146)");
            exit(2)
        }
    };
    let rtm = flags.contains_key("rtm");
    let w = table_workload(&case);
    let cfg = OptimizationConfig::default();
    println!(
        "simulating {} {} on {} with {} ({}x{}x{}, {} steps)",
        if rtm { "RTM" } else { "modeling" },
        case.label(),
        cluster.label(),
        compiler.label(),
        w.nx,
        w.ny,
        w.nz,
        w.steps
    );
    let run = if rtm {
        rtm_core::gpu_time::rtm_time(&case, &cfg, compiler, cluster, &w)
    } else {
        rtm_core::gpu_time::modeling_time(&case, &cfg, compiler, cluster, &w)
    };
    match run {
        Ok(r) => {
            println!(
                "total {:.1} s  (kernels {:.1} s, transfers {:.1} s)",
                r.breakdown.total_s, r.breakdown.kernel_s, r.breakdown.transfer_s
            );
            println!(
                "\nprofiler:\n{}",
                r.runtime.profiler().render(cluster.device().name)
            );
            if let Some(path) = flags.get("trace") {
                let json = r
                    .runtime
                    .profiler()
                    .export_chrome_trace(cluster.device().name);
                std::fs::write(path, json).expect("write trace file");
                println!("chrome trace written to {path} (open in chrome://tracing)");
            }
        }
        Err(e) => println!("run unavailable: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let flags = parse_flags(rest);
    match cmd.as_str() {
        "model" => cmd_model(flags),
        "rtm" => cmd_rtm(flags),
        "simulate" => cmd_simulate(flags),
        "info" => {
            for cluster in [Cluster::CrayXc30, Cluster::Ibm] {
                let d = cluster.device();
                println!(
                    "[{}] {} — {:.0} GFLOPS SP, {:.0} GB/s, {} GB, {} baseline ranks",
                    cluster.label(),
                    d.name,
                    d.peak_gflops_sp,
                    d.mem_bandwidth_gbs,
                    d.global_mem_bytes >> 30,
                    cluster.baseline_ranks()
                );
            }
        }
        _ => usage(),
    }
}
