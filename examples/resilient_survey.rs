//! A survey that survives losing GPUs mid-run.
//!
//! Generates a seeded fault plan harsh enough to kill some (not all) of
//! the ranks, runs the resilient executor, and checks the stacked image
//! against the fault-free run — bit for bit.

use accel_sim::fault::{FaultPlan, FaultRates};
use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::Medium2;
use rtm_core::resilient::{rtm_survey_resilient, RetryPolicy};
use rtm_core::shot_parallel::{rtm_shot_parallel, Shot};
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{acoustic2_layered, Layer};
use seismic_model::{extent2, Geometry};
use seismic_pml::CpmlAxis;
use seismic_source::{Acquisition2, Wavelet};

fn main() {
    let n = 64;
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
            z_top: n / 2,
            vp: 3000.0,
            vs: 0.0,
            rho: 2400.0,
        },
    ];
    let model = acoustic2_layered(e, &layers, Geometry::uniform(h, dt));
    let c = CpmlAxis::new(n, e.halo, 10, dt, 3000.0, h, 1e-4);
    let medium = Medium2::Acoustic {
        model,
        cpml: [c.clone(), c],
    };
    let wavelet = Wavelet::ricker(20.0);
    let shots: Vec<Shot> = (1..=6)
        .map(|i| Acquisition2::surface_line(n, i * n / 7, 5, 5, 3))
        .collect();
    let cfg = OptimizationConfig::default();
    let (steps, snap, gangs, ranks) = (150, 4, 2, 3);

    let reference =
        rtm_shot_parallel(&medium, &shots, &wavelet, &cfg, steps, snap, gangs, ranks).unwrap();

    // Find a seed whose plan kills a rank early but spares at least one.
    let rates = FaultRates {
        device_lost_mtti_s: 30.0,
        transient_oom_prob: 0.05,
        straggler_mtti_s: 40.0,
        straggler_duration_s: 15.0,
        straggler_slowdown: 2.0,
    };
    let plan = (0..10_000)
        .map(|seed| FaultPlan::generate(seed, ranks, 200.0, rates))
        .find(|p| {
            let s = p.surviving_devices().len();
            s >= 1 && s < ranks && (0..ranks).any(|d| p.device_lost_at(d).is_some_and(|t| t < 60.0))
        })
        .expect("a partial-loss seed");

    println!(
        "Fault plan seed {}: {} of {ranks} ranks survive, {} events scheduled",
        plan.seed(),
        plan.surviving_devices().len(),
        plan.events().len()
    );
    for ev in plan.events() {
        println!("  t={:7.1}s device {} {:?}", ev.t_s, ev.device, ev.kind);
    }

    let (image, stats) = rtm_survey_resilient(
        &medium,
        &shots,
        &wavelet,
        &cfg,
        steps,
        snap,
        gangs,
        ranks,
        20.0,
        &plan,
        &RetryPolicy::default(),
    )
    .expect("at least one rank survives");

    println!("\nSurvey completed on the survivors:");
    println!("  ranks lost        : {:?}", stats.dead_ranks);
    println!("  shots rescheduled : {}", stats.rescheduled_shots);
    println!("  retries           : {}", stats.retries);
    println!(
        "  useful {:.0}s, wasted {:.0}s, backoff {:.1}s (overhead {:.1}%)",
        stats.useful_s,
        stats.wasted_s,
        stats.backoff_s,
        100.0 * stats.overhead_frac()
    );
    let exact = image == reference;
    println!("  image bitwise-identical to fault-free run: {exact}");
    assert!(exact, "resilient stack diverged from the fault-free run");
}
