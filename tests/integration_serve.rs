//! Service-level acceptance: deterministic overload at 2× fleet capacity
//! and drain/resume bitwise image identity on a real survey.

use acc_serve::{
    JobCost, JobOutcome, JobSpec, Payload, QueueSnapshot, Rejected, RtmJob, Scenario, Server,
    ServerConfig, Submission, Tenant,
};
use accel_sim::fault::{FaultPlan, FaultRates};
use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::Medium2;
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{acoustic2_layered, Layer};
use seismic_model::{extent2, Geometry};
use seismic_pml::CpmlAxis;
use seismic_source::{Acquisition2, Wavelet};
use std::sync::Arc;

fn clean_fleet(n: usize) -> FaultPlan {
    FaultPlan::generate(0, n, 1e7, FaultRates::none())
}

/// A 2× overload burst with an unambiguous shed class: priority-0 filler
/// floods the queue, while the priority-2 paying tenant offers less than
/// its weighted fair share — its backlog stays below the low watermark,
/// so the shedder's pressure always lands on filler.
fn overload_scenario() -> Scenario {
    let tenants = vec![Tenant::new("filler", 1), Tenant::new("paying", 3)];
    let shot_cost = 2.0;
    let mut jobs = Vec::new();
    // 2 devices × 40 s horizon = 160 gp·s capacity; offer 320 gp·s.
    // Filler: 32 × 4-shot jobs = 256 gp·s at priority 0.
    for i in 0..32 {
        jobs.push(Submission {
            arrival_s: (i as f64 * 1.21) % 40.0,
            spec: JobSpec::synthetic(0, 0, 4, shot_cost),
        });
    }
    // Paying: 8 × 4-shot jobs = 64 gp·s at priority 2, with deadlines.
    for i in 0..8 {
        let arrival = i as f64 * 5.0;
        jobs.push(Submission {
            arrival_s: arrival,
            spec: JobSpec::synthetic(1, 2, 4, shot_cost).with_deadline(arrival + 30.0),
        });
    }
    Scenario { tenants, jobs }
}

fn overload_server() -> Server {
    Server::new(
        ServerConfig {
            n_devices: 2,
            queue_capacity_cost_s: 40.0,
            tenant_quota_cost_s: 1e6,
            ..ServerConfig::default()
        },
        clean_fleet(2),
    )
}

/// At 2× capacity the server degrades, never collapses: brown-out sheds
/// hit only the lowest-priority class, every admitted deadline job either
/// beats its deadline or gets a typed cancellation, and every submission
/// ends in a typed terminal outcome.
#[test]
fn overload_at_2x_degrades_gracefully() {
    let scenario = overload_scenario();
    let report = overload_server().run(&scenario, None).unwrap();

    let mut completed = 0usize;
    let mut shed = 0usize;
    for (i, o) in report.outcomes.iter().enumerate() {
        let spec = &scenario.jobs[i].spec;
        match o {
            JobOutcome::Completed { finish_s, .. } => {
                completed += 1;
                if let Some(d) = spec.deadline_s {
                    assert!(
                        *finish_s <= d,
                        "job {i} completed at {finish_s} past deadline {d}"
                    );
                }
            }
            JobOutcome::Shed { .. } => {
                shed += 1;
                assert_eq!(
                    spec.priority, 0,
                    "job {i} shed at priority {} — only the lowest class may shed",
                    spec.priority
                );
            }
            JobOutcome::Rejected(r) => {
                assert!(
                    !matches!(r, Rejected::Draining),
                    "job {i} rejected as draining in a non-drain run"
                );
            }
            JobOutcome::CancelledDeadline { at_s } => {
                let d = spec.deadline_s.expect("only deadline jobs are cancelled");
                assert!(*at_s <= d + 1e-9, "job {i} cancelled after its deadline");
            }
            JobOutcome::Drained | JobOutcome::Failed { .. } => {
                panic!("job {i}: untyped terminal outcome {o:?}")
            }
        }
    }
    assert!(completed > 0, "overload must not starve everyone");
    assert!(shed > 0, "2x load against a tight queue must shed");
    assert!(
        report.outcomes.len() == scenario.jobs.len(),
        "every submission gets a terminal outcome"
    );
}

/// The whole overload report — outcomes, metrics, per-tenant ledger — is
/// a pure function of (config, scenario, fleet plan).
#[test]
fn overload_report_is_deterministic() {
    let scenario = overload_scenario();
    let a = overload_server().run(&scenario, None).unwrap();
    let b = overload_server().run(&scenario, None).unwrap();
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_eq!(a.served_cost_by_tenant, b.served_cost_by_tenant);
    assert_eq!(a.breaker_log, b.breaker_log);
}

fn medium(n: usize) -> Medium2 {
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
    Medium2::Acoustic {
        model,
        cpml: [c.clone(), c],
    }
}

fn survey_scenario(n: usize, n_shots: usize) -> Scenario {
    let job = RtmJob {
        medium: medium(n),
        shots: (0..n_shots)
            .map(|s| Acquisition2::surface_line(n, n / (n_shots + 1) * (s + 1), 5, 5, 3))
            .collect(),
        wavelet: Wavelet::ricker(20.0),
        config: OptimizationConfig::default(),
        steps: 120,
        snap_period: 4,
        gangs: 2,
    };
    Scenario {
        tenants: vec![Tenant::new("survey", 1)],
        jobs: vec![Submission {
            arrival_s: 0.0,
            spec: JobSpec {
                tenant: 0,
                priority: 1,
                deadline_s: None,
                n_shots,
                cost: JobCost::FixedShotCost(2.0),
                payload: Payload::Rtm2(Arc::new(job)),
            },
        }],
    }
}

/// Graceful drain mid-survey, snapshot through JSON (as a restart would),
/// resume: the stacked image is bitwise identical to an uninterrupted
/// run's.
#[test]
fn drain_resume_stacked_image_is_bitwise_identical() {
    let scenario = survey_scenario(48, 4);
    let server = Server::new(
        ServerConfig {
            n_devices: 1,
            queue_capacity_cost_s: 1e6,
            tenant_quota_cost_s: 1e6,
            ..ServerConfig::default()
        },
        clean_fleet(1),
    );

    // Uninterrupted reference.
    let full = server.run(&scenario, None).unwrap();
    assert!(full.outcomes[0].is_completed(), "{:?}", full.outcomes[0]);
    let reference = full.images[0]
        .as_ref()
        .expect("real payload stacks an image");

    // Drain after ~half the shots (shot cost 2.0 × 4 shots on 1 device).
    let (partial, snap) = server.run_with_drain(&scenario, 5.0, None).unwrap();
    assert!(matches!(partial.outcomes[0], JobOutcome::Drained));
    let snap = snap.expect("drain mid-survey leaves work");
    assert!(
        !snap.jobs[0].completed.is_empty() && !snap.jobs[0].remaining.is_empty(),
        "drain must catch the survey part-done: {snap:?}"
    );

    // Restart-shaped round trip.
    let text = serde_json::to_string(&snap.to_json());
    let snap = QueueSnapshot::from_json(&serde_json::from_str(&text).unwrap()).unwrap();

    let resumed = server.resume(&snap, &scenario, None).unwrap();
    assert!(
        resumed.outcomes[0].is_completed(),
        "{:?}",
        resumed.outcomes[0]
    );
    let image = resumed.images[0]
        .as_ref()
        .expect("resumed job stacks an image");
    assert_eq!(
        image.as_slice(),
        reference.as_slice(),
        "stacked image must be bitwise identical across drain/resume"
    );
}
