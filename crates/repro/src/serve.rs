//! acc-serve experiments: the overload sweep and the CI smoke scenario.
//!
//! The paper's production framing — many surveys from many groups
//! contending for one GPU fleet — is exercised here as a service-level
//! study: offered load is swept past fleet capacity and the server's
//! degradation is tabulated (goodput, tail latency, shed rate, typed
//! rejections, deadline cancellations, breaker activity). Everything is
//! simulated-time deterministic: the same multiplier and seed always
//! produce the same row.

use acc_obs::ObsSession;
use acc_serve::{
    JobOutcome, JobSpec, Rejected, Scenario, ServeReport, Server, ServerConfig, Submission, Tenant,
};
use accel_sim::fault::{FaultPlan, FaultRates};
use rtm_core::error::RtmError;
use rtm_core::RetryPolicy;

/// Horizon over which the submission stream arrives, simulated seconds.
pub const HORIZON_S: f64 = 60.0;

/// Per-shot cost of every synthetic job in the study, gp·s.
pub const SHOT_COST_S: f64 = 2.0;

/// Deterministic per-index variation (splitmix64 finalizer).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The server configuration every sweep point and the smoke run use.
pub fn study_config(n_devices: usize) -> ServerConfig {
    ServerConfig {
        n_devices,
        // Tight enough that >1× offered load exercises brown-out shedding
        // and QueueFull rejections.
        queue_capacity_cost_s: 80.0,
        tenant_quota_cost_s: 60.0,
        // Few retries: transient allocation faults exhaust quickly and
        // feed the per-device circuit breakers.
        retry: RetryPolicy {
            max_retries: 1,
            base_delay_s: 0.25,
            max_delay_s: 4.0,
        },
        // Trip on two consecutive exhausted shots and recover quickly —
        // the study wants visible open/half-open/closed traffic, not
        // hour-scale production cooldowns.
        breaker: acc_serve::BreakerConfig {
            failure_threshold: 2,
            cooldown_s: 6.0,
            probe_shots: 1,
        },
        ..ServerConfig::default()
    }
}

/// The study's fault plan: transient allocation faults at a rate that
/// trips breakers now and then, plus whatever device losses the seed draws.
pub fn study_fleet(seed: u64, n_devices: usize) -> FaultPlan {
    let rates = FaultRates {
        transient_oom_prob: 0.35,
        ..FaultRates::none()
    };
    FaultPlan::generate(seed, n_devices, 4.0 * HORIZON_S, rates)
}

/// A mixed-tenant submission stream offering `multiplier ×` the fleet's
/// capacity over [`HORIZON_S`]. Three tenants with weights 3:2:1, four
/// priority classes, a third of the jobs carrying deadlines.
pub fn overload_scenario(multiplier: f64, seed: u64, n_devices: usize) -> Scenario {
    let tenants = vec![
        Tenant::new("alpha", 3),
        Tenant::new("beta", 2),
        Tenant::new("gamma", 1),
    ];
    let capacity = n_devices as f64 * HORIZON_S;
    let target = multiplier * capacity;
    let mut jobs = Vec::new();
    let mut offered = 0.0;
    let mut i = 0u64;
    while offered < target {
        let h = mix(seed, i);
        let n_shots = 3 + (h % 6) as usize; // 3..=8 shots
        let cost = n_shots as f64 * SHOT_COST_S;
        let arrival = (h >> 16) as f64 % 1000.0 / 1000.0 * HORIZON_S;
        let mut spec =
            JobSpec::synthetic((i % 3) as usize, ((h >> 8) % 4) as u8, n_shots, SHOT_COST_S);
        if i.is_multiple_of(3) {
            // Deadline with moderate slack: feasible when admitted
            // promptly, cancelled under heavy contention.
            spec = spec.with_deadline(arrival + 1.5 * cost + 6.0);
        }
        jobs.push(Submission {
            arrival_s: arrival,
            spec,
        });
        offered += cost;
        i += 1;
    }
    Scenario { tenants, jobs }
}

/// One offered-load point of the overload sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadRow {
    /// Offered load over fleet capacity.
    pub multiplier: f64,
    /// Estimated cost of all submissions, gp·s.
    pub offered_cost_s: f64,
    /// Estimated cost of completed jobs, gp·s.
    pub goodput_cost_s: f64,
    /// Mean completion latency, s.
    pub mean_latency_s: f64,
    /// 99th-percentile completion latency, s.
    pub p99_latency_s: f64,
    /// Shed jobs over admitted jobs.
    pub shed_rate: f64,
    /// Completed jobs.
    pub completed: usize,
    /// Brown-out shed jobs.
    pub shed: usize,
    /// Typed admission rejections.
    pub rejected: usize,
    /// Deadline cancellations.
    pub cancelled: usize,
    /// Circuit-breaker transitions over the serve.
    pub breaker_transitions: usize,
}

/// Sweep offered load across `multipliers` of fleet capacity.
/// Deterministic per (multiplier, seed, n_devices).
pub fn overload_sweep(
    multipliers: &[f64],
    seed: u64,
    n_devices: usize,
) -> Result<Vec<OverloadRow>, RtmError> {
    multipliers
        .iter()
        .map(|&m| {
            let scenario = overload_scenario(m, seed, n_devices);
            let server = Server::new(study_config(n_devices), study_fleet(seed, n_devices));
            let r = server.run(&scenario, None)?;
            Ok(OverloadRow {
                multiplier: m,
                offered_cost_s: r.offered_cost_s,
                goodput_cost_s: r.goodput_cost_s,
                mean_latency_s: r.mean_latency_s,
                p99_latency_s: r.p99_latency_s,
                shed_rate: r.shed_rate,
                completed: r.jobs_completed,
                shed: r.jobs_shed,
                rejected: r.jobs_rejected,
                cancelled: r.jobs_cancelled,
                breaker_transitions: r.breaker_log.len(),
            })
        })
        .collect()
}

/// ASCII table of the sweep.
pub fn render_overload_table(rows: &[OverloadRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "  {:>5}  {:>9}  {:>9}  {:>8}  {:>8}  {:>6}  {:>5}  {:>5}  {:>5}  {:>5}  {:>8}\n",
        "load",
        "offered",
        "goodput",
        "mean lat",
        "p99 lat",
        "shed%",
        "done",
        "shed",
        "rej",
        "cancel",
        "breaker"
    ));
    for r in rows {
        s.push_str(&format!(
            "  {:>4.1}x  {:>8.0}s  {:>8.0}s  {:>7.1}s  {:>7.1}s  {:>5.1}%  {:>5}  {:>5}  {:>5}  {:>6}  {:>8}\n",
            r.multiplier,
            r.offered_cost_s,
            r.goodput_cost_s,
            r.mean_latency_s,
            r.p99_latency_s,
            100.0 * r.shed_rate,
            r.completed,
            r.shed,
            r.rejected,
            r.cancelled,
            r.breaker_transitions,
        ));
    }
    s
}

/// JSON document of the sweep (one object per row).
pub fn overload_rows_json(rows: &[OverloadRow]) -> serde_json::Value {
    let out: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            let mut o = serde_json::Map::new();
            o.insert("multiplier", r.multiplier);
            o.insert("offered_cost_s", r.offered_cost_s);
            o.insert("goodput_cost_s", r.goodput_cost_s);
            o.insert("mean_latency_s", r.mean_latency_s);
            o.insert("p99_latency_s", r.p99_latency_s);
            o.insert("shed_rate", r.shed_rate);
            o.insert("completed", r.completed);
            o.insert("shed", r.shed);
            o.insert("rejected", r.rejected);
            o.insert("cancelled", r.cancelled);
            o.insert("breaker_transitions", r.breaker_transitions);
            serde_json::Value::Object(o)
        })
        .collect();
    serde_json::Value::from(out)
}

/// Seed of the smoke scenario. Chosen (and pinned) so the fault plan
/// loses one device early while at least one device survives the run —
/// the smoke test wants both fault handling and completion.
pub const SMOKE_SEED: u64 = 11;

/// The CI smoke scenario: a 2× capacity mixed-tenant burst on a fleet
/// with transient allocation faults and an early device loss.
pub fn smoke_scenario() -> (ServerConfig, FaultPlan, Scenario) {
    let n_devices = 4;
    let cfg = study_config(n_devices);
    let rates = FaultRates {
        transient_oom_prob: 0.35,
        device_lost_mtti_s: 200.0,
        ..FaultRates::none()
    };
    let faults = FaultPlan::generate(SMOKE_SEED, n_devices, 2.0 * HORIZON_S, rates);
    let scenario = overload_scenario(2.0, SMOKE_SEED, n_devices);
    (cfg, faults, scenario)
}

/// Run the smoke scenario (optionally observed: queue/shed gauges and
/// service spans land in `obs`).
pub fn smoke_run(obs: Option<&ObsSession>) -> Result<(Scenario, ServeReport), RtmError> {
    let (cfg, faults, scenario) = smoke_scenario();
    let report = Server::new(cfg, faults).run(&scenario, obs)?;
    Ok((scenario, report))
}

/// Service-level violations of one smoke run; an empty list is the CI
/// pass condition.
pub fn smoke_violations(scenario: &Scenario, report: &ServeReport) -> Vec<String> {
    let mut v = Vec::new();
    if report.jobs_completed == 0 {
        v.push("no job completed".to_string());
    }
    // Shed-order invariant: the shedder always drops the lowest-priority
    // queued job. A shed job never started, so if job j (strictly lower
    // priority) is shed strictly *later* than job i, then j was sitting
    // in the queue when i was dropped — i's shed was out of order.
    let sheds: Vec<(usize, u8, f64)> = report
        .outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match o {
            JobOutcome::Shed { at_s } => Some((i, scenario.jobs[i].spec.priority, *at_s)),
            _ => None,
        })
        .collect();
    for &(i, pi, ti) in &sheds {
        for &(j, pj, tj) in &sheds {
            if pj < pi && tj > ti && scenario.jobs[j].arrival_s <= ti {
                v.push(format!(
                    "job {i} (priority {pi}) shed at {ti:.2}s while lower-priority job {j} \
                     (priority {pj}) stayed queued until {tj:.2}s"
                ));
            }
        }
    }
    for (i, o) in report.outcomes.iter().enumerate() {
        let spec = &scenario.jobs[i].spec;
        match o {
            JobOutcome::Completed { finish_s, .. } => {
                if let Some(d) = spec.deadline_s {
                    if *finish_s > d {
                        v.push(format!(
                            "job {i} completed at {finish_s:.2}s past its deadline {d:.2}s"
                        ));
                    }
                }
            }
            JobOutcome::Shed { .. } => {}
            JobOutcome::Rejected(Rejected::Draining) => {
                v.push(format!("job {i} rejected as draining in a non-drain run"));
            }
            JobOutcome::Failed { error } => {
                v.push(format!("job {i} failed: {error}"));
            }
            JobOutcome::Drained => {
                v.push(format!("job {i} reported drained in a non-drain run"));
            }
            JobOutcome::Rejected(_) | JobOutcome::CancelledDeadline { .. } => {}
        }
    }
    v
}

/// Machine-readable smoke report for the CI artifact.
pub fn smoke_report_json(
    scenario: &Scenario,
    report: &ServeReport,
    violations: &[String],
) -> serde_json::Value {
    let mut doc = serde_json::Map::new();
    doc.insert("tool", "accserve");
    doc.insert("scenario_jobs", scenario.jobs.len());
    doc.insert("makespan_s", report.makespan_s);
    doc.insert("offered_cost_s", report.offered_cost_s);
    doc.insert("goodput_cost_s", report.goodput_cost_s);
    doc.insert("mean_latency_s", report.mean_latency_s);
    doc.insert("p99_latency_s", report.p99_latency_s);
    doc.insert("shed_rate", report.shed_rate);
    doc.insert("jobs_completed", report.jobs_completed);
    doc.insert("jobs_shed", report.jobs_shed);
    doc.insert("jobs_rejected", report.jobs_rejected);
    doc.insert("jobs_cancelled", report.jobs_cancelled);
    doc.insert("breaker_transitions", report.breaker_log.len());
    doc.insert(
        "served_cost_by_tenant",
        report
            .served_cost_by_tenant
            .iter()
            .map(|&c| serde_json::Value::from(c))
            .collect::<Vec<serde_json::Value>>(),
    );
    doc.insert(
        "violations",
        violations
            .iter()
            .map(|s| serde_json::Value::from(s.as_str()))
            .collect::<Vec<serde_json::Value>>(),
    );
    doc.insert("pass", violations.is_empty());
    serde_json::Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_degrades_monotonically_in_rejections() {
        let rows = overload_sweep(&[0.5, 1.0, 2.0], 7, 4).unwrap();
        assert_eq!(rows.len(), 3);
        // Offered load grows with the multiplier...
        assert!(rows[0].offered_cost_s < rows[2].offered_cost_s);
        // ...but refused-or-shed work only appears past saturation.
        assert_eq!(rows[0].rejected + rows[0].shed, 0, "{rows:?}");
        assert!(rows[2].rejected + rows[2].shed > 0, "{rows:?}");
        // Everyone admitted still terminates somehow.
        for r in &rows {
            assert!(r.completed > 0);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = overload_sweep(&[1.5], 3, 4).unwrap();
        let b = overload_sweep(&[1.5], 3, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn smoke_run_passes_its_own_gate() {
        let (scenario, report) = smoke_run(None).unwrap();
        let violations = smoke_violations(&scenario, &report);
        assert!(violations.is_empty(), "{violations:?}");
        let doc = smoke_report_json(&scenario, &report, &violations);
        let text = serde_json::to_string(&doc);
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back.get("pass").and_then(|p| p.as_bool()), Some(true));
    }
}
