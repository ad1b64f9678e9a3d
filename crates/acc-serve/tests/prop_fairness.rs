//! Property tests for the weighted fair-queueing invariant.
//!
//! The DRR guarantee: over any interval in which a set of tenants stays
//! backlogged, each tenant's completed work deviates from its weight
//! share of the total completed work by at most one maximum job cost.
//! The first property checks the scheduler component directly (per-shot
//! crediting, the tight DRR bound); the second checks the whole server
//! (per-job crediting through a drained run, the one-job-cost bound the
//! issue states).

use acc_serve::{DrrQueue, JobSpec, Scenario, Server, ServerConfig, Submission, Tenant};
use accel_sim::fault::{FaultPlan, FaultRates};
use proptest::prelude::*;

fn clean_fleet(n: usize) -> FaultPlan {
    FaultPlan::generate(0, n, 1e7, FaultRates::none())
}

/// Deterministic per-index variation (the proptest shim draws scalars;
/// shapes derive from them).
fn mix(seed: u32, i: usize) -> u64 {
    let mut z = (seed as u64) ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 31)
}

proptest! {
    /// Component-level: dequeue shots from a DRR queue while every tenant
    /// stays backlogged; per-tenant served cost tracks the weight share
    /// within one quantum plus one shot.
    #[test]
    fn drr_served_cost_tracks_weight_share(
        w0 in 1u32..5,
        w1 in 1u32..5,
        w2 in 1u32..5,
        seed in any::<u32>(),
    ) {
        let weights = [w0, w1, w2];
        let shot_cost = 0.5f64;
        let mut q = DrrQueue::new(&weights);
        // Single-shot jobs: crediting happens exactly once per dequeue.
        // 200 jobs per tenant keeps everyone backlogged for the whole
        // measured interval.
        let jobs_per_tenant = 200usize;
        for j in 0..jobs_per_tenant {
            for t in 0..weights.len() {
                q.enqueue(t, t * 1000 + j, shot_cost);
            }
        }
        let mut served = [0.0f64; 3];
        // Measure strictly inside the backlogged interval.
        let dequeues = 150 + (mix(seed, 0) % 100) as usize;
        for _ in 0..dequeues {
            let (t, _job) = q.next_shot(|_| shot_cost, |_| false).expect("backlogged");
            served[t] += shot_cost;
        }
        let total: f64 = served.iter().sum();
        let wsum = f64::from(w0 + w1 + w2);
        // Each tenant's outstanding deficit is below one quantum plus one
        // shot; measuring against the share of the *realized* total mixes
        // every tenant's deficit into the entitlement, so the deviation
        // bound is the sum of those terms.
        let bound: f64 = weights
            .iter()
            .map(|&w| f64::from(w) * shot_cost + shot_cost)
            .sum();
        for t in 0..3 {
            let entitled = total * f64::from(weights[t]) / wsum;
            prop_assert!(
                (served[t] - entitled).abs() <= bound,
                "tenant {t}: served {} entitled {entitled} bound {bound}",
                served[t]
            );
        }
    }

    /// Server-level: three backlogged tenants share one device; a drain
    /// mid-backlog freezes the ledger. Each tenant's completed cost is
    /// within one maximum job cost of its weight share.
    #[test]
    fn served_share_matches_weights_under_backlog(
        w0 in 1u32..4,
        w1 in 1u32..4,
        w2 in 1u32..4,
        seed in any::<u32>(),
    ) {
        let weights = [w0, w1, w2];
        let shot_cost = 0.5f64;
        let tenants: Vec<Tenant> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Tenant::new(format!("t{i}"), w))
            .collect();
        // Every tenant submits well over the drain horizon's worth of
        // work at t = 0, so all three stay backlogged until the drain.
        let mut jobs = Vec::new();
        let mut max_job_cost = 0.0f64;
        for t in 0..weights.len() {
            for j in 0..30 {
                let n_shots = 6 + (mix(seed, t * 100 + j) % 5) as usize; // 6..=10
                max_job_cost = max_job_cost.max(n_shots as f64 * shot_cost);
                jobs.push(Submission {
                    arrival_s: 0.0,
                    spec: JobSpec::synthetic(t, 1, n_shots, shot_cost),
                });
            }
        }
        let scenario = Scenario { tenants, jobs };
        let server = Server::new(
            ServerConfig {
                n_devices: 1,
                queue_capacity_cost_s: 1e6,
                tenant_quota_cost_s: 1e6,
                ..ServerConfig::default()
            },
            clean_fleet(1),
        );
        let drain_at = 40.0;
        let (report, snap) = server.run_with_drain(&scenario, drain_at, None).unwrap();
        prop_assert!(snap.is_some(), "all tenants must still be backlogged at drain");
        let served = &report.served_cost_by_tenant;
        let total: f64 = served.iter().sum();
        prop_assert!(total > 0.0);
        let wsum = f64::from(w0 + w1 + w2);
        for t in 0..3 {
            let entitled = total * f64::from(weights[t]) / wsum;
            prop_assert!(
                (served[t] - entitled).abs() <= max_job_cost,
                "tenant {t}: served {} entitled {entitled} max_job_cost {max_job_cost} \
                 (weights {weights:?}, total {total})",
                served[t]
            );
        }
    }
}
