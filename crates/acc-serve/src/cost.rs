//! Admission-time job pricing from the paper's timing model.
//!
//! Admission control needs each shot's cost in gp·s of device time
//! *before* the job runs. Running the full timing model per submission
//! would make admission as expensive as the job itself, so the pricer
//! runs a **probe**: the same case and grid with the step count capped at
//! [`PROBE_STEPS`], then extrapolates linearly in the step count (both
//! drivers are step-linear once the fixed setup cost is amortized — the
//! probe includes that setup, making the estimate conservative).
//! Every price is for the paper's best configuration,
//! [`OptimizationConfig::default`]. Each server keeps a price cache
//! keyed by (case, workload, kind, cluster, compiler), so a burst of
//! identical submissions prices exactly one probe.

use crate::job::JobKind;
use openacc_sim::compiler::Compiler;
use parking_lot::Mutex;
use rtm_core::case::{Cluster, SeismicCase, Workload};
use rtm_core::gpu_time::price;
use rtm_core::OptimizationConfig;
use std::collections::BTreeMap;

/// Step cap of the pricing probe.
pub const PROBE_STEPS: usize = 4;

/// Price one shot of the given case/workload in estimated device seconds.
/// Deterministic; errors (as a human-readable string suitable for
/// [`crate::job::Rejected::WorkloadInfeasible`]) when the timing model
/// rejects the workload.
pub fn price_shot_cost(
    case: &SeismicCase,
    workload: &Workload,
    kind: JobKind,
    cluster: Cluster,
    compiler: Compiler,
) -> Result<f64, String> {
    let probe = Workload {
        steps: workload.steps.clamp(1, PROBE_STEPS),
        ..*workload
    };
    let config = OptimizationConfig::default();
    let run =
        price(kind, case, &config, compiler, cluster, &probe, None).map_err(|e| e.to_string())?;
    let per_step = run.breakdown.total_s / probe.steps as f64;
    let price = per_step * workload.steps.max(1) as f64;
    if !price.is_finite() || price <= 0.0 {
        return Err(format!("non-positive shot price {price}"));
    }
    Ok(price)
}

/// Memoised [`price_shot_cost`]: same key → same price without a second
/// probe run. Errors are not cached.
#[derive(Debug, Default)]
pub(crate) struct PriceCache(Mutex<BTreeMap<String, f64>>);

impl PriceCache {
    /// [`price_shot_cost`], probing only on the first lookup of a key.
    pub(crate) fn price(
        &self,
        case: &SeismicCase,
        w: &Workload,
        kind: JobKind,
        cluster: Cluster,
        compiler: Compiler,
    ) -> Result<f64, String> {
        let key = format!(
            "{:?}|{}x{}x{} s{} p{} r{}|{:?}|{:?}|{:?}",
            case, w.nx, w.ny, w.nz, w.steps, w.snap_period, w.n_receivers, kind, cluster, compiler
        );
        if let Some(&hit) = self.0.lock().get(&key) {
            return Ok(hit);
        }
        let price = price_shot_cost(case, w, kind, cluster, compiler)?;
        self.0.lock().insert(key, price);
        Ok(price)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_model::footprint::{Dims, Formulation};

    fn small_workload(steps: usize) -> Workload {
        Workload {
            nx: 24,
            ny: 1,
            nz: 24,
            steps,
            snap_period: 4,
            n_receivers: 8,
        }
    }

    fn iso2() -> SeismicCase {
        SeismicCase {
            formulation: Formulation::Isotropic,
            dims: Dims::Two,
        }
    }

    #[test]
    fn price_scales_linearly_in_steps_and_caches() {
        let c = iso2();
        let cache = PriceCache::default();
        let p40 = cache
            .price(
                &c,
                &small_workload(40),
                JobKind::Modeling,
                Cluster::CrayXc30,
                Compiler::Cray,
            )
            .unwrap();
        let p80 = cache
            .price(
                &c,
                &small_workload(80),
                JobKind::Modeling,
                Cluster::CrayXc30,
                Compiler::Cray,
            )
            .unwrap();
        assert!(p40 > 0.0);
        // Linear extrapolation from the same probe: exactly 2×.
        assert!((p80 / p40 - 2.0).abs() < 1e-9, "p80={p80} p40={p40}");
        // Second call hits the cache and returns the identical price.
        let again = cache
            .price(
                &c,
                &small_workload(40),
                JobKind::Modeling,
                Cluster::CrayXc30,
                Compiler::Cray,
            )
            .unwrap();
        assert_eq!(again, p40);
        assert_eq!(cache.0.lock().len(), 2, "one probe per distinct key");
    }

    #[test]
    fn rtm_prices_above_modeling() {
        let c = iso2();
        let w = small_workload(40);
        let m =
            price_shot_cost(&c, &w, JobKind::Modeling, Cluster::CrayXc30, Compiler::Cray).unwrap();
        let r = price_shot_cost(&c, &w, JobKind::Rtm, Cluster::CrayXc30, Compiler::Cray).unwrap();
        assert!(
            r > m,
            "RTM replays the forward wavefield, so it must cost more: rtm={r} modeling={m}"
        );
    }

    /// Remodeling-based jobs price above plain modeling (three
    /// propagations vs one) and get their own cache partition.
    #[test]
    fn random_boundary_prices_remodeling_compute() {
        let c = iso2();
        let cache = PriceCache::default();
        let w = small_workload(40);
        let m = cache
            .price(&c, &w, JobKind::Modeling, Cluster::CrayXc30, Compiler::Cray)
            .unwrap();
        let rb = cache
            .price(
                &c,
                &w,
                JobKind::RtmRandomBoundary,
                Cluster::CrayXc30,
                Compiler::Cray,
            )
            .unwrap();
        let r = cache
            .price(&c, &w, JobKind::Rtm, Cluster::CrayXc30, Compiler::Cray)
            .unwrap();
        assert!(
            rb > 2.0 * m,
            "remodeling runs the source twice plus the receiver pass: rb={rb} modeling={m}"
        );
        assert_ne!(rb, r, "distinct kinds must not share a cached price");
    }
}
