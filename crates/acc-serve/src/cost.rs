//! Admission-time job pricing from the paper's timing model.
//!
//! Admission control needs each shot's cost in gp·s of device time
//! *before* the job runs. Running the full timing model per submission
//! would make admission as expensive as the job itself, so the pricer
//! runs a **probe**: the same case and grid with the step count capped at
//! [`PROBE_STEPS`], then extrapolates linearly in the step count (both
//! drivers are step-linear once the fixed setup cost is amortized — the
//! probe includes that setup, making the estimate conservative).
//! Prices are cached per (case, workload, kind, cluster, compiler), so a
//! burst of identical submissions prices exactly one probe.

use crate::job::JobKind;
use openacc_sim::compiler::Compiler;
use parking_lot::Mutex;
use rtm_core::case::{Cluster, SeismicCase, Workload};
use rtm_core::gpu_time::price;
use rtm_core::OptimizationConfig;
use std::collections::BTreeMap;

/// Step cap of the pricing probe.
pub const PROBE_STEPS: usize = 4;

/// Process-wide probe cache: same key → same price without a second
/// probe run.
fn price_cache() -> &'static Mutex<BTreeMap<String, f64>> {
    static CACHE: std::sync::OnceLock<Mutex<BTreeMap<String, f64>>> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn cache_key(
    case: &SeismicCase,
    w: &Workload,
    kind: JobKind,
    cluster: Cluster,
    compiler: Compiler,
) -> String {
    format!(
        "{:?}|{}x{}x{} s{} p{} r{}|{:?}|{:?}|{:?}",
        case, w.nx, w.ny, w.nz, w.steps, w.snap_period, w.n_receivers, kind, cluster, compiler
    )
}

/// Price one shot of the given case/workload in estimated device seconds.
/// Deterministic; errors (as a human-readable string suitable for
/// [`crate::job::Rejected::WorkloadInfeasible`]) when the timing model
/// rejects the workload.
pub fn price_shot_cost(
    case: &SeismicCase,
    workload: &Workload,
    kind: JobKind,
    config: &OptimizationConfig,
    cluster: Cluster,
    compiler: Compiler,
) -> Result<f64, String> {
    let key = cache_key(case, workload, kind, cluster, compiler);
    if let Some(&hit) = price_cache().lock().get(&key) {
        return Ok(hit);
    }
    let probe = Workload {
        steps: workload.steps.clamp(1, PROBE_STEPS),
        ..*workload
    };
    let run =
        price(kind, case, config, compiler, cluster, &probe, None).map_err(|e| e.to_string())?;
    let per_step = run.breakdown.total_s / probe.steps as f64;
    let price = per_step * workload.steps.max(1) as f64;
    if !price.is_finite() || price <= 0.0 {
        return Err(format!("non-positive shot price {price}"));
    }
    price_cache().lock().insert(key, price);
    Ok(price)
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
        let cfg = OptimizationConfig::default();
        let c = iso2();
        let p40 = price_shot_cost(
            &c,
            &small_workload(40),
            JobKind::Modeling,
            &cfg,
            Cluster::CrayXc30,
            Compiler::Cray,
        )
        .unwrap();
        let p80 = price_shot_cost(
            &c,
            &small_workload(80),
            JobKind::Modeling,
            &cfg,
            Cluster::CrayXc30,
            Compiler::Cray,
        )
        .unwrap();
        assert!(p40 > 0.0);
        // Linear extrapolation from the same probe: exactly 2×.
        assert!((p80 / p40 - 2.0).abs() < 1e-9, "p80={p80} p40={p40}");
        // Second call hits the cache and returns the identical price.
        let again = price_shot_cost(
            &c,
            &small_workload(40),
            JobKind::Modeling,
            &cfg,
            Cluster::CrayXc30,
            Compiler::Cray,
        )
        .unwrap();
        assert_eq!(again, p40);
    }

    #[test]
    fn rtm_prices_above_modeling() {
        let cfg = OptimizationConfig::default();
        let c = iso2();
        let w = small_workload(40);
        let m = price_shot_cost(
            &c,
            &w,
            JobKind::Modeling,
            &cfg,
            Cluster::CrayXc30,
            Compiler::Cray,
        )
        .unwrap();
        let r = price_shot_cost(
            &c,
            &w,
            JobKind::Rtm,
            &cfg,
            Cluster::CrayXc30,
            Compiler::Cray,
        )
        .unwrap();
        assert!(
            r > m,
            "RTM replays the forward wavefield, so it must cost more: rtm={r} modeling={m}"
        );
    }

    /// Remodeling-based jobs price above plain modeling (three
    /// propagations vs one) and get their own cache partition.
    #[test]
    fn random_boundary_prices_remodeling_compute() {
        let cfg = OptimizationConfig::default();
        let c = iso2();
        let w = small_workload(40);
        let m = price_shot_cost(
            &c,
            &w,
            JobKind::Modeling,
            &cfg,
            Cluster::CrayXc30,
            Compiler::Cray,
        )
        .unwrap();
        let rb = price_shot_cost(
            &c,
            &w,
            JobKind::RtmRandomBoundary,
            &cfg,
            Cluster::CrayXc30,
            Compiler::Cray,
        )
        .unwrap();
        let r = price_shot_cost(
            &c,
            &w,
            JobKind::Rtm,
            &cfg,
            Cluster::CrayXc30,
            Compiler::Cray,
        )
        .unwrap();
        assert!(
            rb > 2.0 * m,
            "remodeling runs the source twice plus the receiver pass: rb={rb} modeling={m}"
        );
        assert_ne!(rb, r, "distinct kinds must not share a cached price");
    }
}
