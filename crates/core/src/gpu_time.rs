//! Production-scale GPU timing estimates (the GPU columns of Tables 3/4).
//!
//! [`price`] replays a driver's directive schedule ([`plan::walk`], the
//! schedule's only home) on the `openacc-sim` runtime *without* executing
//! the physics, so Table-scale workloads (hundreds of steps over 400³
//! grids) are priced in milliseconds of host time. The real-execution
//! drivers in [`crate::modeling`] / [`crate::rtm`] issue the same launch
//! plans, so what the tables price is what the examples run. The one
//! directive the pricer skips is the verifier-only QC energy norm, which
//! no driver computes.

use crate::case::{Cluster, OptimizationConfig, SeismicCase, Workload};
use crate::plan::{self, Directive, Job};
use acc_obs::{ObsSession, Span, SpanCat, Track};
use accel_sim::pcie::TransferKind;
use accel_sim::SimTime;
use openacc_sim::data::DataError;
use openacc_sim::{AccRuntime, Compiler};
use seismic_model::footprint::Dims;
use std::sync::Arc;

/// Simulated time split of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingBreakdown {
    /// End-to-end simulated time (the tables' "Total GPU time").
    pub total_s: SimTime,
    /// Pure kernel time (the tables' "Kernels time").
    pub kernel_s: SimTime,
    /// PCIe transfer time.
    pub transfer_s: SimTime,
}

/// A finished simulated run: breakdown plus the runtime (profiler access).
pub struct GpuRun {
    /// Timing split.
    pub breakdown: TimingBreakdown,
    /// The runtime with its profiler ledger.
    pub runtime: AccRuntime,
}

/// Price `job` on `cluster`'s GPU under `compiler`. Fails with the
/// allocation error for cases that do not fit the card (elastic 3D on the
/// 6 GB Fermi — the `X` cells).
///
/// With an observability session the runtime records directive, kernel
/// and transfer spans, and the replay adds the phase spans (`forward` /
/// `backward` / `imaging`, or `remodel_forward` / `remodel_backward` for
/// random boundaries), a checkpoint span per snapshot save
/// (`snapshot_write` when modeling, `checkpoint_write` in RTM) and
/// restore (`checkpoint_restore`), and the registry counters
/// `checkpoints_written`, `checkpoints_restored`, `checkpoint_bytes` and
/// `checkpoint_bytes_avoided` (the snapshot bytes random-boundary RTM does
/// not move). Observation never changes the priced timings.
pub fn price(
    job: Job,
    case: &SeismicCase,
    config: &OptimizationConfig,
    compiler: Compiler,
    cluster: Cluster,
    w: &Workload,
    obs: Option<Arc<ObsSession>>,
) -> Result<GpuRun, DataError> {
    let mut rt = AccRuntime::new(cluster.device(), compiler);
    if let Some(o) = &obs {
        rt.attach_obs(o.clone());
    }
    rt.default_maxregcount = config.maxregcount;
    // One checkpoint write/restore span plus its registry series.
    let checkpoint = |name: &str, counter: &str, start: SimTime, end: SimTime, bytes: u64| {
        if let Some(o) = &obs {
            let span = Span::new(Track::Host, SpanCat::Checkpoint, name, start, end - start);
            o.span(span.with_bytes(bytes));
            o.registry.inc(counter, 1);
            o.registry.inc("checkpoint_bytes", bytes);
        }
    };
    let save = match job {
        Job::Modeling => "snapshot_write",
        _ => "checkpoint_write",
    };
    let host = TransferKind::Contiguous;
    let mut open = Vec::new();
    plan::walk(job, case, config, compiler, w, |d| {
        let t0 = rt.elapsed();
        match d {
            Directive::EnterData(region, bytes) => rt.enter_data_copyin(region, bytes)?,
            Directive::ExitData(region) => rt.exit_data_delete(region)?,
            Directive::Launch(s, ..) => {
                rt.launch(&s.desc, &s.nest, s.kind, &s.clauses);
            }
            Directive::Wait => {
                rt.wait_async();
            }
            // Declared for the verifier only: no driver computes it.
            Directive::QcNorm(_) => {}
            Directive::SnapshotSave(region, bytes) => {
                rt.update_host(region, Some(bytes), host)?;
                checkpoint(save, "checkpoints_written", t0, rt.elapsed(), bytes);
            }
            Directive::SnapshotAvoided(bytes) => {
                if let Some(o) = &obs {
                    o.registry.inc("checkpoint_bytes_avoided", bytes);
                }
            }
            Directive::SnapshotRestore(region, bytes) => {
                rt.update_device(region, Some(bytes), host)?;
                let end = rt.elapsed();
                checkpoint("checkpoint_restore", "checkpoints_restored", t0, end, bytes);
            }
            Directive::IsoRefresh(region, bytes) => {
                rt.update_host(region, Some(bytes), host)?;
                rt.update_device(region, Some(bytes), host)?;
            }
            Directive::HostImaging(region, bytes) => {
                rt.update_host(region, Some(bytes), host)?;
                rt.advance_host(cluster.cpu().kernel_time(w.points(), 2.0, 16.0));
            }
            Directive::ImageStore(region, bytes) => {
                rt.update_host(region, Some(bytes), host)?;
            }
            Directive::Begin(_) => open.push(t0),
            Directive::End(name) => {
                let start = open.pop().unwrap_or(t0);
                if let Some(o) = &obs {
                    let dur = rt.elapsed() - start;
                    o.span(Span::new(Track::Host, SpanCat::Phase, name, start, dur));
                }
            }
        }
        Ok(())
    })?;
    Ok(GpuRun {
        breakdown: TimingBreakdown {
            total_s: rt.elapsed(),
            kernel_s: rt.profiler().compute_time(),
            transfer_s: rt.profiler().transfer_time(),
        },
        runtime: rt,
    })
}

/// Price a seismic-modeling run (forward only): [`price`] of
/// [`Job::Modeling`], unobserved.
pub fn modeling_time(
    case: &SeismicCase,
    config: &OptimizationConfig,
    compiler: Compiler,
    cluster: Cluster,
    w: &Workload,
) -> Result<GpuRun, DataError> {
    price(Job::Modeling, case, config, compiler, cluster, w, None)
}

/// Price a full RTM run (forward + backward + imaging): [`price`] of
/// [`Job::Rtm`], unobserved.
pub fn rtm_time(
    case: &SeismicCase,
    config: &OptimizationConfig,
    compiler: Compiler,
    cluster: Cluster,
    w: &Workload,
) -> Result<GpuRun, DataError> {
    price(Job::Rtm, case, config, compiler, cluster, w, None)
}

/// Price a random-boundary RTM run (forward remodeling + lockstep
/// backward): [`price`] of [`Job::RtmRandomBoundary`], unobserved. It
/// trades the checkpoint traffic of [`rtm_time`] for a second source
/// propagation, and both full field sets are co-resident during the
/// backward pass — the method's memory price on-device, while host-side
/// snapshot storage drops to zero.
pub fn rand_bound_time(
    case: &SeismicCase,
    config: &OptimizationConfig,
    compiler: Compiler,
    cluster: Cluster,
    w: &Workload,
) -> Result<GpuRun, DataError> {
    price(
        Job::RtmRandomBoundary,
        case,
        config,
        compiler,
        cluster,
        w,
        None,
    )
}

/// Dimensionality-aware default workloads used by tests.
pub fn test_workload(dims: Dims) -> Workload {
    match dims {
        Dims::Two => Workload {
            nx: 1000,
            ny: 1,
            nz: 1000,
            steps: 50,
            snap_period: 5,
            n_receivers: 200,
        },
        Dims::Three => Workload {
            nx: 200,
            ny: 200,
            nz: 200,
            steps: 20,
            snap_period: 4,
            n_receivers: 400,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ImagePlacement;
    use openacc_sim::PgiVersion;
    use seismic_model::footprint::Formulation;

    const PGI: Compiler = Compiler::Pgi(PgiVersion::V14_6);

    fn case(f: Formulation, d: Dims) -> SeismicCase {
        SeismicCase {
            formulation: f,
            dims: d,
        }
    }

    #[test]
    fn modeling_produces_consistent_breakdown() {
        let c = case(Formulation::Acoustic, Dims::Three);
        let w = test_workload(Dims::Three);
        let run = modeling_time(
            &c,
            &OptimizationConfig::default(),
            PGI,
            Cluster::CrayXc30,
            &w,
        )
        .expect("fits on K40");
        let b = run.breakdown;
        assert!(b.total_s > 0.0);
        assert!(b.kernel_s > 0.0 && b.kernel_s < b.total_s);
        assert!(b.transfer_s > 0.0 && b.transfer_s < b.total_s);
        // Kernel + transfer cannot exceed total.
        assert!(b.kernel_s + b.transfer_s <= b.total_s * 1.0001);
    }

    /// The `X` cells: elastic 3D at production scale OOMs the Fermi card
    /// but fits the K40.
    #[test]
    fn elastic3d_oom_on_fermi_fits_on_kepler() {
        let c = case(Formulation::Elastic, Dims::Three);
        let w = Workload {
            nx: 400,
            ny: 400,
            nz: 400,
            steps: 2,
            snap_period: 1,
            n_receivers: 100,
        };
        let cfg = OptimizationConfig::default();
        let err = modeling_time(&c, &cfg, PGI, Cluster::Ibm, &w);
        assert!(matches!(err, Err(DataError::Oom(_))), "Fermi must OOM");
        let ok = modeling_time(&c, &cfg, PGI, Cluster::CrayXc30, &w);
        assert!(ok.is_ok(), "K40 must fit");
    }

    /// Kernel speedup ≥ total speedup: transfers only hurt (Table 3's
    /// "Kernel speedup was better than total speedup in all
    /// implementations" given equal CPU references).
    #[test]
    fn transfers_only_add_time() {
        let c = case(Formulation::Isotropic, Dims::Two);
        let w = test_workload(Dims::Two);
        let run = modeling_time(&c, &OptimizationConfig::default(), PGI, Cluster::Ibm, &w).unwrap();
        assert!(run.breakdown.total_s > run.breakdown.kernel_s);
    }

    /// RTM must cost more than modeling on the same case (backward phase +
    /// imaging + snapshot traffic).
    #[test]
    fn rtm_costs_more_than_modeling() {
        let c = case(Formulation::Acoustic, Dims::Two);
        let w = test_workload(Dims::Two);
        let cfg = OptimizationConfig::default();
        let m = modeling_time(&c, &cfg, PGI, Cluster::Ibm, &w).unwrap();
        let r = rtm_time(&c, &cfg, PGI, Cluster::Ibm, &w).unwrap();
        assert!(r.breakdown.total_s > 1.5 * m.breakdown.total_s);
    }

    /// Figures 14/15: imaging on GPU beats imaging on CPU, but only
    /// slightly (low-utilization kernel vs extra transfers).
    #[test]
    fn image_on_gpu_slightly_better() {
        let c = case(Formulation::Isotropic, Dims::Two);
        let w = test_workload(Dims::Two);
        let gpu_cfg = OptimizationConfig::default();
        let cpu_cfg = OptimizationConfig {
            image_placement: ImagePlacement::Cpu,
            ..gpu_cfg
        };
        let g = rtm_time(&c, &gpu_cfg, PGI, Cluster::Ibm, &w).unwrap();
        let h = rtm_time(&c, &cpu_cfg, PGI, Cluster::Ibm, &w).unwrap();
        assert!(
            g.breakdown.total_s < h.breakdown.total_s,
            "gpu {} vs cpu {}",
            g.breakdown.total_s,
            h.breakdown.total_s
        );
        let gain = h.breakdown.total_s / g.breakdown.total_s;
        assert!(gain < 1.6, "advantage should be modest, got {gain}x");
    }

    /// Async streams speed up the elastic case under the CRAY compiler
    /// (Figure 11's effect surfacing in the driver-level pricing).
    #[test]
    fn elastic_async_helps_under_cray() {
        let c = case(Formulation::Elastic, Dims::Two);
        // Small grid: launch lag matters (the regime of Figure 11).
        let w = Workload {
            nx: 400,
            ny: 1,
            nz: 400,
            steps: 400,
            snap_period: 40,
            n_receivers: 100,
        };
        let run = |async_on| {
            let cfg = OptimizationConfig {
                async_streams: async_on,
                ..OptimizationConfig::default()
            };
            modeling_time(&c, &cfg, Compiler::Cray, Cluster::CrayXc30, &w)
                .unwrap()
                .breakdown
                .total_s
        };
        let sync_t = run(false);
        let async_t = run(true);
        assert!(async_t < sync_t, "async {async_t} vs sync {sync_t}");
    }

    /// Random-boundary RTM trades transfers for kernels: no snapshot
    /// traffic (less transfer time than checkpointed RTM) at the price of
    /// a second source propagation (more kernel time).
    #[test]
    fn rand_bound_trades_transfers_for_kernels() {
        let c = case(Formulation::Acoustic, Dims::Two);
        let w = test_workload(Dims::Two);
        let cfg = OptimizationConfig::default();
        let rtm = rtm_time(&c, &cfg, PGI, Cluster::Ibm, &w).unwrap().breakdown;
        let rb = rand_bound_time(&c, &cfg, PGI, Cluster::Ibm, &w)
            .unwrap()
            .breakdown;
        assert!(
            rb.transfer_s < rtm.transfer_s,
            "no snapshot traffic: {} vs {}",
            rb.transfer_s,
            rtm.transfer_s
        );
        assert!(
            rb.kernel_s > rtm.kernel_s,
            "remodeling reruns the source phases: {} vs {}",
            rb.kernel_s,
            rtm.kernel_s
        );
        // It still costs more than plain modeling (three propagations).
        let m = modeling_time(&c, &cfg, PGI, Cluster::Ibm, &w)
            .unwrap()
            .breakdown;
        assert!(rb.total_s > 2.0 * m.total_s);
    }

    /// Observed random-boundary pricing: remodeling spans present, zero
    /// checkpoint spans/counters, avoided bytes accounted.
    #[test]
    fn rand_bound_obs_reports_avoided_bytes() {
        let c = case(Formulation::Acoustic, Dims::Two);
        let w = test_workload(Dims::Two);
        let cfg = OptimizationConfig::default();
        let obs = Arc::new(ObsSession::new());
        let plain = rand_bound_time(&c, &cfg, PGI, Cluster::Ibm, &w)
            .unwrap()
            .breakdown;
        let traced = price(
            Job::RtmRandomBoundary,
            &c,
            &cfg,
            PGI,
            Cluster::Ibm,
            &w,
            Some(obs.clone()),
        )
        .unwrap()
        .breakdown;
        assert_eq!(plain, traced, "observation must not change the pricing");
        let n_snaps = w.steps.div_ceil(w.snap_period) as u64;
        assert_eq!(
            obs.registry.counter("checkpoint_bytes_avoided"),
            n_snaps * w.alloc_points(seismic_grid::STENCIL_HALF) * 4
        );
        assert_eq!(obs.registry.counter("checkpoints_written"), 0);
        assert_eq!(obs.registry.counter("checkpoints_restored"), 0);
        let names: Vec<String> = obs.tracer.spans().iter().map(|s| s.name.clone()).collect();
        assert!(names.contains(&"remodel_forward".to_string()));
        assert!(names.contains(&"remodel_backward".to_string()));
        assert!(!names.contains(&"checkpoint_write".to_string()));
        assert!(!names.contains(&"checkpoint_restore".to_string()));
    }

    /// The isotropic consistency updates make iso RTM transfer-heavy —
    /// the paper's explanation for its sub-1 total speedups.
    #[test]
    fn iso_rtm_is_transfer_dominated() {
        let w = test_workload(Dims::Two);
        let cfg = OptimizationConfig::default();
        let iso = rtm_time(
            &case(Formulation::Isotropic, Dims::Two),
            &cfg,
            PGI,
            Cluster::Ibm,
            &w,
        )
        .unwrap();
        let ac = rtm_time(
            &case(Formulation::Acoustic, Dims::Two),
            &cfg,
            PGI,
            Cluster::Ibm,
            &w,
        )
        .unwrap();
        let iso_frac = iso.breakdown.transfer_s / iso.breakdown.total_s;
        let ac_frac = ac.breakdown.transfer_s / ac.breakdown.total_s;
        assert!(iso_frac > ac_frac, "iso {iso_frac} vs acoustic {ac_frac}");
    }
}
