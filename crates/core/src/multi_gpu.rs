//! Multi-GPU execution model — the paper's "path forward".
//!
//! "We believe that exploiting multiple GPUs will provide powerful
//! insights. Consequently, overlapping MPI communications with GPU
//! computations could improve performance, especially when larger grid
//! dimensions are used." (Section 7.)
//!
//! The paper already implements "a hybrid OpenACC-MPI approach" (one GPU
//! per node, slab decomposition, ghost exchange = device→host transfer +
//! MPI message + host→device transfer, Section 5.1 step 2) but only
//! evaluates one GPU. This module prices the multi-GPU runs they describe:
//!
//! * **ghost packing**: the exchanged planes are contiguous along the
//!   slowest (z) axis, but "exchanging non-contiguous data remains a
//!   non-optimal solution. One workaround is rearranging data of these
//!   ghost nodes by performing a transposition on GPU" — both strategies
//!   are modeled,
//! * **communication mode**: blocking (compute → exchange) vs the
//!   future-work overlap (boundary slabs computed first, their exchange
//!   overlapped with the interior kernel).

use crate::case::{Cluster, OptimizationConfig, SeismicCase, Workload};
use crate::error::{ConfigError, RtmError};
use crate::plan::{self, Directive};
use accel_sim::pcie::{transfer_time, HostAlloc, TransferKind};
use accel_sim::SimTime;
use openacc_sim::{AccRuntime, Compiler};
use seismic_grid::STENCIL_HALF;
use seismic_model::footprint::{self, Dims};
use std::convert::Infallible;

/// How ghost shells cross between device, host, and network.
///
/// A z-slab cut exchanges contiguous planes; cutting along x or y (needed
/// once the GPU count outgrows nz) leaves the shell scattered as one short
/// run per row. `Strided` models that worst-axis exchange directly;
/// `DevicePacked` first gathers the shell into a contiguous staging buffer
/// with a small device kernel — "rearranging data of these ghost nodes by
/// performing a transposition on GPU".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhostPacking {
    /// One DMA chunk per contiguous x-run of the shell.
    Strided,
    /// Gather on device, then one contiguous transfer.
    DevicePacked,
}

/// Communication/computation scheduling across the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// Compute the whole slab, then exchange ghosts.
    Blocking,
    /// Compute the boundary shells first, exchange them while the interior
    /// kernel runs (the paper's proposed overlap).
    Overlapped,
}

/// Per-step and end-to-end timing of a decomposed multi-GPU run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiGpuTiming {
    /// GPUs used.
    pub n_gpus: usize,
    /// End-to-end simulated time.
    pub total_s: SimTime,
    /// Per-step compute time on the busiest GPU.
    pub step_compute_s: SimTime,
    /// Per-step exposed (non-overlapped) communication time.
    pub step_comm_exposed_s: SimTime,
    /// Per-step raw communication time (PCIe both ways + network).
    pub step_comm_raw_s: SimTime,
}

impl MultiGpuTiming {
    /// Parallel efficiency versus a one-GPU run of the same workload.
    pub fn efficiency_vs(&self, single: &MultiGpuTiming) -> f64 {
        single.total_s / (self.total_s * self.n_gpus as f64)
    }
}

/// Bytes one neighbour exchange moves: the stencil-halo shell of every
/// crossing wavefield. Public so the observability layer can annotate halo
/// spans with the same traffic the timing model priced.
pub fn ghost_bytes(case: &SeismicCase, w: &Workload) -> u64 {
    let plane_points = match case.dims {
        Dims::Two => w.nx as u64 + 2 * STENCIL_HALF as u64,
        Dims::Three => {
            (w.nx as u64 + 2 * STENCIL_HALF as u64) * (w.ny as u64 + 2 * STENCIL_HALF as u64)
        }
    };
    let fields = footprint::modeling_array_count(case.formulation, case.dims) as u64;
    // Only wavefields cross (model arrays are static); approximate as half
    // the resident arrays.
    let fields = (fields / 2).max(1);
    STENCIL_HALF as u64 * plane_points * 4 * fields
}

/// Raw one-directional ghost traffic time for one neighbour exchange:
/// device→host, network, host→device. Public for the same reason as
/// [`ghost_bytes`] — `accprof` builds its MPI-rank halo timeline from it.
pub fn ghost_leg_time(
    cluster: Cluster,
    w: &Workload,
    case: &SeismicCase,
    packing: GhostPacking,
) -> SimTime {
    let dev = cluster.device();
    let fields = footprint::modeling_array_count(case.formulation, case.dims) as u64;
    let fields = (fields / 2).max(1);
    let bytes = ghost_bytes(case, w);
    // Rows (contiguous x-runs) per shell for the worst-axis cut.
    let rows = match case.dims {
        Dims::Two => w.nz as u64 + 2 * STENCIL_HALF as u64,
        Dims::Three => {
            (w.ny as u64 + 2 * STENCIL_HALF as u64) * (w.nz as u64 + 2 * STENCIL_HALF as u64)
                / w.nz.max(1) as u64 // per exchanged plane-pair, amortised
        }
    };
    let kind = match packing {
        GhostPacking::Strided => TransferKind::Strided {
            chunks: STENCIL_HALF as u64 * fields * rows,
            chunk_bytes: (bytes / (STENCIL_HALF as u64 * fields * rows)).max(4),
        },
        GhostPacking::DevicePacked => TransferKind::Contiguous,
    };
    let pcie = transfer_time(&dev, bytes, HostAlloc::Pinned, kind);
    // Device-side packing kernel: a cheap streaming copy of the shell.
    let pack = match packing {
        GhostPacking::Strided => 0.0,
        GhostPacking::DevicePacked => 2.0 * bytes as f64 / dev.bandwidth() + dev.launch_overhead_s,
    };
    let net = cluster.interconnect().msg_time(bytes);
    // D2H + network + H2D on the receiving side.
    2.0 * pcie + net + pack
}

/// Replay a priced decomposed run onto `obs`'s MPI-rank tracks: one
/// [`SpanCat::Halo`](acc_obs::SpanCat) span per step per rank, spanning the
/// step's raw exchange window. Under [`CommMode::Overlapped`] the hidden
/// head of the span sits inside the interior-compute window and only the
/// exposed tail extends the step — the span's `hidden_s`/`exposed_s` args
/// record that split, and its bytes are the same [`ghost_bytes`] traffic
/// the timing model priced. The registry accumulates `halo_bytes` and
/// `halo_exchanges`.
pub fn emit_halo_timeline(
    obs: &acc_obs::ObsSession,
    case: &SeismicCase,
    w: &Workload,
    timing: &MultiGpuTiming,
) {
    use acc_obs::{Span, SpanCat, Track};
    if timing.n_gpus < 2 || timing.step_comm_raw_s <= 0.0 {
        return; // single card: nothing crosses the network
    }
    let bytes = ghost_bytes(case, w);
    let raw = timing.step_comm_raw_s;
    let exposed = timing.step_comm_exposed_s;
    let hidden = (raw - exposed).max(0.0);
    let step_s = timing.step_compute_s + exposed;
    for rank in 0..timing.n_gpus as u32 {
        let lo = rank.checked_sub(1);
        let hi = (rank + 1 < timing.n_gpus as u32).then_some(rank + 1);
        for step in 0..w.steps {
            // The exchange starts once the boundary shell is computed: its
            // hidden head overlaps the interior kernel, the exposed tail
            // sticks out past the compute window.
            let start = step as f64 * step_s + timing.step_compute_s - hidden;
            let mut span = Span::new(
                Track::MpiRank(rank),
                SpanCat::Halo,
                "halo_exchange",
                start,
                raw,
            )
            .with_bytes(bytes)
            .with_arg("hidden_s", format!("{hidden:.3e}"))
            .with_arg("exposed_s", format!("{exposed:.3e}"));
            if let Some(l) = lo {
                span = span.with_arg("neighbor_lo", l.to_string());
            }
            if let Some(h) = hi {
                span = span.with_arg("neighbor_hi", h.to_string());
            }
            obs.span(span);
            obs.registry.inc("halo_exchanges", 1);
            obs.registry.inc("halo_bytes", bytes);
        }
    }
}

/// Price a decomposed forward-modeling run on `n_gpus` identical cards.
#[allow(clippy::too_many_arguments)]
pub fn modeling_time_multi(
    case: &SeismicCase,
    config: &OptimizationConfig,
    compiler: Compiler,
    cluster: Cluster,
    w: &Workload,
    n_gpus: usize,
    packing: GhostPacking,
    mode: CommMode,
) -> Result<MultiGpuTiming, RtmError> {
    if n_gpus == 0 {
        return Err(ConfigError::ZeroGpus.into());
    }
    // Each card holds its slab plus ghost shells.
    let local = Workload {
        nz: w.nz.div_ceil(n_gpus).max(2 * STENCIL_HALF),
        ..*w
    };
    let alloc = local.alloc_points(STENCIL_HALF) as usize;
    let bytes = footprint::modeling_bytes(case.formulation, case.dims, alloc);
    // Capacity check on one card (they are identical).
    let mut rt = AccRuntime::new(cluster.device(), compiler);
    rt.default_maxregcount = config.maxregcount;
    rt.enter_data_copyin("fields", bytes)?;

    // Price one step's kernels over the local slab.
    let phases = plan::step_phases(case, config, &local, compiler);
    let t0 = rt.elapsed();
    let Ok(()) = plan::emit_step(&phases, "fields", &mut |d| {
        match d {
            Directive::Launch(s, ..) => {
                rt.launch(&s.desc, &s.nest, s.kind, &s.clauses);
            }
            Directive::Wait => {
                rt.wait_async();
            }
            _ => {}
        }
        Ok::<(), Infallible>(())
    });
    let step_compute = rt.elapsed() - t0;

    // Communication: interior ranks exchange with two neighbours; both
    // directions proceed concurrently on the bidirectional links, so one
    // leg bounds the step.
    let comm_raw = if n_gpus == 1 {
        0.0
    } else {
        ghost_leg_time(cluster, w, case, packing)
    };
    // Overlap: the boundary shell (2·halo rows of the slab) must still be
    // computed before its exchange; the remaining interior hides the comm.
    let exposed = match mode {
        CommMode::Blocking => comm_raw,
        CommMode::Overlapped => {
            let boundary_frac = (2.0 * STENCIL_HALF as f64 / local.nz as f64).min(1.0);
            let interior = step_compute * (1.0 - boundary_frac);
            (comm_raw - interior).max(0.0)
        }
    };
    let step = step_compute + exposed;
    let total = step * w.steps as f64
        // snapshot gathers to host stay on each card's own PCIe link; the
        // schedule saves at steps 0, p, 2p, …
        + w.steps.div_ceil(w.snap_period.max(1)) as f64
            * transfer_time(
                &cluster.device(),
                local.alloc_points(STENCIL_HALF) * 4,
                HostAlloc::Pinned,
                TransferKind::Contiguous,
            );
    Ok(MultiGpuTiming {
        n_gpus,
        total_s: total,
        step_compute_s: step_compute,
        step_comm_exposed_s: exposed,
        step_comm_raw_s: comm_raw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use openacc_sim::data::DataError;
    use openacc_sim::PgiVersion;
    use seismic_model::footprint::Formulation;

    const PGI: Compiler = Compiler::Pgi(PgiVersion::V14_6);

    fn case3() -> SeismicCase {
        SeismicCase {
            formulation: Formulation::Acoustic,
            dims: Dims::Three,
        }
    }

    fn w3(n: usize) -> Workload {
        Workload {
            nx: n,
            ny: n,
            nz: n,
            steps: 100,
            snap_period: 10,
            n_receivers: 100,
        }
    }

    fn run(n_gpus: usize, n: usize, mode: CommMode) -> MultiGpuTiming {
        modeling_time_multi(
            &case3(),
            &OptimizationConfig::default(),
            PGI,
            Cluster::CrayXc30,
            &w3(n),
            n_gpus,
            GhostPacking::DevicePacked,
            mode,
        )
        .expect("fits")
    }

    /// More GPUs → faster, but sub-linearly (comm overhead).
    #[test]
    fn scales_sublinearly() {
        let t1 = run(1, 256, CommMode::Blocking);
        let t2 = run(2, 256, CommMode::Blocking);
        let t4 = run(4, 256, CommMode::Blocking);
        assert!(t2.total_s < t1.total_s);
        assert!(t4.total_s < t2.total_s);
        let s4 = t1.total_s / t4.total_s;
        assert!(s4 > 2.0 && s4 < 4.0, "4-GPU speedup {s4}");
        assert!(t4.efficiency_vs(&t1) < 1.0);
        assert_eq!(t1.step_comm_raw_s, 0.0, "single GPU has no exchange");
    }

    /// Overlap never loses, and fully hides communication once the
    /// interior is big enough.
    #[test]
    fn overlap_hides_comm_on_large_grids() {
        for n in [128usize, 256, 384] {
            let b = run(4, n, CommMode::Blocking);
            let o = run(4, n, CommMode::Overlapped);
            assert!(o.total_s <= b.total_s, "n={n}");
            assert!(o.step_comm_exposed_s <= b.step_comm_exposed_s);
        }
        // "especially when larger grid dimensions are used": the hidden
        // fraction grows with n (compute n³/N vs comm n²).
        let frac = |n: usize| {
            let o = run(4, n, CommMode::Overlapped);
            if o.step_comm_raw_s == 0.0 {
                return 1.0;
            }
            1.0 - o.step_comm_exposed_s / o.step_comm_raw_s
        };
        assert!(frac(384) >= frac(128), "{} vs {}", frac(384), frac(128));
        let big = run(4, 384, CommMode::Overlapped);
        assert_eq!(big.step_comm_exposed_s, 0.0, "fully hidden at 384^3");
    }

    /// Device-side ghost packing beats strided transfers — the paper's
    /// transposition workaround.
    #[test]
    fn packed_ghosts_beat_strided() {
        let cfg = OptimizationConfig::default();
        let s = modeling_time_multi(
            &case3(),
            &cfg,
            PGI,
            Cluster::CrayXc30,
            &w3(256),
            4,
            GhostPacking::Strided,
            CommMode::Blocking,
        )
        .unwrap();
        let p = modeling_time_multi(
            &case3(),
            &cfg,
            PGI,
            Cluster::CrayXc30,
            &w3(256),
            4,
            GhostPacking::DevicePacked,
            CommMode::Blocking,
        )
        .unwrap();
        assert!(p.step_comm_raw_s < s.step_comm_raw_s);
        assert!(p.total_s <= s.total_s);
    }

    /// Decomposition unlocks cases that OOM a single card: elastic 3D at
    /// the table workload fits no single M2090 but fits four.
    #[test]
    fn decomposition_relieves_memory_pressure() {
        let case = SeismicCase {
            formulation: Formulation::Elastic,
            dims: Dims::Three,
        };
        let w = Workload {
            nx: 400,
            ny: 400,
            nz: 400,
            steps: 10,
            snap_period: 5,
            n_receivers: 50,
        };
        let cfg = OptimizationConfig::default();
        let one = modeling_time_multi(
            &case,
            &cfg,
            PGI,
            Cluster::Ibm,
            &w,
            1,
            GhostPacking::DevicePacked,
            CommMode::Blocking,
        );
        assert!(matches!(one, Err(RtmError::Data(DataError::Oom(_)))));
        let four = modeling_time_multi(
            &case,
            &cfg,
            PGI,
            Cluster::Ibm,
            &w,
            4,
            GhostPacking::DevicePacked,
            CommMode::Blocking,
        );
        assert!(four.is_ok(), "4 Fermis hold the decomposed slabs");
    }

    /// The halo timeline replays exactly what the pricing model charged:
    /// one serial span per step per rank, raw-duration long, carrying the
    /// [`ghost_bytes`] payload, and the registry totals line up.
    #[test]
    fn halo_timeline_matches_pricing() {
        let case = case3();
        let w = w3(128);
        let t = run(4, 128, CommMode::Blocking);
        let obs = acc_obs::ObsSession::new();
        emit_halo_timeline(&obs, &case, &w, &t);
        obs.tracer.validate_tracks().expect("serial rank tracks");
        assert_eq!(obs.tracer.tracks().len(), 4, "one track per rank");
        let spans = obs.tracer.spans();
        assert_eq!(spans.len(), 4 * w.steps);
        let b = ghost_bytes(&case, &w);
        for s in &spans {
            assert_eq!(s.bytes, b);
            assert!((s.dur_s - t.step_comm_raw_s).abs() < 1e-12);
        }
        // Edge ranks name one neighbour, interior ranks two.
        let args_of = |rank: u32| {
            spans
                .iter()
                .find(|s| s.track == acc_obs::Track::MpiRank(rank))
                .unwrap()
                .args
                .clone()
        };
        assert!(args_of(0).iter().any(|(k, _)| k == "neighbor_hi"));
        assert!(!args_of(0).iter().any(|(k, _)| k == "neighbor_lo"));
        assert!(args_of(1).iter().any(|(k, _)| k == "neighbor_lo"));
        assert!(args_of(1).iter().any(|(k, _)| k == "neighbor_hi"));
        assert_eq!(
            obs.registry.counter("halo_bytes"),
            b * 4 * w.steps as u64,
            "registry totals the priced traffic"
        );
        assert_eq!(obs.registry.counter("halo_exchanges"), 4 * w.steps as u64);
        // One GPU → no exchange spans at all.
        let single = acc_obs::ObsSession::new();
        emit_halo_timeline(&single, &case, &w, &run(1, 128, CommMode::Blocking));
        assert!(single.tracer.is_empty());
    }

    /// Snapshots are saved at steps 0, p, 2p, …: ⌈steps/p⌉ gathers. A
    /// 21-step run at period 5 pays one gather more than a 20-step run,
    /// and a run shorter than one period still pays one.
    #[test]
    fn snapshot_gathers_round_up() {
        let at = |steps| {
            let w = Workload {
                steps,
                snap_period: 5,
                ..w3(128)
            };
            modeling_time_multi(
                &case3(),
                &OptimizationConfig::default(),
                PGI,
                Cluster::CrayXc30,
                &w,
                2,
                GhostPacking::DevicePacked,
                CommMode::Blocking,
            )
            .expect("fits")
        };
        let t20 = at(20);
        let step = t20.step_compute_s + t20.step_comm_exposed_s;
        // Twenty steps save four snapshots either way.
        let gather = (t20.total_s - 20.0 * step) / 4.0;
        assert!(gather > 0.0);
        let extra = at(21).total_s - t20.total_s - step;
        assert!(extra > 0.5 * gather, "21 steps: {extra} vs gather {gather}");
        let short = at(3).total_s - 3.0 * step;
        assert!(short > 0.5 * gather, "3 steps: {short} vs gather {gather}");
    }

    #[test]
    fn zero_gpus_is_a_typed_error() {
        let r = modeling_time_multi(
            &case3(),
            &OptimizationConfig::default(),
            PGI,
            Cluster::CrayXc30,
            &w3(64),
            0,
            GhostPacking::DevicePacked,
            CommMode::Blocking,
        );
        assert_eq!(
            r,
            Err(RtmError::Config(crate::error::ConfigError::ZeroGpus))
        );
    }
}
