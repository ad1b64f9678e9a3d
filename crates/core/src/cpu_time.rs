//! Full-socket MPI baseline timing estimates (the CPU references of
//! Tables 3/4).
//!
//! "The reference CPU total time is the time to process the entire domain
//! while using sub-domain decomposition. It is given by running a full
//! socket MPI implementation" — 10 ranks on the CRAY Ivy Bridge socket,
//! 8 on the IBM node. The model combines the socket roofline
//! ([`mpi_sim::CpuSpec`]), per-step ghost exchange over the cluster fabric,
//! and — for RTM — snapshot I/O, which on production 3D grids exceeds node
//! RAM and goes to the cluster filesystem (fast Lustre on the XC30, slow
//! NFS on the older IBM cluster; the mechanism behind the paper's 10×
//! acoustic-3D RTM speedup on IBM vs 1.3× on CRAY).

use crate::case::{Cluster, SeismicCase, Workload};
use seismic_model::footprint::{self, Dims, Formulation};
use seismic_prop::desc;

/// Baseline time split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuBreakdown {
    /// Propagation kernel time.
    pub kernel_s: f64,
    /// MPI ghost-exchange time.
    pub comm_s: f64,
    /// Snapshot filesystem I/O time (RTM only).
    pub io_s: f64,
}

impl CpuBreakdown {
    /// End-to-end baseline time.
    pub fn total_s(&self) -> f64 {
        self.kernel_s + self.comm_s + self.io_s
    }
}

/// Cluster filesystem streaming bandwidth for snapshot I/O, byte/s.
pub fn disk_bandwidth(cluster: Cluster) -> f64 {
    match cluster {
        // XC30 Lustre scratch.
        Cluster::CrayXc30 => 2.5e9,
        // Aging NFS on the IBM cluster (~65 MB/s sustained).
        Cluster::Ibm => 0.065e9,
    }
}

/// Wavefields exchanged at sub-domain boundaries each step.
fn exchanged_fields(case: &SeismicCase) -> u64 {
    match (case.formulation, case.dims) {
        (Formulation::Isotropic, _) => 1,
        (Formulation::Acoustic, Dims::Two) => 3,
        (Formulation::Acoustic, Dims::Three) => 4,
        (Formulation::Elastic, Dims::Two) => 5,
        (Formulation::Elastic, Dims::Three) => 9,
    }
}

/// The CPU runs the *original* (un-restructured) kernels: one reference
/// source version, as the paper maintains.
fn cpu_descs(case: &SeismicCase) -> Vec<desc::KernelDesc> {
    match (case.formulation, case.dims) {
        (Formulation::Isotropic, Dims::Two) => {
            desc::iso2d(seismic_prop::IsoPmlVariant::OriginalIfs)
        }
        (Formulation::Isotropic, Dims::Three) => {
            desc::iso3d(seismic_prop::IsoPmlVariant::OriginalIfs)
        }
        (Formulation::Acoustic, Dims::Two) => {
            desc::acoustic2d(seismic_prop::TransposeVariant::Direct)
        }
        (Formulation::Acoustic, Dims::Three) => {
            desc::acoustic3d(seismic_prop::FissionVariant::Fused)
        }
        (Formulation::Elastic, Dims::Two) => desc::elastic2d(),
        (Formulation::Elastic, Dims::Three) => desc::elastic3d(),
    }
}

/// Per-step propagation time on the full socket.
///
/// Two CPU-specific adjustments to the kernels' (GPU-effective) byte
/// counts: the sockets' multi-megabyte caches block the stencil far better
/// than the cards' small L2s (≈ 0.7× the traffic), while streaming many
/// concurrent arrays (the elastic model walks 30) degrades sustained
/// socket bandwidth through TLB and prefetcher pressure.
fn step_kernel_time(case: &SeismicCase, cluster: Cluster, w: &Workload) -> f64 {
    // The 2nd-order isotropic formulation re-reads a big centered stencil:
    // socket-sized caches block it well (0.55x traffic), whereas the
    // staggered 1st-order systems stream their many arrays with little
    // reusable overlap (no discount).
    let blocking = match case.formulation {
        Formulation::Isotropic => 0.55,
        Formulation::Acoustic | Formulation::Elastic => 1.0,
    };
    // 2D working sets partially fit the sockets' L3 (a 1600^2 f32 plane is
    // ~10 MB), halving effective DRAM traffic; nothing comparable exists on
    // the cards.
    let dims_bonus = match case.dims {
        Dims::Two => 0.5,
        Dims::Three => 1.0,
    };
    let arrays = footprint::modeling_array_count(case.formulation, case.dims) as f64;
    let stream_eff = (4.0 / arrays.sqrt()).min(1.0);
    let cpu = cluster.cpu();
    cpu_descs(case)
        .iter()
        .map(|d| {
            cpu.kernel_time(
                w.points(),
                d.flops,
                d.bytes_per_point() * blocking * dims_bonus / stream_eff,
            )
        })
        .sum()
}

/// Per-step ghost-exchange time across the baseline's ranks.
fn step_comm_time(case: &SeismicCase, cluster: Cluster, w: &Workload) -> f64 {
    let ranks = cluster.baseline_ranks();
    if ranks <= 1 {
        return 0.0;
    }
    let net = cluster.interconnect();
    let plane_points = match case.dims {
        Dims::Two => w.nx as u64,
        Dims::Three => (w.nx * w.ny) as u64,
    };
    let ghost = seismic_grid::STENCIL_HALF as u64;
    let fields = exchanged_fields(case);
    // Each rank exchanges with ≤ 2 neighbours concurrently; the step's comm
    // time is one up + one down exchange of every wavefield's ghost shell.
    let bytes = ghost * plane_points * 4;
    2.0 * fields as f64 * net.msg_time(bytes)
}

/// Baseline time for forward modeling.
pub fn modeling_cpu_time(case: &SeismicCase, cluster: Cluster, w: &Workload) -> CpuBreakdown {
    let kernel_s = w.steps as f64 * step_kernel_time(case, cluster, w);
    let comm_s = w.steps as f64 * step_comm_time(case, cluster, w);
    CpuBreakdown {
        kernel_s,
        comm_s,
        io_s: 0.0,
    }
}

/// Baseline time for RTM: forward + backward propagation, host imaging,
/// and snapshot I/O through the cluster filesystem when the snapshot
/// volume exceeds what node RAM can buffer.
pub fn rtm_cpu_time(case: &SeismicCase, cluster: Cluster, w: &Workload) -> CpuBreakdown {
    let fwd = modeling_cpu_time(case, cluster, w);
    let n_snaps = (w.steps / w.snap_period.max(1)) as f64;
    let snap_bytes = w.points() as f64 * 4.0;
    // Imaging condition on the host at every snapshot.
    let imaging_s = n_snaps * cluster.cpu().kernel_time(w.points(), 2.0, 16.0);
    match case.formulation {
        // The 2nd-order isotropic scheme is time-reversible: the CPU
        // implementation *recomputes* the source wavefield backwards during
        // the migration pass instead of storing it (a standard
        // recompute-vs-store checkpointing trade), stepping the
        // reconstructed source field and the receiver field in one fused
        // loop that shares the velocity-model reads — ≈2.2 propagations'
        // worth of traffic, no snapshot I/O. This is why the paper's
        // isotropic RTM baselines sit at ≈2× modeling on both clusters.
        Formulation::Isotropic => CpuBreakdown {
            kernel_s: 2.2 * fwd.kernel_s + imaging_s,
            comm_s: 2.2 * fwd.comm_s,
            io_s: 0.0,
        },
        // The staggered C-PML schemes are dissipative — not reversible —
        // so the forward pressure field is checkpointed each snap_period
        // and read back during migration. 2D volumes sit in the page
        // cache; production 3D volumes (hundreds of GB) stream through the
        // cluster filesystem, which is what blows up the IBM baseline
        // (10× acoustic-3D RTM speedup) while the XC30's Lustre keeps the
        // CRAY baseline almost flat.
        Formulation::Acoustic | Formulation::Elastic => {
            let ram_bytes = 16e9; // usable page cache
            let total_snap = n_snaps * snap_bytes;
            let io_s = if total_snap > ram_bytes {
                2.0 * total_snap / disk_bandwidth(cluster)
            } else {
                0.0
            };
            CpuBreakdown {
                kernel_s: 2.0 * fwd.kernel_s + imaging_s,
                comm_s: 2.0 * fwd.comm_s,
                io_s,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_time::test_workload;

    fn case(f: Formulation, d: Dims) -> SeismicCase {
        SeismicCase {
            formulation: f,
            dims: d,
        }
    }

    #[test]
    fn elastic_costs_most_iso_least() {
        let w = test_workload(Dims::Three);
        let t = |f| modeling_cpu_time(&case(f, Dims::Three), Cluster::CrayXc30, &w).total_s();
        let iso = t(Formulation::Isotropic);
        let ac = t(Formulation::Acoustic);
        let el = t(Formulation::Elastic);
        assert!(iso < ac && ac < el, "{iso} {ac} {el}");
    }

    #[test]
    fn cray_baseline_faster_than_ibm() {
        let w = test_workload(Dims::Three);
        // The gap is compute-driven, so it is widest on the flop-heavy
        // elastic model; memory-bound cases run comparably (Section 6.1's
        // near-equal iso/acoustic CPU times across clusters).
        let el = case(Formulation::Elastic, Dims::Three);
        let cray = modeling_cpu_time(&el, Cluster::CrayXc30, &w).total_s();
        let ibm = modeling_cpu_time(&el, Cluster::Ibm, &w).total_s();
        assert!(ibm > 1.1 * cray, "ibm {ibm} vs cray {cray}");
    }

    #[test]
    fn comm_grows_with_exchanged_fields() {
        let w = test_workload(Dims::Three);
        let iso = modeling_cpu_time(&case(Formulation::Isotropic, Dims::Three), Cluster::Ibm, &w);
        let el = modeling_cpu_time(&case(Formulation::Elastic, Dims::Three), Cluster::Ibm, &w);
        assert!(el.comm_s > 5.0 * iso.comm_s);
    }

    /// 3D RTM at production scale pays filesystem I/O; 2D does not.
    #[test]
    fn snapshot_io_only_for_big_3d() {
        let w3 = Workload {
            nx: 400,
            ny: 400,
            nz: 400,
            steps: 500,
            snap_period: 5,
            n_receivers: 400,
        };
        let c3 = case(Formulation::Acoustic, Dims::Three);
        let r3 = rtm_cpu_time(&c3, Cluster::Ibm, &w3);
        assert!(r3.io_s > 0.0);
        let w2 = test_workload(Dims::Two);
        let c2 = case(Formulation::Acoustic, Dims::Two);
        let r2 = rtm_cpu_time(&c2, Cluster::Ibm, &w2);
        assert_eq!(r2.io_s, 0.0);
        // The IBM filesystem is the slow one.
        let r3c = rtm_cpu_time(&c3, Cluster::CrayXc30, &w3);
        assert!(r3.io_s > 5.0 * r3c.io_s);
    }

    #[test]
    fn rtm_at_least_doubles_modeling() {
        let w = test_workload(Dims::Two);
        let c = case(Formulation::Elastic, Dims::Two);
        let m = modeling_cpu_time(&c, Cluster::Ibm, &w).total_s();
        let r = rtm_cpu_time(&c, Cluster::Ibm, &w).total_s();
        assert!(r >= 2.0 * m);
    }
}
