//! The twelve seismic cases, evaluation clusters, and optimization knobs.

use accel_sim::DeviceSpec;
use mpi_sim::{CpuSpec, Interconnect};
use seismic_model::footprint::{Dims, Formulation};

/// One of the paper's 12 seismic cases: {iso, acoustic, elastic} × {2D, 3D}
/// × {modeling, RTM} (the modeling/RTM split lives in the drivers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeismicCase {
    /// Earth-model formulation.
    pub formulation: Formulation,
    /// Dimensionality.
    pub dims: Dims,
}

impl SeismicCase {
    /// All six propagator cases in the paper's table order.
    pub fn all() -> [SeismicCase; 6] {
        use Dims::*;
        use Formulation::*;
        [
            SeismicCase {
                formulation: Isotropic,
                dims: Two,
            },
            SeismicCase {
                formulation: Acoustic,
                dims: Two,
            },
            SeismicCase {
                formulation: Elastic,
                dims: Two,
            },
            SeismicCase {
                formulation: Isotropic,
                dims: Three,
            },
            SeismicCase {
                formulation: Acoustic,
                dims: Three,
            },
            SeismicCase {
                formulation: Elastic,
                dims: Three,
            },
        ]
    }

    /// Table-row label, matching the paper's (sic) spellings normalised.
    pub fn label(&self) -> String {
        format!(
            "{} {}",
            self.formulation.label(),
            match self.dims {
                Dims::Two => "2D",
                Dims::Three => "3D",
            }
        )
    }
}

/// The two evaluation platforms of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cluster {
    /// CRAY XC30: K40 GPUs, 10-core Ivy Bridge sockets, Aries fabric.
    CrayXc30,
    /// IBM cluster: M2090 GPUs, dual quad-core Westmere nodes, older fabric.
    Ibm,
}

impl Cluster {
    /// The GPU card installed in this cluster.
    pub fn device(&self) -> DeviceSpec {
        match self {
            Cluster::CrayXc30 => DeviceSpec::k40(),
            Cluster::Ibm => DeviceSpec::m2090(),
        }
    }

    /// The full-socket CPU baseline of this cluster.
    pub fn cpu(&self) -> CpuSpec {
        match self {
            Cluster::CrayXc30 => CpuSpec::ivy_bridge_e5_2680v2(),
            Cluster::Ibm => CpuSpec::westmere_e5640_pair(),
        }
    }

    /// The interconnect used by the MPI baseline.
    pub fn interconnect(&self) -> Interconnect {
        match self {
            Cluster::CrayXc30 => Interconnect::aries(),
            Cluster::Ibm => Interconnect::ibm_cluster(),
        }
    }

    /// Ranks in the full-socket baseline (10 on CRAY, 8 on IBM — Table 1).
    pub fn baseline_ranks(&self) -> usize {
        match self {
            Cluster::CrayXc30 => 10,
            Cluster::Ibm => 8,
        }
    }

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            Cluster::CrayXc30 => "CRAY XC30",
            Cluster::Ibm => "IBM",
        }
    }
}

/// Where the imaging condition runs (Section 5.1, step 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImagePlacement {
    /// Cross-correlation computed on the GPU; only the final image returns.
    Gpu,
    /// Wavefields updated to the host every snapshot; image built on CPU.
    Cpu,
}

/// The optimization knobs the paper's Section 5 studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizationConfig {
    /// Isotropic PML kernel restructuring (Figures 6/7). Priced only: the
    /// host runs one branch-free kernel with the same bits for all three.
    pub iso_pml: seismic_prop::IsoPmlVariant,
    /// Acoustic 3D pressure kernel form (Figure 12).
    pub fission: seismic_prop::FissionVariant,
    /// Acoustic 2D backward-kernel memory strategy (Figure 13).
    pub transpose: seismic_prop::TransposeVariant,
    /// Inline the receiver-injection routine into one kernel instead of one
    /// launch per receiver (Section 6.2; CRAY could inline, PGI could not).
    pub inline_receiver_injection: bool,
    /// Imaging-condition placement (Figures 14/15).
    pub image_placement: ImagePlacement,
    /// Issue the per-step kernels on async streams (Figure 11).
    pub async_streams: bool,
    /// `maxregcount` compile flag (Figure 10; the paper's best is 64).
    pub maxregcount: Option<u32>,
}

impl Default for OptimizationConfig {
    /// The paper's best-found configuration.
    fn default() -> Self {
        Self {
            iso_pml: seismic_prop::IsoPmlVariant::RestructuredIndices,
            fission: seismic_prop::FissionVariant::Fissioned,
            transpose: seismic_prop::TransposeVariant::Transposed,
            inline_receiver_injection: true,
            image_placement: ImagePlacement::Gpu,
            async_streams: true,
            maxregcount: Some(64),
        }
    }
}

impl OptimizationConfig {
    /// The naive, un-optimized port (the "original code" baselines of the
    /// figures).
    pub fn naive() -> Self {
        Self {
            iso_pml: seismic_prop::IsoPmlVariant::OriginalIfs,
            fission: seismic_prop::FissionVariant::Fused,
            transpose: seismic_prop::TransposeVariant::Direct,
            inline_receiver_injection: false,
            image_placement: ImagePlacement::Cpu,
            async_streams: false,
            maxregcount: None,
        }
    }
}

/// Workload geometry for one run: interior grid sizes and step counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Interior x size.
    pub nx: usize,
    /// Interior y size (1 in 2D).
    pub ny: usize,
    /// Interior z size.
    pub nz: usize,
    /// Forward time steps.
    pub steps: usize,
    /// Snapshot save period in steps.
    pub snap_period: usize,
    /// Number of receivers.
    pub n_receivers: usize,
}

impl Workload {
    /// Interior grid points.
    pub fn points(&self) -> u64 {
        self.nx as u64 * self.ny as u64 * self.nz as u64
    }

    /// Allocated grid points, halo included.
    pub fn alloc_points(&self, halo: usize) -> u64 {
        let h = 2 * halo as u64;
        let ny = if self.ny == 1 { 1 } else { self.ny as u64 + h };
        (self.nx as u64 + h) * ny * (self.nz as u64 + h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_cases_with_unique_labels() {
        let cases = SeismicCase::all();
        let labels: std::collections::HashSet<_> = cases.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 6);
        assert_eq!(cases[0].label(), "ISOTROPIC 2D");
        assert_eq!(cases[5].label(), "ELASTIC 3D");
    }

    #[test]
    fn clusters_pair_cards_and_sockets_as_in_table1() {
        assert_eq!(Cluster::CrayXc30.device().name, "Tesla K40");
        assert_eq!(Cluster::Ibm.device().name, "Tesla M2090");
        assert_eq!(Cluster::CrayXc30.baseline_ranks(), 10);
        assert_eq!(Cluster::Ibm.baseline_ranks(), 8);
        assert!(Cluster::CrayXc30.interconnect().latency_s < Cluster::Ibm.interconnect().latency_s);
    }

    #[test]
    fn default_config_is_the_papers_best() {
        let c = OptimizationConfig::default();
        assert_eq!(c.maxregcount, Some(64));
        assert!(c.inline_receiver_injection);
        assert_eq!(c.image_placement, ImagePlacement::Gpu);
        let n = OptimizationConfig::naive();
        assert_eq!(n.maxregcount, None);
        assert_ne!(c, n);
    }

    #[test]
    fn workload_point_counts() {
        let w = Workload {
            nx: 100,
            ny: 1,
            nz: 50,
            steps: 10,
            snap_period: 2,
            n_receivers: 25,
        };
        assert_eq!(w.points(), 5000);
        assert_eq!(w.alloc_points(4), 108 * 58);
        let w3 = Workload { ny: 100, ..w };
        assert_eq!(w3.alloc_points(4), 108 * 108 * 58);
    }
}
