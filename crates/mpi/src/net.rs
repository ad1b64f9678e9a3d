//! Interconnect and CPU-socket timing models for the baseline predictions.
//!
//! The paper's reference times come from "a full socket MPI implementation":
//! 10 Ivy Bridge cores on the CRAY XC30 (Aries-class network) and 8 Westmere
//! cores on the IBM cluster (older interconnect). Section 6.2: "The Cray XC30
//! supercomputer integrates a novel intercommunications technology ... This
//! makes our CPU implementation run much faster on CRAY ... This justifies
//! the higher speedup rates on IBM, compared with CRAY." These models supply
//! the CPU-side times for the Table 3/4 reproductions.

/// Point-to-point interconnect performance profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Human-readable name.
    pub name: &'static str,
    /// One-way small-message latency, seconds.
    pub latency_s: f64,
    /// Sustained point-to-point bandwidth, byte/s.
    pub bandwidth_bs: f64,
}

impl Interconnect {
    /// CRAY XC30 Aries-class fabric.
    pub fn aries() -> Self {
        Self {
            name: "Aries (CRAY XC30)",
            latency_s: 1.5e-6,
            bandwidth_bs: 10e9,
        }
    }

    /// The older IBM-cluster interconnect of the paper's Table 1 platform.
    pub fn ibm_cluster() -> Self {
        Self {
            name: "IBM cluster interconnect",
            latency_s: 30e-6,
            bandwidth_bs: 2.0e9,
        }
    }

    /// Duration of one message of `bytes`.
    pub fn msg_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bs
    }
}

/// One CPU socket of the baseline platform (roofline parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Physical cores used by the full-socket MPI run.
    pub cores: u32,
    /// Single-precision peak per socket, flop/s.
    pub peak_flops_sp: f64,
    /// Socket DRAM bandwidth, byte/s.
    pub mem_bandwidth_bs: f64,
    /// Fraction of peak a well-tuned stencil sustains (vectorization,
    /// pipeline and TLB losses).
    pub stencil_efficiency: f64,
}

impl CpuSpec {
    /// Intel Xeon E5-2680 v2 (10-core Ivy Bridge @ 2.8 GHz) — the CRAY node
    /// socket. 8-wide AVX mul+add: 10 × 2.8e9 × 16 = 448 GFLOP/s SP.
    pub fn ivy_bridge_e5_2680v2() -> Self {
        Self {
            name: "Xeon E5-2680 v2 (10c Ivy Bridge)",
            cores: 10,
            peak_flops_sp: 448e9,
            mem_bandwidth_bs: 51e9,
            stencil_efficiency: 0.55,
        }
    }

    /// Intel Xeon E5640 (quad-core Westmere @ 2.8 GHz) — the IBM node
    /// socket (paper's Table 1 lists 8 cores per node = 2 sockets; the
    /// full-socket baseline used 8 ranks, i.e. both sockets of the older,
    /// much slower part). 4-wide SSE mul+add: 8 × 2.8e9 × 8 = 179 GFLOP/s.
    pub fn westmere_e5640_pair() -> Self {
        Self {
            name: "2× Xeon E5640 (8c Westmere)",
            cores: 8,
            peak_flops_sp: 179e9,
            // Two triple-channel DDR3 sockets roughly match one Ivy Bridge
            // socket on bandwidth; the big gap to the CRAY node is compute
            // (SSE vs AVX, 8 slow cores vs 10 fast ones).
            mem_bandwidth_bs: 48e9,
            stencil_efficiency: 0.55,
        }
    }

    /// Roofline time for a kernel sweep of `points` grid points at
    /// `flops_per_point` and `bytes_per_point` (effective DRAM traffic).
    pub fn kernel_time(&self, points: u64, flops_per_point: f64, bytes_per_point: f64) -> f64 {
        let n = points as f64;
        let t_cmp = n * flops_per_point / (self.peak_flops_sp * self.stencil_efficiency);
        let t_mem = n * bytes_per_point / self.mem_bandwidth_bs;
        t_cmp.max(t_mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aries_beats_ibm_everywhere() {
        let a = Interconnect::aries();
        let i = Interconnect::ibm_cluster();
        for bytes in [0u64, 1 << 10, 1 << 20, 1 << 26] {
            assert!(a.msg_time(bytes) < i.msg_time(bytes));
        }
    }

    #[test]
    fn msg_time_components() {
        let a = Interconnect::aries();
        assert_eq!(a.msg_time(0), a.latency_s);
        let t = a.msg_time(10_000_000_000);
        assert!((t - (a.latency_s + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn socket_asymmetry_is_compute_not_bandwidth() {
        let cray = CpuSpec::ivy_bridge_e5_2680v2();
        let ibm = CpuSpec::westmere_e5640_pair();
        // Memory-bound kernels run comparably (similar bandwidth), but
        // compute-heavy kernels are far slower on the Westmere pair — the
        // asymmetry behind the per-case speedup differences of Table 3.
        let t_cray_mem = cray.kernel_time(1 << 24, 58.0, 22.4);
        let t_ibm_mem = ibm.kernel_time(1 << 24, 58.0, 22.4);
        assert!(
            t_ibm_mem / t_cray_mem < 1.8,
            "mem ratio {}",
            t_ibm_mem / t_cray_mem
        );
        let t_cray_cmp = cray.kernel_time(1 << 24, 400.0, 8.0);
        let t_ibm_cmp = ibm.kernel_time(1 << 24, 400.0, 8.0);
        assert!(
            t_ibm_cmp / t_cray_cmp > 2.0,
            "cmp ratio {}",
            t_ibm_cmp / t_cray_cmp
        );
    }

    #[test]
    fn stencils_are_compute_or_memory_bound_consistently() {
        let cpu = CpuSpec::ivy_bridge_e5_2680v2();
        // Very high intensity → compute term dominates.
        let t1 = cpu.kernel_time(1 << 20, 1000.0, 4.0);
        let expect = (1u64 << 20) as f64 * 1000.0 / (cpu.peak_flops_sp * cpu.stencil_efficiency);
        assert!((t1 - expect).abs() / expect < 1e-9);
        // Very low intensity → bandwidth term dominates.
        let t2 = cpu.kernel_time(1 << 20, 1.0, 100.0);
        let expect2 = (1u64 << 20) as f64 * 100.0 / cpu.mem_bandwidth_bs;
        assert!((t2 - expect2).abs() / expect2 < 1e-9);
    }
}
