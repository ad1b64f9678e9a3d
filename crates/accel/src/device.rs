//! Device descriptors built from the paper's Table 2.

/// Static description of a simulated accelerator card.
///
/// The two constructors mirror Table 2 ("GPU cards specs and attached CPU
/// platforms") plus the microarchitectural constants the optimization
/// study depends on (register files, SM counts, PCIe generation).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Microarchitecture generation.
    pub arch: Arch,
    /// Single-precision peak, GFLOP/s (Table 2).
    pub peak_gflops_sp: f64,
    /// DRAM bandwidth, GB/s (Table 2).
    pub mem_bandwidth_gbs: f64,
    /// Global memory capacity in bytes (Table 2: 6 GB / 12 GB).
    pub global_mem_bytes: u64,
    /// CUDA cores (Table 2).
    pub cuda_cores: u32,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Hardware cap on registers per thread (Fermi 63, Kepler 255 — the
    /// difference that decides the Figure 12 loop-fission outcome).
    pub max_regs_per_thread: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Kernel launch overhead, seconds.
    pub launch_overhead_s: f64,
    /// Host-side cost per synchronous launch: driver call, OpenACC
    /// present-table lookups, argument marshalling (what async queuing
    /// hides). Tens of microseconds on era directive runtimes.
    pub issue_gap_s: f64,
    /// PCIe bandwidth for pinned host memory, GB/s.
    pub pcie_pinned_gbs: f64,
    /// PCIe bandwidth for pageable host memory, GB/s.
    pub pcie_pageable_gbs: f64,
    /// Per-transfer PCIe latency, seconds.
    pub pcie_latency_s: f64,
    /// Number of hardware async queues usable by applications (one more is
    /// reserved by the implementation, as the paper notes).
    pub async_streams: u32,
}

/// GPU microarchitecture generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// Fermi (GF110-class): M2090.
    Fermi,
    /// Kepler (GK110-class): K40.
    Kepler,
}

impl DeviceSpec {
    /// NVIDIA Tesla M2090 (Fermi) — the IBM-cluster card of the paper.
    pub fn m2090() -> Self {
        Self {
            name: "Tesla M2090",
            arch: Arch::Fermi,
            peak_gflops_sp: 1331.2,
            mem_bandwidth_gbs: 180.0,
            global_mem_bytes: 6 * (1 << 30),
            cuda_cores: 512,
            sm_count: 16,
            regs_per_sm: 32 * 1024,
            max_regs_per_thread: 63,
            max_threads_per_sm: 1536,
            warp_size: 32,
            launch_overhead_s: 8e-6,
            issue_gap_s: 45e-6,
            pcie_pinned_gbs: 6.0, // PCIe 2.0 x16 dedicated (Table 1)
            pcie_pageable_gbs: 2.8,
            pcie_latency_s: 12e-6,
            async_streams: 16,
        }
    }

    /// NVIDIA Tesla K40 (Kepler) — the CRAY XC30 card of the paper.
    pub fn k40() -> Self {
        Self {
            name: "Tesla K40",
            arch: Arch::Kepler,
            peak_gflops_sp: 4291.0,
            mem_bandwidth_gbs: 288.0,
            global_mem_bytes: 12 * (1 << 30),
            cuda_cores: 2880,
            sm_count: 15,
            regs_per_sm: 64 * 1024,
            max_regs_per_thread: 255,
            max_threads_per_sm: 2048,
            warp_size: 32,
            launch_overhead_s: 6e-6,
            issue_gap_s: 40e-6,
            pcie_pinned_gbs: 10.0, // PCIe 3.0 x16
            pcie_pageable_gbs: 4.0,
            pcie_latency_s: 10e-6,
            async_streams: 32,
        }
    }

    /// Peak flops in flop/s.
    pub fn peak_flops(&self) -> f64 {
        self.peak_gflops_sp * 1e9
    }

    /// DRAM bandwidth in byte/s.
    pub fn bandwidth(&self) -> f64 {
        self.mem_bandwidth_gbs * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_headline_numbers() {
        let f = DeviceSpec::m2090();
        let k = DeviceSpec::k40();
        assert_eq!(f.cuda_cores, 512);
        assert_eq!(k.cuda_cores, 2880);
        assert_eq!(f.global_mem_bytes, 6 * (1 << 30));
        assert_eq!(k.global_mem_bytes, 12 * (1 << 30));
        // "Kepler cards arithmetically outpace Fermi cards in terms of
        // memory bandwidth, number of cores, and throughput."
        assert!(k.peak_gflops_sp > f.peak_gflops_sp);
        assert!(k.mem_bandwidth_gbs > f.mem_bandwidth_gbs);
    }

    #[test]
    fn register_caps_differ_by_arch() {
        assert_eq!(DeviceSpec::m2090().max_regs_per_thread, 63);
        assert_eq!(DeviceSpec::k40().max_regs_per_thread, 255);
    }

    #[test]
    fn unit_conversions() {
        let k = DeviceSpec::k40();
        assert_eq!(k.peak_flops(), 4.291e12);
        assert_eq!(k.bandwidth(), 2.88e11);
    }
}
