//! Roofline kernel-time model.
//!
//! A kernel over N grid points moves `N·bytes_per_point` of DRAM traffic and
//! executes `N·flops_per_point` of arithmetic; its duration is the larger of
//! the bandwidth time and the compute time, degraded by occupancy-limited
//! latency hiding, uncoalesced access, branch divergence, and register-spill
//! traffic, plus the launch overhead. These are precisely the effects the
//! paper's optimization study manipulates.

use crate::occupancy::{allocate, efficiency, spill_bytes_per_point};
use crate::{DeviceSpec, SimTime};

/// Penalty divisor applied to DRAM bandwidth when a warp's accesses are not
/// coalesced (each 128-byte transaction delivers ~one useful word; caches
/// recover part of it). The paper's Figure 13 transposition recovered ~3×
/// end-to-end, consistent with this factor net of the added transpose traffic.
pub const UNCOALESCED_BW_DIVISOR: f64 = 6.0;

/// Penalty divisor on compute throughput when the innermost loop is left
/// sequential inside each thread (no vector lanes mapped).
pub const UNVECTORIZED_COMPUTE_DIVISOR: f64 = 4.0;

/// Fraction of peak DRAM bandwidth directive-generated stencil kernels
/// sustain. The paper is explicit that "the performance obtained still does
/// not reach what can be achieved using CUDA or OpenCL"; era OpenACC
/// back-ends delivered well under half of STREAM-class bandwidth on
/// stencil bodies (uncached index arithmetic, no shared-memory staging —
/// the `tile`/`cache` clauses "are not working properly in both CRAY and
/// PGI").
pub const DIRECTIVE_BW_EFFICIENCY: f64 = 0.38;

/// Fraction of peak SP throughput directive-generated kernels sustain
/// (no manual ILP scheduling or FMA shaping).
pub const DIRECTIVE_COMPUTE_EFFICIENCY: f64 = 0.5;

/// Dynamic description of one kernel launch, assembled by `openacc-sim`
/// from the propagator's static `seismic_prop`-style descriptor and the
/// compiler's loop-mapping decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name for the profiler ledger.
    pub name: String,
    /// Grid points the launch covers.
    pub points: u64,
    /// Arithmetic per point.
    pub flops_per_point: f64,
    /// Effective DRAM bytes per point (reads + writes after cache reuse).
    pub bytes_per_point: f64,
    /// Live registers the kernel body needs per thread.
    pub regs_needed: u32,
    /// `maxregcount` compiler cap, if any.
    pub maxregcount: Option<u32>,
    /// Warp-coalesced global accesses?
    pub coalesced: bool,
    /// Fraction of warps with divergent branches (0 = uniform).
    pub divergence: f64,
    /// Innermost loop mapped to vector lanes?
    pub vectorized: bool,
    /// Fraction of `bytes_per_point` that is read traffic (the rest is
    /// writes) — lets the counter model split DRAM throughput the way
    /// `nvprof --metrics dram_read_throughput,dram_write_throughput` does.
    pub read_fraction: f64,
}

impl KernelProfile {
    /// Convenience constructor with sane defaults (coalesced, vectorized,
    /// no cap).
    pub fn new(name: impl Into<String>, points: u64, flops: f64, bytes: f64, regs: u32) -> Self {
        Self {
            name: name.into(),
            points,
            flops_per_point: flops,
            bytes_per_point: bytes,
            regs_needed: regs,
            maxregcount: None,
            coalesced: true,
            divergence: 0.0,
            vectorized: true,
            read_fraction: 0.75,
        }
    }
}

/// Model output for one launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// Total simulated duration including launch overhead, seconds.
    pub total_s: SimTime,
    /// Pure execution time, seconds.
    pub exec_s: SimTime,
    /// Whether the bandwidth term dominated.
    pub memory_bound: bool,
    /// Modeled occupancy.
    pub occupancy: f64,
    /// Spilled registers per thread.
    pub spilled: u32,
}

/// Every intermediate term of the roofline evaluation for one launch.
///
/// [`time_kernel`] is a thin wrapper over this; the observability layer
/// (`acc-obs`) derives its nvprof `--metrics`-style counters from the same
/// struct, so the counters agree with the timing model *by construction*
/// rather than by re-deriving the arithmetic in two places.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflineTerms {
    /// Occupancy from the register allocator.
    pub occupancy: f64,
    /// Spilled registers per thread.
    pub spilled: u32,
    /// Latency-hiding efficiency of the ALU pipeline at this occupancy.
    pub eff_compute: f64,
    /// Latency-hiding efficiency of the memory pipeline at this occupancy.
    pub eff_memory: f64,
    /// Extra DRAM bytes per point from register spills.
    pub spill_bytes_per_point: f64,
    /// Total DRAM bytes per point (profile bytes + spill traffic).
    pub bytes_per_point: f64,
    /// Sustained DRAM bandwidth after all penalties, byte/s.
    pub effective_bw: f64,
    /// Sustained arithmetic throughput after all penalties, flop/s.
    pub effective_peak: f64,
    /// Divergence issue-slot multiplier (`1 + divergence`).
    pub div_penalty: f64,
    /// Bandwidth-limited execution time, seconds.
    pub t_mem: SimTime,
    /// Compute-limited execution time, seconds.
    pub t_cmp: SimTime,
    /// Execution time `max(t_mem, t_cmp)`, seconds.
    pub exec_s: SimTime,
    /// Whether the bandwidth term dominated.
    pub memory_bound: bool,
}

/// Evaluate every term of the roofline model for one launch on `dev`.
pub fn roofline_terms(dev: &DeviceSpec, k: &KernelProfile) -> RooflineTerms {
    assert!(k.points > 0, "kernel must cover at least one point");
    let alloc = allocate(dev, k.regs_needed.max(1), k.maxregcount);
    let (eff_c, eff_m) = efficiency(alloc.occupancy);

    let spill_bytes = spill_bytes_per_point(alloc.spilled);
    let bytes = k.bytes_per_point + spill_bytes;
    let mut bw = dev.bandwidth() * eff_m * DIRECTIVE_BW_EFFICIENCY;
    if !k.coalesced {
        bw /= UNCOALESCED_BW_DIVISOR;
    }
    // Divergent warps execute both sides of boundary branches: the paper's
    // isotropic kernel wastes issue slots on the PML `if`s.
    let div_penalty = 1.0 + k.divergence;

    let mut peak = dev.peak_flops() * eff_c * DIRECTIVE_COMPUTE_EFFICIENCY;
    if !k.vectorized {
        peak /= UNVECTORIZED_COMPUTE_DIVISOR;
        // Unvectorized inner loops also serialize memory requests — but an
        // uncoalesced kernel already pays one transaction per word, so the
        // penalties do not stack.
        if k.coalesced {
            bw /= 2.0;
        }
    }

    let n = k.points as f64;
    let t_mem = n * bytes / bw;
    let t_cmp = n * k.flops_per_point * div_penalty / peak;
    RooflineTerms {
        occupancy: alloc.occupancy,
        spilled: alloc.spilled,
        eff_compute: eff_c,
        eff_memory: eff_m,
        spill_bytes_per_point: spill_bytes,
        bytes_per_point: bytes,
        effective_bw: bw,
        effective_peak: peak,
        div_penalty,
        t_mem,
        t_cmp,
        exec_s: t_mem.max(t_cmp),
        memory_bound: t_mem >= t_cmp,
    }
}

/// Evaluate the roofline model for one launch on `dev`.
pub fn time_kernel(dev: &DeviceSpec, k: &KernelProfile) -> KernelTiming {
    let t = roofline_terms(dev, k);
    KernelTiming {
        total_s: t.exec_s + dev.launch_overhead_s,
        exec_s: t.exec_s,
        memory_bound: t.memory_bound,
        occupancy: t.occupancy,
        spilled: t.spilled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stencil(points: u64) -> KernelProfile {
        KernelProfile::new("k", points, 58.0, 22.4, 52)
    }

    #[test]
    fn stencils_are_memory_bound_and_kepler_is_faster() {
        let k = stencil(256 * 256 * 256);
        let f_t = time_kernel(&DeviceSpec::m2090(), &k);
        let k_t = time_kernel(&DeviceSpec::k40(), &k);
        assert!(f_t.memory_bound && k_t.memory_bound);
        assert!(k_t.exec_s < f_t.exec_s);
        // Kepler/Fermi ratio bounded by the bandwidth ratio (288/180 = 1.6).
        let ratio = f_t.exec_s / k_t.exec_s;
        assert!(ratio > 1.1 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn uncoalesced_costs_several_x() {
        let mut k = stencil(1 << 22);
        let good = time_kernel(&DeviceSpec::k40(), &k);
        k.coalesced = false;
        let bad = time_kernel(&DeviceSpec::k40(), &k);
        let ratio = bad.exec_s / good.exec_s;
        assert!(ratio > 3.0 && ratio < 8.0, "ratio {ratio}");
    }

    #[test]
    fn divergence_penalizes_compute_bound_kernels() {
        let mut k = KernelProfile::new("c", 1 << 22, 400.0, 8.0, 40);
        let base = time_kernel(&DeviceSpec::k40(), &k);
        assert!(!base.memory_bound);
        k.divergence = 0.5;
        let div = time_kernel(&DeviceSpec::k40(), &k);
        assert!((div.exec_s / base.exec_s - 1.5).abs() < 0.05);
    }

    /// The Figure 12 shape: a 96-register fused kernel is much slower than
    /// three 32-register fissioned kernels on Fermi, but roughly the same
    /// (launches aside) on Kepler.
    #[test]
    fn fission_wins_on_fermi_only() {
        let points = 1u64 << 24;
        let fused = KernelProfile::new("fused", points, 52.0, 45.6, 96);
        let fiss: Vec<_> = (0..3)
            .map(|i| KernelProfile::new(format!("f{i}"), points, 18.0, 21.6, 32))
            .collect();
        for (dev, expect_gain) in [(DeviceSpec::m2090(), true), (DeviceSpec::k40(), false)] {
            let t_fused = time_kernel(&dev, &fused).total_s;
            let t_fiss: f64 = fiss.iter().map(|k| time_kernel(&dev, k).total_s).sum();
            let speedup = t_fused / t_fiss;
            if expect_gain {
                assert!(speedup > 1.5, "{}: speedup {speedup}", dev.name);
            } else {
                assert!(speedup < 1.3, "{}: speedup {speedup}", dev.name);
            }
        }
    }

    #[test]
    fn launch_overhead_included_once() {
        let dev = DeviceSpec::k40();
        let k = stencil(1);
        let t = time_kernel(&dev, &k);
        assert!(t.total_s >= dev.launch_overhead_s);
        assert!(t.total_s - t.exec_s == dev.launch_overhead_s);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_points_rejected() {
        let k = KernelProfile::new("z", 0, 1.0, 1.0, 1);
        time_kernel(&DeviceSpec::k40(), &k);
    }

    /// The exposed terms must be exactly what the timing wrapper consumed
    /// — the contract the `acc-obs` counter model relies on.
    #[test]
    fn terms_and_timing_agree_exactly() {
        for dev in [DeviceSpec::m2090(), DeviceSpec::k40()] {
            for k in [
                stencil(1 << 20),
                KernelProfile {
                    coalesced: false,
                    vectorized: false,
                    divergence: 0.3,
                    maxregcount: Some(32),
                    ..stencil(1 << 18)
                },
            ] {
                let t = time_kernel(&dev, &k);
                let r = roofline_terms(&dev, &k);
                assert_eq!(t.exec_s, r.exec_s);
                assert_eq!(t.occupancy, r.occupancy);
                assert_eq!(t.spilled, r.spilled);
                assert_eq!(t.memory_bound, r.memory_bound);
                assert_eq!(r.exec_s, r.t_mem.max(r.t_cmp));
                let n = k.points as f64;
                assert!((r.t_mem - n * r.bytes_per_point / r.effective_bw).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unvectorized_slows_both_paths() {
        let mut k = stencil(1 << 22);
        let base = time_kernel(&DeviceSpec::k40(), &k);
        k.vectorized = false;
        let slow = time_kernel(&DeviceSpec::k40(), &k);
        assert!(slow.exec_s > 1.8 * base.exec_s);
    }
}
