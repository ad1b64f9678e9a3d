//! # accel-sim
//!
//! A GPU architecture and performance simulator — the substrate that stands
//! in for the paper's NVIDIA Fermi M2090 and Kepler K40 cards.
//!
//! Rust has no OpenACC analogue and this reproduction has no GPU, so the
//! paper's *performance* mechanisms are modeled analytically while the
//! *numerics* run on host threads (see `openacc-sim`). The model captures
//! every mechanism the paper's evaluation leans on:
//!
//! * **Roofline kernel timing** ([`kernel`]) — a kernel is compute-bound or
//!   bandwidth-bound against the card's published peak GFLOPS and DRAM
//!   bandwidth (Table 2 of the paper),
//! * **Occupancy & register pressure** ([`occupancy`]) — Fermi's 63-register
//!   cap forces spills for the fused acoustic kernel (Figure 12); the
//!   occupancy/spill balance as `maxregcount` varies produces Figure 10,
//! * **Coalescing & divergence penalties** ([`kernel`]) — strided access in
//!   the acoustic 2D backward kernel (Figure 13) and the isotropic boundary
//!   `if`s (Figures 6/7),
//! * **Device memory capacity** ([`memory`]) — allocation tracking that
//!   reproduces the elastic-3D out-of-memory `X` cells of Tables 3/4,
//! * **PCIe transfers** ([`pcie`]) — pinned vs pageable, contiguous vs
//!   strided ghost-node exchanges,
//! * **Streams** ([`stream`]) — serialized vs async kernel issue, the
//!   mechanism behind the CRAY 30 % async win (Figure 11),
//! * **Profiling** ([`profiler`]) — an `nvprof`-style event ledger that
//!   regenerates the kernel-utilization breakdowns of Figures 11/14/15,
//! * **Fault injection** ([`fault`]) — seeded, fully deterministic
//!   device-loss / transient-allocation-failure / straggler schedules that
//!   the survey scheduler (`rtm-core::resilient`) and the job server
//!   (`acc-serve`) run against.

pub mod device;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod occupancy;
pub mod pcie;
pub mod profiler;
pub mod stream;

pub use device::DeviceSpec;
pub use fault::{FaultKind, FaultPlan, FaultRates};
pub use kernel::{KernelProfile, KernelTiming, RooflineTerms};
pub use memory::{DeviceMemory, OutOfMemory};
pub use pcie::{HostAlloc, TransferKind};
pub use profiler::{Event, EventKind, Profiler};
pub use stream::{DrainSchedule, IssueMode, ScheduledKernel, StreamSim};

/// Simulated time in seconds.
pub type SimTime = f64;
