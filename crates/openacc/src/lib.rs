//! # openacc-sim
//!
//! An OpenACC-style directive runtime over the simulated accelerator.
//!
//! The paper programs its GPUs exclusively through OpenACC 2.0 directives
//! compiled by PGI (13.7 / 14.3 / 14.6) and CRAY (8.2.6). This crate
//! reproduces that programming surface in Rust:
//!
//! * [`data`] — the device data environment: `enter data copyin`,
//!   `exit data delete`, `update host/device`, `present`, `create`, with
//!   real capacity accounting on the simulated card and every transfer
//!   priced through the PCIe model and recorded in the profiler,
//! * [`access`] — declared per-kernel read/write sets as affine
//!   `base + stride·i` descriptors: the checkable form of every directive
//!   claim, consumed by the `acc-verify` static analyzer and replayed by
//!   the Tier-2 sanitizer in [`exec`],
//! * [`construct`] — the compute constructs: `kernels` and `parallel` with
//!   loop scheduling clauses (`gang`/`worker`/`vector`, `collapse`,
//!   `independent`, `seq`, `async`),
//! * [`compiler`] — two mapping back-ends with the *different heuristics*
//!   the paper measured: `PgiLike` ("it was more efficient to use the
//!   kernels directive to allow the compiler to handle the existing
//!   worksharing") and `CrayLike` ("the more information you pass to the
//!   compiler, the better performance you get"), including the PGI
//!   14.3 / 14.6 CUDA-backend differences of Figures 6/7,
//! * [`exec`] — the host-side execution engine that actually runs the loop
//!   bodies (gangs = thread slabs over the z-range), so wavefields are
//!   computed for real while the time is simulated. Gang launches run on
//!   the persistent worker pool of the re-exported [`exec_host`] crate
//!   (parked threads + fork-join barrier) instead of spawning OS threads
//!   per launch,
//! * [`runtime`] — [`runtime::AccRuntime`] tying it all together: launches
//!   price a kernel via the compiler's [`compiler::KernelPlan`] and the
//!   roofline model, append to a stream queue, and advance the simulated
//!   clock; data directives move simulated bytes.

pub use exec_host;

pub mod access;
pub mod compiler;
pub mod construct;
pub mod data;
pub mod exec;
pub mod runtime;

pub use access::{AccessSet, AffineAccess, ReduceOp, ReductionAccess};
pub use compiler::{Compiler, KernelPlan, PgiVersion};
pub use construct::{Clause, ConstructKind, LoopNest, LoopSched};
pub use data::DataEnv;
pub use runtime::AccRuntime;
