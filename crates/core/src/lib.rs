//! # rtm-core
//!
//! Seismic modeling and Reverse Time Migration — the paper's contribution —
//! on two back-ends:
//!
//! * **CPU-MPI** (the reference of Algorithm 1): domain decomposition over
//!   `mpi-sim` ranks with nonblocking ghost exchange, plus the full-socket
//!   roofline/interconnect *timing model* used as the baseline of
//!   Tables 3/4,
//! * **OpenACC-GPU**: the five-step port of Figure 4 — (1) enter-data
//!   allocation, (2) forward phase with partial ghost transfers and
//!   snapshot saves, (3) offload-forward/upload-backward swap, (4) backward
//!   phase with imaging condition on GPU or CPU, (5) image store and
//!   deallocation — executing the physics on host gangs while the
//!   `openacc-sim`/`accel-sim` stack prices every launch and transfer.
//!
//! Modules:
//!
//! * [`case`] — the twelve seismic cases, clusters, optimization knobs,
//! * [`plan`] — per-time-step kernel launch schedules (directives included)
//!   for each case and optimization configuration,
//! * [`gpu_time`] — production-scale GPU timing estimates (Tables 3/4),
//! * [`cpu_time`] — full-socket MPI baseline timing estimates,
//! * [`modeling`] — 2D media and wavefield states, and the forward
//!   modeling driver (2D and 3D),
//! * [`modeling3`] — 3D media and wavefield states,
//! * [`rtm`] — the RTM driver (Algorithm 1, both phases; 2D and 3D),
//! * [`rtm3`] — 3D names of the RTM driver and 3D image post-processing,
//! * [`mpi_run`] — real decomposed CPU execution over `mpi-sim` ranks,
//! * [`multi_gpu`] — the paper's "path forward": decomposed multi-GPU
//!   pricing with ghost packing and communication/computation overlap,
//! * [`checkpoint`] — bounded-memory RTM via store-vs-recompute
//!   checkpointing of the source wavefield,
//! * [`rand_boundary`] — checkpoint-free RTM: seeded random-boundary media
//!   and time-reversed source-wavefield reconstruction (2D and 3D), zero
//!   snapshot storage,
//! * [`shot_parallel`] — survey-level shot distribution over ranks with
//!   image stacking on the root,
//! * [`resilient`] — fault-tolerant execution under a seeded
//!   `accel_sim::fault::FaultPlan`: retry with jittered backoff, device
//!   blacklisting and shot rescheduling, checkpoint-restart, and the
//!   resilience accounting behind the overhead-vs-MTTI tables,
//! * [`verify`] — directive-program extraction for `acc-verify`: the same
//!   launch plans as checkable [`acc_verify::Program`]s, plus the seeded
//!   mutations the verification tests break them with.
//!
//! Every single-domain modeling and RTM entry point above runs through one
//! private shot driver: one forward time loop and one backward time loop,
//! with dense snapshots, checkpointed replay and random-boundary time
//! reversal as three sources of the backward loop's source wavefield.

pub mod case;
pub mod checkpoint;
pub mod cpu_time;
mod drive;
pub mod error;
pub mod gpu_time;
pub mod modeling;
pub mod modeling3;
pub mod mpi_run;
pub mod multi_gpu;
pub mod plan;
pub mod rand_boundary;
pub mod resilient;
pub mod rtm;
pub mod rtm3;
pub mod shot_parallel;
pub mod verify;

pub use case::{Cluster, OptimizationConfig, SeismicCase};
pub use error::{ConfigError, RtmError};
pub use gpu_time::TimingBreakdown;
pub use resilient::{ResilienceStats, RetryPolicy};
