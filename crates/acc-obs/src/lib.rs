//! # acc-obs
//!
//! Full-stack observability for the simulated OpenACC/RTM pipeline — the
//! reproduction's stand-in for the paper's Section 6 toolbox ("Nvidia
//! profiler was the main tool used to analyze our performance
//! measurements", `nvprof --metrics`, and the visual timeline).
//!
//! Three cooperating pieces, bundled by [`ObsSession`]:
//!
//! * **Spans** ([`tracer`]) — structured begin/end intervals in *simulated*
//!   time, on per-component tracks (host, one per device stream, one per
//!   MPI rank). The OpenACC runtime emits directive and data-movement
//!   spans, the accel layer kernel/memcpy spans at the timestamps the
//!   stream scheduler actually assigned, `mpi-sim` halo-exchange spans,
//!   and `rtm-core` per-shot phase, checkpoint, and resilience spans.
//!   [`Tracer::chrome_trace`] serializes the whole timeline as Perfetto /
//!   `chrome://tracing` JSON.
//! * **Kernel counters** ([`metrics`]) — an `nvprof --metrics`-style table
//!   (achieved occupancy, DRAM read/write throughput, coalescing
//!   efficiencies, spill traffic, roofline classification) derived from
//!   [`accel_sim::RooflineTerms`], the *same* struct the timing model
//!   consumes, so counters and timings agree by construction.
//! * **Registry** ([`registry`]) — named counters, gauges, and
//!   log-bucketed histograms (kernels launched, bytes by direction, halo
//!   bytes, retries, checkpoint traffic) serializable to JSON.
//! * **Wall-clock bridge** ([`wallclock`]) — ingests the host engine's
//!   real-time profile (`exec_host::prof`) as `wall worker N` tracks in
//!   the *same* trace (distinct clock domain, explicitly labeled), plus
//!   derived gang metrics: utilization, barrier-wait fraction, slab
//!   imbalance, per-worker busy time, and a `complete` flag that turns
//!   false when the profiler lost events.

pub mod metrics;
pub mod registry;
pub mod session;
pub mod span;
pub mod tracer;
pub mod wallclock;

pub use metrics::{BoundKind, KernelMetrics, MetricsTable};
pub use registry::{Histogram, Registry};
pub use session::ObsSession;
pub use span::{Span, SpanCat, Track};
pub use tracer::Tracer;
pub use wallclock::{HostReport, WorkerStat};
