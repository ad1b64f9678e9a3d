//! `acc-serve`: a multi-tenant survey job server over the simulated GPU
//! fleet.
//!
//! A production migration cluster is shared: several processing teams
//! submit RTM and modeling surveys against the same pool of accelerator
//! nodes, with different priorities and delivery deadlines. This crate
//! models that control plane end to end, deterministically:
//!
//! - **Admission control** ([`server`]): a cost-bounded queue. Each job's
//!   per-shot cost is priced from the paper's timing model ([`cost`]);
//!   submissions that would overflow the queue, bust their own deadline,
//!   or exceed the tenant's outstanding-cost quota are rejected with a
//!   typed [`Rejected`] reason instead of being accepted and dropped.
//! - **Weighted fair queueing** ([`fair`]): deficit round-robin across
//!   tenants at shot granularity, so one tenant's burst cannot starve the
//!   others beyond its weight share.
//! - **Deadlines and cancellation**: each job's deadline budget is
//!   propagated into the per-shot retry loop
//!   ([`rtm_core::resilient::run_shot_attempts`]) so a shot that can no
//!   longer finish in time is cancelled *before* burning device time, and
//!   the device slot is reclaimed immediately.
//! - **Circuit breakers** ([`breaker`]): a device that keeps failing
//!   transiently is opened for a cooldown instead of being hammered,
//!   half-open probes re-admit it, and every transition lands in the
//!   observability registry and timeline.
//! - **Load shedding / brown-out**: past a high watermark the server
//!   sheds the lowest-priority queued jobs and stretches checkpoint
//!   cadence (modeled as a cost relief on subsequent shots) until the
//!   backlog falls below the low watermark.
//! - **Graceful drain** ([`snapshot`]): a drain request finishes in-flight
//!   shots, persists a resumable queue snapshot (completed shot images
//!   included, bit-exact), and a resumed server produces stacked images
//!   bitwise identical to an uninterrupted run.
//!
//! Scheduling runs in simulated time and is a pure function of the
//! scenario, the server configuration, and the fault plan; the
//! physics of real payloads runs on worker threads (crossbeam channels),
//! but no scheduling decision depends on a physics result, so the whole
//! serve is deterministic.

pub mod breaker;
pub mod cost;
pub mod fair;
pub mod job;
pub mod server;
pub mod snapshot;

pub use breaker::{BreakerConfig, BreakerState, BreakerTransition};
pub use cost::price_shot_cost;
pub use fair::DrrQueue;
pub use job::{
    JobCost, JobKind, JobOutcome, JobSpec, Payload, Rejected, RtmJob, Scenario, Submission, Tenant,
};
pub use server::{BrownoutConfig, ServeReport, Server, ServerConfig};
pub use snapshot::QueueSnapshot;
