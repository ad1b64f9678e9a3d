//! Job specifications, tenants, and the typed submission outcomes.

use rtm_core::case::Workload;
use rtm_core::modeling::Medium2;
use rtm_core::{OptimizationConfig, SeismicCase};
use seismic_source::{Acquisition2, Wavelet};
use std::sync::Arc;

/// One paying customer of the service.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Display name (lands in reports and fairness tables).
    pub name: String,
    /// Fair-queueing weight (≥ 1): a tenant with weight 2 is entitled to
    /// twice the device time of a tenant with weight 1 while both are
    /// backlogged.
    pub weight: u32,
}

impl Tenant {
    /// Tenant with the given name and weight.
    pub fn new(name: impl Into<String>, weight: u32) -> Self {
        Self {
            name: name.into(),
            weight: weight.max(1),
        }
    }
}

/// Which driver a job exercises (pricing differs: RTM replays the forward
/// wavefield, modeling does not) — the schedule job of [`rtm_core::plan`].
pub use rtm_core::plan::Job as JobKind;

/// How the per-shot cost of a job is determined.
#[derive(Debug, Clone, PartialEq)]
pub enum JobCost {
    /// The submitter supplies the per-shot cost directly (gp·s of device
    /// time). Used by synthetic scenarios and tests.
    FixedShotCost(f64),
    /// Price the shot from the paper's timing model: a capped-step probe
    /// run of the given case and workload, linearly extrapolated to the
    /// full step count. See [`crate::cost::price_shot_cost`].
    Priced {
        /// Propagator case.
        case: SeismicCase,
        /// Grid and step-count geometry.
        workload: Workload,
        /// RTM or modeling pricing.
        kind: JobKind,
    },
}

/// The physics a completed job actually runs.
#[derive(Clone)]
pub enum Payload {
    /// No physics — the job only exercises the scheduler. Completed jobs
    /// produce no image.
    Synthetic,
    /// A real 2-D survey: every shot is migrated with
    /// [`rtm_core::rtm::run_rtm`] on a worker thread and the per-shot
    /// images are stacked in shot order (bitwise deterministic).
    Rtm2(Arc<RtmJob>),
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Synthetic => write!(f, "Synthetic"),
            Payload::Rtm2(j) => write!(f, "Rtm2({} shots)", j.shots.len()),
        }
    }
}

/// The physics description of a real survey job.
pub struct RtmJob {
    /// Earth model (shared across shots).
    pub medium: Medium2,
    /// One acquisition per shot.
    pub shots: Vec<Acquisition2>,
    /// Source wavelet.
    pub wavelet: Wavelet,
    /// Kernel optimization configuration.
    pub config: OptimizationConfig,
    /// Forward time steps.
    pub steps: usize,
    /// Snapshot save period.
    pub snap_period: usize,
    /// Gang count per shot.
    pub gangs: usize,
}

/// One job as submitted by a tenant.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Index into [`Scenario::tenants`].
    pub tenant: usize,
    /// Priority class: higher is more important. The brown-out shedder
    /// drops the *lowest* priority queued jobs first.
    pub priority: u8,
    /// Absolute completion deadline, simulated seconds (None = best
    /// effort). Propagated into the per-shot retry loop.
    pub deadline_s: Option<f64>,
    /// Number of shots.
    pub n_shots: usize,
    /// Per-shot cost model.
    pub cost: JobCost,
    /// What a completed shot computes.
    pub payload: Payload,
}

impl JobSpec {
    /// Synthetic best-effort job (scheduler-only, fixed cost).
    pub fn synthetic(tenant: usize, priority: u8, n_shots: usize, shot_cost_s: f64) -> Self {
        Self {
            tenant,
            priority,
            deadline_s: None,
            n_shots,
            cost: JobCost::FixedShotCost(shot_cost_s),
            payload: Payload::Synthetic,
        }
    }

    /// The same job with an absolute deadline.
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }
}

/// A job plus its arrival time.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Simulated arrival time, seconds.
    pub arrival_s: f64,
    /// The job.
    pub spec: JobSpec,
}

/// Everything one serve processes: the tenant table and the submission
/// stream (sorted by arrival by [`crate::Server::run`]).
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// Tenants; [`JobSpec::tenant`] indexes this table.
    pub tenants: Vec<Tenant>,
    /// Submissions, any order (the server sorts by arrival, stable).
    pub jobs: Vec<Submission>,
}

/// Why a submission was refused at admission. Typed so clients can react
/// (back off, resubmit smaller, escalate priority) instead of parsing
/// strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejected {
    /// Admitting the job would push total queued work past the queue's
    /// cost capacity.
    QueueFull {
        /// Work already queued, gp·s.
        queued_cost_s: f64,
        /// The queue's capacity, gp·s.
        capacity_cost_s: f64,
    },
    /// Even with the whole fleet idle the job could not finish before its
    /// own deadline — accepting it would only waste device time.
    DeadlineInfeasible {
        /// Optimistic completion estimate, seconds.
        estimated_finish_s: f64,
        /// The submitted deadline.
        deadline_s: f64,
    },
    /// The tenant already has its quota of outstanding work queued.
    TenantQuotaExceeded {
        /// The tenant's queued cost, gp·s.
        outstanding_cost_s: f64,
        /// The per-tenant quota, gp·s.
        quota_cost_s: f64,
    },
    /// The cost model could not price the workload (unsupported case or
    /// a workload the device rejects).
    WorkloadInfeasible {
        /// Pricing failure detail.
        why: String,
    },
    /// The server is draining and accepts no new work.
    Draining,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull {
                queued_cost_s,
                capacity_cost_s,
            } => write!(
                f,
                "queue full ({queued_cost_s:.1} of {capacity_cost_s:.1} gp·s queued)"
            ),
            Rejected::DeadlineInfeasible {
                estimated_finish_s,
                deadline_s,
            } => write!(
                f,
                "deadline infeasible (finish ≈ {estimated_finish_s:.1}s > deadline {deadline_s:.1}s)"
            ),
            Rejected::TenantQuotaExceeded {
                outstanding_cost_s,
                quota_cost_s,
            } => write!(
                f,
                "tenant quota exceeded ({outstanding_cost_s:.1} of {quota_cost_s:.1} gp·s outstanding)"
            ),
            Rejected::WorkloadInfeasible { why } => write!(f, "workload infeasible: {why}"),
            Rejected::Draining => write!(f, "server draining"),
        }
    }
}

/// Terminal state of one submission.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// All shots ran; the image (if any) is in the report.
    Completed {
        /// Completion time, simulated seconds.
        finish_s: f64,
        /// Completion minus arrival.
        latency_s: f64,
        /// True when any shot ran under brown-out checkpoint relief.
        degraded: bool,
    },
    /// Refused at admission.
    Rejected(Rejected),
    /// Admitted, then dropped by the brown-out shedder before any shot
    /// started.
    Shed {
        /// When the shed happened.
        at_s: f64,
    },
    /// Admitted, then cancelled because the deadline became unreachable.
    CancelledDeadline {
        /// When the cancellation fired.
        at_s: f64,
    },
    /// Admitted but unfinished when the server drained: the job lives on
    /// in the queue snapshot and completes under [`crate::Server::resume`].
    Drained,
    /// The fleet could no longer run the job (every device lost).
    Failed {
        /// What went wrong.
        error: String,
    },
}

impl JobOutcome {
    /// True for [`JobOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_weight_floors_at_one() {
        assert_eq!(Tenant::new("t", 0).weight, 1);
        assert_eq!(Tenant::new("t", 3).weight, 3);
    }

    #[test]
    fn rejection_displays_name_the_reason() {
        let r = Rejected::QueueFull {
            queued_cost_s: 90.0,
            capacity_cost_s: 100.0,
        };
        assert!(r.to_string().contains("queue full"));
        let d = Rejected::DeadlineInfeasible {
            estimated_finish_s: 50.0,
            deadline_s: 10.0,
        };
        assert!(d.to_string().contains("deadline"));
        assert!(Rejected::Draining.to_string().contains("draining"));
    }

    #[test]
    fn synthetic_spec_builder() {
        let s = JobSpec::synthetic(1, 3, 4, 2.0).with_deadline(9.0);
        assert_eq!(s.tenant, 1);
        assert_eq!(s.n_shots, 4);
        assert_eq!(s.deadline_s, Some(9.0));
        assert!(matches!(s.cost, JobCost::FixedShotCost(c) if c == 2.0));
        assert!(matches!(s.payload, Payload::Synthetic));
    }
}
