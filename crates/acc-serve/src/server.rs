//! The job server: a deterministic discrete-event scheduler over the
//! simulated fleet, with real physics on worker threads.
//!
//! Scheduling runs entirely in simulated time: device occupancy, retry
//! backoff, breaker cooldowns, and deadlines are all derived from the
//! fault plan and the per-shot cost model, never from wall clocks.
//! Real payload physics (per-shot RTM images) runs on worker threads fed
//! over crossbeam channels — but no scheduling decision reads a physics
//! result, so the schedule, every outcome, and every metric are a pure
//! function of `(config, scenario, fault plan, drain time)`.
//!
//! Within one simulated instant the processing order is fixed:
//! completions, then the drain trigger, then arrivals, then deadline
//! sweeps, then brown-out shedding, then dispatch — ties broken by
//! ascending device id and submission order, which is what makes
//! drain/resume replays bit-identical.

use crate::breaker::{Breaker, BreakerConfig, BreakerTransition};
use crate::cost::PriceCache;
use crate::fair::DrrQueue;
use crate::job::{JobCost, JobKind, JobOutcome, Payload, Rejected, RtmJob, Scenario, Submission};
use crate::snapshot::{CompletedShot, QueueSnapshot, SnapJob};
use acc_obs::{ObsSession, Span, SpanCat, Track};
use accel_sim::fault::FaultPlan;
use openacc_sim::compiler::Compiler;
use rtm_core::case::Cluster;
use rtm_core::resilient::{run_shot_attempts, CancellationToken, ShotOutcome};
use rtm_core::rtm::run_rtm;
use rtm_core::{RetryPolicy, RtmError};
use seismic_grid::Field2;
use std::collections::VecDeque;
use std::sync::Arc;

/// Brown-out (load-shedding) watermarks and degradation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Queue-cost fraction of capacity that switches brown-out on.
    pub high_frac: f64,
    /// Fraction the shedder drives the queue back down to; brown-out
    /// switches off below it.
    pub low_frac: f64,
    /// Multiplier (< 1) applied to the modeled per-shot cost while
    /// browned out — the server stretches checkpoint cadence to trade
    /// restart cost for throughput. Affected jobs are reported
    /// `degraded`; payload physics is unchanged.
    pub ckpt_relief: f64,
    /// Brown-out multiplier for [`crate::job::JobKind::RtmRandomBoundary`]
    /// shots. Remodeling-based jobs carry no checkpoint I/O at all, so the
    /// server can shed *more* of their modeled cost than checkpoint
    /// stretching buys on ordinary RTM — a deeper discount (smaller value
    /// than [`BrownoutConfig::ckpt_relief`]) makes deficit round-robin
    /// prefer dispatching random-boundary shots while degraded.
    pub remodel_relief: f64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            high_frac: 0.85,
            low_frac: 0.60,
            ckpt_relief: 0.90,
            remodel_relief: 0.75,
        }
    }
}

/// Server tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Fleet size the scheduler dispatches onto.
    pub n_devices: usize,
    /// Total queued-work capacity, gp·s of estimated device time.
    pub queue_capacity_cost_s: f64,
    /// Per-tenant outstanding-work quota, gp·s.
    pub tenant_quota_cost_s: f64,
    /// Retry policy for the per-shot retry loop.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Brown-out tuning.
    pub brownout: BrownoutConfig,
    /// Cluster used to price [`JobCost::Priced`] submissions.
    pub cluster: Cluster,
    /// Compiler used to price [`JobCost::Priced`] submissions.
    pub compiler: Compiler,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            n_devices: 4,
            queue_capacity_cost_s: 200.0,
            tenant_quota_cost_s: 120.0,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            brownout: BrownoutConfig::default(),
            cluster: Cluster::CrayXc30,
            compiler: Compiler::Cray,
        }
    }
}

/// What one serve produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Terminal outcome per submission (same order as
    /// [`Scenario::jobs`]).
    pub outcomes: Vec<JobOutcome>,
    /// Stacked image per submission (real-payload completed jobs only).
    pub images: Vec<Option<Field2>>,
    /// Last simulated event time.
    pub makespan_s: f64,
    /// Estimated device seconds of *completed* jobs.
    pub goodput_cost_s: f64,
    /// Estimated device seconds of all priceable submissions.
    pub offered_cost_s: f64,
    /// Mean completion latency (completed jobs), seconds.
    pub mean_latency_s: f64,
    /// 99th-percentile completion latency, seconds.
    pub p99_latency_s: f64,
    /// Shed jobs over admitted jobs.
    pub shed_rate: f64,
    /// Completed (served) cost per tenant.
    pub served_cost_by_tenant: Vec<f64>,
    /// Every breaker transition, in time order.
    pub breaker_log: Vec<BreakerTransition>,
    /// Completed-job count.
    pub jobs_completed: usize,
    /// Shed-job count.
    pub jobs_shed: usize,
    /// Rejected-at-admission count.
    pub jobs_rejected: usize,
    /// Deadline-cancelled count.
    pub jobs_cancelled: usize,
}

/// Internal per-job state.
struct JobState {
    sub_idx: usize,
    tenant: usize,
    priority: u8,
    deadline_s: Option<f64>,
    shot_cost_s: f64,
    /// Driver kind of [`JobCost::Priced`] submissions; `None` for fixed-cost
    /// synthetic jobs. Selects the brown-out relief multiplier.
    kind: Option<JobKind>,
    n_shots: usize,
    payload: Payload,
    arrival_s: f64,
    /// Shots not yet dispatched, dispatch order.
    remaining: VecDeque<usize>,
    /// Shots currently on devices.
    inflight: usize,
    /// Completed shot indices (DES order; stacking re-sorts).
    completed: Vec<usize>,
    /// Images carried over from a drain snapshot, keyed by shot.
    preloaded: Vec<CompletedShot>,
    degraded: bool,
    in_drr: bool,
    started: bool,
    first_start_s: f64,
    finish_s: f64,
    cancel: CancellationToken,
    outcome: Option<JobOutcome>,
}

/// Driver kind recorded on a job for brown-out relief selection.
fn job_kind(cost: &JobCost) -> Option<JobKind> {
    match cost {
        JobCost::FixedShotCost(_) => None,
        JobCost::Priced { kind, .. } => Some(*kind),
    }
}

impl JobState {
    fn job_cost_s(&self) -> f64 {
        self.shot_cost_s * self.n_shots as f64
    }
    fn outstanding_cost_s(&self) -> f64 {
        self.shot_cost_s * (self.remaining.len() + self.inflight) as f64
    }
    fn is_terminal(&self) -> bool {
        self.outcome.is_some()
    }
}

/// Internal per-device state.
struct DeviceState {
    free_at: f64,
    breaker: Breaker,
    lost: bool,
    attempt_seq: u64,
    inflight: Option<InFlight>,
}

struct InFlight {
    job: usize,
    shot: usize,
    end_s: f64,
    outcome: ShotOutcome,
    degraded: bool,
}

/// One physics task for the worker pool.
type ShotTask = (usize, usize, Arc<RtmJob>);
/// One computed image back from the pool.
type ShotResult = (usize, usize, Field2);

/// The job server. Construction binds the configuration and the fault
/// plan; [`Server::run`] / [`Server::resume`] execute scenarios.
pub struct Server {
    cfg: ServerConfig,
    faults: FaultPlan,
    /// Per-shot prices of [`JobCost::Priced`] jobs, probed once per key.
    prices: PriceCache,
}

impl Server {
    /// Server over the devices of the given fault plan.
    pub fn new(cfg: ServerConfig, faults: FaultPlan) -> Self {
        Self {
            cfg,
            faults,
            prices: PriceCache::default(),
        }
    }

    /// Serve a scenario to completion.
    pub fn run(
        &self,
        scenario: &Scenario,
        obs: Option<&ObsSession>,
    ) -> Result<ServeReport, RtmError> {
        let (report, _) = self.run_inner(scenario, None, None, obs)?;
        Ok(report)
    }

    /// Serve until `drain_at_s`, then stop admitting and dispatching,
    /// finish in-flight shots, and return a resumable snapshot of the
    /// unfinished work (None when nothing was left).
    pub fn run_with_drain(
        &self,
        scenario: &Scenario,
        drain_at_s: f64,
        obs: Option<&ObsSession>,
    ) -> Result<(ServeReport, Option<QueueSnapshot>), RtmError> {
        self.run_inner(scenario, Some(drain_at_s), None, obs)
    }

    /// Resume a drained serve: snapshot jobs re-enter the queue at the
    /// drain time (their completed shots' images are reused bit-exact),
    /// and scenario submissions arriving at or after the drain time are
    /// admitted normally. Submissions the first run already settled are
    /// reported as [`Rejected::Draining`] here.
    pub fn resume(
        &self,
        snapshot: &QueueSnapshot,
        scenario: &Scenario,
        obs: Option<&ObsSession>,
    ) -> Result<ServeReport, RtmError> {
        let (report, _) = self.run_inner(scenario, None, Some(snapshot), obs)?;
        Ok(report)
    }

    fn shot_price(&self, spec_cost: &JobCost) -> Result<f64, Rejected> {
        let cost = match spec_cost {
            JobCost::FixedShotCost(c) => *c,
            JobCost::Priced {
                case,
                workload,
                kind,
            } => self
                .prices
                .price(case, workload, *kind, self.cfg.cluster, self.cfg.compiler)
                .map_err(|why| Rejected::WorkloadInfeasible { why })?,
        };
        if !cost.is_finite() || cost <= 0.0 {
            return Err(Rejected::WorkloadInfeasible {
                why: format!("per-shot cost must be positive and finite, got {cost}"),
            });
        }
        Ok(cost)
    }

    #[allow(clippy::too_many_lines)]
    fn run_inner(
        &self,
        scenario: &Scenario,
        drain_at_s: Option<f64>,
        resume_from: Option<&QueueSnapshot>,
        obs: Option<&ObsSession>,
    ) -> Result<(ServeReport, Option<QueueSnapshot>), RtmError> {
        let n_subs = scenario.jobs.len();
        let n_dev = self.cfg.n_devices.min(self.faults.n_devices()).max(1);
        for sub in &scenario.jobs {
            if sub.spec.tenant >= scenario.tenants.len() {
                return Err(RtmError::MalformedPlan(format!(
                    "submission references tenant {} but only {} tenants exist",
                    sub.spec.tenant,
                    scenario.tenants.len()
                )));
            }
        }

        // Arrival order: by time, submission index breaking ties.
        let mut order: Vec<usize> = (0..n_subs).collect();
        order.sort_by(|&a, &b| {
            scenario.jobs[a]
                .arrival_s
                .total_cmp(&scenario.jobs[b].arrival_s)
                .then(a.cmp(&b))
        });

        let start_t = resume_from.map_or(0.0, |s| s.drained_at_s);
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; n_subs];
        let mut jobs: Vec<JobState> = Vec::new();
        let mut job_of_sub: Vec<Option<usize>> = vec![None; n_subs];
        let weights: Vec<u32> = scenario.tenants.iter().map(|t| t.weight).collect();
        let mut drr = DrrQueue::new(&weights);
        let mut devices: Vec<DeviceState> = (0..n_dev)
            .map(|_| DeviceState {
                free_at: start_t,
                breaker: Breaker::new(self.cfg.breaker),
                lost: false,
                attempt_seq: 0,
                inflight: None,
            })
            .collect();
        let mut queued_cost = 0.0f64;
        let mut tenant_outstanding = vec![0.0f64; scenario.tenants.len()];
        let mut brownout = false;
        let mut drained = false;
        let mut breaker_log: Vec<BreakerTransition> = Vec::new();
        let mut offered_cost = 0.0f64;
        let mut admitted = 0usize;
        let mut shed = 0usize;
        let mut rejected = 0usize;
        let mut cancelled = 0usize;
        let mut makespan = start_t;

        // Physics worker pool, spun up lazily on the first real payload.
        type PhysicsPool = (
            crossbeam::channel::Sender<ShotTask>,
            crossbeam::channel::Receiver<ShotResult>,
            Vec<std::thread::JoinHandle<()>>,
        );
        let mut pool: Option<PhysicsPool> = None;
        let spawn_pool = |pool: &mut Option<_>| {
            if pool.is_none() {
                let (task_tx, task_rx) = crossbeam::channel::unbounded::<ShotTask>();
                let (res_tx, res_rx) = crossbeam::channel::unbounded::<ShotResult>();
                let handles: Vec<_> = (0..n_dev.min(4))
                    .map(|_| {
                        let rx = task_rx.clone();
                        let tx = res_tx.clone();
                        std::thread::spawn(move || {
                            while let Ok((job, shot, payload)) = rx.recv() {
                                let r = run_rtm(
                                    &payload.medium,
                                    &payload.shots[shot],
                                    &payload.wavelet,
                                    &payload.config,
                                    payload.steps,
                                    payload.snap_period,
                                    payload.gangs,
                                );
                                let _ = tx.send((job, shot, r.image));
                            }
                        })
                    })
                    .collect();
                *pool = Some((task_tx, res_rx, handles));
            }
        };

        let record = |obs: Option<&ObsSession>, name: &str, by: u64| {
            if let Some(o) = obs {
                o.registry.inc(name, by);
            }
        };
        let gauge = |obs: Option<&ObsSession>, name: &str, v: f64| {
            if let Some(o) = obs {
                o.registry.set_gauge(name, v);
            }
        };
        let breaker_span = |obs: Option<&ObsSession>, tr: &BreakerTransition| {
            if let Some(o) = obs {
                o.span(Span::new(
                    Track::Service(tr.device as u32),
                    SpanCat::Service,
                    format!("breaker:{}", tr.to),
                    tr.at_s,
                    0.0,
                ));
                o.registry.inc(
                    match tr.to {
                        "open" => "breaker_opened",
                        "half_open" => "breaker_half_open",
                        _ => "breaker_closed",
                    },
                    1,
                );
            }
        };

        // Preload snapshot jobs (already admitted by the drained run; no
        // admission control, original arrival times kept for latency).
        if let Some(snap) = resume_from {
            for sj in &snap.jobs {
                let Some(sub) = scenario.jobs.get(sj.sub_idx) else {
                    return Err(RtmError::MalformedPlan(format!(
                        "snapshot references submission {} outside the scenario",
                        sj.sub_idx
                    )));
                };
                let cost = self.shot_price(&sub.spec.cost).map_err(|r| {
                    RtmError::MalformedPlan(format!("snapshot job unpriceable: {r}"))
                })?;
                let job_idx = jobs.len();
                let state = JobState {
                    sub_idx: sj.sub_idx,
                    tenant: sub.spec.tenant,
                    priority: sub.spec.priority,
                    deadline_s: sub.spec.deadline_s,
                    shot_cost_s: cost,
                    kind: job_kind(&sub.spec.cost),
                    n_shots: sub.spec.n_shots,
                    payload: sub.spec.payload.clone(),
                    arrival_s: sub.arrival_s,
                    remaining: sj.remaining.iter().copied().collect(),
                    inflight: 0,
                    completed: sj.completed.iter().map(|c| c.shot).collect(),
                    preloaded: sj.completed.clone(),
                    degraded: sj.degraded,
                    in_drr: true,
                    started: !sj.completed.is_empty(),
                    first_start_s: start_t,
                    finish_s: start_t,
                    cancel: CancellationToken::new(),
                    outcome: None,
                };
                queued_cost += state.outstanding_cost_s();
                tenant_outstanding[state.tenant] += state.outstanding_cost_s();
                drr.enqueue(state.tenant, job_idx, cost);
                job_of_sub[sj.sub_idx] = Some(job_idx);
                jobs.push(state);
                admitted += 1;
            }
        }

        let mut arrivals = order
            .into_iter()
            .filter(|&i| resume_from.is_none() || scenario.jobs[i].arrival_s >= start_t)
            .collect::<VecDeque<usize>>();
        // Submissions settled by the drained run show up as Draining here.
        if resume_from.is_some() {
            for (i, sub) in scenario.jobs.iter().enumerate() {
                if sub.arrival_s < start_t && job_of_sub[i].is_none() {
                    outcomes[i] = Some(JobOutcome::Rejected(Rejected::Draining));
                }
            }
        }

        let mut t = start_t;

        macro_rules! refresh_queue_gauges {
            () => {
                gauge(obs, "queue_depth", drr.len() as f64);
                gauge(obs, "queue_cost_s", queued_cost);
                gauge(obs, "brownout", if brownout { 1.0 } else { 0.0 });
                gauge(
                    obs,
                    "shed_rate",
                    if admitted > 0 {
                        shed as f64 / admitted as f64
                    } else {
                        0.0
                    },
                );
            };
        }

        // One submission through admission control.
        macro_rules! admit {
            ($sub_idx:expr, $sub:expr, $t:expr) => {{
                let sub: &Submission = $sub;
                record(obs, "jobs_submitted", 1);
                let verdict: Result<f64, Rejected> = if drained {
                    Err(Rejected::Draining)
                } else {
                    match self.shot_price(&sub.spec.cost) {
                        Err(r) => Err(r),
                        Ok(cost) if sub.spec.n_shots == 0 => {
                            let _ = cost;
                            Err(Rejected::WorkloadInfeasible {
                                why: "job has zero shots".to_string(),
                            })
                        }
                        Ok(cost) => {
                            let job_cost = cost * sub.spec.n_shots as f64;
                            offered_cost += job_cost;
                            let usable = devices.iter().filter(|d| !d.lost).count().max(1);
                            let waves = sub.spec.n_shots.div_ceil(usable);
                            let est_finish = $t + cost * waves as f64;
                            if let Some(dl) = sub.spec.deadline_s {
                                if est_finish > dl {
                                    Err(Rejected::DeadlineInfeasible {
                                        estimated_finish_s: est_finish,
                                        deadline_s: dl,
                                    })
                                } else if queued_cost + job_cost > self.cfg.queue_capacity_cost_s {
                                    Err(Rejected::QueueFull {
                                        queued_cost_s: queued_cost,
                                        capacity_cost_s: self.cfg.queue_capacity_cost_s,
                                    })
                                } else if tenant_outstanding[sub.spec.tenant] + job_cost
                                    > self.cfg.tenant_quota_cost_s
                                {
                                    Err(Rejected::TenantQuotaExceeded {
                                        outstanding_cost_s: tenant_outstanding[sub.spec.tenant],
                                        quota_cost_s: self.cfg.tenant_quota_cost_s,
                                    })
                                } else {
                                    Ok(cost)
                                }
                            } else if queued_cost + job_cost > self.cfg.queue_capacity_cost_s {
                                Err(Rejected::QueueFull {
                                    queued_cost_s: queued_cost,
                                    capacity_cost_s: self.cfg.queue_capacity_cost_s,
                                })
                            } else if tenant_outstanding[sub.spec.tenant] + job_cost
                                > self.cfg.tenant_quota_cost_s
                            {
                                Err(Rejected::TenantQuotaExceeded {
                                    outstanding_cost_s: tenant_outstanding[sub.spec.tenant],
                                    quota_cost_s: self.cfg.tenant_quota_cost_s,
                                })
                            } else {
                                Ok(cost)
                            }
                        }
                    }
                };
                match verdict {
                    Err(r) => {
                        rejected += 1;
                        record(obs, "jobs_rejected", 1);
                        outcomes[$sub_idx] = Some(JobOutcome::Rejected(r));
                    }
                    Ok(cost) => {
                        let job_idx = jobs.len();
                        let state = JobState {
                            sub_idx: $sub_idx,
                            tenant: sub.spec.tenant,
                            priority: sub.spec.priority,
                            deadline_s: sub.spec.deadline_s,
                            shot_cost_s: cost,
                            kind: job_kind(&sub.spec.cost),
                            n_shots: sub.spec.n_shots,
                            payload: sub.spec.payload.clone(),
                            arrival_s: sub.arrival_s,
                            remaining: (0..sub.spec.n_shots).collect(),
                            inflight: 0,
                            completed: Vec::new(),
                            preloaded: Vec::new(),
                            degraded: false,
                            in_drr: true,
                            started: false,
                            first_start_s: f64::NAN,
                            finish_s: $t,
                            cancel: CancellationToken::new(),
                            outcome: None,
                        };
                        queued_cost += state.job_cost_s();
                        tenant_outstanding[state.tenant] += state.job_cost_s();
                        drr.enqueue(state.tenant, job_idx, cost);
                        job_of_sub[$sub_idx] = Some(job_idx);
                        jobs.push(state);
                        admitted += 1;
                        record(obs, "jobs_admitted", 1);
                    }
                }
                refresh_queue_gauges!();
            }};
        }

        // ---- main event loop ----
        loop {
            // Admit everything that has arrived.
            while arrivals
                .front()
                .is_some_and(|&i| scenario.jobs[i].arrival_s <= t)
            {
                let i = arrivals.pop_front().unwrap_or_default();
                admit!(i, &scenario.jobs[i], t);
            }

            // Deadline sweep over queued work: a job whose deadline has
            // passed can never complete — cancel it before it wastes a
            // device slot.
            for (j, job) in jobs.iter_mut().enumerate() {
                if job.is_terminal() || job.remaining.is_empty() {
                    continue;
                }
                if job.deadline_s.is_some_and(|dl| t >= dl) {
                    job.cancel.cancel();
                    job.outcome = Some(JobOutcome::CancelledDeadline { at_s: t });
                    cancelled += 1;
                    record(obs, "jobs_cancelled_deadline", 1);
                    let freed = job.outstanding_cost_s();
                    queued_cost -= freed;
                    tenant_outstanding[job.tenant] -= freed;
                    if job.in_drr {
                        drr.remove_job(job.tenant, j);
                        job.in_drr = false;
                    }
                    refresh_queue_gauges!();
                }
            }

            // Brown-out: shed lowest-priority never-started jobs down to
            // the low watermark.
            if queued_cost > self.cfg.brownout.high_frac * self.cfg.queue_capacity_cost_s {
                brownout = true;
            }
            if brownout {
                while queued_cost > self.cfg.brownout.low_frac * self.cfg.queue_capacity_cost_s {
                    let victim = (0..jobs.len())
                        .filter(|&j| {
                            !jobs[j].is_terminal()
                                && !jobs[j].started
                                && jobs[j].inflight == 0
                                && !jobs[j].remaining.is_empty()
                        })
                        .min_by(|&a, &b| {
                            jobs[a]
                                .priority
                                .cmp(&jobs[b].priority)
                                .then(jobs[b].arrival_s.total_cmp(&jobs[a].arrival_s))
                                .then(b.cmp(&a))
                        });
                    let Some(v) = victim else { break };
                    let job = &mut jobs[v];
                    job.outcome = Some(JobOutcome::Shed { at_s: t });
                    shed += 1;
                    record(obs, "jobs_shed", 1);
                    let freed = job.outstanding_cost_s();
                    queued_cost -= freed;
                    tenant_outstanding[job.tenant] -= freed;
                    let tenant = job.tenant;
                    if job.in_drr {
                        job.in_drr = false;
                        drr.remove_job(tenant, v);
                    }
                }
                if queued_cost <= self.cfg.brownout.low_frac * self.cfg.queue_capacity_cost_s {
                    brownout = false;
                }
                refresh_queue_gauges!();
            }

            // Dispatch idle devices, ascending id.
            if !drained {
                for (d, dev) in devices.iter_mut().enumerate() {
                    if dev.inflight.is_some() || dev.lost {
                        continue;
                    }
                    if self.faults.device_lost(d, t) {
                        dev.lost = true;
                        record(obs, "fleet_devices_lost", 1);
                        continue;
                    }
                    let (ok, tr) = dev.breaker.available(d, t);
                    if let Some(tr) = tr {
                        breaker_span(obs, &tr);
                        breaker_log.push(tr);
                    }
                    if !ok {
                        continue;
                    }
                    // Per-job brown-out relief: remodeling jobs have no
                    // checkpoint I/O to begin with, so they shed a deeper
                    // fraction of their modeled cost than checkpoint
                    // stretching buys — DRR then prefers their shots while
                    // the server is degraded.
                    let relief_for = |kind: Option<JobKind>| {
                        if !brownout {
                            1.0
                        } else if kind == Some(JobKind::RtmRandomBoundary) {
                            self.cfg.brownout.remodel_relief
                        } else {
                            self.cfg.brownout.ckpt_relief
                        }
                    };
                    let picked = drr.next_shot(
                        |j| jobs[j].shot_cost_s * relief_for(jobs[j].kind),
                        |j| jobs[j].remaining.len() > 1,
                    );
                    let Some((_tenant, j)) = picked else { break };
                    let relief = relief_for(jobs[j].kind);
                    let job = &mut jobs[j];
                    if job.remaining.len() <= 1 {
                        job.in_drr = false;
                    }
                    let Some(shot) = job.remaining.pop_front() else {
                        return Err(RtmError::MalformedPlan(format!(
                            "job {j} dequeued with no remaining shots"
                        )));
                    };
                    let eff_cost = job.shot_cost_s * relief;
                    let degraded_shot = brownout;
                    let att = run_shot_attempts(
                        d,
                        t,
                        eff_cost,
                        &self.faults,
                        &self.cfg.retry,
                        &mut dev.attempt_seq,
                        job.deadline_s,
                        Some(&job.cancel),
                    );
                    if !job.started {
                        job.started = true;
                        job.first_start_s = t;
                        if let Some(o) = obs {
                            o.registry.observe("job_wait_s", t - job.arrival_s);
                        }
                    }
                    job.inflight += 1;
                    if let Some(o) = obs {
                        for ev in &att.events {
                            o.span(
                                Span::new(
                                    Track::Service(d as u32),
                                    SpanCat::Service,
                                    ev.name,
                                    ev.start_s,
                                    ev.dur_s,
                                )
                                .with_arg("job", j.to_string())
                                .with_arg("shot", shot.to_string()),
                            );
                        }
                        if att.retries > 0 {
                            o.registry.inc("shot_retries", att.retries);
                        }
                    }
                    dev.free_at = att.end_s;
                    dev.inflight = Some(InFlight {
                        job: j,
                        shot,
                        end_s: att.end_s,
                        outcome: att.outcome,
                        degraded: degraded_shot,
                    });
                }
            }

            // Next event time.
            let mut nt = f64::INFINITY;
            if let Some(&i) = arrivals.front() {
                nt = nt.min(scenario.jobs[i].arrival_s);
            }
            for d in &devices {
                if let Some(inf) = &d.inflight {
                    nt = nt.min(inf.end_s);
                }
            }
            if !drained && !drr.is_empty() {
                for d in devices.iter() {
                    if d.inflight.is_none() && !d.lost {
                        if let Some(r) = d.breaker.reopen_at() {
                            nt = nt.min(r);
                        }
                    }
                }
                // A queued job's future loss/deadline doesn't wake the
                // loop — only these device events can unblock dispatch.
            }
            if let Some(da) = drain_at_s {
                if !drained {
                    nt = nt.min(da);
                }
            }

            if !nt.is_finite() {
                // No future event. Anything still queued is stranded:
                // either we're draining (snapshot it) or the fleet died.
                break;
            }
            t = nt.max(t);
            makespan = makespan.max(t);

            // Drain trigger fires before anything else at this instant.
            if let Some(da) = drain_at_s {
                if !drained && t >= da {
                    drained = true;
                    record(obs, "drains_started", 1);
                }
            }

            // Completions at or before t, in (end, device) order.
            loop {
                let next_done = (0..devices.len())
                    .filter(|&d| {
                        devices[d]
                            .inflight
                            .as_ref()
                            .is_some_and(|inf| inf.end_s <= t)
                    })
                    .min_by(|&a, &b| {
                        let ea = devices[a].inflight.as_ref().map_or(f64::MAX, |i| i.end_s);
                        let eb = devices[b].inflight.as_ref().map_or(f64::MAX, |i| i.end_s);
                        ea.total_cmp(&eb).then(a.cmp(&b))
                    });
                let Some(d) = next_done else { break };
                let Some(inf) = devices[d].inflight.take() else {
                    break;
                };
                let j = inf.job;
                makespan = makespan.max(inf.end_s);
                match inf.outcome {
                    ShotOutcome::Completed { .. } => {
                        if let Some(tr) = devices[d].breaker.record_success(d, inf.end_s) {
                            breaker_span(obs, &tr);
                            breaker_log.push(tr);
                        }
                        let job = &mut jobs[j];
                        job.inflight -= 1;
                        if job.is_terminal() {
                            // Job was cancelled while this shot ran; the
                            // result is discarded.
                            continue;
                        }
                        job.completed.push(inf.shot);
                        job.degraded |= inf.degraded;
                        job.finish_s = job.finish_s.max(inf.end_s);
                        queued_cost -= job.shot_cost_s;
                        tenant_outstanding[job.tenant] -= job.shot_cost_s;
                        if let Payload::Rtm2(payload) = &job.payload {
                            // Physics runs off the scheduling path.
                            spawn_pool(&mut pool);
                            if let Some((tx, _, _)) = &pool {
                                let _ = tx.send((j, inf.shot, Arc::clone(payload)));
                            }
                        }
                        if job.remaining.is_empty()
                            && job.inflight == 0
                            && job.completed.len() == job.n_shots
                        {
                            let latency = job.finish_s - job.arrival_s;
                            job.outcome = Some(JobOutcome::Completed {
                                finish_s: job.finish_s,
                                latency_s: latency,
                                degraded: job.degraded,
                            });
                            record(obs, "jobs_completed", 1);
                            if let Some(o) = obs {
                                o.registry.observe("job_latency_s", latency);
                            }
                        }
                        refresh_queue_gauges!();
                    }
                    ShotOutcome::RetriesExhausted { at_s } => {
                        record(obs, "shots_failed", 1);
                        if let Some(tr) = devices[d].breaker.record_failure(d, at_s) {
                            breaker_span(obs, &tr);
                            breaker_log.push(tr);
                        }
                        let job = &mut jobs[j];
                        job.inflight -= 1;
                        if !job.is_terminal() {
                            job.remaining.push_front(inf.shot);
                            let tenant = job.tenant;
                            if !job.in_drr {
                                job.in_drr = true;
                                drr.requeue_front(tenant, j);
                            }
                        }
                    }
                    ShotOutcome::DeviceLost { .. } => {
                        devices[d].lost = true;
                        record(obs, "fleet_devices_lost", 1);
                        let job = &mut jobs[j];
                        job.inflight -= 1;
                        if !job.is_terminal() {
                            job.remaining.push_front(inf.shot);
                            let tenant = job.tenant;
                            if !job.in_drr {
                                job.in_drr = true;
                                drr.requeue_front(tenant, j);
                            }
                        }
                    }
                    ShotOutcome::DeadlineCancelled { at_s } => {
                        let job = &mut jobs[j];
                        job.inflight -= 1;
                        if !job.is_terminal() {
                            job.cancel.cancel();
                            job.outcome = Some(JobOutcome::CancelledDeadline { at_s });
                            cancelled += 1;
                            record(obs, "jobs_cancelled_deadline", 1);
                            job.remaining.push_front(inf.shot);
                            let freed = job.outstanding_cost_s();
                            queued_cost -= freed;
                            tenant_outstanding[job.tenant] -= freed;
                            let tenant = job.tenant;
                            if job.in_drr {
                                job.in_drr = false;
                                drr.remove_job(tenant, j);
                            }
                            refresh_queue_gauges!();
                        }
                    }
                    ShotOutcome::Cancelled { .. } => {
                        // Token observed: the job was already cancelled
                        // elsewhere; just reclaim the slot.
                        let job = &mut jobs[j];
                        job.inflight -= 1;
                        if !job.is_terminal() {
                            return Err(RtmError::MalformedPlan(format!(
                                "job {j} shot observed a cancelled token without a terminal outcome"
                            )));
                        }
                    }
                }
            }

            // Loop again; new arrivals, sweeps, and dispatches happen at
            // the top. (A non-empty queue with every device lost falls
            // out through the infinite-`nt` break above and is failed
            // below.)
            if arrivals.is_empty()
                && devices.iter().all(|d| d.inflight.is_none())
                && (drr.is_empty() || drained)
            {
                break;
            }
        }

        // Stranded queued jobs after the loop.
        for (j, job) in jobs.iter_mut().enumerate() {
            if job.is_terminal() {
                continue;
            }
            let unfinished = !job.remaining.is_empty() || job.completed.len() < job.n_shots;
            if !unfinished {
                continue;
            }
            if !drained {
                job.outcome = Some(JobOutcome::Failed {
                    error: "fleet exhausted: no device could run the remaining shots".to_string(),
                });
                record(obs, "jobs_failed", 1);
                let freed = job.outstanding_cost_s();
                queued_cost -= freed;
                tenant_outstanding[job.tenant] -= freed;
                if job.in_drr {
                    job.in_drr = false;
                    drr.remove_job(job.tenant, j);
                }
            }
        }
        refresh_queue_gauges!();

        // Collect physics results.
        let mut shot_images: Vec<std::collections::BTreeMap<usize, Field2>> =
            (0..jobs.len()).map(|_| Default::default()).collect();
        if let Some((tx, rx, handles)) = pool.take() {
            drop(tx);
            for h in handles {
                let _ = h.join();
            }
            while let Some((j, s, img)) = rx.try_recv() {
                shot_images[j].insert(s, img);
            }
        }

        // Snapshot of unfinished work (drain only), admission order.
        let snapshot = if drained {
            let mut snap_jobs = Vec::new();
            for (j, job) in jobs.iter().enumerate() {
                if job.is_terminal() {
                    continue;
                }
                if job.remaining.is_empty() && job.completed.len() == job.n_shots {
                    continue;
                }
                let mut completed: Vec<CompletedShot> = Vec::new();
                let mut done = job.completed.clone();
                done.sort_unstable();
                for &s in &done {
                    if let Some(pre) = job.preloaded.iter().find(|c| c.shot == s) {
                        completed.push(pre.clone());
                    } else if let Some(img) = shot_images[j].get(&s) {
                        completed.push(CompletedShot::from_field(s, img));
                    } else {
                        completed.push(CompletedShot::synthetic(s));
                    }
                }
                snap_jobs.push(SnapJob {
                    sub_idx: job.sub_idx,
                    remaining: job.remaining.iter().copied().collect(),
                    completed,
                    degraded: job.degraded,
                });
            }
            if snap_jobs.is_empty() {
                None
            } else {
                Some(QueueSnapshot {
                    drained_at_s: drain_at_s.unwrap_or(t),
                    jobs: snap_jobs,
                })
            }
        } else {
            None
        };

        // Stack images (shot order → bitwise deterministic) and assemble
        // outcomes.
        let mut images: Vec<Option<Field2>> = (0..n_subs).map(|_| None).collect();
        let mut served_by_tenant = vec![0.0f64; scenario.tenants.len()];
        let mut latencies: Vec<f64> = Vec::new();
        let mut goodput = 0.0f64;
        let mut completed_jobs = 0usize;
        for (j, job) in jobs.iter().enumerate() {
            let Some(out) = &job.outcome else {
                // Unfinished and drained: lives in the snapshot.
                outcomes[job.sub_idx] = Some(JobOutcome::Drained);
                continue;
            };
            if let JobOutcome::Completed { latency_s, .. } = out {
                completed_jobs += 1;
                latencies.push(*latency_s);
                goodput += job.job_cost_s();
                served_by_tenant[job.tenant] += job.job_cost_s();
                if matches!(job.payload, Payload::Rtm2(_)) {
                    let mut stack: Option<Field2> = None;
                    for s in 0..job.n_shots {
                        let from_pre = job.preloaded.iter().find(|c| c.shot == s);
                        let img = if let Some(pre) = from_pre {
                            pre.to_field()
                        } else {
                            shot_images[j].get(&s).cloned()
                        };
                        let Some(img) = img else {
                            return Err(RtmError::MalformedPlan(format!(
                                "completed job {j} is missing the image of shot {s}"
                            )));
                        };
                        match &mut stack {
                            None => stack = Some(img),
                            Some(acc) => {
                                for (a, v) in acc.as_mut_slice().iter_mut().zip(img.as_slice()) {
                                    *a += *v;
                                }
                            }
                        }
                    }
                    images[job.sub_idx] = stack;
                }
            }
            outcomes[job.sub_idx] = Some(out.clone());
        }

        let outcomes: Vec<JobOutcome> = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.ok_or_else(|| {
                    RtmError::MalformedPlan(format!("submission {i} ended without an outcome"))
                })
            })
            .collect::<Result<_, _>>()?;

        latencies.sort_by(f64::total_cmp);
        let mean_latency = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        let p99 = if latencies.is_empty() {
            0.0
        } else {
            let idx = ((latencies.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
            latencies[idx.min(latencies.len() - 1)]
        };

        Ok((
            ServeReport {
                outcomes,
                images,
                makespan_s: makespan,
                goodput_cost_s: goodput,
                offered_cost_s: offered_cost,
                mean_latency_s: mean_latency,
                p99_latency_s: p99,
                shed_rate: if admitted > 0 {
                    shed as f64 / admitted as f64
                } else {
                    0.0
                },
                served_cost_by_tenant: served_by_tenant,
                breaker_log,
                jobs_completed: completed_jobs,
                jobs_shed: shed,
                jobs_rejected: rejected,
                jobs_cancelled: cancelled,
            },
            snapshot,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, Scenario, Submission, Tenant};
    use accel_sim::fault::{FaultPlan, FaultRates};

    fn clean_fleet(n: usize) -> FaultPlan {
        FaultPlan::generate(0, n, 1e7, FaultRates::none())
    }

    fn one_tenant() -> Vec<Tenant> {
        vec![Tenant::new("acme", 1)]
    }

    fn sub(arrival: f64, spec: JobSpec) -> Submission {
        Submission {
            arrival_s: arrival,
            spec,
        }
    }

    #[test]
    fn single_job_completes_with_expected_latency() {
        let server = Server::new(
            ServerConfig {
                n_devices: 1,
                ..ServerConfig::default()
            },
            clean_fleet(1),
        );
        let scenario = Scenario {
            tenants: one_tenant(),
            jobs: vec![sub(0.0, JobSpec::synthetic(0, 1, 2, 2.0))],
        };
        let report = server.run(&scenario, None).unwrap();
        assert_eq!(report.jobs_completed, 1);
        match &report.outcomes[0] {
            JobOutcome::Completed {
                finish_s,
                latency_s,
                degraded,
            } => {
                assert_eq!(*finish_s, 4.0, "two 2 s shots back to back");
                assert_eq!(*latency_s, 4.0);
                assert!(!degraded);
            }
            o => panic!("expected completion, got {o:?}"),
        }
        assert_eq!(report.goodput_cost_s, 4.0);
        assert_eq!(report.served_cost_by_tenant, vec![4.0]);
    }

    #[test]
    fn rejections_are_typed() {
        let server = Server::new(
            ServerConfig {
                n_devices: 1,
                queue_capacity_cost_s: 10.0,
                tenant_quota_cost_s: 6.0,
                ..ServerConfig::default()
            },
            clean_fleet(1),
        );
        let scenario = Scenario {
            tenants: vec![Tenant::new("a", 1), Tenant::new("b", 1)],
            jobs: vec![
                // Fills tenant a's quota.
                sub(0.0, JobSpec::synthetic(0, 1, 3, 2.0)),
                // Tenant a again: over quota (6 + 2 > 6).
                sub(0.0, JobSpec::synthetic(0, 1, 1, 2.0)),
                // Tenant b: 6 + 6 > 10 → queue full.
                sub(0.0, JobSpec::synthetic(1, 1, 3, 2.0)),
                // Tenant b: deadline cannot be met even on an idle fleet.
                sub(0.0, JobSpec::synthetic(1, 1, 4, 2.0).with_deadline(3.0)),
                // Tenant b: zero shots is not a job.
                sub(0.0, JobSpec::synthetic(1, 1, 0, 2.0)),
            ],
        };
        let report = server.run(&scenario, None).unwrap();
        assert!(report.outcomes[0].is_completed());
        assert!(matches!(
            report.outcomes[1],
            JobOutcome::Rejected(Rejected::TenantQuotaExceeded { .. })
        ));
        assert!(matches!(
            report.outcomes[2],
            JobOutcome::Rejected(Rejected::QueueFull { .. })
        ));
        assert!(matches!(
            report.outcomes[3],
            JobOutcome::Rejected(Rejected::DeadlineInfeasible { .. })
        ));
        assert!(matches!(
            report.outcomes[4],
            JobOutcome::Rejected(Rejected::WorkloadInfeasible { .. })
        ));
        assert_eq!(report.jobs_rejected, 4);
    }

    #[test]
    fn weighted_tenants_split_the_device() {
        // Weight 2 vs weight 1, both fully backlogged on one device with
        // unit shots: by t=12 tenant 0 should have ~8 completions and
        // tenant 1 ~4.
        let server = Server::new(
            ServerConfig {
                n_devices: 1,
                queue_capacity_cost_s: 1e6,
                tenant_quota_cost_s: 1e6,
                ..ServerConfig::default()
            },
            clean_fleet(1),
        );
        let mut jobs = Vec::new();
        for _ in 0..12 {
            jobs.push(sub(0.0, JobSpec::synthetic(0, 1, 1, 1.0)));
            jobs.push(sub(0.0, JobSpec::synthetic(1, 1, 1, 1.0)));
        }
        let scenario = Scenario {
            tenants: vec![Tenant::new("heavy", 2), Tenant::new("light", 1)],
            jobs,
        };
        let report = server.run(&scenario, None).unwrap();
        let done_by = |tenant: usize, horizon: f64| {
            scenario
                .jobs
                .iter()
                .zip(&report.outcomes)
                .filter(|(s, o)| {
                    s.spec.tenant == tenant
                        && matches!(o, JobOutcome::Completed { finish_s, .. } if *finish_s <= horizon + 1e-9)
                })
                .count() as f64
        };
        let h0 = done_by(0, 12.0);
        let h1 = done_by(1, 12.0);
        assert!(
            (h0 - 8.0).abs() <= 1.0 && (h1 - 4.0).abs() <= 1.0,
            "weight-proportional service: heavy={h0} light={h1}"
        );
        assert_eq!(report.jobs_completed, 24, "everything completes eventually");
    }

    #[test]
    fn queued_job_past_deadline_is_cancelled_not_run() {
        let server = Server::new(
            ServerConfig {
                n_devices: 1,
                ..ServerConfig::default()
            },
            clean_fleet(1),
        );
        let scenario = Scenario {
            tenants: one_tenant(),
            jobs: vec![
                sub(0.0, JobSpec::synthetic(0, 5, 1, 10.0)),
                // Feasible on an idle fleet, but stuck behind the 10 s job.
                sub(0.1, JobSpec::synthetic(0, 1, 1, 2.0).with_deadline(5.0)),
            ],
        };
        let report = server.run(&scenario, None).unwrap();
        assert!(report.outcomes[0].is_completed());
        assert!(
            matches!(report.outcomes[1], JobOutcome::CancelledDeadline { .. }),
            "got {:?}",
            report.outcomes[1]
        );
        assert_eq!(report.jobs_cancelled, 1);
        // The device never ran the cancelled job: makespan is the first
        // job's span only.
        assert_eq!(report.makespan_s, 10.0);
    }

    #[test]
    fn brownout_sheds_lowest_priority_only() {
        let server = Server::new(
            ServerConfig {
                n_devices: 1,
                queue_capacity_cost_s: 20.0,
                tenant_quota_cost_s: 1e6,
                brownout: BrownoutConfig {
                    high_frac: 0.85,
                    low_frac: 0.60,
                    ckpt_relief: 0.9,
                    remodel_relief: 0.75,
                },
                ..ServerConfig::default()
            },
            clean_fleet(1),
        );
        let scenario = Scenario {
            tenants: one_tenant(),
            jobs: vec![
                sub(0.0, JobSpec::synthetic(0, 5, 2, 5.0)),
                sub(0.0, JobSpec::synthetic(0, 1, 1, 5.0)),
                sub(0.0, JobSpec::synthetic(0, 2, 1, 5.0)),
            ],
        };
        let report = server.run(&scenario, None).unwrap();
        // 10 + 5 + 5 = 20 > 17 (high watermark) → shed priority 1 then
        // priority 2, landing at 10 ≤ 12 (low watermark).
        assert!(
            report.outcomes[0].is_completed(),
            "{:?}",
            report.outcomes[0]
        );
        assert!(matches!(report.outcomes[1], JobOutcome::Shed { .. }));
        assert!(matches!(report.outcomes[2], JobOutcome::Shed { .. }));
        assert_eq!(report.jobs_shed, 2);
        assert!((report.shed_rate - 2.0 / 3.0).abs() < 1e-12);
    }

    /// Under brown-out, random-boundary jobs get a deeper relief multiplier
    /// than checkpointed RTM, so deficit round-robin prefers their shots:
    /// the same scenario finishes the remodeling job strictly earlier when
    /// `remodel_relief < ckpt_relief` than when the two are equal.
    #[test]
    fn brownout_prefers_random_boundary_jobs() {
        use crate::cost::price_shot_cost;
        use crate::job::{JobCost, JobKind, Payload};
        use rtm_core::case::{SeismicCase, Workload};
        use seismic_model::footprint::{Dims, Formulation};

        let case = SeismicCase {
            formulation: Formulation::Isotropic,
            dims: Dims::Two,
        };
        let wl = Workload {
            nx: 24,
            ny: 1,
            nz: 24,
            steps: 40,
            snap_period: 4,
            n_receivers: 8,
        };
        let priced = |tenant: usize, kind: JobKind| JobSpec {
            tenant,
            priority: 5,
            deadline_s: None,
            n_shots: 10,
            cost: JobCost::Priced {
                case,
                workload: wl,
                kind,
            },
            payload: Payload::Synthetic,
        };
        // The server prices through the same function, so these match its
        // internal per-shot costs exactly.
        let c_rtm =
            price_shot_cost(&case, &wl, JobKind::Rtm, Cluster::CrayXc30, Compiler::Cray).unwrap();
        let c_rb = price_shot_cost(
            &case,
            &wl,
            JobKind::RtmRandomBoundary,
            Cluster::CrayXc30,
            Compiler::Cray,
        )
        .unwrap();
        let total = 10.0 * (c_rtm + c_rb);
        // The trigger arrives once the single device has necessarily
        // exhausted the checkpointed job's 10 shots and is mid-flight on a
        // remodeling shot — true for any DRR interleaving, because the
        // device is continuously busy and the checkpointed job can absorb
        // at most 10·c_rtm of that service.
        let trigger_at = 10.0 * c_rtm + 0.5 * c_rb;
        // Outstanding cost at the trigger is ≈ 9.5–10.5 shots of the
        // remodeling job; this trigger cost lands the queue strictly
        // between the high watermark and capacity for that whole range.
        let trigger_cost = 1.2 * total - 10.0 * c_rb;

        // Timeline: the low-priority trigger submission pushes the queue
        // over the high watermark, is shed (never started), and the
        // started remodeling job drains the rest of the way under
        // brown-out relief.
        let run = |remodel_relief: f64| {
            let server = Server::new(
                ServerConfig {
                    n_devices: 1,
                    queue_capacity_cost_s: 1.3 * total,
                    tenant_quota_cost_s: 1e9,
                    brownout: BrownoutConfig {
                        high_frac: 0.85,
                        low_frac: 0.10,
                        ckpt_relief: 0.90,
                        remodel_relief,
                    },
                    ..ServerConfig::default()
                },
                clean_fleet(1),
            );
            let scenario = Scenario {
                tenants: vec![
                    Tenant::new("ckpt", 1),
                    Tenant::new("remodel", 1),
                    Tenant::new("noise", 1),
                ],
                jobs: vec![
                    sub(0.0, priced(0, JobKind::Rtm)),
                    sub(0.0, priced(1, JobKind::RtmRandomBoundary)),
                    sub(trigger_at, JobSpec::synthetic(2, 0, 1, trigger_cost)),
                ],
            };
            server.run(&scenario, None).unwrap()
        };
        let finish_of = |r: &ServeReport, i: usize| match &r.outcomes[i] {
            JobOutcome::Completed {
                finish_s, degraded, ..
            } => (*finish_s, *degraded),
            o => panic!("job {i} should complete, got {o:?}"),
        };

        let preferred = run(0.75);
        let control = run(0.90);
        for r in [&preferred, &control] {
            assert!(
                matches!(r.outcomes[2], JobOutcome::Shed { .. }),
                "trigger job must be shed, got {:?}",
                r.outcomes[2]
            );
        }
        let (rb_pref, rb_degraded) = finish_of(&preferred, 1);
        let (rb_ctrl, _) = finish_of(&control, 1);
        assert!(rb_degraded, "remodeling shots must run under brown-out");
        assert!(
            rb_pref < rb_ctrl,
            "deeper remodel relief must finish the random-boundary job \
             earlier: preferred={rb_pref} control={rb_ctrl}"
        );
        // The checkpointed job completes in both runs either way.
        let (rtm_pref, _) = finish_of(&preferred, 0);
        let (rtm_ctrl, _) = finish_of(&control, 0);
        assert_eq!(
            rtm_pref, rtm_ctrl,
            "the checkpointed job's schedule is untouched by remodel relief"
        );
    }

    #[test]
    fn breaker_opens_and_recovers_under_transient_faults() {
        let rates = FaultRates {
            transient_oom_prob: 0.5,
            ..FaultRates::none()
        };
        // Deterministic seed scan: find a seed whose serve trips at least
        // one breaker and still completes all jobs.
        for seed in 0..64u64 {
            let fleet = FaultPlan::generate(seed, 1, 1e7, rates);
            let server = Server::new(
                ServerConfig {
                    n_devices: 1,
                    retry: RetryPolicy {
                        max_retries: 0,
                        base_delay_s: 0.1,
                        max_delay_s: 1.0,
                    },
                    breaker: BreakerConfig {
                        failure_threshold: 2,
                        cooldown_s: 5.0,
                        probe_shots: 1,
                    },
                    ..ServerConfig::default()
                },
                fleet,
            );
            let scenario = Scenario {
                tenants: one_tenant(),
                jobs: vec![sub(0.0, JobSpec::synthetic(0, 1, 12, 1.0))],
            };
            let report = server.run(&scenario, None).unwrap();
            assert_eq!(report.jobs_completed, 1, "seed {seed}");
            let opened = report.breaker_log.iter().filter(|t| t.to == "open").count();
            if opened > 0 {
                let half = report
                    .breaker_log
                    .iter()
                    .filter(|t| t.to == "half_open")
                    .count();
                let closed = report
                    .breaker_log
                    .iter()
                    .filter(|t| t.to == "closed")
                    .count();
                assert!(half > 0, "an opened breaker must half-open after cooldown");
                assert!(closed > 0, "a successful probe must re-close");
                // Transitions are time-ordered.
                for w in report.breaker_log.windows(2) {
                    assert!(w[0].at_s <= w[1].at_s);
                }
                return;
            }
        }
        panic!("no seed in 0..64 tripped a breaker at p=0.5");
    }

    #[test]
    fn serve_is_deterministic() {
        let rates = FaultRates {
            transient_oom_prob: 0.2,
            ..FaultRates::none()
        };
        let mk = || {
            let fleet = FaultPlan::generate(11, 2, 1e7, rates);
            let server = Server::new(
                ServerConfig {
                    n_devices: 2,
                    ..ServerConfig::default()
                },
                fleet,
            );
            let scenario = Scenario {
                tenants: vec![Tenant::new("a", 2), Tenant::new("b", 1)],
                jobs: vec![
                    sub(0.0, JobSpec::synthetic(0, 3, 5, 1.5)),
                    sub(0.5, JobSpec::synthetic(1, 2, 4, 2.0).with_deadline(60.0)),
                    sub(1.0, JobSpec::synthetic(0, 1, 3, 1.0)),
                ],
            };
            server.run(&scenario, None).unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.breaker_log, b.breaker_log);
        assert_eq!(a.served_cost_by_tenant, b.served_cost_by_tenant);
    }

    #[test]
    fn synthetic_drain_resume_completes_everything() {
        let cfg = ServerConfig {
            n_devices: 1,
            queue_capacity_cost_s: 1e6,
            tenant_quota_cost_s: 1e6,
            ..ServerConfig::default()
        };
        let scenario = Scenario {
            tenants: one_tenant(),
            jobs: (0..4)
                .map(|i| sub(0.0, JobSpec::synthetic(0, 1, 1, 2.0 + i as f64 * 0.0)))
                .collect(),
        };
        let server = Server::new(cfg.clone(), clean_fleet(1));
        let (r1, snap) = server.run_with_drain(&scenario, 3.0, None).unwrap();
        let snap = snap.expect("work was left at drain time");
        assert!(snap.drained_at_s == 3.0);
        let drained1 = r1
            .outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Drained))
            .count();
        assert_eq!(snap.jobs.len(), drained1);
        assert!(drained1 >= 1, "drain at 3.0 must strand work");
        // Round-trip the snapshot through JSON, as a real restart would.
        let json = serde_json::to_string(&snap.to_json());
        let snap = QueueSnapshot::from_json(&serde_json::from_str(&json).unwrap()).unwrap();
        let r2 = server.resume(&snap, &scenario, None).unwrap();
        for (i, o1) in r1.outcomes.iter().enumerate() {
            match o1 {
                JobOutcome::Drained => {
                    assert!(
                        r2.outcomes[i].is_completed(),
                        "job {i} must finish on resume, got {:?}",
                        r2.outcomes[i]
                    );
                }
                JobOutcome::Completed { .. } => {
                    assert!(
                        matches!(r2.outcomes[i], JobOutcome::Rejected(Rejected::Draining)),
                        "already-settled jobs are not replayed"
                    );
                }
                o => panic!("unexpected first-run outcome {o:?}"),
            }
        }
    }

    #[test]
    fn device_loss_moves_work_to_survivors() {
        // Device 0 dies at t=1.0; its queued shots must finish on device 1.
        let rates = FaultRates {
            device_lost_mtti_s: 4.0,
            ..FaultRates::none()
        };
        let mut chosen = None;
        for seed in 0..200u64 {
            // Short horizon: loss events only exist inside it, so a seed
            // where device 1 has no arrival before 8.0 s keeps it alive
            // for the whole serve.
            let p = FaultPlan::generate(seed, 2, 8.0, rates);
            let lost0 = p.device_lost_at(0);
            let lost1 = p.device_lost_at(1);
            if lost0.is_some_and(|t| t < 5.0) && lost1.is_none() {
                chosen = Some(p);
                break;
            }
        }
        let fleet = chosen.expect("seed with one early loss");
        let server = Server::new(
            ServerConfig {
                n_devices: 2,
                queue_capacity_cost_s: 1e6,
                tenant_quota_cost_s: 1e6,
                ..ServerConfig::default()
            },
            fleet,
        );
        let scenario = Scenario {
            tenants: one_tenant(),
            jobs: vec![sub(0.0, JobSpec::synthetic(0, 1, 8, 1.0))],
        };
        let report = server.run(&scenario, None).unwrap();
        assert_eq!(report.jobs_completed, 1, "{:?}", report.outcomes[0]);
    }
}
