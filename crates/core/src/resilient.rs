//! Resilient survey execution: retry, reschedule, checkpoint-restart.
//!
//! A production survey occupies a cluster for hours, long enough that the
//! fault processes modeled in `accel_sim::fault` fire several times. This
//! module wraps the plain drivers so a seeded [`FaultPlan`] degrades a run
//! instead of killing it:
//!
//! * **Retry with backoff** — transient failures (allocation, transfer)
//!   retry under a [`RetryPolicy`] whose jittered exponential delays are
//!   deterministic per plan seed, bounded, and monotone in the attempt,
//! * **Blacklisting & rescheduling** — a rank whose device is lost (or
//!   that exhausts its retries) is blacklisted by the [`HealthTracker`]
//!   and its unfinished shots move to surviving ranks; the survey
//!   completes on fewer GPUs,
//! * **Bitwise-identical images** — the stacked image under any fault
//!   plan that leaves one healthy rank equals the fault-free
//!   [`rtm_shot_parallel`] result *bit for bit*: shots are re-placed but
//!   the reduction keeps the fault-free topology (per-nominal-rank
//!   partials in shot order, partials summed in rank order), and every
//!   per-shot image is bitwise deterministic wherever it runs,
//! * **Checkpoint-restart** — [`run_rtm_with_restart`] resumes an
//!   interrupted forward pass from the most recent stored state, redoing
//!   strictly fewer steps than a restart from zero, with bitwise-identical
//!   output (replay overwrites are idempotent),
//! * **Accounting** — [`ResilienceStats`] splits simulated seconds into
//!   useful, wasted (lost to mid-shot failures), and backoff time, the
//!   inputs to the overhead-vs-MTTI tables in `repro`, and
//!   [`optimal_checkpoint_interval`] sizes the checkpoint period from the
//!   MTTI (Young's first-order rule).
//!
//! [`rtm_shot_parallel`]: crate::shot_parallel::rtm_shot_parallel

use crate::case::OptimizationConfig;
use crate::drive::{self, Medium as _, Restart};
use crate::error::{ConfigError, RtmError};
use crate::modeling::{Medium2, State2};
use crate::multi_gpu::{modeling_time_multi, CommMode, GhostPacking, MultiGpuTiming};
use crate::rtm::{run_rtm, RtmResult};
use crate::shot_parallel::{shots_for_rank, Shot};
use acc_obs::{ObsSession, Span, SpanCat, Track};
use accel_sim::fault::{FaultPlan, FaultView};
use bytes::Bytes;
use mpi_sim::comm::Communicator;
use openacc_sim::Compiler;
use seismic_grid::Field2;
use seismic_model::IsoModel2;
use seismic_pml::{DampProfile, RandomBoundarySpec};
use seismic_source::Wavelet;
use std::collections::VecDeque;

use crate::case::{Cluster, SeismicCase, Workload};

/// `splitmix64` over mixed coordinates — the jitter draw for backoff.
fn jitter_unit(seed: u64, salt: u64, a: u64) -> f64 {
    let mut s =
        seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ a.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Bounded retry with jittered exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries before an operation is declared permanently failed.
    pub max_retries: u32,
    /// Delay before the first retry, seconds.
    pub base_delay_s: f64,
    /// Ceiling on any single delay, seconds.
    pub max_delay_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_delay_s: 0.5,
            max_delay_s: 60.0,
        }
    }
}

/// Doublings after which the un-jittered delay is clamped: `2^52` keeps
/// `base · 2^a` finite for any base below `~4e255`, and any realistic cap
/// is reached orders of magnitude earlier.
const MAX_BACKOFF_DOUBLINGS: u32 = 52;

impl RetryPolicy {
    /// Delay before retry number `attempt` (0-based), seconds. The jitter
    /// factor lies in `[1, 2)` so the sequence is monotone non-decreasing
    /// (`base·2^(a+1)·1 ≥ base·2^a·2 > base·2^a·jitter`), never exceeds
    /// `max_delay_s`, and is a pure function of `(seed, attempt)`. The
    /// exponent is clamped (and the raw delay capped *before* the jitter
    /// multiply) so arbitrarily large attempt counts can never overflow to
    /// a non-finite delay that would poison the simulated clock.
    pub fn backoff_delay(&self, seed: u64, attempt: u32) -> f64 {
        let expo = (self.base_delay_s * 2f64.powi(attempt.min(MAX_BACKOFF_DOUBLINGS) as i32))
            .min(self.max_delay_s);
        let jitter = 1.0 + jitter_unit(seed, 0xBAC0FF, u64::from(attempt));
        (expo * jitter).min(self.max_delay_s)
    }
}

/// Cooperative cancellation latch shared between a job's submitter (the
/// `acc-serve` scheduler) and whatever is executing its shots: cancelling
/// is one-way and visible across threads.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latch the token; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Has the token been cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// Per-rank health: consecutive-failure counting with blacklisting.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    consecutive: Vec<u32>,
    blacklisted: Vec<bool>,
    threshold: u32,
}

impl HealthTracker {
    /// Track `n` ranks; blacklist after `threshold` consecutive failures.
    pub fn new(n: usize, threshold: u32) -> Self {
        Self {
            consecutive: vec![0; n],
            blacklisted: vec![false; n],
            threshold: threshold.max(1),
        }
    }

    /// Record a success (resets the failure streak).
    pub fn record_success(&mut self, rank: usize) {
        self.consecutive[rank] = 0;
    }

    /// Record a failure; returns true when the rank just got blacklisted.
    pub fn record_failure(&mut self, rank: usize) -> bool {
        self.consecutive[rank] += 1;
        if self.consecutive[rank] >= self.threshold && !self.blacklisted[rank] {
            self.blacklisted[rank] = true;
            return true;
        }
        false
    }

    /// Blacklist immediately (terminal faults like a lost device).
    pub fn blacklist(&mut self, rank: usize) {
        self.blacklisted[rank] = true;
    }

    /// Is the rank still usable?
    pub fn is_healthy(&self, rank: usize) -> bool {
        !self.blacklisted[rank]
    }

    /// Usable ranks, ascending.
    pub fn healthy(&self) -> Vec<usize> {
        (0..self.blacklisted.len())
            .filter(|&r| !self.blacklisted[r])
            .collect()
    }
}

/// Resilience accounting for one survey or modeling run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceStats {
    /// Transient-failure retries performed.
    pub retries: u64,
    /// Shots moved off their nominal rank after a failure.
    pub rescheduled_shots: usize,
    /// Ranks blacklisted during the run, in failure order.
    pub dead_ranks: Vec<usize>,
    /// Simulated seconds of completed (kept) shot work.
    pub useful_s: f64,
    /// Simulated seconds lost to interrupted attempts.
    pub wasted_s: f64,
    /// Simulated seconds spent sleeping between retries.
    pub backoff_s: f64,
    /// Message retransmits accounted by the communicator, if any.
    pub net_retransmits: u64,
}

impl ResilienceStats {
    /// Fraction of total simulated time that was overhead (wasted work +
    /// backoff sleep). 0 for a fault-free run.
    pub fn overhead_frac(&self) -> f64 {
        let over = self.wasted_s + self.backoff_s;
        let total = self.useful_s + over;
        if total > 0.0 {
            over / total
        } else {
            0.0
        }
    }
}

/// Young's first-order optimal checkpoint interval `√(2·C·MTTI)` for a
/// checkpoint costing `ckpt_cost_s` under mean time to interrupt
/// `mtti_s`. Infinite MTTI (no faults) → infinite interval (never
/// checkpoint for resilience).
pub fn optimal_checkpoint_interval(ckpt_cost_s: f64, mtti_s: f64) -> f64 {
    if ckpt_cost_s <= 0.0 || !mtti_s.is_finite() || mtti_s <= 0.0 {
        return f64::INFINITY;
    }
    (2.0 * ckpt_cost_s * mtti_s).sqrt()
}

/// One timeline event produced while attempting a shot, in device-local
/// simulated time. Callers map these onto observability spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShotEvent {
    /// Event name (`shot`, `backoff`, `shot:lost`, `blacklist:*`,
    /// `cancel:*`) — stable, used as the span name.
    pub name: &'static str,
    /// Event start, simulated seconds.
    pub start_s: f64,
    /// Event duration, simulated seconds (0 for point events).
    pub dur_s: f64,
}

impl ShotEvent {
    fn point(name: &'static str, at_s: f64) -> Self {
        Self {
            name,
            start_s: at_s,
            dur_s: 0.0,
        }
    }
}

/// Terminal state of one shot's retry loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShotOutcome {
    /// The shot ran to completion.
    Completed {
        /// Start of the successful attempt.
        start_s: f64,
        /// Duration of the successful attempt (slowdown included).
        dur_s: f64,
    },
    /// The device was (or became) permanently lost; the shot must move.
    DeviceLost {
        /// When the loss struck.
        at_s: f64,
    },
    /// Transient failures exhausted the retry budget on this device.
    RetriesExhausted {
        /// When the final failing draw happened.
        at_s: f64,
    },
    /// The shot could no longer finish before its deadline and was
    /// cancelled early, before burning more device time.
    DeadlineCancelled {
        /// When the infeasibility was detected.
        at_s: f64,
    },
    /// The job's cancellation token was observed latched.
    Cancelled {
        /// When the cancellation was observed.
        at_s: f64,
    },
}

/// Everything one retry loop did: terminal state, the device clock after
/// the loop, accounting deltas, and the span-able event list.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotAttempt {
    /// Terminal state.
    pub outcome: ShotOutcome,
    /// Device clock when the loop ended (start time plus backoff sleeps
    /// plus executed work).
    pub end_s: f64,
    /// Transient-failure draws consumed (the `shot_retries` series).
    pub retries: u64,
    /// Seconds slept between retries.
    pub backoff_s: f64,
    /// Seconds of partial work lost to a mid-shot device loss.
    pub wasted_s: f64,
    /// Timeline events, in order.
    pub events: Vec<ShotEvent>,
}

/// The single-shot retry loop shared by [`plan_survey`] and the
/// `acc-serve` job server: run one shot on `device` starting at
/// `start_s`, retrying transient allocation failures under `policy` with
/// deterministic jittered backoff, honouring an optional absolute
/// deadline (the shot is cancelled as soon as it provably cannot finish
/// in time — `slowdown ≥ 1`, so `shot_cost_s` is the optimistic duration)
/// and an optional cooperative [`CancellationToken`]. Pure apart from
/// `attempt_seq`, which advances by one per transient-failure draw so the
/// stateless fault process sees a per-device sequence number. With no
/// deadline and no token this reproduces the PR 1 retry loop exactly.
#[allow(clippy::too_many_arguments)]
pub fn run_shot_attempts<F: FaultView>(
    device: usize,
    start_s: f64,
    shot_cost_s: f64,
    plan: &F,
    policy: &RetryPolicy,
    attempt_seq: &mut u64,
    deadline_s: Option<f64>,
    cancel: Option<&CancellationToken>,
) -> ShotAttempt {
    let mut att = ShotAttempt {
        outcome: ShotOutcome::Cancelled { at_s: start_s },
        end_s: start_s,
        retries: 0,
        backoff_s: 0.0,
        wasted_s: 0.0,
        events: Vec::new(),
    };
    let mut t0 = start_s;
    let mut retries_this_shot = 0u32;
    loop {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            att.events.push(ShotEvent::point("cancel:token", t0));
            att.outcome = ShotOutcome::Cancelled { at_s: t0 };
            att.end_s = t0;
            return att;
        }
        if plan.device_lost(device, t0) {
            // Device already gone when the attempt starts.
            att.events
                .push(ShotEvent::point("blacklist:device_lost", t0));
            att.outcome = ShotOutcome::DeviceLost { at_s: t0 };
            att.end_s = t0;
            return att;
        }
        if let Some(d) = deadline_s {
            if t0 + shot_cost_s > d {
                att.events.push(ShotEvent::point("cancel:deadline", t0));
                att.outcome = ShotOutcome::DeadlineCancelled { at_s: t0 };
                att.end_s = t0;
                return att;
            }
        }
        // Transient launch failure (deterministic per (device, seq)).
        let seq = *attempt_seq;
        *attempt_seq += 1;
        if plan.alloc_fails(device, seq) {
            att.retries += 1;
            if retries_this_shot >= policy.max_retries {
                att.events
                    .push(ShotEvent::point("blacklist:retries_exhausted", t0));
                att.outcome = ShotOutcome::RetriesExhausted { at_s: t0 };
                att.end_s = t0;
                return att;
            }
            let delay = policy.backoff_delay(plan.seed() ^ device as u64, retries_this_shot);
            if let Some(d) = deadline_s {
                if t0 + delay + shot_cost_s > d {
                    // Sleeping would already bust the deadline: give up now
                    // and hand the slot back instead of sleeping into it.
                    att.events.push(ShotEvent::point("cancel:deadline", t0));
                    att.outcome = ShotOutcome::DeadlineCancelled { at_s: t0 };
                    att.end_s = t0;
                    return att;
                }
            }
            att.events.push(ShotEvent {
                name: "backoff",
                start_s: t0,
                dur_s: delay,
            });
            t0 += delay;
            att.backoff_s += delay;
            retries_this_shot += 1;
            continue;
        }
        let dur = shot_cost_s * plan.slowdown(device, t0);
        if let Some(d) = deadline_s {
            if t0 + dur > d {
                att.events.push(ShotEvent::point("cancel:deadline", t0));
                att.outcome = ShotOutcome::DeadlineCancelled { at_s: t0 };
                att.end_s = t0;
                return att;
            }
        }
        if let Some(lost) = plan.device_lost_at(device) {
            if lost < t0 + dur {
                // Dies mid-shot: the partial work is lost.
                att.events.push(ShotEvent {
                    name: "shot:lost",
                    start_s: t0,
                    dur_s: lost - t0,
                });
                att.events
                    .push(ShotEvent::point("blacklist:device_lost", lost));
                att.wasted_s += lost - t0;
                att.outcome = ShotOutcome::DeviceLost { at_s: lost };
                att.end_s = lost;
                return att;
            }
        }
        att.events.push(ShotEvent {
            name: "shot",
            start_s: t0,
            dur_s: dur,
        });
        att.outcome = ShotOutcome::Completed {
            start_s: t0,
            dur_s: dur,
        };
        att.end_s = t0 + dur;
        return att;
    }
}

/// Which rank ended up executing each shot, plus the accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveySchedule {
    /// `placement[s]` = rank that successfully ran shot `s`.
    pub placement: Vec<usize>,
    /// Ranks still healthy when the survey completed, ascending.
    pub survivors: Vec<usize>,
    /// Accounting for the scheduling simulation.
    pub stats: ResilienceStats,
}

/// Deterministically simulate the survey schedule under a fault plan:
/// round-robin initial placement (matching [`rtm_shot_parallel`]),
/// per-rank clocks, transient failures retried under `policy`, lost
/// devices blacklisted with their queued shots rescheduled onto the
/// least-loaded survivor. Pure: same arguments → same schedule.
///
/// [`rtm_shot_parallel`]: crate::shot_parallel::rtm_shot_parallel
pub fn plan_survey(
    n_shots: usize,
    ranks: usize,
    shot_cost_s: f64,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<SurveySchedule, RtmError> {
    plan_survey_obs(n_shots, ranks, shot_cost_s, plan, policy, None)
}

/// Emit one resilience-timeline span on a rank track, when observing.
fn resilience_span(
    obs: Option<&ObsSession>,
    rank: usize,
    name: &str,
    start_s: f64,
    dur_s: f64,
    shot: Option<usize>,
) {
    if let Some(o) = obs {
        let mut s = Span::new(
            Track::MpiRank(rank as u32),
            SpanCat::Resilience,
            name,
            start_s,
            dur_s,
        );
        if let Some(sh) = shot {
            s = s.with_arg("shot", sh.to_string());
        }
        o.span(s);
    }
}

/// [`plan_survey`] with an optional observability session: every shot
/// attempt, backoff sleep, mid-shot loss, and blacklisting lands as a
/// span on that rank's timeline track (per-rank clocks are monotone, so
/// each track stays serial), and the registry accumulates `shot_retries`
/// and `ranks_blacklisted`. Observation never changes the schedule.
pub fn plan_survey_obs(
    n_shots: usize,
    ranks: usize,
    shot_cost_s: f64,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    obs: Option<&ObsSession>,
) -> Result<SurveySchedule, RtmError> {
    if n_shots == 0 {
        return Err(ConfigError::NoShots.into());
    }
    if ranks == 0 {
        return Err(ConfigError::ZeroRanks.into());
    }
    let mut queues: Vec<VecDeque<usize>> = (0..ranks)
        .map(|r| shots_for_rank(n_shots, r, ranks).into())
        .collect();
    let mut clock = vec![0.0f64; ranks];
    let mut attempt_seq = vec![0u64; ranks];
    let mut health = HealthTracker::new(ranks, policy.max_retries.max(1));
    let mut placement = vec![usize::MAX; n_shots];
    let mut stats = ResilienceStats::default();

    // Reassign a failed rank's remaining shots to the least-loaded healthy
    // rank (ties → lowest id); errors out once nobody is left.
    fn reschedule(
        mut work: Vec<usize>,
        queues: &mut [VecDeque<usize>],
        clock: &[f64],
        health: &HealthTracker,
        stats: &mut ResilienceStats,
    ) -> Result<(), RtmError> {
        work.sort_unstable();
        for s in work {
            let dest = health
                .healthy()
                .into_iter()
                .min_by(|&a, &b| {
                    let la = clock[a] + queues[a].len() as f64;
                    let lb = clock[b] + queues[b].len() as f64;
                    la.total_cmp(&lb).then(a.cmp(&b))
                })
                .ok_or(RtmError::NoHealthyRanks)?;
            queues[dest].push_back(s);
            stats.rescheduled_shots += 1;
        }
        Ok(())
    }

    // Next healthy rank with work, earliest clock first.
    while let Some(r) = (0..ranks)
        .filter(|&r| health.is_healthy(r) && !queues[r].is_empty())
        .min_by(|&a, &b| clock[a].total_cmp(&clock[b]).then(a.cmp(&b)))
    {
        let Some(s) = queues[r].pop_front() else {
            return Err(RtmError::MalformedPlan(format!(
                "scheduler selected rank {r} with an empty work queue"
            )));
        };
        let att = run_shot_attempts(
            r,
            clock[r],
            shot_cost_s,
            plan,
            policy,
            &mut attempt_seq[r],
            None,
            None,
        );
        for ev in &att.events {
            resilience_span(obs, r, ev.name, ev.start_s, ev.dur_s, Some(s));
        }
        if let Some(o) = obs {
            if att.retries > 0 {
                o.registry.inc("shot_retries", att.retries);
            }
        }
        clock[r] = att.end_s;
        stats.retries += att.retries;
        stats.backoff_s += att.backoff_s;
        stats.wasted_s += att.wasted_s;
        match att.outcome {
            ShotOutcome::Completed { dur_s, .. } => {
                stats.useful_s += dur_s;
                health.record_success(r);
                placement[s] = r;
            }
            ShotOutcome::DeviceLost { .. } | ShotOutcome::RetriesExhausted { .. } => {
                // Rank is gone (or keeps failing): blacklist it and move its
                // remaining work to the least-loaded survivor.
                if let Some(o) = obs {
                    o.registry.inc("ranks_blacklisted", 1);
                }
                health.blacklist(r);
                stats.dead_ranks.push(r);
                let mut work: Vec<usize> = queues[r].drain(..).collect();
                work.push(s);
                reschedule(work, &mut queues, &clock, &health, &mut stats)?;
            }
            ShotOutcome::DeadlineCancelled { .. } | ShotOutcome::Cancelled { .. } => {
                // plan_survey passes neither a deadline nor a token, so these
                // outcomes cannot occur here.
                return Err(RtmError::MalformedPlan(format!(
                    "shot {s} cancelled in a survey planned without deadlines"
                )));
            }
        }
    }
    debug_assert!(placement.iter().all(|&r| r != usize::MAX));
    Ok(SurveySchedule {
        placement,
        survivors: health.healthy(),
        stats,
    })
}

/// Resilient shot-parallel RTM: schedule under the fault plan, execute the
/// physics on the surviving ranks, and stack with the *fault-free*
/// reduction topology so the image is bitwise-identical to
/// [`rtm_shot_parallel`] with the same nominal `ranks` — no matter which
/// ranks failed or where shots actually ran. Fails with
/// [`RtmError::NoHealthyRanks`] only when every rank is lost.
///
/// [`rtm_shot_parallel`]: crate::shot_parallel::rtm_shot_parallel
#[allow(clippy::too_many_arguments)]
pub fn rtm_survey_resilient(
    medium: &Medium2,
    shots: &[Shot],
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    gangs_per_rank: usize,
    ranks: usize,
    shot_cost_s: f64,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<(Field2, ResilienceStats), RtmError> {
    let schedule = plan_survey(shots.len(), ranks, shot_cost_s, plan, policy)?;
    let exec = &schedule.survivors;
    let e = medium.extent();

    // Physics phase on the survivors. A shot may have completed on a rank
    // that died *afterwards* (its image was delivered before the loss), so
    // for the replay each such shot is recomputed on a survivor — per-shot
    // images are bitwise deterministic wherever they run, which is what
    // lets the reduction below ignore actual placement entirely.
    let thread_of: Vec<usize> = (0..shots.len())
        .map(|s| {
            exec.iter()
                .position(|&x| x == schedule.placement[s])
                .unwrap_or(s % exec.len())
        })
        .collect();
    let mut results = Communicator::run(exec.len(), |ctx| {
        let mine: Vec<usize> = (0..shots.len())
            .filter(|&s| thread_of[s] == ctx.rank())
            .collect();
        let mut local: Vec<(usize, Field2)> = Vec::with_capacity(mine.len());
        for s in mine {
            let r = run_rtm(
                medium,
                &shots[s],
                wavelet,
                config,
                steps,
                snap_period,
                gangs_per_rank,
            );
            local.push((s, r.image));
        }
        if ctx.rank() == 0 {
            let mut images: Vec<Option<Field2>> = vec![None; shots.len()];
            for (s, img) in local {
                images[s] = Some(img);
            }
            for s in 0..shots.len() {
                if images[s].is_none() {
                    let b = ctx.recv(thread_of[s], s as u64);
                    let mut f = Field2::zeros(e);
                    for (d, chunk) in f.as_mut_slice().iter_mut().zip(b.chunks_exact(4)) {
                        *d = f32::from_le_bytes(chunk.try_into().expect("4 bytes"));
                    }
                    images[s] = Some(f);
                }
            }
            Some(images)
        } else {
            for (s, img) in local {
                let mut payload = Vec::with_capacity(img.as_slice().len() * 4);
                for v in img.as_slice() {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
                ctx.isend(0, s as u64, Bytes::from(payload));
            }
            None
        }
    });
    let images = results.remove(0).ok_or_else(|| {
        RtmError::MalformedPlan("first survivor returned no collected images".to_string())
    })?;

    // Reduction with the fault-free topology: nominal rank r's partial is
    // its round-robin shots summed in shot order; partials then add in
    // rank order — exactly the per-pixel operation order of
    // `rtm_shot_parallel`, so the bits match.
    let mut stack = Field2::zeros(e);
    for r in 0..ranks {
        let mut partial = Field2::zeros(e);
        for s in shots_for_rank(shots.len(), r, ranks) {
            let img = images[s]
                .as_ref()
                .ok_or_else(|| RtmError::MalformedPlan(format!("shot {s} produced no image")))?;
            for (d, v) in partial.as_mut_slice().iter_mut().zip(img.as_slice()) {
                *d += *v;
            }
        }
        if r == 0 {
            stack = partial;
        } else {
            for (d, v) in stack.as_mut_slice().iter_mut().zip(partial.as_slice()) {
                *d += *v;
            }
        }
    }
    Ok((stack, schedule.stats))
}

/// Outcome of a checkpoint-restarted RTM run.
pub struct RestartOutcome {
    /// The migrated result — bitwise-identical to an uninterrupted
    /// [`run_rtm`] of the same shot.
    pub result: RtmResult,
    /// Forward steps executed, including replayed ones (the recompute
    /// metric: equals `steps` when nothing was interrupted).
    pub forward_steps_executed: usize,
    /// Checkpoint restores performed (one per interrupt).
    pub restores: usize,
}

/// [`run_rtm`] with an interruptible, checkpointed forward pass: a full
/// propagation state is stored every `ckpt_every` steps; each entry of
/// `interrupts` kills the forward pass when it first reaches that step,
/// and execution resumes from the most recent stored state. Replay
/// overwrites the seismogram and snapshot slots it re-produces, and the
/// propagator is bitwise deterministic, so the final result is identical
/// to the uninterrupted run — only `forward_steps_executed` grows.
/// Setting `ckpt_every >= steps` keeps only the step-0 state, i.e. a
/// restart-from-zero baseline.
#[allow(clippy::too_many_arguments)]
pub fn run_rtm_with_restart(
    medium: &Medium2,
    acq: &Shot,
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    gangs: usize,
    ckpt_every: usize,
    interrupts: &[usize],
) -> Result<RestartOutcome, RtmError> {
    if ckpt_every == 0 {
        return Err(ConfigError::ZeroSlots.into());
    }
    let shot =
        drive::Shot::<State2>::new(medium, acq, config, steps, snap_period, gangs).checked()?;
    let schedule: Vec<usize> = (0..steps).step_by(ckpt_every).collect();
    Ok(restarted(&shot, wavelet, &schedule, interrupts, None))
}

/// [`run_rtm_with_restart`] storing states at the bounded-memory
/// [`plan_checkpoints`](crate::checkpoint::plan_checkpoints) schedule for
/// `slots` stored states — a failed shot resumes from the nearest planned
/// checkpoint instead of restarting from step 0, with the same memory
/// budget the store-vs-recompute migration already pays.
#[allow(clippy::too_many_arguments)]
pub fn run_rtm_with_restart_planned(
    medium: &Medium2,
    acq: &Shot,
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    gangs: usize,
    slots: usize,
    interrupts: &[usize],
) -> Result<RestartOutcome, RtmError> {
    let schedule = crate::checkpoint::plan_checkpoints(steps, slots)?;
    let shot =
        drive::Shot::<State2>::new(medium, acq, config, steps, snap_period, gangs).checked()?;
    Ok(restarted(&shot, wavelet, &schedule, interrupts, None))
}

/// The general form: the pre-step state is stored at each step of the
/// sorted `checkpoints` (step 0 is always an implicit checkpoint — the
/// initial quiescent state); `randomized` selects random-boundary
/// migration through that medium instead of dense snapshots.
fn restarted(
    shot: &drive::Shot<State2>,
    wavelet: &Wavelet,
    checkpoints: &[usize],
    interrupts: &[usize],
    randomized: Option<&Medium2>,
) -> RestartOutcome {
    let mut restart = Restart {
        checkpoints,
        interrupts,
        executed: 0,
        restores: 0,
    };
    let result = drive::rtm(shot, wavelet, randomized, Some(&mut restart));
    RestartOutcome {
        result,
        forward_steps_executed: restart.executed,
        restores: restart.restores,
    }
}

/// Outcome of a checkpoint-restarted random-boundary RTM run: the result
/// is bitwise-identical to an uninterrupted
/// [`run_rtm_random_boundary`](crate::rand_boundary::run_rtm_random_boundary)
/// of the same shot and seed.
pub type RandBoundRestartOutcome = RestartOutcome;

/// [`crate::rand_boundary::run_rtm_random_boundary`] with an
/// interruptible, checkpointed forward
/// acquisition pass (the recorded-data modeling run): a full propagation
/// state is stored every `ckpt_every` steps and each entry of `interrupts`
/// kills the pass once when it first reaches that step. The migration
/// itself stores nothing to restart *from* — its source wavefield is a
/// pure function of the seed — so a restarted shot reproduces the
/// uninterrupted image **bit for bit** for a fixed
/// [`RandomBoundarySpec`]: replay overwrites are idempotent and the
/// randomized halo is a pure function of `(seed, cell)`.
#[allow(clippy::too_many_arguments)]
pub fn run_rand_boundary_with_restart(
    medium: &Medium2,
    acq: &Shot,
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    spec: &RandomBoundarySpec,
    gangs: usize,
    ckpt_every: usize,
    interrupts: &[usize],
) -> Result<RandBoundRestartOutcome, RtmError> {
    if ckpt_every == 0 {
        return Err(ConfigError::ZeroSlots.into());
    }
    let shot =
        drive::Shot::<State2>::new(medium, acq, config, steps, snap_period, gangs).checked()?;
    let schedule: Vec<usize> = (0..steps).step_by(ckpt_every).collect();
    let randomized = medium.randomized(spec);
    Ok(restarted(
        &shot,
        wavelet,
        &schedule,
        interrupts,
        Some(&randomized),
    ))
}

/// [`modeling_time_multi`] under a fault plan: devices already lost are
/// dropped (the run degrades to the survivors), and transient allocation
/// failures retry with backoff. Returns the timing on the surviving card
/// count plus the accounting.
#[allow(clippy::too_many_arguments)]
pub fn modeling_time_multi_resilient(
    case: &SeismicCase,
    config: &OptimizationConfig,
    compiler: Compiler,
    cluster: Cluster,
    w: &Workload,
    n_gpus: usize,
    packing: GhostPacking,
    mode: CommMode,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<(MultiGpuTiming, ResilienceStats), RtmError> {
    if n_gpus == 0 {
        return Err(ConfigError::ZeroGpus.into());
    }
    let mut stats = ResilienceStats::default();
    let mut alive: Vec<usize> = (0..n_gpus)
        .filter(|&g| plan.device_lost_at(g).is_none())
        .collect();
    stats.dead_ranks = (0..n_gpus).filter(|&g| !alive.contains(&g)).collect();
    // Each surviving card must get through its allocation, retrying
    // transient failures; a card that exhausts its retries is dropped too.
    let mut seq = vec![0u64; n_gpus];
    alive.retain(|&g| {
        for attempt in 0..=policy.max_retries {
            let s = seq[g];
            seq[g] += 1;
            if !plan.alloc_fails(g, s) {
                return true;
            }
            stats.retries += 1;
            if attempt < policy.max_retries {
                stats.backoff_s += policy.backoff_delay(plan.seed() ^ g as u64, attempt);
            }
        }
        stats.dead_ranks.push(g);
        false
    });
    if alive.is_empty() {
        return Err(RtmError::NoHealthyRanks);
    }
    let timing = modeling_time_multi(
        case,
        config,
        compiler,
        cluster,
        w,
        alive.len(),
        packing,
        mode,
    )?;
    stats.useful_s = timing.total_s;
    Ok((timing, stats))
}

/// Decomposed 2D modeling that degrades gracefully: ranks whose device is
/// already lost under `plan` are dropped and the run proceeds on the
/// survivors. The decomposed propagator is bitwise-identical for *any*
/// rank count, so the degraded field equals the full-cluster field
/// exactly. Returns the field and the rank count actually used.
#[allow(clippy::too_many_arguments)]
pub fn modeling_iso2_mpi_resilient(
    model: &IsoModel2,
    damp_x: &DampProfile,
    damp_z: &DampProfile,
    src: (usize, usize),
    wavelet: &Wavelet,
    steps: usize,
    ranks: usize,
    plan: &FaultPlan,
) -> Result<(Field2, usize), RtmError> {
    if ranks == 0 {
        return Err(ConfigError::ZeroRanks.into());
    }
    let alive = (0..ranks)
        .filter(|&r| plan.device_lost_at(r).is_none())
        .count();
    if alive == 0 {
        return Err(RtmError::NoHealthyRanks);
    }
    Ok((
        crate::mpi_run::modeling_iso2_mpi(model, damp_x, damp_z, src, wavelet, steps, alive),
        alive,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shot_parallel::rtm_shot_parallel;
    use accel_sim::fault::FaultRates;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{acoustic2_layered, iso2_constant, Layer};
    use seismic_model::{extent2, Geometry};
    use seismic_pml::CpmlAxis;
    use seismic_source::Acquisition2;

    fn medium(n: usize) -> Medium2 {
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 3000.0, h, 0.6);
        let layers = [
            Layer {
                z_top: 0,
                vp: 1500.0,
                vs: 0.0,
                rho: 1000.0,
            },
            Layer {
                z_top: n / 2,
                vp: 3000.0,
                vs: 0.0,
                rho: 2400.0,
            },
        ];
        let model = acoustic2_layered(e, &layers, Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 10, dt, 3000.0, h, 1e-4);
        Medium2::Acoustic {
            model,
            cpml: [c.clone(), c],
        }
    }

    #[test]
    fn backoff_is_bounded_monotone_deterministic() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay_s: 0.25,
            max_delay_s: 30.0,
        };
        let mut prev = 0.0;
        for a in 0..12 {
            let d = p.backoff_delay(77, a);
            assert!(d >= prev, "attempt {a}: {d} < {prev}");
            assert!(d <= p.max_delay_s);
            assert!(d > 0.0);
            assert_eq!(d, p.backoff_delay(77, a), "deterministic");
            prev = d;
        }
        assert_eq!(p.backoff_delay(77, 11), p.max_delay_s, "cap reached");
    }

    #[test]
    fn backoff_stays_finite_to_attempt_64() {
        // Attempt counts far past f64's exponent range must clamp, not
        // overflow to infinity or NaN.
        let p = RetryPolicy {
            max_retries: 64,
            base_delay_s: 0.5,
            max_delay_s: 60.0,
        };
        let mut prev = 0.0;
        for a in 0..=64u32 {
            let d = p.backoff_delay(9, a);
            assert!(d.is_finite(), "attempt {a}: {d} not finite");
            assert!(d > 0.0 && d <= p.max_delay_s, "attempt {a}: {d}");
            assert!(d >= prev, "attempt {a}: {d} < {prev}");
            prev = d;
        }
        // Even a pathological base near f64::MAX must respect the cap.
        let extreme = RetryPolicy {
            max_retries: 64,
            base_delay_s: 1e300,
            max_delay_s: 120.0,
        };
        for a in [0u32, 1, 7, 52, 53, 63, 64] {
            let d = extreme.backoff_delay(9, a);
            assert!(
                d.is_finite() && d <= extreme.max_delay_s,
                "attempt {a}: {d}"
            );
        }
    }

    #[test]
    fn shot_attempt_cancels_on_infeasible_deadline() {
        let plan = FaultPlan::generate(0, 1, 1e6, FaultRates::none());
        let policy = RetryPolicy::default();
        let mut seq = 0u64;
        // Plenty of budget: completes.
        let ok = run_shot_attempts(0, 0.0, 10.0, &plan, &policy, &mut seq, Some(100.0), None);
        assert!(matches!(ok.outcome, ShotOutcome::Completed { .. }));
        assert_eq!(ok.end_s, 10.0);
        // Too little budget: cancelled before burning any device time, and
        // no transient-failure draw is consumed.
        let draws_before = seq;
        let cut = run_shot_attempts(0, 0.0, 10.0, &plan, &policy, &mut seq, Some(5.0), None);
        assert_eq!(cut.outcome, ShotOutcome::DeadlineCancelled { at_s: 0.0 });
        assert_eq!(cut.end_s, 0.0);
        assert_eq!(seq, draws_before, "no fault draw for a cancelled attempt");
        assert_eq!(cut.events, vec![ShotEvent::point("cancel:deadline", 0.0)]);
    }

    #[test]
    fn shot_attempt_deadline_accounts_for_backoff() {
        // Every allocation fails: the loop must give up once sleeping would
        // bust the deadline instead of sleeping into it.
        let rates = FaultRates {
            transient_oom_prob: 1.0,
            ..FaultRates::none()
        };
        let plan = FaultPlan::generate(1, 1, 1e6, rates);
        let policy = RetryPolicy {
            max_retries: 100,
            base_delay_s: 4.0,
            max_delay_s: 60.0,
        };
        let mut seq = 0u64;
        let att = run_shot_attempts(0, 0.0, 10.0, &plan, &policy, &mut seq, Some(15.0), None);
        assert_eq!(
            att.outcome,
            ShotOutcome::DeadlineCancelled { at_s: att.end_s }
        );
        assert!(att.end_s <= 15.0, "never slept past the deadline");
        assert!(att.retries >= 1, "at least one failing draw happened");
        assert_eq!(att.events.last().unwrap().name, "cancel:deadline");
    }

    #[test]
    fn shot_attempt_honors_cancellation_token() {
        let plan = FaultPlan::generate(0, 1, 1e6, FaultRates::none());
        let policy = RetryPolicy::default();
        let token = CancellationToken::new();
        let mut seq = 0u64;
        let before = run_shot_attempts(0, 2.0, 1.0, &plan, &policy, &mut seq, None, Some(&token));
        assert!(matches!(before.outcome, ShotOutcome::Completed { .. }));
        token.cancel();
        assert!(token.is_cancelled());
        let after = run_shot_attempts(0, 3.0, 1.0, &plan, &policy, &mut seq, None, Some(&token));
        assert_eq!(after.outcome, ShotOutcome::Cancelled { at_s: 3.0 });
        assert_eq!(after.end_s, 3.0);
        assert_eq!(after.events, vec![ShotEvent::point("cancel:token", 3.0)]);
    }

    #[test]
    fn health_tracker_blacklists_after_streak() {
        let mut h = HealthTracker::new(3, 2);
        assert!(!h.record_failure(1));
        h.record_success(1);
        assert!(!h.record_failure(1), "streak was reset");
        assert!(h.record_failure(1), "second consecutive blacklists");
        assert!(!h.is_healthy(1));
        assert_eq!(h.healthy(), vec![0, 2]);
        h.blacklist(0);
        assert_eq!(h.healthy(), vec![2]);
    }

    #[test]
    fn young_interval_scaling() {
        let i = optimal_checkpoint_interval(2.0, 3600.0);
        assert!((i - (2.0 * 2.0 * 3600.0f64).sqrt()).abs() < 1e-12);
        // 4× the MTTI → 2× the interval.
        assert!((optimal_checkpoint_interval(2.0, 4.0 * 3600.0) / i - 2.0).abs() < 1e-12);
        assert_eq!(
            optimal_checkpoint_interval(2.0, f64::INFINITY),
            f64::INFINITY
        );
        assert_eq!(optimal_checkpoint_interval(0.0, 100.0), f64::INFINITY);
    }

    /// First seed whose plan kills at least one rank but not all of them
    /// mid-survey — deterministic given the scan order.
    fn seed_with_partial_loss(ranks: usize, horizon: f64, rates: FaultRates) -> (u64, FaultPlan) {
        for seed in 0..1000u64 {
            let p = FaultPlan::generate(seed, ranks, horizon, rates);
            let survivors = p.surviving_devices().len();
            let early_loss =
                (0..ranks).any(|d| p.device_lost_at(d).is_some_and(|t| t < horizon * 0.5));
            if survivors >= 1 && survivors < ranks && early_loss {
                return (seed, p);
            }
        }
        panic!("no seed with partial loss in range");
    }

    #[test]
    fn schedule_is_deterministic_and_covers_all_shots() {
        let rates = FaultRates {
            device_lost_mtti_s: 40.0,
            transient_oom_prob: 0.05,
            ..FaultRates::none()
        };
        let (_, plan) = seed_with_partial_loss(3, 100.0, rates);
        let policy = RetryPolicy::default();
        let a = plan_survey(11, 3, 7.0, &plan, &policy).unwrap();
        let b = plan_survey(11, 3, 7.0, &plan, &policy).unwrap();
        assert_eq!(a, b);
        // Every shot placed exactly once, on a valid rank; a placement on a
        // now-dead rank means the shot finished before that rank died.
        assert_eq!(a.placement.len(), 11);
        for (s, &r) in a.placement.iter().enumerate() {
            assert!(r < 3, "shot {s} unplaced");
        }
        assert!(!a.stats.dead_ranks.is_empty());
        assert!(a.stats.rescheduled_shots > 0);
        assert!(a.stats.useful_s > 0.0);
    }

    /// Observing the survey planner changes nothing about the schedule,
    /// yields a valid per-rank timeline, and its registry counters agree
    /// with the returned stats.
    #[test]
    fn observed_survey_matches_plain_and_validates() {
        let rates = FaultRates {
            device_lost_mtti_s: 40.0,
            transient_oom_prob: 0.05,
            ..FaultRates::none()
        };
        let (_, plan) = seed_with_partial_loss(3, 100.0, rates);
        let policy = RetryPolicy::default();
        let plain = plan_survey(11, 3, 7.0, &plan, &policy).unwrap();
        let obs = ObsSession::new();
        let traced = plan_survey_obs(11, 3, 7.0, &plan, &policy, Some(&obs)).unwrap();
        assert_eq!(plain, traced, "observation must not perturb the schedule");
        obs.tracer.validate_tracks().expect("serial rank tracks");
        // One track per rank that did anything; spans carry shot ids.
        assert!(!obs.tracer.tracks().is_empty());
        assert!(obs
            .tracer
            .spans()
            .iter()
            .all(|s| matches!(s.track, Track::MpiRank(_))));
        assert_eq!(obs.registry.counter("shot_retries"), traced.stats.retries);
        assert_eq!(
            obs.registry.counter("ranks_blacklisted"),
            traced.stats.dead_ranks.len() as u64
        );
        // Useful seconds equal the summed successful-shot span durations.
        let useful: f64 = obs
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "shot")
            .map(|s| s.dur_s)
            .sum();
        assert!((useful - traced.stats.useful_s).abs() < 1e-9);
    }

    #[test]
    fn all_ranks_lost_is_an_error() {
        let rates = FaultRates {
            device_lost_mtti_s: 0.5,
            ..FaultRates::none()
        };
        // A horizon of many MTTIs kills everything for the first seed that
        // schedules a loss per device before any work finishes.
        for seed in 0..1000u64 {
            let plan = FaultPlan::generate(seed, 2, 1000.0, rates);
            if plan.surviving_devices().is_empty()
                && (0..2).all(|d| plan.device_lost_at(d).unwrap() < 1.0)
            {
                let r = plan_survey(4, 2, 5.0, &plan, &RetryPolicy::default());
                assert_eq!(r.unwrap_err(), RtmError::NoHealthyRanks);
                return;
            }
        }
        panic!("no fully-lethal seed found");
    }

    /// The headline tentpole property: under a fault plan that kills some
    /// (not all) ranks, the resilient survey completes and its stacked
    /// image is bitwise-identical to the fault-free run.
    #[test]
    fn faulted_survey_image_is_bitwise_identical() {
        let n = 48;
        let m = medium(n);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let shots: Vec<Shot> = [n / 4, n / 2, 3 * n / 4, n / 3]
            .into_iter()
            .map(|sx| Acquisition2::surface_line(n, sx, 5, 5, 3))
            .collect();
        let steps = 120;
        let ranks = 3;
        let reference = rtm_shot_parallel(&m, &shots, &w, &cfg, steps, 4, 2, ranks).unwrap();

        let rates = FaultRates {
            device_lost_mtti_s: 30.0,
            transient_oom_prob: 0.08,
            straggler_mtti_s: 25.0,
            straggler_duration_s: 10.0,
            straggler_slowdown: 2.0,
            ..FaultRates::none()
        };
        let (_, plan) = seed_with_partial_loss(ranks, 200.0, rates);
        let (img, stats) = rtm_survey_resilient(
            &m,
            &shots,
            &w,
            &cfg,
            steps,
            4,
            2,
            ranks,
            10.0,
            &plan,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(!stats.dead_ranks.is_empty(), "a rank must actually die");
        assert_eq!(img, reference, "bitwise-identical stacked image");
        assert!(stats.overhead_frac() > 0.0);
    }

    /// Checkpoint-restart redoes strictly fewer forward steps than a
    /// restart from zero, with bitwise-identical output.
    #[test]
    fn restart_recompute_is_strictly_less_than_from_zero() {
        let n = 48;
        let m = medium(n);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let acq = Acquisition2::surface_line(n, n / 2, 5, 5, 3);
        let steps = 160;
        let interrupts = [140usize];

        let plain = run_rtm(&m, &acq, &w, &cfg, steps, 4, 2);
        let ck = run_rtm_with_restart(&m, &acq, &w, &cfg, steps, 4, 2, 25, &interrupts).unwrap();
        let zero =
            run_rtm_with_restart(&m, &acq, &w, &cfg, steps, 4, 2, steps, &interrupts).unwrap();

        assert_eq!(ck.restores, 1);
        assert_eq!(zero.restores, 1);
        // Checkpointed: replays 140-125 = 15 steps; from zero: 140.
        assert_eq!(ck.forward_steps_executed, steps + (140 - 125));
        assert_eq!(zero.forward_steps_executed, steps + 140);
        assert!(ck.forward_steps_executed < zero.forward_steps_executed);
        // Both reproduce the uninterrupted run exactly.
        assert_eq!(ck.result.image, plain.image);
        assert_eq!(ck.result.seismogram, plain.seismogram);
        assert_eq!(zero.result.image, plain.image);
        // No interrupts → no replay at all.
        let clean = run_rtm_with_restart(&m, &acq, &w, &cfg, steps, 4, 2, 25, &[]).unwrap();
        assert_eq!(clean.forward_steps_executed, steps);
        assert_eq!(clean.restores, 0);
        assert_eq!(clean.result.image, plain.image);
        // The plan_checkpoints-driven schedule also resumes mid-shot with
        // strictly less recompute than from-zero, bit-exact.
        let planned =
            run_rtm_with_restart_planned(&m, &acq, &w, &cfg, steps, 4, 2, 6, &interrupts).unwrap();
        assert_eq!(planned.restores, 1);
        assert!(
            planned.forward_steps_executed > steps,
            "some replay happened"
        );
        assert!(planned.forward_steps_executed < zero.forward_steps_executed);
        assert_eq!(planned.result.image, plain.image);
        assert_eq!(planned.result.seismogram, plain.seismogram);
    }

    /// Random-boundary shots survive interrupts with the same guarantee as
    /// checkpointed ones: the restarted run's image is bitwise-identical to
    /// the uninterrupted run for a fixed seed, with strictly less recompute
    /// than restarting from zero.
    #[test]
    fn rand_boundary_restart_is_bitwise_identical() {
        let n = 48;
        let m = medium(n);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let acq = Acquisition2::surface_line(n, n / 2, 5, 5, 3);
        let steps = 160;
        let spec = RandomBoundarySpec::new(8, 2024);
        let interrupts = [140usize];

        let plain =
            crate::rand_boundary::run_rtm_random_boundary(&m, &acq, &w, &cfg, steps, 4, &spec, 2)
                .unwrap();
        let ck =
            run_rand_boundary_with_restart(&m, &acq, &w, &cfg, steps, 4, &spec, 2, 25, &interrupts)
                .unwrap();
        let zero = run_rand_boundary_with_restart(
            &m,
            &acq,
            &w,
            &cfg,
            steps,
            4,
            &spec,
            2,
            steps,
            &interrupts,
        )
        .unwrap();

        assert_eq!(ck.restores, 1);
        assert_eq!(ck.forward_steps_executed, steps + (140 - 125));
        assert_eq!(zero.forward_steps_executed, steps + 140);
        assert!(ck.forward_steps_executed < zero.forward_steps_executed);
        assert_eq!(ck.result.image, plain.image, "restart must not change bits");
        assert_eq!(ck.result.seismogram, plain.seismogram);
        assert_eq!(zero.result.image, plain.image);
        assert_eq!(ck.result.snapshots_saved, 0);
        // Clean run does no replay.
        let clean = run_rand_boundary_with_restart(&m, &acq, &w, &cfg, steps, 4, &spec, 2, 25, &[])
            .unwrap();
        assert_eq!(clean.forward_steps_executed, steps);
        assert_eq!(clean.restores, 0);
        assert_eq!(clean.result.image, plain.image);
    }

    #[test]
    fn multi_gpu_resilient_degrades_and_retries() {
        use openacc_sim::PgiVersion;
        use seismic_model::footprint::{Dims, Formulation};
        let case = SeismicCase {
            formulation: Formulation::Acoustic,
            dims: Dims::Three,
        };
        let w = Workload {
            nx: 256,
            ny: 256,
            nz: 256,
            steps: 100,
            snap_period: 10,
            n_receivers: 100,
        };
        let cfg = OptimizationConfig::default();
        let pgi = Compiler::Pgi(PgiVersion::V14_6);
        let rates = FaultRates {
            device_lost_mtti_s: 50.0,
            transient_oom_prob: 0.3,
            ..FaultRates::none()
        };
        // A plan that loses at least one of 4 devices inside the horizon.
        let (_, plan) = {
            let mut found = None;
            for seed in 0..1000u64 {
                let p = FaultPlan::generate(seed, 4, 100.0, rates);
                let s = p.surviving_devices().len();
                if (1..4).contains(&s) {
                    found = Some((seed, p));
                    break;
                }
            }
            found.expect("partial-loss seed")
        };
        let (t, stats) = modeling_time_multi_resilient(
            &case,
            &cfg,
            pgi,
            Cluster::CrayXc30,
            &w,
            4,
            GhostPacking::DevicePacked,
            CommMode::Blocking,
            &plan,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(t.n_gpus < 4, "degraded below the nominal count");
        assert!(t.n_gpus >= 1);
        assert!(!stats.dead_ranks.is_empty());
        // Fault-free plan reproduces the plain pricing exactly.
        let clean = FaultPlan::generate(0, 4, 100.0, FaultRates::none());
        let (tc, sc) = modeling_time_multi_resilient(
            &case,
            &cfg,
            pgi,
            Cluster::CrayXc30,
            &w,
            4,
            GhostPacking::DevicePacked,
            CommMode::Blocking,
            &clean,
            &RetryPolicy::default(),
        )
        .unwrap();
        let plain = modeling_time_multi(
            &case,
            &cfg,
            pgi,
            Cluster::CrayXc30,
            &w,
            4,
            GhostPacking::DevicePacked,
            CommMode::Blocking,
        )
        .unwrap();
        assert_eq!(tc, plain);
        assert_eq!(sc.retries, 0);
    }

    /// Degraded decomposed runs keep the exact field — the rank-count
    /// bitwise-identity of the mpi driver is what makes degradation
    /// "graceful" in the strongest sense.
    #[test]
    fn mpi_degradation_preserves_field_exactly() {
        let n = 40;
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 2000.0, h, 0.5);
        let model = iso2_constant(e, 2000.0, Geometry::uniform(h, dt));
        let damp = DampProfile::new(n, e.halo, 12, 2000.0, h, 1e-4);
        let w = Wavelet::ricker(18.0);
        let full =
            crate::mpi_run::modeling_iso2_mpi(&model, &damp, &damp, (n / 2, n / 2), &w, 60, 4);
        let rates = FaultRates {
            device_lost_mtti_s: 20.0,
            ..FaultRates::none()
        };
        let (_, plan) = {
            let mut found = None;
            for seed in 0..1000u64 {
                let p = FaultPlan::generate(seed, 4, 100.0, rates);
                let s = p.surviving_devices().len();
                if (1..4).contains(&s) {
                    found = Some((seed, p));
                    break;
                }
            }
            found.expect("partial-loss seed")
        };
        let (degraded, used) =
            modeling_iso2_mpi_resilient(&model, &damp, &damp, (n / 2, n / 2), &w, 60, 4, &plan)
                .unwrap();
        assert!((1..4).contains(&used));
        assert_eq!(degraded, full, "bitwise-equal under degradation");
        // Total loss is a typed error.
        let lethal = FaultRates {
            device_lost_mtti_s: 1e-6,
            ..FaultRates::none()
        };
        let dead = FaultPlan::generate(3, 4, 100.0, lethal);
        if dead.surviving_devices().is_empty() {
            let r =
                modeling_iso2_mpi_resilient(&model, &damp, &damp, (n / 2, n / 2), &w, 60, 4, &dead);
            assert_eq!(r.unwrap_err(), RtmError::NoHealthyRanks);
        }
    }
}
