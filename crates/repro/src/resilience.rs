//! Resilience-overhead study: what seeded faults cost a survey, as a
//! function of the device mean-time-to-interrupt (MTTI).
//!
//! Production RTM occupies a cluster long enough that device loss,
//! transient allocation failures and stragglers all fire (the fault
//! processes of `accel_sim::fault`). The resilient executor keeps the
//! image bitwise-identical; the *price* is retried work, backoff sleep and
//! rescheduled shots. This module sweeps the MTTI and aggregates that
//! price over many seeds, plus the Young-rule checkpoint interval each
//! MTTI implies, and measures checkpoint-restart recompute directly on the
//! real 2D RTM driver.

use accel_sim::fault::{FaultPlan, FaultRates};
use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::Medium2;
use rtm_core::resilient::{
    optimal_checkpoint_interval, plan_survey, run_rtm_with_restart, RetryPolicy,
};
use rtm_core::shot_parallel::Shot;
use seismic_source::Wavelet;

/// One MTTI point of the overhead sweep, aggregated over seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct MttiRow {
    /// Device-lost mean time to interrupt, seconds.
    pub mtti_s: f64,
    /// Mean overhead fraction (wasted + backoff over total simulated time).
    pub overhead_frac: f64,
    /// Mean shots rescheduled off their nominal rank.
    pub rescheduled: f64,
    /// Mean ranks lost per survey.
    pub dead_ranks: f64,
    /// Surveys that completed (≥ 1 rank survived) out of the seeds tried.
    pub completed: usize,
    /// Seeds tried.
    pub seeds: usize,
    /// Young's optimal checkpoint interval `√(2·C·MTTI)` for this MTTI.
    pub young_interval_s: f64,
}

/// Sweep survey overhead against MTTI: for each MTTI, schedule the same
/// survey under `seeds.len()` independent fault plans and aggregate the
/// resilience accounting. Surveys that lose every rank count as not
/// completed and contribute nothing to the means. Deterministic.
pub fn overhead_vs_mtti(
    n_shots: usize,
    ranks: usize,
    shot_cost_s: f64,
    ckpt_cost_s: f64,
    mttis: &[f64],
    seeds: &[u64],
) -> Vec<MttiRow> {
    let policy = RetryPolicy::default();
    // Horizon: generous multiple of the fault-free makespan so reschedules
    // and their knock-on slowdowns fit inside the sampled window.
    let makespan = shot_cost_s * (n_shots as f64 / ranks as f64).ceil();
    let horizon = 6.0 * makespan;
    mttis
        .iter()
        .map(|&mtti| {
            let rates = FaultRates {
                device_lost_mtti_s: mtti,
                transient_oom_prob: 0.02,
                straggler_mtti_s: 4.0 * mtti,
                straggler_duration_s: shot_cost_s,
                straggler_slowdown: 1.5,
            };
            let mut over = 0.0;
            let mut resched = 0.0;
            let mut dead = 0.0;
            let mut completed = 0usize;
            for &seed in seeds {
                let plan = FaultPlan::generate(seed, ranks, horizon, rates);
                // Err means every rank was lost: survey abandoned.
                if let Ok(s) = plan_survey(n_shots, ranks, shot_cost_s, &plan, &policy, None) {
                    over += s.stats.overhead_frac();
                    resched += s.stats.rescheduled_shots as f64;
                    dead += s.stats.dead_ranks.len() as f64;
                    completed += 1;
                }
            }
            let n = completed.max(1) as f64;
            MttiRow {
                mtti_s: mtti,
                overhead_frac: over / n,
                rescheduled: resched / n,
                dead_ranks: dead / n,
                completed,
                seeds: seeds.len(),
                young_interval_s: optimal_checkpoint_interval(ckpt_cost_s, mtti),
            }
        })
        .collect()
}

/// One checkpoint-interval point of the restart study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartRow {
    /// Steps between stored forward states (`steps` = restart-from-zero).
    pub ckpt_every: usize,
    /// Forward steps executed including replay.
    pub forward_steps: usize,
    /// Steps replayed beyond the uninterrupted count.
    pub recompute: usize,
}

/// Measure checkpoint-restart recompute on the real 2D RTM driver: run the
/// same shot with an interrupt at `interrupt_step` under several
/// checkpoint intervals and report the replayed work. Every row's image is
/// bitwise-identical to the uninterrupted run (asserted by the tier-1
/// tests); only the recompute varies.
pub fn restart_recompute_rows(
    medium: &Medium2,
    acq: &Shot,
    wavelet: &Wavelet,
    steps: usize,
    interrupt_step: usize,
    intervals: &[usize],
) -> Vec<RestartRow> {
    let cfg = OptimizationConfig::default();
    intervals
        .iter()
        .map(|&ck| {
            let checkpoints: Vec<usize> = (0..steps).step_by(ck).collect();
            let out = run_rtm_with_restart(
                medium,
                acq,
                wavelet,
                &cfg,
                steps,
                4,
                2,
                &checkpoints,
                None,
                &[interrupt_step],
            )
            .expect("valid restart configuration");
            RestartRow {
                ckpt_every: ck,
                forward_steps: out.forward_steps_executed,
                recompute: out.forward_steps_executed - steps,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_falls_as_mtti_grows() {
        let seeds: Vec<u64> = (0..40).collect();
        let rows = overhead_vs_mtti(24, 4, 10.0, 2.0, &[40.0, 5000.0], &seeds);
        assert_eq!(rows.len(), 2);
        // Harsh faults cost real overhead; near-infinite MTTI costs ~none.
        assert!(rows[0].overhead_frac > rows[1].overhead_frac);
        assert!(rows[1].dead_ranks < rows[0].dead_ranks);
        // Young interval grows with the square root of the MTTI.
        let ratio = rows[1].young_interval_s / rows[0].young_interval_s;
        assert!((ratio - (5000.0f64 / 40.0).sqrt()).abs() < 1e-9);
        // Determinism: the sweep is a pure function of its inputs.
        assert_eq!(
            rows,
            overhead_vs_mtti(24, 4, 10.0, 2.0, &[40.0, 5000.0], &seeds)
        );
    }

    /// The six rows of EXPERIMENTS.md "Resilience — overhead vs MTTI", at
    /// the precision the `resilience` binary prints them: 48 shots × 120 s
    /// over 8 ranks, seeds 0..64, checkpoint cost 3 s.
    #[test]
    fn study_reproduces_the_published_table() {
        let seeds: Vec<u64> = (0..64).collect();
        let mttis = [120.0, 300.0, 900.0, 3600.0, 14400.0, 86400.0];
        let rows = overhead_vs_mtti(48, 8, 120.0, 3.0, &mttis, &seeds);
        let got: Vec<(usize, String, String, String)> = rows
            .iter()
            .map(|r| {
                assert_eq!(r.seeds, 64);
                (
                    r.completed,
                    format!("{:.1}", 100.0 * r.overhead_frac),
                    format!("{:.1}", r.rescheduled),
                    format!("{:.2}", r.dead_ranks),
                )
            })
            .collect();
        let want = [
            (0, "0.0", "0.0", "0.00"),
            (0, "0.0", "0.0", "0.00"),
            (46, "5.1", "25.7", "5.26"),
            (64, "1.5", "5.3", "1.41"),
            (64, "0.3", "0.9", "0.30"),
            (64, "0.0", "0.1", "0.03"),
        ];
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                (g.0, g.1.as_str(), g.2.as_str(), g.3.as_str()),
                w,
                "row {i} (MTTI {} s)",
                mttis[i]
            );
        }
    }

    #[test]
    fn recompute_shrinks_with_denser_checkpoints() {
        use seismic_grid::cfl::stable_dt;
        use seismic_model::builder::{acoustic2_layered, Layer};
        use seismic_model::{extent2, Geometry};
        use seismic_pml::CpmlAxis;
        use seismic_source::Acquisition2;

        let n = 40;
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
        let m = Medium2::Acoustic {
            model,
            cpml: [c.clone(), c],
        };
        let acq = Acquisition2::surface_line(n, n / 2, 5, 5, 4);
        let w = Wavelet::ricker(20.0);

        let steps = 80;
        let rows = restart_recompute_rows(&m, &acq, &w, steps, 70, &[10, 40, steps]);
        // Denser checkpoints → monotonically less replay; from-zero replays
        // everything up to the interrupt.
        assert!(rows[0].recompute <= rows[1].recompute);
        assert!(rows[1].recompute <= rows[2].recompute);
        assert_eq!(rows[2].recompute, 70);
        // Crash at 70 with checkpoints every 10: the interrupt fires before
        // the step-70 state is stored, so replay runs from step 60.
        assert_eq!(rows[0].recompute, 10);
    }
}
