//! Shot-parallel RTM over message-passing ranks.
//!
//! The production pattern above the paper's per-shot pipeline: a survey has
//! many shots, each an independent forward+backward run ("a one shot
//! profile" in the paper's measurements), so shots distribute
//! embarrassingly across ranks and the migrated images stack on the root.
//! This is the level at which the paper's cluster would actually be used —
//! one GPU (or socket) per shot — and the level its multi-node story
//! implies.

use crate::case::OptimizationConfig;
use crate::error::ConfigError;
use crate::modeling::Medium2;
use crate::rtm::run_rtm;
use mpi_sim::comm::Communicator;
use seismic_grid::Field2;
use seismic_source::{Acquisition2, Wavelet};

/// One shot's acquisition (source position varies; receivers may too).
pub type Shot = Acquisition2;

/// Round-robin assignment of shot indices to a rank.
pub fn shots_for_rank(n_shots: usize, rank: usize, ranks: usize) -> Vec<usize> {
    (0..n_shots).filter(|s| s % ranks == rank).collect()
}

/// Migrate `shots` distributed over `ranks` ranks; every rank runs its
/// shots' full RTM pipelines locally and the stacked image is assembled on
/// rank 0 (returned; identical on a single rank to sequential stacking).
#[allow(clippy::too_many_arguments)]
pub fn rtm_shot_parallel(
    medium: &Medium2,
    shots: &[Shot],
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    gangs_per_rank: usize,
    ranks: usize,
) -> Result<Field2, ConfigError> {
    if shots.is_empty() {
        return Err(ConfigError::NoShots);
    }
    if ranks == 0 {
        return Err(ConfigError::ZeroRanks);
    }
    let e = medium.extent();
    let mut results = Communicator::run(ranks, |ctx| {
        let mine = shots_for_rank(shots.len(), ctx.rank(), ctx.size());
        let mut local = Field2::zeros(e);
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
            for (d, v) in local.as_mut_slice().iter_mut().zip(r.image.as_slice()) {
                *d += *v;
            }
        }
        if ctx.rank() == 0 {
            let mut stack = local;
            for r in 1..ctx.size() {
                for (d, v) in stack.as_mut_slice().iter_mut().zip(ctx.recv(r, 777)) {
                    *d += v;
                }
            }
            Some(stack)
        } else {
            ctx.isend(0, 777, local.as_slice().to_vec());
            None
        }
    });
    Ok(results.remove(0).expect("rank 0 returns the stack"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{acoustic2_layered, Layer};
    use seismic_model::{extent2, Geometry};
    use seismic_pml::CpmlAxis;

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
    fn degenerate_surveys_are_typed_errors() {
        let m = medium(24);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        assert_eq!(
            rtm_shot_parallel(&m, &[], &w, &cfg, 10, 2, 1, 2),
            Err(ConfigError::NoShots)
        );
        let shots = [Acquisition2::surface_line(24, 12, 5, 5, 2)];
        assert_eq!(
            rtm_shot_parallel(&m, &shots, &w, &cfg, 10, 2, 1, 0),
            Err(ConfigError::ZeroRanks)
        );
    }

    #[test]
    fn round_robin_partition() {
        let a = shots_for_rank(7, 0, 3);
        let b = shots_for_rank(7, 1, 3);
        let c = shots_for_rank(7, 2, 3);
        assert_eq!(a, vec![0, 3, 6]);
        assert_eq!(b, vec![1, 4]);
        assert_eq!(c, vec![2, 5]);
        let mut all: Vec<_> = a.into_iter().chain(b).chain(c).collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    /// Distributed stacking must match single-rank stacking bitwise: shots
    /// are independent and addition order per pixel is rank-count
    /// invariant under round-robin assignment... it is not in general —
    /// so the implementation stacks locally in shot order and the test
    /// pins the 2-rank result against the sequential sum in the same
    /// grouping order.
    #[test]
    fn distributed_stack_matches_sequential() {
        let n = 56;
        let m = medium(n);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let shots: Vec<Shot> = [n / 3, n / 2, 2 * n / 3]
            .into_iter()
            .map(|sx| Acquisition2::surface_line(n, sx, 5, 5, 4))
            .collect();
        let steps = 150;
        // Sequential reference replicating the distributed reduction order:
        // rank 0 holds shots {0, 2}, rank 1 holds {1}; stack = local0 + local1.
        let img = |s: &Shot| run_rtm(&m, s, &w, &cfg, steps, 4, 2).image;
        let mut local0 = Field2::zeros(m.extent());
        for s in [&shots[0], &shots[2]] {
            for (d, v) in local0.as_mut_slice().iter_mut().zip(img(s).as_slice()) {
                *d += *v;
            }
        }
        let local1 = img(&shots[1]);
        let mut expect = local0;
        for (d, v) in expect.as_mut_slice().iter_mut().zip(local1.as_slice()) {
            *d += *v;
        }

        let got = rtm_shot_parallel(&m, &shots, &w, &cfg, steps, 4, 2, 2).unwrap();
        assert_eq!(got, expect);
        // And a single rank reproduces the same physics (different addition
        // grouping ⇒ compare with tolerance).
        let got1 = rtm_shot_parallel(&m, &shots, &w, &cfg, steps, 4, 2, 1).unwrap();
        let scale = got.max_abs().max(1e-12);
        for (a, b) in got.as_slice().iter().zip(got1.as_slice()) {
            assert!((a - b).abs() <= 1e-5 * scale, "{a} vs {b}");
        }
    }
}
