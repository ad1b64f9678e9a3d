//! Seeded random-boundary construction (Barbosa & Coutinho).
//!
//! Random-boundary RTM replaces the absorbing layer with a **randomized
//! velocity halo**: outgoing energy entering the strip scatters into
//! incoherent noise instead of being damped, so the medium stays lossless and
//! the source propagation can be run backward from its final state — no
//! wavefield snapshots, no checkpoint traffic. The noise that re-enters the
//! interior during reconstruction is uncorrelated with the receiver field and
//! stacks out of the image.
//!
//! This module owns the *law* of the perturbation; applying it to concrete
//! earth models lives in `seismic-model::random_boundary`, and the migration
//! driver that exploits reversibility lives in `rtm-core::rand_boundary`.
//!
//! Design constraints the law satisfies:
//!
//! * **Deterministic & order-free** — the factor at a cell is a pure function
//!   of `(seed, coordinates)` via [`seismic_grid::rng::hash2`]/[`hash3`], so
//!   gang counts, slab decompositions, and restarts cannot change it.
//! * **Velocity never increases** — factors lie in `[1 − AMP, 1]`, so the CFL
//!   bound of the unperturbed model still holds and `dt` is unchanged.
//! * **No impedance wall** — the perturbation amplitude ramps linearly from
//!   0 at the interior edge of the strip to [`AMP`] at the outer edge, the
//!   law of the random-boundary literature, so the strip's inner face
//!   reflects nothing coherent back into the interior.

use seismic_grid::rng::{hash2, hash3, unit_f32};

/// Maximum relative velocity perturbation, reached at the outer edge of the
/// strip: a cell at depth `d` of a `width`-point strip has its velocity
/// scaled by `1 − a·u` with `a = AMP·d/width` and `u ~ U[0,1)`.
pub const AMP: f32 = 0.35;

/// A seeded random-boundary region: strip width and seed. Two specs with
/// the same fields build bitwise-identical boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomBoundarySpec {
    /// Strip depth in grid points at every interior face.
    pub width: usize,
    /// RNG seed; the whole boundary is a pure function of it.
    pub seed: u64,
}

impl RandomBoundarySpec {
    /// Spec with the given width and seed.
    pub fn new(width: usize, seed: u64) -> Self {
        assert!(width > 0, "random boundary width must be positive");
        Self { width, seed }
    }

    /// Depth into the strip (`0` = outside, `width` = at the domain edge)
    /// for a point at `edge_dist` points from the nearest interior face.
    fn strip_depth(&self, edge_dist: usize) -> usize {
        self.width.saturating_sub(edge_dist)
    }

    /// Perturbation factor given the strip depth and the cell's hash.
    fn factor_at_depth(&self, depth: usize, h: u64) -> f32 {
        if depth == 0 {
            return 1.0;
        }
        let local_amp = AMP * depth as f32 / self.width as f32;
        1.0 - local_amp * unit_f32(h)
    }

    /// Velocity factor for interior cell `(ix, iz)` of an `nx × nz` 2-D
    /// grid. Exactly `1.0` outside the strip.
    #[inline]
    pub fn factor2(&self, nx: usize, nz: usize, ix: usize, iz: usize) -> f32 {
        let edge = ix.min(nx - 1 - ix).min(iz).min(nz - 1 - iz);
        let depth = self.strip_depth(edge);
        if depth == 0 {
            return 1.0;
        }
        self.factor_at_depth(depth, hash2(self.seed, ix, iz))
    }

    /// Velocity factor for interior cell `(ix, iy, iz)` of an
    /// `nx × ny × nz` 3-D grid. Exactly `1.0` outside the strip.
    #[inline]
    pub fn factor3(&self, n: [usize; 3], ix: usize, iy: usize, iz: usize) -> f32 {
        let [nx, ny, nz] = n;
        let edge = ix
            .min(nx - 1 - ix)
            .min(iy.min(ny - 1 - iy))
            .min(iz.min(nz - 1 - iz));
        let depth = self.strip_depth(edge);
        if depth == 0 {
            return 1.0;
        }
        self.factor_at_depth(depth, hash3(self.seed, ix, iy, iz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_is_untouched() {
        let s = RandomBoundarySpec::new(8, 42);
        for ix in 8..56 {
            for iz in 8..56 {
                assert_eq!(s.factor2(64, 64, ix, iz), 1.0);
            }
        }
        assert_eq!(s.factor3([32, 32, 32], 16, 16, 16), 1.0);
    }

    #[test]
    fn strip_factors_stay_in_band_and_only_slow_down() {
        let s = RandomBoundarySpec::new(8, 42);
        for ix in 0..64 {
            for iz in 0..64 {
                let f = s.factor2(64, 64, ix, iz);
                assert!((1.0 - AMP..=1.0).contains(&f), "factor {f} at ({ix},{iz})");
            }
        }
    }

    #[test]
    fn same_seed_is_bitwise_same_different_seed_is_not() {
        let a = RandomBoundarySpec::new(8, 7);
        let b = RandomBoundarySpec::new(8, 7);
        let c = RandomBoundarySpec::new(8, 8);
        let mut differs = false;
        for ix in 0..64 {
            for iz in 0..64 {
                let fa = a.factor2(64, 64, ix, iz);
                assert_eq!(fa.to_bits(), b.factor2(64, 64, ix, iz).to_bits());
                differs |= fa != c.factor2(64, 64, ix, iz);
            }
        }
        assert!(differs, "different seeds must build different boundaries");
    }

    /// The ramp bounds every strip depth `d` in `1..=width` by
    /// `1 − AMP·d/width ≤ factor ≤ 1`, so the perturbation vanishes towards
    /// the inner face, and every point outside the strip is exactly 1.
    #[test]
    fn ramp_law_vanishes_at_the_inner_face() {
        let (w, n) = (8, 40);
        let s = RandomBoundarySpec::new(w, 42);
        let in_band = |f: f32, edge: usize| {
            let depth = w.saturating_sub(edge);
            if depth == 0 {
                f == 1.0
            } else {
                let lo = 1.0 - AMP * depth as f32 / w as f32;
                (lo..=1.0).contains(&f)
            }
        };
        for ix in 0..n {
            for iz in 0..n {
                let edge = ix.min(n - 1 - ix).min(iz).min(n - 1 - iz);
                let f = s.factor2(n, n, ix, iz);
                assert!(in_band(f, edge), "2-D factor {f} at ({ix},{iz})");
            }
        }
        let m = 20;
        for ix in 0..m {
            for iy in 0..m {
                for iz in 0..m {
                    let edge = ix.min(m - 1 - ix).min(iy.min(m - 1 - iy));
                    let edge = edge.min(iz.min(m - 1 - iz));
                    let f = s.factor3([m, m, m], ix, iy, iz);
                    assert!(in_band(f, edge), "3-D factor {f} at ({ix},{iy},{iz})");
                }
            }
        }
    }

    #[test]
    fn deepest_cells_carry_the_full_amplitude_band() {
        let s = RandomBoundarySpec::new(8, 3);
        // Corner cell: depth = width; with many cells some hash must land
        // near the bottom of the band.
        let mut min = 1.0f32;
        for ix in 0..64 {
            let f = s.factor2(64, 64, ix, 0);
            min = min.min(f);
        }
        assert!(min < 1.0 - 0.3 * AMP, "edge row never perturbed? {min}");
    }

    #[test]
    fn factor3_matches_law_on_faces() {
        let s = RandomBoundarySpec::new(4, 9);
        for iy in 0..16 {
            let f = s.factor3([16, 16, 16], 8, iy, 8);
            assert!((1.0 - AMP..=1.0).contains(&f));
            if (4..12).contains(&iy) {
                assert_eq!(f, 1.0);
            }
        }
    }
}
