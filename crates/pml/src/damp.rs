//! Polynomial damping profiles for the 2nd-order isotropic formulation.

/// A one-dimensional damping profile σ over the *full allocated* axis length
/// (halo included). σ is zero in the interior and ramps polynomially to
/// σ_max at the outer edge of each absorbing strip.
///
/// The isotropic kernel combines per-axis profiles additively:
/// `σ(ix,iz) = σx[ix] + σz[iz]` and steps
/// `u⁺ = (2u − (1−σdt)u⁻ + dt²v²∇²u) / (1+σdt)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DampProfile {
    sigma: Vec<f32>,
    width: usize,
    halo: usize,
}

impl DampProfile {
    /// Build a profile for an axis with `n_interior` interior points, `halo`
    /// ghost points each side, an absorbing strip `width` points deep at
    /// both interior ends, designed for maximum velocity `v_max` (m/s), grid
    /// spacing `h` (m) and target reflection coefficient `r0`.
    ///
    /// Uses the standard quadratic profile
    /// `σ(d) = σ_max·(d/L)²`, `σ_max = −3·v_max·ln(r0)/(2L)` with `L = width·h`.
    pub fn new(n_interior: usize, halo: usize, width: usize, v_max: f32, h: f32, r0: f64) -> Self {
        assert!(width > 0, "absorbing width must be positive");
        assert!(
            2 * width <= n_interior,
            "absorbing strips overlap: 2*{width} > {n_interior}"
        );
        assert!(v_max > 0.0 && h > 0.0);
        assert!(r0 > 0.0 && r0 < 1.0);
        let l = width as f32 * h;
        let sigma_max = -3.0 * v_max * (r0 as f32).ln() / (2.0 * l);
        let full = n_interior + 2 * halo;
        let mut sigma = vec![0.0f32; full];
        for (raw, s) in sigma.iter_mut().enumerate() {
            // Distance into the absorbing region, measured from the interior
            // edge of each strip; halo points saturate at full depth.
            let i = raw as isize - halo as isize; // interior coordinate
            let d_left = width as isize - i; // >0 inside left strip
            let d_right = i - (n_interior as isize - 1 - width as isize);
            let d = d_left.max(d_right).max(0).min(width as isize) as f32;
            if d > 0.0 {
                let x = d / width as f32;
                *s = sigma_max * x * x;
            }
        }
        Self { sigma, width, halo }
    }

    /// A profile that damps nothing: σ ≡ 0 over the whole allocated axis
    /// and `in_layer` is false everywhere. Used by the random-boundary
    /// migration path, which replaces dissipation with a randomized
    /// velocity halo — the medium must stay time-reversible, and with σ = 0
    /// the isotropic update's `(1 ∓ σdt)` factors are exactly 1.0, so the
    /// backward sweep reconstructs the forward states bit-for-bit in exact
    /// arithmetic.
    pub fn transparent(n_interior: usize, halo: usize) -> Self {
        Self {
            sigma: vec![0.0; n_interior + 2 * halo],
            // width 0 → in_layer falls back to the σ≠0 test, which is
            // false everywhere: kernels take the undamped interior branch.
            width: 0,
            halo,
        }
    }

    /// Rank-local window of a global profile for slab decomposition: the
    /// returned profile's interior `[0, nz_local)` maps to global interior
    /// rows `[z0, z0 + nz_local)`, with the halo taken from the global
    /// profile's neighbouring values. `in_layer` stays conservative (true
    /// whenever σ > 0) so decomposed kernels take the same branch as the
    /// sequential sweep.
    pub fn window(&self, z0: usize, nz_local: usize) -> DampProfile {
        let full_local = nz_local + 2 * self.halo;
        let sigma = (0..full_local)
            .map(|raw_local| {
                // Global raw index of this local raw row.
                let g = raw_local + z0;
                self.sigma[g.min(self.sigma.len() - 1)]
            })
            .collect();
        DampProfile {
            sigma,
            // Width loses meaning on a window; in_layer falls back to σ>0.
            width: 0,
            halo: self.halo,
        }
    }

    /// σ at a *raw* (halo-inclusive) index.
    #[inline(always)]
    pub fn sigma_raw(&self, raw: usize) -> f32 {
        self.sigma[raw]
    }

    /// σ at an *interior* index.
    #[inline(always)]
    pub fn sigma(&self, interior: usize) -> f32 {
        self.sigma[interior + self.halo]
    }

    /// Full profile slice (raw indexing).
    pub fn as_slice(&self) -> &[f32] {
        &self.sigma
    }

    /// Absorbing strip depth in points.
    pub fn width(&self) -> usize {
        self.width
    }

    /// True when the interior index lies inside either absorbing strip —
    /// the branch condition the paper's original isotropic kernel evaluated
    /// at every grid point ("the main kernel in our isotropic code suffered
    /// from the if-statements").
    #[inline(always)]
    pub fn in_layer(&self, interior: usize) -> bool {
        if self.width == 0 {
            // Windowed profiles: the strip is wherever damping is active.
            // Identical to the width test on full profiles because σ > 0
            // at every strip point and exactly 0 outside.
            return self.sigma(interior) != 0.0;
        }
        let n_int = self.sigma.len() - 2 * self.halo;
        interior < self.width || interior >= n_int - self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> DampProfile {
        DampProfile::new(100, 4, 10, 3000.0, 10.0, 1e-4)
    }

    #[test]
    fn interior_is_exactly_zero() {
        let p = profile();
        for i in 10..90 {
            assert_eq!(p.sigma(i), 0.0, "interior index {i}");
            assert!(!p.in_layer(i));
        }
    }

    #[test]
    fn profile_is_symmetric_and_monotone() {
        let p = profile();
        for i in 0..10 {
            assert!((p.sigma(i) - p.sigma(99 - i)).abs() < 1e-3);
            assert!(p.in_layer(i));
            assert!(p.in_layer(99 - i));
        }
        for i in 0..9 {
            assert!(p.sigma(i) > p.sigma(i + 1), "monotone decay into interior");
        }
        assert!(p.sigma(0) > 0.0);
    }

    #[test]
    fn halo_saturates_at_max() {
        let p = profile();
        // Raw index 0 (deep halo) carries full-strength damping.
        let sigma_max = -3.0 * 3000.0 * (1e-4f32).ln() / (2.0 * 100.0);
        assert!((p.sigma_raw(0) - sigma_max).abs() / sigma_max < 1e-5);
    }

    #[test]
    fn stronger_r0_gives_stronger_damping() {
        let weak = DampProfile::new(100, 4, 10, 3000.0, 10.0, 1e-2);
        let strong = DampProfile::new(100, 4, 10, 3000.0, 10.0, 1e-6);
        assert!(strong.sigma(0) > weak.sigma(0));
    }

    #[test]
    #[should_panic(expected = "absorbing strips overlap")]
    fn rejects_overlapping_strips() {
        DampProfile::new(15, 4, 10, 3000.0, 10.0, 1e-4);
    }

    #[test]
    fn width_accessor() {
        assert_eq!(profile().width(), 10);
    }

    #[test]
    fn transparent_profile_damps_nothing_anywhere() {
        let p = DampProfile::transparent(100, 4);
        assert_eq!(p.as_slice().len(), 108);
        for raw in 0..108 {
            assert_eq!(p.sigma_raw(raw), 0.0);
        }
        for i in 0..100 {
            assert!(!p.in_layer(i));
        }
    }

    /// A windowed profile must agree with the global one at every local
    /// point, including the halo and the in-layer predicate.
    #[test]
    fn window_matches_global() {
        let g = profile(); // 100 interior, halo 4, width 10
        for (z0, nz) in [(0usize, 35usize), (35, 30), (65, 35)] {
            let w = g.window(z0, nz);
            for i in 0..nz {
                assert_eq!(w.sigma(i), g.sigma(z0 + i), "interior {i} of slab {z0}");
                assert_eq!(w.in_layer(i), g.in_layer(z0 + i), "layer {i} of slab {z0}");
            }
            for r in 0..nz + 8 {
                assert_eq!(w.sigma_raw(r), g.sigma_raw(r + z0), "raw {r} of slab {z0}");
            }
        }
    }
}
