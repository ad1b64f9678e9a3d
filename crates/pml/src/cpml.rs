//! Convolutional PML (C-PML) coefficients, Komatitsch & Martin (2007).
//!
//! For each axis the staggered systems store three one-dimensional arrays
//! over the full allocated axis length: `b = exp(−(σ/κ + α)·dt)`,
//! `a = σ·(b − 1)/(κ·(σ + κ·α))`, and `1/κ`. A per-field memory variable ψ
//! is updated every step as `ψ ← b·ψ + a·∂u` (stored through the
//! propagators' floor, `seismic_grid::fd::flush`) and the physical
//! derivative is replaced by `∂u/κ + ψ`. In the interior σ = 0 ⇒ a = 0,
//! κ = 1, so the recursion leaves the derivative untouched — which is what
//! makes the paper's "compute PML everywhere in the grid domain"
//! restructuring legal.

use seismic_grid::fd::flush;

/// C-PML coefficient set for one axis.
#[derive(Debug, Clone, PartialEq)]
pub struct CpmlAxis {
    a: Vec<f32>,
    b: Vec<f32>,
    inv_kappa: Vec<f32>,
    width: usize,
    halo: usize,
}

impl CpmlAxis {
    /// Build coefficients for an axis with `n_interior` interior points,
    /// `halo` ghost points each side, strip depth `width`, time step `dt`,
    /// max velocity `v_max`, spacing `h`, and target reflection `r0`.
    ///
    /// Profiles: quadratic σ, linear α from α_max = π·f_damp (taken as
    /// π·10 Hz, the Komatitsch-Martin default) at the interior edge to 0 at
    /// the outer edge, κ ramping from 1 to κ_max = 2.
    pub fn new(
        n_interior: usize,
        halo: usize,
        width: usize,
        dt: f32,
        v_max: f32,
        h: f32,
        r0: f64,
    ) -> Self {
        assert!(width > 0 && 2 * width <= n_interior, "invalid C-PML width");
        assert!(dt > 0.0 && v_max > 0.0 && h > 0.0);
        let l = width as f32 * h;
        let sigma_max = -3.0 * v_max * (r0 as f32).ln() / (2.0 * l);
        let alpha_max = std::f32::consts::PI * 10.0;
        let kappa_max = 2.0f32;
        let full = n_interior + 2 * halo;
        let mut a = vec![0.0f32; full];
        let mut b = vec![1.0f32; full];
        let mut inv_kappa = vec![1.0f32; full];
        for raw in 0..full {
            let i = raw as isize - halo as isize;
            let d_left = width as isize - i;
            let d_right = i - (n_interior as isize - 1 - width as isize);
            let d = d_left.max(d_right).max(0).min(width as isize) as f32;
            if d > 0.0 {
                let x = d / width as f32; // 0 at interior edge → 1 at outer
                let sigma = sigma_max * x * x;
                let alpha = alpha_max * (1.0 - x);
                let kappa = 1.0 + (kappa_max - 1.0) * x * x;
                let bb = (-(sigma / kappa + alpha) * dt).exp();
                let denom = kappa * (sigma + kappa * alpha);
                let aa = if denom > 0.0 {
                    sigma * (bb - 1.0) / denom
                } else {
                    0.0
                };
                a[raw] = aa;
                b[raw] = bb;
                inv_kappa[raw] = 1.0 / kappa;
            }
        }
        Self {
            a,
            b,
            inv_kappa,
            width,
            halo,
        }
    }

    /// A trivially transparent axis (no absorption) — used by kernels that
    /// always execute the ψ recursion ("PML everywhere") on axes without a
    /// boundary layer, and by unit tests.
    pub fn transparent(n_interior: usize, halo: usize) -> Self {
        let full = n_interior + 2 * halo;
        Self {
            a: vec![0.0; full],
            b: vec![1.0; full],
            inv_kappa: vec![1.0; full],
            width: 0,
            halo,
        }
    }

    /// Rank-local window for slab decomposition: local interior
    /// `[0, nz_local)` maps to global interior rows `[z0, z0 + nz_local)`,
    /// with halo coefficients taken from the global axis — the C-PML
    /// analogue of [`crate::DampProfile::window`].
    pub fn window(&self, z0: usize, nz_local: usize) -> CpmlAxis {
        let full_local = nz_local + 2 * self.halo;
        let take = |v: &Vec<f32>| -> Vec<f32> {
            (0..full_local)
                .map(|raw_local| v[(raw_local + z0).min(v.len() - 1)])
                .collect()
        };
        CpmlAxis {
            a: take(&self.a),
            b: take(&self.b),
            inv_kappa: take(&self.inv_kappa),
            // Width loses meaning on a window; in_layer falls back to the
            // coefficient test.
            width: 0,
            halo: self.halo,
        }
    }

    /// The coefficient arrays `[a, b, 1/κ]` over the full axis, halo
    /// included: raw index `halo + i` holds interior point `i`.
    pub fn raw(&self) -> [&[f32]; 3] {
        [&self.a, &self.b, &self.inv_kappa]
    }

    /// Ghost points on each side of the axis.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Coefficients at an interior index: `(a, b, 1/κ)`.
    #[inline(always)]
    pub fn coeffs(&self, interior: usize) -> (f32, f32, f32) {
        let r = interior + self.halo;
        (self.a[r], self.b[r], self.inv_kappa[r])
    }

    /// Apply one ψ-recursion step with coefficients `(a, b, 1/κ)` (as
    /// returned by [`Self::coeffs`]) and return the corrected derivative:
    /// `ψ ← flush(b·ψ + a·du)`, result `du/κ + ψ`. ψ is stored state that
    /// the next step reads, so it takes the same floor as every propagator
    /// store ([`flush`]): a magnitude below 2⁻¹⁰⁰ is stored as 0. This
    /// covers every C-PML memory field of the staggered kernels.
    #[inline(always)]
    pub fn apply((a, b, ik): (f32, f32, f32), du: f32, psi: &mut f32) -> f32 {
        *psi = flush(b * *psi + a * du);
        du * ik + *psi
    }

    /// Strip depth in points.
    pub fn width(&self) -> usize {
        self.width
    }

    /// True when the interior index lies inside either strip.
    #[inline(always)]
    pub fn in_layer(&self, interior: usize) -> bool {
        if self.width == 0 {
            // Windowed or transparent axes: the strip is wherever the
            // coefficients deviate from identity.
            let (a, _, ik) = self.coeffs(interior);
            return a != 0.0 || ik != 1.0;
        }
        let n_int = self.a.len() - 2 * self.halo;
        interior < self.width || interior >= n_int - self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis() -> CpmlAxis {
        CpmlAxis::new(120, 4, 12, 1e-3, 3000.0, 10.0, 1e-4)
    }

    #[test]
    fn interior_coefficients_are_identity() {
        let ax = axis();
        for i in 12..108 {
            let (a, b, ik) = ax.coeffs(i);
            assert_eq!(a, 0.0);
            assert_eq!(b, 1.0);
            assert_eq!(ik, 1.0);
            assert!(!ax.in_layer(i));
        }
    }

    /// With identity coefficients the ψ recursion is a no-op: this is what
    /// makes "compute PML everywhere" produce identical numerics.
    #[test]
    fn apply_is_transparent_in_interior() {
        let ax = axis();
        let mut psi = 0.0f32;
        let d = CpmlAxis::apply(ax.coeffs(60), 3.25, &mut psi);
        assert_eq!(d, 3.25);
        assert_eq!(psi, 0.0);
    }

    #[test]
    fn boundary_coefficients_absorb() {
        let ax = axis();
        let (a, b, ik) = ax.coeffs(0);
        assert!(b > 0.0 && b < 1.0, "b = {b}");
        assert!(a < 0.0, "a = {a} (sign: σ(b−1)/κ(σ+κα) < 0)");
        assert!(ik < 1.0, "κ > 1 stretches coordinates");
        assert!(ax.in_layer(0) && ax.in_layer(119));
    }

    /// ψ driven by a constant derivative converges to the fixed point
    /// a·du/(1−b); the corrected derivative magnitude is reduced.
    #[test]
    fn psi_recursion_converges_and_attenuates() {
        let ax = axis();
        let du = 1.0f32;
        let mut psi = 0.0f32;
        let mut last = 0.0f32;
        for _ in 0..10_000 {
            last = CpmlAxis::apply(ax.coeffs(0), du, &mut psi);
        }
        let (a, b, ik) = ax.coeffs(0);
        let fixed = a * du / (1.0 - b);
        assert!((psi - fixed).abs() < 1e-4);
        let expect = du * ik + fixed;
        assert!((last - expect).abs() < 1e-4);
        assert!(last.abs() < du.abs());
    }

    #[test]
    fn transparent_axis_is_identity_everywhere() {
        let ax = CpmlAxis::transparent(50, 4);
        let mut psi = 0.5f32;
        // b = 1, a = 0: ψ persists, derivative unchanged plus ψ.
        let d = CpmlAxis::apply(ax.coeffs(0), 2.0, &mut psi);
        assert_eq!(psi, 0.5);
        assert_eq!(d, 2.5);
        assert!(!ax.in_layer(0));
        assert_eq!(ax.width(), 0);
    }

    #[test]
    fn profile_symmetry() {
        let ax = axis();
        for i in 0..12 {
            let (al, bl, kl) = ax.coeffs(i);
            let (ar, br, kr) = ax.coeffs(119 - i);
            assert!((al - ar).abs() < 1e-6);
            assert!((bl - br).abs() < 1e-6);
            assert!((kl - kr).abs() < 1e-6);
        }
    }

    /// Windows agree with the global axis at every local point.
    #[test]
    fn window_matches_global() {
        let g = axis(); // 120 interior, halo 4, width 12
        for (z0, nz) in [(0usize, 40usize), (40, 45), (85, 35)] {
            let w = g.window(z0, nz);
            for i in 0..nz {
                assert_eq!(w.coeffs(i), g.coeffs(z0 + i), "interior {i} of slab {z0}");
                assert_eq!(w.in_layer(i), g.in_layer(z0 + i), "layer {i} of slab {z0}");
            }
            for (wv, gv) in w.raw().iter().zip(g.raw()) {
                assert_eq!(*wv, &gv[z0..z0 + nz + 8]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid C-PML width")]
    fn rejects_bad_width() {
        CpmlAxis::new(10, 4, 8, 1e-3, 3000.0, 10.0, 1e-4);
    }
}
