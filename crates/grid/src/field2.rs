//! Dense 2D `f32` field with halo.

use crate::Extent2;

/// A dense 2D scalar field stored flat with the x axis contiguous.
///
/// All wavefields, model parameter grids, and image buffers in the 2D
/// propagators use this container. Indexing methods come in two flavours:
/// *interior* coordinates (`get`/`set`/[`Field2::idx`]) exclude the halo, and
/// *raw* coordinates include it. The raw slice is exposed for the hot kernels,
/// which do their own flat index arithmetic exactly like the original Fortran.
#[derive(Debug, Clone, PartialEq)]
pub struct Field2 {
    extent: Extent2,
    data: Vec<f32>,
}

impl Field2 {
    /// Zero-filled field of the given extent.
    pub fn zeros(extent: Extent2) -> Self {
        Self {
            extent,
            data: vec![0.0; extent.len()],
        }
    }

    /// Field with every allocated point (halo included) set to `value`.
    pub fn filled(extent: Extent2, value: f32) -> Self {
        Self {
            extent,
            data: vec![value; extent.len()],
        }
    }

    /// Build a field by evaluating `f(ix, iz)` at every *interior* point;
    /// halo points are zero.
    pub fn from_fn(extent: Extent2, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut out = Self::zeros(extent);
        for iz in 0..extent.nz {
            for ix in 0..extent.nx {
                let v = f(ix, iz);
                out.data[extent.idx(ix, iz)] = v;
            }
        }
        out
    }

    /// Extent of this field.
    #[inline(always)]
    pub fn extent(&self) -> Extent2 {
        self.extent
    }

    /// Flat interior index helper.
    #[inline(always)]
    pub fn idx(&self, ix: usize, iz: usize) -> usize {
        self.extent.idx(ix, iz)
    }

    /// Interior read.
    #[inline(always)]
    pub fn get(&self, ix: usize, iz: usize) -> f32 {
        self.data[self.extent.idx(ix, iz)]
    }

    /// Interior write.
    #[inline(always)]
    pub fn set(&mut self, ix: usize, iz: usize, v: f32) {
        let i = self.extent.idx(ix, iz);
        self.data[i] = v;
    }

    /// Full backing slice, halo included.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Full mutable backing slice, halo included.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Set every allocated value to zero (reused between shots).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Swap storage with another field of the same extent.
    ///
    /// This is the "logically swapping t_n and t_{n+1} arrays" step of the
    /// paper's forward phase: no data moves, only the buffers exchange roles.
    pub fn swap(&mut self, other: &mut Self) {
        assert_eq!(self.extent, other.extent, "swap requires equal extents");
        std::mem::swap(&mut self.data, &mut other.data);
    }

    /// Maximum absolute interior value (stability diagnostics).
    pub fn max_abs(&self) -> f32 {
        let mut m = 0.0f32;
        for iz in 0..self.extent.nz {
            for ix in 0..self.extent.nx {
                m = m.max(self.get(ix, iz).abs());
            }
        }
        m
    }

    /// Sum of squared interior values (discrete energy diagnostics).
    pub fn energy(&self) -> f64 {
        let mut s = 0.0f64;
        for iz in 0..self.extent.nz {
            for ix in 0..self.extent.nx {
                let v = self.get(ix, iz) as f64;
                s += v * v;
            }
        }
        s
    }

    /// Transposed copy: element (ix, iz) of the result equals (iz, ix) of
    /// `self`. Halo is transposed along with the interior.
    ///
    /// This is the transposition the paper performs on the GPU to restore
    /// coalesced access in the acoustic 2D backward kernel (Figure 13): after
    /// transposing, the formerly strided loop runs over the contiguous axis.
    pub fn transposed(&self) -> Field2 {
        let e = self.extent;
        let te = Extent2::new(e.nz, e.nx, e.halo);
        let mut out = Field2::zeros(te);
        let fnx = e.full_nx();
        let tfnx = te.full_nx();
        for iz in 0..e.full_nz() {
            for ix in 0..e.full_nx() {
                out.data[ix * tfnx + iz] = self.data[iz * fnx + ix];
            }
        }
        out
    }

    /// In-place `self += alpha * other` over the full allocation (image
    /// stacking, gradient accumulation).
    pub fn axpy(&mut self, alpha: f32, other: &Field2) {
        assert_eq!(self.extent, other.extent, "axpy requires equal extents");
        for (d, s) in self.data.iter_mut().zip(other.data.iter()) {
            *d += alpha * s;
        }
    }

    /// In-place scale of every allocated value.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Interior dot product (f64 accumulation).
    pub fn dot(&self, other: &Field2) -> f64 {
        assert_eq!(self.extent, other.extent, "dot requires equal extents");
        let mut acc = 0.0f64;
        for iz in 0..self.extent.nz {
            for ix in 0..self.extent.nx {
                acc += self.get(ix, iz) as f64 * other.get(ix, iz) as f64;
            }
        }
        acc
    }

    /// Overwrite the whole allocation (halo included) from `other` — the
    /// allocation-free replacement for `clone()` when a recycled field of
    /// the same extent is at hand (checkpoint slots, reused buffers).
    pub fn copy_from(&mut self, other: &Field2) {
        assert_eq!(
            self.extent, other.extent,
            "copy_from requires equal extents"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Copy interior values from `other` (same extent), leaving halo alone.
    pub fn copy_interior_from(&mut self, other: &Field2) {
        assert_eq!(self.extent, other.extent);
        for iz in 0..self.extent.nz {
            for ix in 0..self.extent.nx {
                let i = self.extent.idx(ix, iz);
                self.data[i] = other.data[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext() -> Extent2 {
        Extent2::new(6, 4, 2)
    }

    #[test]
    fn zeros_and_set_get() {
        let mut f = Field2::zeros(ext());
        assert_eq!(f.get(3, 2), 0.0);
        f.set(3, 2, 7.5);
        assert_eq!(f.get(3, 2), 7.5);
        assert_eq!(f.as_slice().len(), ext().len());
    }

    #[test]
    fn from_fn_fills_interior_only() {
        let f = Field2::from_fn(ext(), |ix, iz| (ix + 10 * iz) as f32);
        assert_eq!(f.get(5, 3), 35.0);
        // Raw halo corner must stay zero.
        assert_eq!(f.as_slice()[0], 0.0);
    }

    #[test]
    fn swap_exchanges_buffers() {
        let mut a = Field2::filled(ext(), 1.0);
        let mut b = Field2::filled(ext(), 2.0);
        a.swap(&mut b);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(b.get(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "swap requires equal extents")]
    fn swap_rejects_mismatched_extents() {
        let mut a = Field2::zeros(Extent2::new(4, 4, 1));
        let mut b = Field2::zeros(Extent2::new(5, 4, 1));
        a.swap(&mut b);
    }

    #[test]
    fn transpose_roundtrip_is_identity() {
        let f = Field2::from_fn(ext(), |ix, iz| (1 + ix * 31 + iz * 7) as f32);
        let tt = f.transposed().transposed();
        assert_eq!(f, tt);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let f = Field2::from_fn(ext(), |ix, iz| (ix as f32) * 100.0 + iz as f32);
        let t = f.transposed();
        assert_eq!(t.extent().nx, ext().nz);
        assert_eq!(t.extent().nz, ext().nx);
        for iz in 0..ext().nz {
            for ix in 0..ext().nx {
                assert_eq!(t.get(iz, ix), f.get(ix, iz));
            }
        }
    }

    #[test]
    fn axpy_scale_dot() {
        let mut a = Field2::from_fn(ext(), |ix, iz| (ix + iz) as f32);
        let b = Field2::filled(ext(), 2.0);
        let d0 = a.dot(&b); // 2 * sum(ix+iz)
        a.axpy(0.5, &b); // every allocated value += 1
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(3, 2), 6.0);
        a.scale(2.0);
        assert_eq!(a.get(3, 2), 12.0);
        // dot is bilinear: <a0 + 0.5 b, b> = d0 + 0.5 <b,b>; then doubled.
        let bb = b.dot(&b);
        assert!((a.dot(&b) - 2.0 * (d0 + 0.5 * bb)).abs() < 1e-9);
        // energy is the self-dot.
        assert!((a.energy() - a.dot(&a)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "axpy requires equal extents")]
    fn axpy_extent_checked() {
        let mut a = Field2::zeros(Extent2::new(4, 4, 1));
        let b = Field2::zeros(Extent2::new(5, 4, 1));
        a.axpy(1.0, &b);
    }

    #[test]
    fn energy_and_max_abs() {
        let mut f = Field2::zeros(ext());
        f.set(1, 1, -3.0);
        f.set(2, 2, 4.0);
        assert_eq!(f.max_abs(), 4.0);
        assert_eq!(f.energy(), 25.0);
    }
}
