//! Index-space bookkeeping for 2D and 3D grids.
//!
//! An *extent* describes the full allocated index space of a field, including
//! the halo (ghost) shell required by the finite-difference stencil. The
//! interior is the region actually updated by a propagator; the halo is either
//! filled by boundary conditions or exchanged with a neighbouring sub-domain
//! (`mpi-sim`).

/// Allocated size of a 2D grid plus the halo width on every side.
///
/// Axis convention throughout the workspace: `x` is the contiguous (fastest)
/// axis, `z` is depth (slowest in 2D). This mirrors the Fortran layout of the
/// original code where the innermost loop runs over the first array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent2 {
    /// Interior points along x.
    pub nx: usize,
    /// Interior points along z (depth).
    pub nz: usize,
    /// Halo width on each side (stencil half-width).
    pub halo: usize,
}

impl Extent2 {
    /// New extent with the given interior size and halo.
    pub const fn new(nx: usize, nz: usize, halo: usize) -> Self {
        Self { nx, nz, halo }
    }

    /// Allocated points along x (interior + both halos).
    pub const fn full_nx(&self) -> usize {
        self.nx + 2 * self.halo
    }

    /// Allocated points along z.
    pub const fn full_nz(&self) -> usize {
        self.nz + 2 * self.halo
    }

    /// Total allocated points.
    pub const fn len(&self) -> usize {
        self.full_nx() * self.full_nz()
    }

    /// True when the interior is empty.
    pub const fn is_empty(&self) -> bool {
        self.nx == 0 || self.nz == 0
    }

    /// Total interior points.
    pub const fn interior_len(&self) -> usize {
        self.nx * self.nz
    }

    /// Flat index of an *interior* coordinate (0-based, excluding halo).
    #[inline(always)]
    pub fn idx(&self, ix: usize, iz: usize) -> usize {
        debug_assert!(ix < self.nx && iz < self.nz);
        (iz + self.halo) * self.full_nx() + (ix + self.halo)
    }

    /// Flat index of a *raw* coordinate (0-based, including halo).
    #[inline(always)]
    pub fn raw_idx(&self, ix: usize, iz: usize) -> usize {
        debug_assert!(ix < self.full_nx() && iz < self.full_nz());
        iz * self.full_nx() + ix
    }

    /// Memory footprint in bytes for one `f32` field of this extent.
    pub const fn bytes(&self) -> usize {
        self.len() * core::mem::size_of::<f32>()
    }
}

/// Allocated size of a 3D grid plus the halo width on every side.
///
/// Axis order (fastest → slowest): `x`, `y`, `z`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent3 {
    /// Interior points along x (contiguous axis).
    pub nx: usize,
    /// Interior points along y (lateral axis).
    pub ny: usize,
    /// Interior points along z (depth, slowest axis).
    pub nz: usize,
    /// Halo width on each side.
    pub halo: usize,
}

impl Extent3 {
    /// New extent with the given interior size and halo.
    pub const fn new(nx: usize, ny: usize, nz: usize, halo: usize) -> Self {
        Self { nx, ny, nz, halo }
    }

    /// Allocated points along x.
    pub const fn full_nx(&self) -> usize {
        self.nx + 2 * self.halo
    }

    /// Allocated points along y.
    pub const fn full_ny(&self) -> usize {
        self.ny + 2 * self.halo
    }

    /// Allocated points along z.
    pub const fn full_nz(&self) -> usize {
        self.nz + 2 * self.halo
    }

    /// Total allocated points.
    pub const fn len(&self) -> usize {
        self.full_nx() * self.full_ny() * self.full_nz()
    }

    /// True when the interior is empty.
    pub const fn is_empty(&self) -> bool {
        self.nx == 0 || self.ny == 0 || self.nz == 0
    }

    /// Total interior points.
    pub const fn interior_len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Flat index of an *interior* coordinate.
    #[inline(always)]
    pub fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny && iz < self.nz);
        ((iz + self.halo) * self.full_ny() + (iy + self.halo)) * self.full_nx() + (ix + self.halo)
    }

    /// Flat index of a *raw* coordinate (including halo).
    #[inline(always)]
    pub fn raw_idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        debug_assert!(ix < self.full_nx() && iy < self.full_ny() && iz < self.full_nz());
        (iz * self.full_ny() + iy) * self.full_nx() + ix
    }

    /// Memory footprint in bytes for one `f32` field of this extent.
    pub const fn bytes(&self) -> usize {
        self.len() * core::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent2_sizes() {
        let e = Extent2::new(10, 20, 4);
        assert_eq!(e.full_nx(), 18);
        assert_eq!(e.full_nz(), 28);
        assert_eq!(e.len(), 18 * 28);
        assert_eq!(e.interior_len(), 200);
        assert_eq!(e.bytes(), 18 * 28 * 4);
        assert!(!e.is_empty());
        assert!(Extent2::new(0, 5, 4).is_empty());
    }

    #[test]
    fn extent2_indexing_row_major_x_fastest() {
        let e = Extent2::new(8, 8, 2);
        // Consecutive ix must be consecutive in memory (coalescing premise).
        assert_eq!(e.idx(3, 5) + 1, e.idx(4, 5));
        // Moving one step in z jumps a full row.
        assert_eq!(e.idx(3, 5) + e.full_nx(), e.idx(3, 6));
        // Interior (0,0) sits halo rows/cols in.
        assert_eq!(e.idx(0, 0), 2 * e.full_nx() + 2);
        assert_eq!(e.raw_idx(2, 2), e.idx(0, 0));
    }

    #[test]
    fn extent3_sizes_and_indexing() {
        let e = Extent3::new(4, 5, 6, 3);
        assert_eq!(e.full_nx(), 10);
        assert_eq!(e.full_ny(), 11);
        assert_eq!(e.full_nz(), 12);
        assert_eq!(e.len(), 10 * 11 * 12);
        assert_eq!(e.interior_len(), 120);
        assert_eq!(e.idx(1, 2, 3) + 1, e.idx(2, 2, 3));
        assert_eq!(e.idx(1, 2, 3) + e.full_nx(), e.idx(1, 3, 3));
        assert_eq!(e.idx(1, 2, 3) + e.full_nx() * e.full_ny(), e.idx(1, 2, 4));
        assert_eq!(e.raw_idx(3, 3, 3), e.idx(0, 0, 0));
    }

    #[test]
    fn extent3_empty() {
        assert!(Extent3::new(3, 0, 3, 1).is_empty());
        assert!(!Extent3::new(1, 1, 1, 0).is_empty());
    }
}
