//! Cache-blocking tuner for the stencil sweeps.
//!
//! The hot loops sweep a z-slab row-by-row over x. For wide grids a full
//! row of every touched field no longer fits in L1/L2, so each x-position's
//! vertical stencil neighbors are evicted between rows. Splitting the x
//! loop into tiles (the paper's loop-schedule experiments, and the standard
//! host-side FD optimization per Minimod) keeps the working set of
//! `rows_touched × tile_x` points resident across a slab.
//!
//! Tiling is *bitwise-free*: every grid point's update reads only the
//! previous time level and writes only itself, so any iteration order over
//! points produces identical bits. The tuner therefore only affects speed,
//! never results — which is what lets the gang-invariance and parity
//! property tests keep passing unchanged.
//!
//! The heuristic is deliberately small: aim the per-row working set
//! (`fields × rows × tile × 4 bytes`) at half of a 256 KiB L2 slice, clamp
//! to `[64, 4096]`, and never split grids narrower than one tile.

/// Cache budget the per-slab working set is aimed at: half of a
/// conservative 256 KiB per-core L2.
const CACHE_BUDGET_BYTES: usize = 128 * 1024;
const MIN_TILE: usize = 64;
const MAX_TILE: usize = 4096;

/// A resolved tiling of the x dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Tile width in grid points (last tile may be shorter).
    pub tile_x: usize,
}

impl Tiling {
    /// Iterate `(x0, x1)` tile bounds covering `[lo, hi)`.
    ///
    /// When the wall-clock profiler is enabled this also records one
    /// `TileBatch` instant event (tile count + width, computed
    /// arithmetically — the iterator itself is untouched); disabled cost
    /// is a single relaxed load.
    #[inline]
    pub fn ranges(self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, usize)> {
        let tile = self.tile_x.max(1);
        if hi > lo && crate::prof::enabled() {
            let n_tiles = (hi - lo).div_ceil(tile);
            crate::prof::instant(
                crate::prof::EventKind::TileBatch,
                n_tiles.min(u32::MAX as usize) as u32,
                tile.min(u32::MAX as usize) as u32,
            );
        }
        (lo..hi)
            .step_by(tile)
            .map(move |x0| (x0, (x0 + tile).min(hi)))
    }
}

/// Pick an x-tile width for a sweep over `nx` columns that touches
/// `fields` distinct f32 fields across `rows` stencil rows per point.
///
/// Returns a tiling whose working set `fields × rows × tile_x × 4` fits the
/// cache budget, clamped to `[64, 4096]`, and at least `nx` when the grid
/// is narrow enough that tiling would only add loop overhead.
pub fn tiles(nx: usize, fields: usize, rows: usize) -> Tiling {
    let bytes_per_col = fields.max(1) * rows.max(1) * 4;
    let fit = CACHE_BUDGET_BYTES / bytes_per_col.max(1);
    // A row no wider than one tile stays whole: zero overhead, and small
    // grids see the exact pre-tiling loop structure.
    Tiling {
        tile_x: fit.clamp(MIN_TILE, MAX_TILE).min(nx.max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grid_is_single_tile() {
        let _prof = crate::prof::test_guard();
        let t = tiles(200, 3, 9);
        assert!(t.tile_x >= 200, "narrow grid must not split: {t:?}");
        assert_eq!(t.ranges(4, 196).collect::<Vec<_>>(), vec![(4, 196)]);
    }

    #[test]
    fn wide_grid_splits_within_budget() {
        let t = tiles(100_000, 4, 9);
        assert!(t.tile_x >= MIN_TILE && t.tile_x <= MAX_TILE);
        assert!(4 * 9 * t.tile_x * 4 <= 2 * CACHE_BUDGET_BYTES);
    }

    #[test]
    fn ranges_cover_exactly_once() {
        let _prof = crate::prof::test_guard();
        for tile in [1usize, 3, 64, 1000] {
            let t = Tiling { tile_x: tile };
            let mut expect = 4usize;
            for (x0, x1) in t.ranges(4, 517) {
                assert_eq!(x0, expect);
                assert!(x1 > x0 && x1 - x0 <= tile);
                expect = x1;
            }
            assert_eq!(expect, 517);
        }
    }

    #[test]
    fn empty_range_yields_nothing() {
        let t = Tiling { tile_x: 64 };
        assert_eq!(t.ranges(10, 10).count(), 0);
    }
}
