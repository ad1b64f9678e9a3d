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
//! to `[64, 4096]`, and never split grids narrower than one tile. An
//! `ACC_TILE_X` env var overrides the heuristic for experiments (unset ⇒
//! auto; `0`, garbage, or out-of-range values are **rejected with a typed
//! error** rather than silently falling back — a typo'd experiment must
//! not quietly measure the auto heuristic).

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// SIMD width certified for this sweep by the vectorization verifier
    /// (see [`crate::simd`]); 1 when no certificate exists. Annotation
    /// only — the scalar loops stay correct at any width — but it tells
    /// the scheduler (and the experiment reports) how many lanes the
    /// innermost loop is *proven* to support.
    pub vector_width: u32,
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

    /// Builder: attach a certified SIMD width.
    pub fn with_vector_width(mut self, width: u32) -> Self {
        self.vector_width = width.max(1);
        self
    }
}

/// Cached `ACC_TILE_X` override: `usize::MAX` = unread, `0` = auto.
static TILE_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// A malformed `ACC_TILE_X` value. Mirrors `GangEnvError` in
/// `openacc-sim::exec`: a typo must fail loudly, not silently measure the
/// auto heuristic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileEnvError {
    /// The value is not a base-10 unsigned integer.
    NotANumber(String),
    /// The value parsed but is 0 or above [`MAX_TILE`].
    OutOfRange(usize),
}

impl fmt::Display for TileEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileEnvError::NotANumber(raw) => write!(
                f,
                "ACC_TILE_X={raw:?} is not a number; expected 1..={MAX_TILE} (unset it for auto)"
            ),
            TileEnvError::OutOfRange(v) => write!(
                f,
                "ACC_TILE_X={v} is out of range; expected 1..={MAX_TILE} (unset it for auto)"
            ),
        }
    }
}

impl std::error::Error for TileEnvError {}

/// Parse one `ACC_TILE_X` value: `1..=MAX_TILE` or a typed error.
pub fn parse_tile(raw: &str) -> Result<usize, TileEnvError> {
    let trimmed = raw.trim();
    let t = trimmed
        .parse::<usize>()
        .map_err(|_| TileEnvError::NotANumber(trimmed.to_string()))?;
    if t == 0 || t > MAX_TILE {
        return Err(TileEnvError::OutOfRange(t));
    }
    Ok(t)
}

/// Resolve the `ACC_TILE_X` override without caching: `Ok(0)` = unset
/// (auto), `Ok(t)` = forced width, `Err` = present but malformed.
pub fn try_tile_override() -> Result<usize, TileEnvError> {
    match std::env::var("ACC_TILE_X") {
        Ok(raw) => parse_tile(&raw),
        Err(_) => Ok(0),
    }
}

fn tile_override() -> usize {
    let cached = TILE_OVERRIDE.load(Ordering::Relaxed);
    if cached != usize::MAX {
        return cached;
    }
    // Only cache valid outcomes: a malformed value aborts the run with the
    // typed message instead of being remembered as "auto".
    let parsed = try_tile_override().unwrap_or_else(|e| panic!("{e}"));
    TILE_OVERRIDE.store(parsed, Ordering::Relaxed);
    parsed
}

/// Test hook: force the override cache (0 = auto).
pub fn set_tile_override(tile: usize) {
    TILE_OVERRIDE.store(tile.min(MAX_TILE), Ordering::Relaxed);
}

/// Pick an x-tile width for a sweep over `nx` columns that touches
/// `fields` distinct f32 fields across `rows` stencil rows per point.
///
/// Returns a tiling whose working set `fields × rows × tile_x × 4` fits the
/// cache budget, clamped to `[64, 4096]`, and at least `nx` when the grid
/// is narrow enough that tiling would only add loop overhead.
pub fn tiles(nx: usize, fields: usize, rows: usize) -> Tiling {
    let forced = tile_override();
    if forced != 0 {
        return Tiling {
            tile_x: forced,
            vector_width: 1,
        };
    }
    let bytes_per_col = fields.max(1) * rows.max(1) * 4;
    let fit = CACHE_BUDGET_BYTES / bytes_per_col.max(1);
    let tile = fit.clamp(MIN_TILE, MAX_TILE);
    if tile >= nx {
        // Whole row fits: one tile, zero overhead — small grids see the
        // exact pre-tiling loop structure.
        Tiling {
            tile_x: nx.max(1),
            vector_width: 1,
        }
    } else {
        Tiling {
            tile_x: tile,
            vector_width: 1,
        }
    }
}

/// Like [`tiles`], but additionally annotates the tiling with the SIMD
/// width certified for `kernel` by the vectorization verifier (via
/// [`crate::simd::certified_width`]); scalar (1) when nothing has been
/// published for that kernel.
pub fn tiles_for(kernel: &str, nx: usize, fields: usize, rows: usize) -> Tiling {
    tiles(nx, fields, rows).with_vector_width(crate::simd::certified_width(kernel))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grid_is_single_tile() {
        let _prof = crate::prof::test_guard();
        set_tile_override(0);
        let t = tiles(200, 3, 9);
        assert!(t.tile_x >= 200, "narrow grid must not split: {t:?}");
        assert_eq!(t.ranges(4, 196).collect::<Vec<_>>(), vec![(4, 196)]);
    }

    #[test]
    fn wide_grid_splits_within_budget() {
        set_tile_override(0);
        let t = tiles(100_000, 4, 9);
        assert!(t.tile_x >= MIN_TILE && t.tile_x <= MAX_TILE);
        assert!(4 * 9 * t.tile_x * 4 <= 2 * CACHE_BUDGET_BYTES);
    }

    #[test]
    fn ranges_cover_exactly_once() {
        let _prof = crate::prof::test_guard();
        for tile in [1usize, 3, 64, 1000] {
            let t = Tiling {
                tile_x: tile,
                vector_width: 1,
            };
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
    fn override_wins() {
        set_tile_override(128);
        assert_eq!(tiles(1_000_000, 8, 9).tile_x, 128);
        set_tile_override(0);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let t = Tiling {
            tile_x: 64,
            vector_width: 1,
        };
        assert_eq!(t.ranges(10, 10).count(), 0);
    }

    #[test]
    fn parse_tile_accepts_valid_widths() {
        assert_eq!(parse_tile("64"), Ok(64));
        assert_eq!(parse_tile("  4096 "), Ok(4096));
        assert_eq!(parse_tile("1"), Ok(1));
    }

    #[test]
    fn parse_tile_rejects_zero_and_garbage_with_typed_errors() {
        assert_eq!(parse_tile("0"), Err(TileEnvError::OutOfRange(0)));
        assert_eq!(parse_tile("4097"), Err(TileEnvError::OutOfRange(4097)));
        assert_eq!(
            parse_tile("wide"),
            Err(TileEnvError::NotANumber("wide".into()))
        );
        assert_eq!(parse_tile("-8"), Err(TileEnvError::NotANumber("-8".into())));
        assert_eq!(parse_tile(""), Err(TileEnvError::NotANumber("".into())));
        // The messages name the variable, the bad value, and the fix.
        let msg = TileEnvError::OutOfRange(0).to_string();
        assert!(
            msg.contains("ACC_TILE_X") && msg.contains("1..=4096"),
            "{msg}"
        );
        let msg = TileEnvError::NotANumber("wide".into()).to_string();
        assert!(msg.contains("ACC_TILE_X") && msg.contains("wide"), "{msg}");
    }

    #[test]
    fn tiles_for_picks_up_certificates() {
        set_tile_override(0);
        crate::simd::clear();
        assert_eq!(tiles_for("iso_kernel_2d", 5000, 3, 9).vector_width, 1);
        crate::simd::publish_width("iso_kernel_2d", 8);
        let t = tiles_for("iso_kernel_2d", 5000, 3, 9);
        assert_eq!(t.vector_width, 8);
        assert_eq!(
            t.tile_x,
            tiles(5000, 3, 9).tile_x,
            "width does not change tiling"
        );
        crate::simd::clear();
    }
}
