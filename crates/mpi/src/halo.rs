//! Ghost-node (halo) exchange between neighbouring slabs.
//!
//! Implements the `exchange_boundaries` step of Algorithm 1: each rank sends
//! its outermost owned z-planes to its z-neighbours and receives their
//! planes into its halo shell, using the nonblocking post-all-then-wait
//! pattern of the paper's reference code. 2-D and 3-D fields share one
//! exchange: both are stored as contiguous raw z-planes ([`ZPlanes`]).

use crate::comm::{RankCtx, Request};
use crate::decomp::Slab;
use seismic_grid::{Field2, Field3};

/// A field stored z-plane major: `halo` ghost planes, `nz` interior planes,
/// then `halo` ghost planes again, each plane one contiguous raw run.
pub trait ZPlanes {
    /// `(points per raw z-plane, interior depth nz, halo planes)`. A plane
    /// is `full_nx` points in 2-D and `full_nx · full_ny` in 3-D.
    fn z_planes(&self) -> (usize, usize, usize);
    /// The raw storage, halo included.
    fn raw(&self) -> &[f32];
    /// Mutable raw storage, halo included.
    fn raw_mut(&mut self) -> &mut [f32];
}

impl ZPlanes for Field2 {
    fn z_planes(&self) -> (usize, usize, usize) {
        let e = self.extent();
        (e.full_nx(), e.nz, e.halo)
    }
    fn raw(&self) -> &[f32] {
        self.as_slice()
    }
    fn raw_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl ZPlanes for Field3 {
    fn z_planes(&self) -> (usize, usize, usize) {
        let e = self.extent();
        (e.full_nx() * e.full_ny(), e.nz, e.halo)
    }
    fn raw(&self) -> &[f32] {
        self.as_slice()
    }
    fn raw_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

/// Exchange a field's z-halos with both neighbours.
///
/// The field's interior depth must equal `slab.nz()` and its halo the
/// decomposition ghost width. `tag_base` namespaces concurrent exchanges of
/// different fields (each exchange uses `tag_base` and `tag_base + 1`).
pub fn exchange_halo(ctx: &mut RankCtx, field: &mut impl ZPlanes, slab: &Slab, tag_base: u64) {
    let (plane, nz, g) = field.z_planes();
    assert_eq!(nz, slab.nz(), "field depth must match the slab");
    // `g` raw planes starting at raw plane `rz0`.
    let planes = |rz0: usize| rz0 * plane..(rz0 + g) * plane;
    let mut reqs: Vec<Request> = Vec::with_capacity(4);
    let mut incoming: Vec<(usize, usize)> = Vec::with_capacity(2); // (raw plane, req idx)

    // Post receives first (good MPI hygiene), then sends.
    if let Some(lo) = slab.lo_neighbor {
        incoming.push((0, reqs.len()));
        reqs.push(ctx.irecv(lo, tag_base));
    }
    if let Some(hi) = slab.hi_neighbor {
        incoming.push((g + nz, reqs.len()));
        reqs.push(ctx.irecv(hi, tag_base + 1));
    }
    // My lowest owned planes become lo's high halo; lo receives them with
    // tag_base + 1 (message travelling downward), and my highest owned
    // planes become hi's low halo.
    if let Some(lo) = slab.lo_neighbor {
        reqs.push(ctx.isend(lo, tag_base + 1, field.raw()[planes(g)].to_vec()));
    }
    if let Some(hi) = slab.hi_neighbor {
        reqs.push(ctx.isend(hi, tag_base, field.raw()[planes(nz)].to_vec()));
    }
    ctx.wait_all(&mut reqs);
    for (rz0, idx) in incoming {
        let data = std::mem::replace(&mut reqs[idx], Request::Send).take();
        field.raw_mut()[planes(rz0)].copy_from_slice(&data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Communicator;
    use crate::decomp::SlabDecomp;
    use seismic_grid::{Extent2, Extent3};

    /// Every point of every ghost plane a rank holds after one exchange:
    /// `(raw plane, global z)` pairs, low shell then high shell.
    fn ghost_planes(slab: &Slab, ghost: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if slab.lo_neighbor.is_some() {
            out.extend((0..ghost).map(|hz| (hz, slab.z0 - ghost + hz)));
        }
        if slab.hi_neighbor.is_some() {
            out.extend((0..ghost).map(|hz| (ghost + slab.nz() + hz, slab.z1 + hz)));
        }
        out
    }

    /// The uneven split both tests run on: 23 planes over 3 ranks, 4 ghosts.
    fn uneven_split() -> SlabDecomp {
        let d = SlabDecomp::new(23, 3, 4);
        assert_ne!(d.slab(0).nz(), d.slab(2).nz(), "the split is uneven");
        d
    }

    /// After one 2-D exchange, every ghost point (all x, every ghost row,
    /// both neighbours) equals the global field.
    #[test]
    fn halo2_matches_global_field() {
        let (d, ghost, nx) = (uneven_split(), 4, 6);
        let global = |ix: usize, iz: usize| (100 * iz + ix) as f32;
        let checked = Communicator::run(3, |ctx| {
            let slab = d.slab(ctx.rank());
            let e = Extent2::new(nx, slab.nz(), ghost);
            let mut f = Field2::from_fn(e, |ix, iz| global(ix, iz + slab.z0));
            exchange_halo(ctx, &mut f, &slab, 10);
            let mut n = 0;
            for (rz, gz) in ghost_planes(&slab, ghost) {
                for ix in 0..nx {
                    let got = f.as_slice()[rz * e.full_nx() + ghost + ix];
                    assert_eq!(got, global(ix, gz), "rank {} plane {rz}", ctx.rank());
                    n += 1;
                }
            }
            n
        });
        // Edge ranks fill one shell, the middle rank two.
        let shell = ghost * nx;
        assert_eq!(checked, vec![shell, 2 * shell, shell]);
    }

    /// After one 3-D exchange, every ghost point (all x and y, every ghost
    /// plane, both neighbours) equals the global field.
    #[test]
    fn halo3_matches_global_field() {
        let (d, ghost, nx, ny) = (uneven_split(), 4, 6, 5);
        let global = |ix: usize, iy: usize, iz: usize| (1000 * iz + 10 * iy + ix) as f32;
        let checked = Communicator::run(3, |ctx| {
            let slab = d.slab(ctx.rank());
            let e = Extent3::new(nx, ny, slab.nz(), ghost);
            let mut f = Field3::from_fn(e, |ix, iy, iz| global(ix, iy, iz + slab.z0));
            exchange_halo(ctx, &mut f, &slab, 20);
            let plane = e.full_nx() * e.full_ny();
            let mut n = 0;
            for (rz, gz) in ghost_planes(&slab, ghost) {
                for iy in 0..ny {
                    for ix in 0..nx {
                        let raw = rz * plane + (ghost + iy) * e.full_nx() + ghost + ix;
                        let got = f.as_slice()[raw];
                        assert_eq!(got, global(ix, iy, gz), "rank {} plane {rz}", ctx.rank());
                        n += 1;
                    }
                }
            }
            n
        });
        let shell = ghost * nx * ny;
        assert_eq!(checked, vec![shell, 2 * shell, shell]);
    }

    #[test]
    fn single_rank_exchange_is_noop() {
        let d = SlabDecomp::new(16, 1, 4);
        Communicator::run(1, |ctx| {
            let slab = d.slab(0);
            let e = Extent2::new(4, 16, 4);
            let mut f = Field2::filled(e, 7.0);
            let before = f.clone();
            exchange_halo(ctx, &mut f, &slab, 0);
            assert_eq!(f, before);
        });
    }
}
