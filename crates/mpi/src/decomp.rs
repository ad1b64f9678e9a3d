//! 1-D slab domain decomposition along the slowest (z) axis.
//!
//! "This implementation is based on domain decomposition where each domain
//! may be divided into sub-domains mapped onto several hosts to fit into
//! memory and to decrease simulation time. ... Ghost node thickness is
//! determined by the stencil used to solve the wave equation."

/// A rank's slab of the global interior z-range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slab {
    /// First global interior z row owned by this rank.
    pub z0: usize,
    /// One past the last owned row.
    pub z1: usize,
    /// Rank below (smaller z), if any.
    pub lo_neighbor: Option<usize>,
    /// Rank above (larger z), if any.
    pub hi_neighbor: Option<usize>,
}

impl Slab {
    /// Rows owned by this rank.
    pub fn nz(&self) -> usize {
        self.z1 - self.z0
    }
}

/// Decomposition of `nz_global` rows over `n_ranks` ranks with ghost
/// shells of `ghost` rows (the stencil half-width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlabDecomp {
    /// Global interior depth.
    pub nz_global: usize,
    /// Number of ranks.
    pub n_ranks: usize,
    /// Ghost thickness in rows.
    pub ghost: usize,
    slabs: Vec<Slab>,
}

impl SlabDecomp {
    /// Balanced decomposition; every rank gets `nz/n` ± 1 rows. Each rank
    /// must own at least `ghost` rows so neighbouring ghost exchanges don't
    /// reach past one rank.
    pub fn new(nz_global: usize, n_ranks: usize, ghost: usize) -> Self {
        assert!(n_ranks > 0, "need at least one rank");
        assert!(
            nz_global >= n_ranks * ghost.max(1),
            "domain too shallow to split into {n_ranks} slabs of ≥{ghost} rows"
        );
        let base = nz_global / n_ranks;
        let rem = nz_global % n_ranks;
        let mut slabs = Vec::with_capacity(n_ranks);
        let mut z = 0usize;
        for r in 0..n_ranks {
            let rows = base + usize::from(r < rem);
            slabs.push(Slab {
                z0: z,
                z1: z + rows,
                lo_neighbor: (r > 0).then(|| r - 1),
                hi_neighbor: (r + 1 < n_ranks).then_some(r + 1),
            });
            z += rows;
        }
        Self {
            nz_global,
            n_ranks,
            ghost,
            slabs,
        }
    }

    /// Slab of `rank`.
    pub fn slab(&self, rank: usize) -> Slab {
        self.slabs[rank]
    }

    /// All slabs in rank order.
    pub fn slabs(&self) -> &[Slab] {
        &self.slabs
    }

    /// Which rank owns global row `z`.
    pub fn owner(&self, z: usize) -> usize {
        assert!(z < self.nz_global);
        self.slabs
            .iter()
            .position(|s| z >= s.z0 && z < s.z1)
            .expect("row inside the global range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_domain_without_overlap() {
        let d = SlabDecomp::new(103, 10, 4);
        let mut z = 0;
        for r in 0..10 {
            let s = d.slab(r);
            assert_eq!(s.z0, z);
            z = s.z1;
            assert!(s.nz() >= 10);
        }
        assert_eq!(z, 103);
    }

    #[test]
    fn remainder_spread_over_leading_ranks() {
        let d = SlabDecomp::new(10, 3, 1);
        assert_eq!(d.slab(0).nz(), 4);
        assert_eq!(d.slab(1).nz(), 3);
        assert_eq!(d.slab(2).nz(), 3);
    }

    #[test]
    fn neighbors_form_a_chain() {
        let d = SlabDecomp::new(40, 4, 4);
        assert_eq!(d.slab(0).lo_neighbor, None);
        assert_eq!(d.slab(0).hi_neighbor, Some(1));
        assert_eq!(d.slab(2).lo_neighbor, Some(1));
        assert_eq!(d.slab(3).hi_neighbor, None);
    }

    #[test]
    fn owner_lookup() {
        let d = SlabDecomp::new(40, 4, 4);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(9), 0);
        assert_eq!(d.owner(10), 1);
        assert_eq!(d.owner(39), 3);
    }

    #[test]
    #[should_panic(expected = "too shallow")]
    fn rejects_too_many_ranks() {
        SlabDecomp::new(10, 8, 4);
    }
}
