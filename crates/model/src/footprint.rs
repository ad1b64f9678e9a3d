//! Device-memory footprint estimation for the twelve seismic cases.
//!
//! The paper (Section 5.1, step 1) found that "the forward and backward
//! wave-field variables of RTM cannot be allocated at the same time on GPU"
//! and that the 3D elastic model does not fit the 6 GB Fermi card at all (the
//! `X` cells of Tables 3 and 4). This module predicts the bytes each case
//! needs on the accelerator so the drivers and the `accel-sim` capacity model
//! can reproduce those allocation decisions.

/// Earth-model formulation (paper Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Formulation {
    /// Constant-density isotropic acoustic (2nd-order wave equation).
    Isotropic,
    /// Variable-density acoustic (1st-order staggered system).
    Acoustic,
    /// Isotropic elastic velocity–stress (1st-order staggered system).
    Elastic,
}

impl Formulation {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Formulation::Isotropic => "ISOTROPIC",
            Formulation::Acoustic => "ACOUSTIC",
            Formulation::Elastic => "ELASTIC",
        }
    }
}

/// Spatial dimensionality of a seismic case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dims {
    /// Two-dimensional (x, z).
    Two,
    /// Three-dimensional (x, y, z).
    Three,
}

impl Dims {
    /// 2 or 3.
    pub fn count(&self) -> usize {
        match self {
            Dims::Two => 2,
            Dims::Three => 3,
        }
    }
}

/// Number of full-grid `f32` arrays a *modeling* (forward-only) run keeps
/// resident on the device, per formulation and dimensionality.
///
/// Counts: wavefield time levels + model parameter grids + C-PML memory
/// (ψ) variables. The 1-D C-PML coefficient arrays are negligible and
/// ignored, exactly as the paper stores them ("four different
/// one-dimensional arrays with the cpml-coefficients for each dimension").
pub fn modeling_array_count(f: Formulation, d: Dims) -> usize {
    match (f, d) {
        // u_prev/u_cur + vp (damping profile is 1-D).
        (Formulation::Isotropic, Dims::Two) => 3,
        (Formulation::Isotropic, Dims::Three) => 3,
        // p,qx,qz + vp,rho + ψ for ∂x p, ∂z p, ∂x qx, ∂z qz.
        (Formulation::Acoustic, Dims::Two) => 9,
        // p,qx,qy,qz + vp,rho + 6 ψ.
        (Formulation::Acoustic, Dims::Three) => 12,
        // vx,vz,σxx,σzz,σxz + λ,μ,ρ + 8 ψ.
        (Formulation::Elastic, Dims::Two) => 16,
        // 3 v + 6 σ + λ,μ,ρ + 18 ψ.
        (Formulation::Elastic, Dims::Three) => 30,
    }
}

/// Additional resident arrays during the *backward* (migration) phase
/// beyond a full modeling set (which the receiver wavefield re-uses after
/// the offload/upload swap): the currently-loaded forward snapshot and the
/// accumulating image.
pub fn rtm_extra_array_count(f: Formulation, d: Dims) -> usize {
    let _ = (f, d);
    2
}

/// Bytes needed on the device for a modeling run over `points` allocated
/// grid points (halo included).
pub fn modeling_bytes(f: Formulation, d: Dims, points: usize) -> u64 {
    modeling_array_count(f, d) as u64 * points as u64 * 4
}

/// How the backward pass recovers the source wavefield — the axis the
/// random-boundary subsystem opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStrategy {
    /// Every `snap_period`-th forward wavefield kept resident for the whole
    /// run (the seed implementation's in-memory snapshot stack).
    Dense {
        /// Forward time steps.
        steps: usize,
        /// Snapshot save period.
        snap_period: usize,
    },
    /// Griewank/Young-interval checkpointing: `slots` stored propagation
    /// states plus the replayed snapshots of the longest segment.
    Checkpointed {
        /// Stored full propagation states.
        slots: usize,
        /// Forward time steps.
        steps: usize,
        /// Snapshot save period within a replayed segment.
        snap_period: usize,
    },
    /// Random-boundary remodeling: zero snapshots, zero checkpoints — the
    /// price is the co-resident source state being re-propagated backward,
    /// plus the randomized-velocity halo arrays.
    RandomBoundary {
        /// Boundary strip depth in grid points.
        width: usize,
    },
}

/// Per-component device-memory breakdown of one migration configuration.
/// Components are disjoint; [`RtmBreakdown::total`] is their sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtmBreakdown {
    /// Live propagation state: wavefield time levels, model parameters, ψ
    /// memory variables, image — everything resident regardless of how the
    /// source field is recovered.
    pub field_bytes: u64,
    /// Stored forward wavefields (snapshots and/or checkpoint states).
    /// Exactly 0 on the random-boundary path.
    pub snapshot_bytes: u64,
    /// Randomized-velocity halo arrays (the perturbed copies of the model
    /// parameters over the boundary strip). Exactly 0 on snapshot paths.
    pub boundary_bytes: u64,
}

impl RtmBreakdown {
    /// Total peak bytes.
    pub fn total(&self) -> u64 {
        self.field_bytes + self.snapshot_bytes + self.boundary_bytes
    }
}

/// Number of model-parameter arrays the random boundary perturbs (the
/// randomized copies that must coexist with the originals): vp for the
/// single-velocity formulations, λ and μ for elastic.
fn perturbed_array_count(f: Formulation) -> usize {
    match f {
        Formulation::Isotropic | Formulation::Acoustic => 1,
        Formulation::Elastic => 2,
    }
}

/// Grid points inside the random-boundary strip of an interior grid `n`
/// (nx, ny, nz with ny = 1 in 2D).
fn boundary_strip_points(d: Dims, n: [usize; 3], width: usize) -> u64 {
    let [nx, ny, nz] = n;
    let inner = |len: usize| len.saturating_sub(2 * width) as u64;
    let all = nx as u64 * ny as u64 * nz as u64;
    let core = match d {
        Dims::Two => inner(nx) * inner(nz),
        Dims::Three => inner(nx) * inner(ny) * inner(nz),
    };
    all - core
}

/// Per-component peak device memory of one migration strategy over an
/// interior grid `n` with `points` *allocated* grid points (halo included).
///
/// The snapshot component reproduces each driver's storage policy:
///
/// * `Dense` keeps `⌈steps/snap_period⌉` full wavefields,
/// * `Checkpointed` keeps `slots` full propagation states (one wavefield
///   set each) plus the replayed snapshots of the longest segment
///   (`⌈⌈steps/slots⌉/snap_period⌉` wavefields) — the peak of
///   `migrate_checkpointed`,
/// * `RandomBoundary` stores **nothing**: the source state (a second
///   propagation set) is co-resident instead, counted in `field_bytes`,
///   and the perturbed parameter copies are charged per strip point to
///   `boundary_bytes`.
pub fn rtm_breakdown(
    f: Formulation,
    d: Dims,
    n: [usize; 3],
    points: usize,
    strategy: MigrationStrategy,
) -> RtmBreakdown {
    let arr = points as u64 * 4;
    let base = (modeling_array_count(f, d) + rtm_extra_array_count(f, d)) as u64 * arr;
    match strategy {
        MigrationStrategy::Dense { steps, snap_period } => RtmBreakdown {
            field_bytes: base,
            snapshot_bytes: steps.div_ceil(snap_period.max(1)) as u64 * arr,
            boundary_bytes: 0,
        },
        MigrationStrategy::Checkpointed {
            slots,
            steps,
            snap_period,
        } => {
            // One stored state = every wavefield time level of the
            // formulation (model parameters are shared, ψ restart from 0
            // only in the lossless interior — stored conservatively too, as
            // migrate_checkpointed clones whole states).
            let state_arrays = modeling_array_count(f, d) as u64;
            let longest_segment = steps.div_ceil(slots.max(1));
            let replayed = longest_segment.div_ceil(snap_period.max(1)) as u64;
            RtmBreakdown {
                field_bytes: base,
                snapshot_bytes: (slots as u64 * state_arrays + replayed) * arr,
                boundary_bytes: 0,
            }
        }
        MigrationStrategy::RandomBoundary { width } => RtmBreakdown {
            // The backward pass co-residents the receiver propagation set
            // and the source propagation set (reconstructed, not loaded).
            field_bytes: base + modeling_array_count(f, d) as u64 * arr,
            snapshot_bytes: 0,
            boundary_bytes: perturbed_array_count(f) as u64
                * boundary_strip_points(d, n, width)
                * 4,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    /// The paper's headline memory result: elastic 3D at production size does
    /// not fit the 6 GB Fermi but fits the 12 GB Kepler.
    #[test]
    fn elastic_3d_fits_kepler_not_fermi() {
        let n = 400usize; // production-scale grid used by the repro harness
        let points = n * n * n;
        let b = modeling_bytes(Formulation::Elastic, Dims::Three, points);
        assert!(b > 6 * GB, "elastic 3D = {} GB", b / GB);
        assert!(b < 12 * GB, "elastic 3D = {} GB", b / GB);
    }

    #[test]
    fn acoustic_and_iso_3d_fit_fermi() {
        let n = 400usize;
        let points = n * n * n;
        assert!(modeling_bytes(Formulation::Acoustic, Dims::Three, points) < 6 * GB);
        assert!(modeling_bytes(Formulation::Isotropic, Dims::Three, points) < 6 * GB);
    }

    #[test]
    fn array_counts_ordered_by_intensity() {
        for d in [Dims::Two, Dims::Three] {
            let iso = modeling_array_count(Formulation::Isotropic, d);
            let ac = modeling_array_count(Formulation::Acoustic, d);
            let el = modeling_array_count(Formulation::Elastic, d);
            assert!(iso < ac && ac < el);
        }
    }

    #[test]
    fn labels_and_dims() {
        assert_eq!(Formulation::Elastic.label(), "ELASTIC");
        assert_eq!(Dims::Two.count(), 2);
        assert_eq!(Dims::Three.count(), 3);
    }

    /// The random-boundary path's defining property: zero snapshot bytes,
    /// for every formulation and dimensionality.
    #[test]
    fn random_boundary_reports_zero_snapshot_bytes() {
        for f in [
            Formulation::Isotropic,
            Formulation::Acoustic,
            Formulation::Elastic,
        ] {
            for (d, n, pts) in [
                (Dims::Two, [500, 1, 500], 510 * 508usize),
                (Dims::Three, [100, 100, 100], 108 * 108 * 108),
            ] {
                let b = rtm_breakdown(
                    f,
                    d,
                    n,
                    pts,
                    MigrationStrategy::RandomBoundary { width: 20 },
                );
                assert_eq!(b.snapshot_bytes, 0, "{f:?} {d:?}");
                assert!(b.boundary_bytes > 0);
                assert_eq!(b.total(), b.field_bytes + b.boundary_bytes);
            }
        }
    }

    /// Components must account against each other sensibly: dense snapshots
    /// dominate checkpointing, and the random-boundary halo is far below
    /// either for production-shaped runs.
    #[test]
    fn breakdown_orders_strategies_by_storage() {
        let n = [400usize, 1, 400];
        let pts = 408 * 408usize;
        let dense = rtm_breakdown(
            Formulation::Acoustic,
            Dims::Two,
            n,
            pts,
            MigrationStrategy::Dense {
                steps: 4000,
                snap_period: 10,
            },
        );
        let ck = rtm_breakdown(
            Formulation::Acoustic,
            Dims::Two,
            n,
            pts,
            MigrationStrategy::Checkpointed {
                slots: 8,
                steps: 4000,
                snap_period: 10,
            },
        );
        let rb = rtm_breakdown(
            Formulation::Acoustic,
            Dims::Two,
            n,
            pts,
            MigrationStrategy::RandomBoundary { width: 20 },
        );
        assert!(ck.snapshot_bytes < dense.snapshot_bytes);
        assert!(rb.boundary_bytes < ck.snapshot_bytes);
        assert!(rb.total() < ck.total());
        assert!(ck.total() < dense.total());
        // The remodeling price is visible in the live-field component.
        assert!(rb.field_bytes > ck.field_bytes);
    }

    #[test]
    fn boundary_strip_never_exceeds_the_grid() {
        // Degenerate: strip wider than half the grid swallows everything.
        let all = boundary_strip_points(Dims::Two, [10, 1, 10], 6);
        assert_eq!(all, 100);
        let some = boundary_strip_points(Dims::Three, [10, 10, 10], 2);
        assert_eq!(some, 1000 - 6 * 6 * 6);
    }
}
