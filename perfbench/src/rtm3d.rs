//! `rtm3d_iso_randb`: one 3D isotropic shot migrated with random
//! boundaries — the source wavefield is recomputed backward in time
//! instead of stored, so the iteration is four full-volume propagation
//! passes and no snapshot storage.

use rtm_core::case::OptimizationConfig;
use rtm_core::modeling3::{run_modeling3, Medium3};
use rtm_core::rand_boundary::{randomize_medium3, run_rtm_random_boundary3};
use rtm_core::rtm3::{mute_direct3, run_rtm3};
use seismic_grid::cfl::stable_dt;
use seismic_grid::rng::SplitMix64;
use seismic_grid::Field3;
use seismic_model::builder::{iso3_layered, standard_layers};
use seismic_model::{extent3, Geometry};
use seismic_pml::{DampProfile, RandomBoundarySpec};
use seismic_source::{Acquisition3, Seismogram, Wavelet};

use crate::survey::{F_PEAK, H, VMAX};

/// Source and receiver depth, cells.
const SRC_IZ: usize = 4;
/// Absorbing / randomized halo width, cells.
const EDGE_W: usize = 10;
/// Lowest normalised correlation accepted between the random-boundary
/// image and the dense-snapshot image of the same shot (measured ≈ 0.73 at
/// the benchmark size; the halo noise is incoherent, not structural).
pub const MIN_CORRELATION: f64 = 0.5;

/// Problem size of the shot.
#[derive(Clone, Copy)]
pub struct Size {
    pub n: usize,
    pub steps: usize,
    pub snap: usize,
}

/// Benchmark size: enough steps for the shallow interface to reflect back
/// to the receivers, in an iteration of a few seconds. 64³ takes about 4×
/// as long per step pass without changing what bounds the stencil.
const FULL: Size = Size {
    n: 48,
    steps: 240,
    snap: 3,
};

/// Self-test size.
const TOY: Size = Size {
    n: 24,
    steps: 200,
    snap: 3,
};

/// Inputs of one shot, built from the seed.
pub struct Shot3 {
    pub size: Size,
    pub medium: Medium3,
    pub acq: Acquisition3,
    pub spec: RandomBoundarySpec,
    /// The randomized-halo medium the source propagation runs through.
    pub randomized: Medium3,
    pub wavelet: Wavelet,
    pub cfg: OptimizationConfig,
}

/// The layered medium with absorbing boundaries.
pub fn build_medium(size: Size) -> Medium3 {
    let n = size.n;
    let e = extent3(n, n, n);
    let dt = stable_dt(8, 3, VMAX, H, 0.6);
    let d = DampProfile::new(n, e.halo, EDGE_W, VMAX, H, 1e-4);
    Medium3::Iso {
        model: iso3_layered(e, &standard_layers(n), Geometry::uniform(H, dt)),
        damp: [d.clone(), d.clone(), d],
    }
}

impl Shot3 {
    /// Model, boundary, acquisition and randomized halo for `seed`: the
    /// source sits a few cells off centre and the halo is seeded from it.
    pub fn new(seed: u64, toy: bool) -> Self {
        let size = if toy { TOY } else { FULL };
        let mut rng = SplitMix64::new(seed ^ 0x5eed_3d15);
        let mut jitter = || (size.n / 2 - 3) + (rng.next_u64() % 7) as usize;
        let src = (jitter(), jitter(), SRC_IZ);
        let spec = RandomBoundarySpec::new(EDGE_W, rng.next_u64());
        let medium = build_medium(size);
        let randomized = randomize_medium3(&medium, &spec);
        Self {
            size,
            acq: Acquisition3::surface_patch(size.n, size.n, src, SRC_IZ, 2),
            medium,
            spec,
            randomized,
            wavelet: Wavelet::ricker(F_PEAK),
            cfg: OptimizationConfig::default(),
        }
    }

    /// Interior grid-point updates per iteration: recording, source
    /// forward, source reconstruction and receiver passes.
    pub fn points_per_iteration(&self) -> f64 {
        (4 * self.size.steps * self.size.n.pow(3)) as f64
    }

    /// One iteration: record and migrate the shot.
    pub fn iterate(&self, gangs: usize) -> Field3 {
        run_rtm_random_boundary3(
            &self.medium,
            &self.acq,
            &self.wavelet,
            &self.cfg,
            self.size.steps,
            self.size.snap,
            &self.spec,
            gangs,
        )
        .expect("steps > 0")
        .image
    }

    /// `seis` with the direct arrival muted, as the driver mutes it.
    pub fn mute(&self, seis: &Seismogram) -> Seismogram {
        let a = &self.acq;
        let Medium3::Iso { model, .. } = &self.medium else {
            unreachable!("the shot medium is isotropic")
        };
        let v_src = model.vp.get(a.src_ix, a.src_iy, a.src_iz);
        mute_direct3(seis, a, H, v_src, self.medium.dt(), 2.4 / F_PEAK)
    }

    /// The shot's muted record: what its receiver pass injects.
    pub fn muted_record(&self, gangs: usize) -> Seismogram {
        let s = self.size;
        let rec = run_modeling3(
            &self.medium,
            &self.acq,
            &self.wavelet,
            &self.cfg,
            s.steps,
            s.steps,
            gangs,
        );
        self.mute(&rec.seismogram)
    }

    /// Output check on the image: its normalised correlation with the
    /// dense-snapshot image of the same shot must reach
    /// [`MIN_CORRELATION`]. Returns the correlation and any failure.
    pub fn check(&self, image: &Field3, gangs: usize) -> (f64, Vec<String>) {
        let dense = run_rtm3(
            &self.medium,
            &self.acq,
            &self.wavelet,
            &self.cfg,
            self.size.steps,
            self.size.snap,
            gangs,
        );
        let (mut ab, mut aa, mut bb) = (0.0f64, 0.0f64, 0.0f64);
        for (&a, &b) in image.as_slice().iter().zip(dense.image.as_slice()) {
            let (a, b) = (f64::from(a), f64::from(b));
            ab += a * b;
            aa += a * a;
            bb += b * b;
        }
        let corr = ab / (aa * bb).sqrt().max(f64::MIN_POSITIVE);
        let mut fails = Vec::new();
        if corr.is_nan() || corr < MIN_CORRELATION {
            fails.push(format!(
                "rtm3d_iso_randb: correlation with the dense image {corr:.3} < {MIN_CORRELATION}"
            ));
        }
        (corr, fails)
    }
}
