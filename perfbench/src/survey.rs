//! `survey2d_iso`: several shots of 2D isotropic RTM over a layered model,
//! each migrated with dense snapshots, stacked into one image.
//!
//! The grid is small, so each time step is a short 2D slab launch of the
//! iso2d kernel, and the dense-snapshot driver code around it — snapshot
//! copies, imaging loop, receiver injection, stacking — runs every step.

use rtm_core::case::OptimizationConfig;
use rtm_core::modeling::{run_modeling, Medium2};
use rtm_core::rtm::{depth_profile, laplacian_filter, mute_direct, run_rtm};
use seismic_grid::cfl::stable_dt;
use seismic_grid::rng::SplitMix64;
use seismic_grid::Field2;
use seismic_model::builder::{iso2_layered, standard_layers};
use seismic_model::{extent2, Geometry};
use seismic_pml::DampProfile;
use seismic_source::{Acquisition2, Seismogram, Wavelet};

/// Grid spacing, m.
pub const H: f32 = 10.0;
/// Fastest velocity of [`standard_layers`], m/s (sets the CFL step).
pub const VMAX: f32 = 3200.0;
/// Source and receiver depth, cells.
const SRC_IZ: usize = 4;
/// Ricker peak frequency, Hz.
pub const F_PEAK: f32 = 18.0;
/// Absorbing-layer width, cells.
const DAMP_W: usize = 16;

/// Problem size of the survey.
#[derive(Clone, Copy)]
pub struct Size {
    pub nx: usize,
    pub nz: usize,
    pub steps: usize,
    pub snap: usize,
    pub shots: usize,
}

/// Benchmark size: enough steps for the shallowest interface (`nz/3`) to
/// reflect back to the receivers, whose depth it then images.
const FULL: Size = Size {
    nx: 128,
    nz: 96,
    steps: 520,
    snap: 3,
    shots: 3,
};

/// Self-test size.
const TOY: Size = Size {
    nx: 64,
    nz: 48,
    steps: 60,
    snap: 3,
    shots: 2,
};

/// Inputs of one survey, built from the seed.
pub struct Survey {
    pub size: Size,
    pub medium: Medium2,
    pub shots: Vec<Acquisition2>,
    pub wavelet: Wavelet,
    pub cfg: OptimizationConfig,
}

/// The layered medium with absorbing boundaries.
pub fn build_medium(size: Size) -> Medium2 {
    let e = extent2(size.nx, size.nz);
    let dt = stable_dt(8, 2, VMAX, H, 0.6);
    Medium2::Iso {
        model: iso2_layered(e, &standard_layers(size.nz), Geometry::uniform(H, dt)),
        damp_x: DampProfile::new(size.nx, e.halo, DAMP_W, VMAX, H, 1e-4),
        damp_z: DampProfile::new(size.nz, e.halo, DAMP_W, VMAX, H, 1e-4),
    }
}

/// Shot positions: evenly spread over the line, each jittered by a few
/// cells from the seed (so every seed costs the same work).
fn shot_positions(size: Size, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_2d15);
    let jitter = (size.nx / (8 * size.shots)).max(1) as u64;
    (0..size.shots)
        .map(|k| {
            let nominal = size.nx * (2 * k + 1) / (2 * size.shots);
            let off = (rng.next_u64() % (2 * jitter + 1)) as usize;
            (nominal + off).saturating_sub(jitter as usize)
        })
        .collect()
}

/// Stack one shot's image into the survey image.
pub fn add_into(stack: &mut Field2, image: &Field2) {
    for (s, v) in stack.as_mut_slice().iter_mut().zip(image.as_slice()) {
        *s += v;
    }
}

impl Survey {
    /// Model, boundary and acquisition for `seed`.
    pub fn new(seed: u64, toy: bool) -> Self {
        let size = if toy { TOY } else { FULL };
        let shots = shot_positions(size, seed)
            .into_iter()
            .map(|ix| Acquisition2::surface_line(size.nx, ix, SRC_IZ, SRC_IZ, 2))
            .collect();
        Self {
            size,
            medium: build_medium(size),
            shots,
            wavelet: Wavelet::ricker(F_PEAK),
            cfg: OptimizationConfig::default(),
        }
    }

    /// Interior grid-point updates per iteration: forward and receiver
    /// propagation of every shot.
    pub fn points_per_iteration(&self) -> f64 {
        let s = self.size;
        (2 * s.shots * s.steps * s.nx * s.nz) as f64
    }

    /// One iteration: migrate every shot and stack the images.
    pub fn iterate(&self, gangs: usize) -> Field2 {
        let mut stack = Field2::zeros(self.medium.extent());
        for acq in &self.shots {
            let r = run_rtm(
                &self.medium,
                acq,
                &self.wavelet,
                &self.cfg,
                self.size.steps,
                self.size.snap,
                gangs,
            );
            add_into(&mut stack, &r.image);
        }
        stack
    }

    /// `seis` with the direct arrival muted, as `run_rtm` mutes it.
    pub fn mute(&self, acq: &Acquisition2, seis: &Seismogram) -> Seismogram {
        let Medium2::Iso { model, .. } = &self.medium else {
            unreachable!("the survey medium is isotropic")
        };
        let v_src = model.vp.get(acq.src_ix, acq.src_iz);
        mute_direct(seis, acq, H, v_src, self.medium.dt(), 2.4 / F_PEAK)
    }

    /// Every shot's muted record: what its receiver pass injects.
    pub fn muted_records(&self, gangs: usize) -> Vec<Seismogram> {
        let s = self.size;
        self.shots
            .iter()
            .map(|acq| {
                let fwd = run_modeling(
                    &self.medium,
                    acq,
                    &self.wavelet,
                    &self.cfg,
                    s.steps,
                    s.snap,
                    gangs,
                );
                self.mute(acq, &fwd.seismogram)
            })
            .collect()
    }

    /// Output checks on the stacked image of a `gangs`-gang run: it must
    /// be bit-identical to a 1-gang run of the same survey, and the peak of
    /// its Laplacian-filtered depth profile must sit within a few cells of
    /// a model interface.
    pub fn check(&self, image: &Field2, gangs: usize) -> Vec<String> {
        let mut fails = Vec::new();
        if gangs > 1 && *image != self.iterate(1) {
            fails.push(format!(
                "survey2d_iso: {gangs}-gang stack differs from the 1-gang stack"
            ));
        }
        if self.size.nz >= 60 {
            let nz = self.size.nz;
            // Search below the top quarter, where the source and receiver
            // rows leave a decaying correlation artifact, and above the
            // bottom absorbing strip. The window starts 8 cells above the
            // shallow interface, so a profile that only decays with depth
            // fails the check.
            let prof = depth_profile(&laplacian_filter(image, H, H));
            let (z_peak, _) = prof
                .iter()
                .enumerate()
                .skip(nz / 4)
                .take(nz - 20 - nz / 4)
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("profile has interior rows");
            let off = [nz / 3, 2 * nz / 3]
                .iter()
                .map(|&z| z.abs_diff(z_peak))
                .min()
                .expect("two interfaces");
            if off > 4 {
                fails.push(format!(
                    "survey2d_iso: image peak at z = {z_peak}, {off} cells from the nearest interface"
                ));
            }
        }
        fails
    }
}
