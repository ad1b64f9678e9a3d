//! The shot driver: Algorithm 1's two time loops, written once for every
//! dimensionality, formulation and source-field strategy.
//!
//! * [`forward`]: step → inject the source → per-step hook (record the
//!   receivers, save a snapshot, store a checkpoint);
//! * [`backward`]: every `snap_period` steps correlate the source field
//!   with the receiver field → step the receiver field → inject the
//!   recorded traces time-reversed.
//!
//! Strategies differ only in where the source wavefield at step `t` comes
//! from — the [`SourceField`] seam: snapshots the forward phase packed into
//! one buffer ([`Snapshots`]) or a caller's snapshot fields ([`Stored`]),
//! segments replayed from checkpoints ([`Replay`]), or a lossless state
//! walked back in time ([`Reversed`]). Dimensionality and formulation hide
//! behind [`Wave`], implemented by [`State2`] and [`State3`]. The row copy
//! behind every snapshot ([`copy_rows`]) and the imaging condition
//! ([`Wave::correlate`]) are written once, over the interior [`Rows`] of a
//! 2D or 3D grid, and launched through `par_slabs` over depth with the
//! step's own slab map, so each gang touches the rows it just wrote. The wall-clock `Phase` spans of [`exec_host::prof`] are
//! emitted here only — forward around every forward pass, backward around
//! [`backward`], imaging around each correlation — so every strategy
//! reports them.

use crate::case::OptimizationConfig;
use crate::error::ConfigError;
use crate::modeling::{Medium2, State2};
use crate::modeling3::{Medium3, State3};
use crate::rand_boundary::{randomize_medium2, randomize_medium3};
use crate::rtm::{mute_direct, RtmResult};
use exec_host::{par_slabs, prof};
use seismic_grid::{Extent2, Field2, Field3, SyncSlice};
use seismic_pml::RandomBoundarySpec;
use seismic_source::{Acquisition2, Acquisition3, Seismogram, Wavelet};
use std::ops::Range;

/// Source and receiver grid positions of a shot as `[x, y, z]` indices
/// (2D shots have `y = 0`) — the geometry the direct-wave mute needs.
pub trait ShotPoints {
    /// Source position.
    fn source(&self) -> [usize; 3];
    /// Receiver positions, in trace order.
    fn receiver_points(&self) -> impl Iterator<Item = [usize; 3]> + '_;
}

impl ShotPoints for Acquisition2 {
    fn source(&self) -> [usize; 3] {
        [self.src_ix, 0, self.src_iz]
    }

    fn receiver_points(&self) -> impl Iterator<Item = [usize; 3]> + '_ {
        self.receivers.iter().map(|r| [r.ix, 0, r.iz])
    }
}

impl ShotPoints for Acquisition3 {
    fn source(&self) -> [usize; 3] {
        [self.src_ix, self.src_iy, self.src_iz]
    }

    fn receiver_points(&self) -> impl Iterator<Item = [usize; 3]> + '_ {
        self.receivers.iter().map(|r| [r.ix, r.iy, r.iz])
    }
}

/// A scalar field sampled at interior grid points `[x, y, z]` (2D grids
/// have `y = 0`): a stored snapshot or the pressure-like field of a live
/// state.
pub trait Sampled: Sync {
    fn at(&self, p: [usize; 3]) -> f32;
    /// The `nx` samples of interior row `(iy, iz)`, when the field stores
    /// them; `None` when each sample is derived (the elastic stress mean).
    fn row(&self, iy: usize, iz: usize) -> Option<&[f32]>;
}

impl<S: Sampled> Sampled for &S {
    fn at(&self, p: [usize; 3]) -> f32 {
        (**self).at(p)
    }
    fn row(&self, iy: usize, iz: usize) -> Option<&[f32]> {
        (**self).row(iy, iz)
    }
}

impl Sampled for Field2 {
    fn at(&self, [ix, _, iz]: [usize; 3]) -> f32 {
        self.get(ix, iz)
    }
    fn row(&self, iy: usize, iz: usize) -> Option<&[f32]> {
        Some(self.rows().row(self.as_slice(), iy, iz))
    }
}

impl Sampled for State2 {
    fn at(&self, [ix, _, iz]: [usize; 3]) -> f32 {
        self.sample(ix, iz)
    }
    fn row(&self, iy: usize, iz: usize) -> Option<&[f32]> {
        match self {
            State2::Iso(s) => s.u_cur.row(iy, iz),
            State2::Acoustic(s) => s.p.row(iy, iz),
            State2::Vti(s) => s.p_cur.row(iy, iz),
            State2::Elastic(_) => None,
        }
    }
}

impl Sampled for Field3 {
    fn at(&self, [ix, iy, iz]: [usize; 3]) -> f32 {
        self.get(ix, iy, iz)
    }
    fn row(&self, iy: usize, iz: usize) -> Option<&[f32]> {
        Some(self.rows().row(self.as_slice(), iy, iz))
    }
}

impl Sampled for State3 {
    fn at(&self, [ix, iy, iz]: [usize; 3]) -> f32 {
        self.sample(ix, iy, iz)
    }
    fn row(&self, iy: usize, iz: usize) -> Option<&[f32]> {
        match self {
            State3::Iso(s) => s.u_cur.row(iy, iz),
            State3::Acoustic(s) => s.p.row(iy, iz),
            State3::Elastic(_) => None,
        }
    }
}

/// The interior rows of a grid: `ny` rows of `nx` points at each of `nz`
/// depths (a 2D grid has `ny = 1`), the row at `(iy, iz)` starting at flat
/// index `origin + iy·y_stride + iz·z_stride` of the array — halo-inclusive
/// for a field, halo-free for a packed snapshot.
#[derive(Clone, Copy)]
pub struct Rows {
    nx: usize,
    ny: usize,
    nz: usize,
    origin: usize,
    y_stride: usize,
    z_stride: usize,
}

impl Rows {
    /// The rows of an `[nx, ny, nz]` interior stored back to back, with no
    /// halo.
    fn packed([nx, ny, nz]: [usize; 3]) -> Self {
        Self {
            nx,
            ny,
            nz,
            origin: 0,
            y_stride: nx,
            z_stride: nx * ny,
        }
    }

    /// Interior points.
    fn points(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Flat index of the first interior point of row `(iy, iz)`.
    fn start(&self, iy: usize, iz: usize) -> usize {
        self.origin + iy * self.y_stride + iz * self.z_stride
    }

    /// Row `(iy, iz)` of `data`, an array laid out by these rows.
    fn row<'a>(&self, data: &'a [f32], iy: usize, iz: usize) -> &'a [f32] {
        &data[self.start(iy, iz)..][..self.nx]
    }

    /// Run `row(iy, iz, start)` for every interior row, slab-parallel over
    /// depth with the step's slab map. A row lies within one depth, so the
    /// rows of different slabs never overlap.
    fn par_for_each(&self, gangs: usize, row: impl Fn(usize, usize, usize) + Sync) {
        par_slabs(self.nz, gangs, |z0, z1| {
            for iz in z0..z1 {
                for iy in 0..self.ny {
                    row(iy, iz, self.start(iy, iz));
                }
            }
        });
    }
}

/// An image or snapshot field: a halo-inclusive array with its interior
/// rows.
pub trait Grid: Sampled {
    fn rows(&self) -> Rows;
    fn data_mut(&mut self) -> &mut [f32];
}

impl Grid for Field2 {
    fn rows(&self) -> Rows {
        let e = self.extent();
        Rows {
            nx: e.nx,
            ny: 1,
            nz: e.nz,
            origin: e.halo * e.full_nx() + e.halo,
            y_stride: 0,
            z_stride: e.full_nx(),
        }
    }

    fn data_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl Grid for Field3 {
    fn rows(&self) -> Rows {
        let e = self.extent();
        let plane = e.full_nx() * e.full_ny();
        Rows {
            nx: e.nx,
            ny: e.ny,
            nz: e.nz,
            origin: e.halo * plane + e.halo * e.full_nx() + e.halo,
            y_stride: e.full_nx(),
            z_stride: plane,
        }
    }

    fn data_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

/// Copy the interior rows of `src` into `out`, an array laid out by `rows`,
/// slab-parallel over `gangs`: the one row copy behind snapshot fields,
/// packed snapshots and modeling frames. Fields without stored rows (the
/// elastic stress mean) are sampled point by point.
fn copy_rows(src: &impl Sampled, out: &mut [f32], rows: Rows, gangs: usize) {
    let out = SyncSlice::new(out);
    rows.par_for_each(gangs, |iy, iz, c| {
        // SAFETY: each row is written by the one slab holding its depth.
        let o = unsafe { out.range_mut(c, rows.nx) };
        match src.row(iy, iz) {
            Some(s) => o.copy_from_slice(s),
            None => {
                for (ix, v) in o.iter_mut().enumerate() {
                    *v = src.at([ix, iy, iz]);
                }
            }
        }
    });
}

/// The imaging condition over one interior row: `image += src·rcv`, and
/// `illum += src²`. Row slices let the compiler vectorise the loop; each
/// point's sums are those of the per-point form. Runs the AVX2 build when
/// the CPU has AVX2; both builds compile one body and give the same bits
/// (see `seismic_prop`'s "Vector ISA dispatch").
fn correlate_row(src: &[f32], rcv: &[f32], image: &mut [f32], illum: Option<&mut [f32]>) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, checked just above.
        return unsafe { correlate_row_avx2(src, rcv, image, illum) };
    }
    correlate_row_body(src, rcv, image, illum)
}

/// [`correlate_row_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn correlate_row_avx2(src: &[f32], rcv: &[f32], image: &mut [f32], illum: Option<&mut [f32]>) {
    correlate_row_body(src, rcv, image, illum)
}

/// The one source body of [`correlate_row`], inlined into each build.
#[inline(always)]
fn correlate_row_body(src: &[f32], rcv: &[f32], image: &mut [f32], illum: Option<&mut [f32]>) {
    for ((o, &a), &b) in image.iter_mut().zip(src).zip(rcv) {
        *o += a * b;
    }
    if let Some(il) = illum {
        for (o, &a) in il.iter_mut().zip(src) {
            *o += a * a;
        }
    }
}

/// A medium the shot driver runs, tied to its wavefield state — what lets
/// one generic public driver serve both [`Medium2`] and [`Medium3`].
pub trait Medium: Sized {
    type Wave: Wave<Medium = Self>;
    /// This medium with its absorbers replaced by a seeded random boundary.
    fn randomized(&self, spec: &RandomBoundarySpec) -> Self;
}

impl Medium for Medium2 {
    type Wave = State2;
    fn randomized(&self, spec: &RandomBoundarySpec) -> Self {
        randomize_medium2(self, spec)
    }
}

impl Medium for Medium3 {
    type Wave = State3;
    fn randomized(&self, spec: &RandomBoundarySpec) -> Self {
        randomize_medium3(self, spec)
    }
}

/// Acquisition geometry of a shot through medium `M`.
pub type AcqOf<M> = <<M as Medium>::Wave as Wave>::Acq;
/// Image/snapshot field of medium `M` (`Field2` or `Field3`).
pub type FieldOf<M> = <<M as Medium>::Wave as Wave>::Field;

/// What the time loops need from a wavefield state: the seam between the
/// shot driver and the 2D/3D propagators.
pub trait Wave: Sampled + Sized {
    type Medium;
    type Acq: ShotPoints;
    /// Image and snapshot field.
    type Field: Grid;

    fn new(medium: &Self::Medium) -> Self;
    /// A zeroed image/snapshot field over the medium's grid.
    fn zeros(medium: &Self::Medium) -> Self::Field;
    /// The medium's interior points along `[x, y, z]` (`y = 1` in 2D).
    fn interior(medium: &Self::Medium) -> [usize; 3];
    fn dt(medium: &Self::Medium) -> f32;
    fn step(&mut self, medium: &Self::Medium, config: &OptimizationConfig, gangs: usize);
    fn step_reverse(&mut self, medium: &Self::Medium, config: &OptimizationConfig, gangs: usize);
    fn copy_from(&mut self, other: &Self);
    fn inject_at(&mut self, medium: &Self::Medium, p: [usize; 3], amp: f32);
    /// A zeroed movie frame: the x–z plane modeling saves.
    fn frame(medium: &Self::Medium) -> Field2;
    /// Write the frame: the whole field in 2D, the source's y plane in 3D.
    fn write_frame(&self, acq: &Self::Acq, out: &mut Field2, gangs: usize);
    /// Direct-wave mute inputs: grid spacing, velocity at the source, dt.
    fn direct_wave(medium: &Self::Medium, acq: &Self::Acq) -> (f32, f32, f32);

    /// Copy the sampled field's interior into `out`, slab-parallel over
    /// `gangs`. The halo of `out` is not written: snapshots keep the zero
    /// halo they were allocated with, as a state's fields do.
    fn snapshot(&self, out: &mut Self::Field, gangs: usize) {
        let rows = out.rows();
        copy_rows(self, out.data_mut(), rows, gangs)
    }

    /// The imaging condition over the interior, slab-parallel over
    /// `gangs`: `image += src·self`, and `illum += src²` when an
    /// illumination field is given. Rows that a field does not store (the
    /// elastic stress mean) are sampled point by point.
    fn correlate(
        &self,
        src: &impl Sampled,
        image: &mut Self::Field,
        illum: Option<&mut Self::Field>,
        gangs: usize,
    ) {
        let rows = image.rows();
        let image = SyncSlice::new(image.data_mut());
        let illum = illum.map(|f| SyncSlice::new(f.data_mut()));
        rows.par_for_each(gangs, |iy, iz, c| {
            let nx = rows.nx;
            // SAFETY: each row is written by the one slab holding its
            // depth; the image and illumination are distinct fields.
            let (img, mut il) = unsafe {
                (
                    image.range_mut(c, nx),
                    illum.as_ref().map(|f| f.range_mut(c, nx)),
                )
            };
            match (src.row(iy, iz), self.row(iy, iz)) {
                (Some(s), Some(r)) => {
                    assert!(s.len() == nx && r.len() == nx, "extent mismatch");
                    correlate_row(s, r, img, il)
                }
                (s, r) => {
                    for (ix, o) in img.iter_mut().enumerate() {
                        let p = [ix, iy, iz];
                        let a = s.map_or_else(|| src.at(p), |s| s[ix]);
                        *o += a * r.map_or_else(|| self.at(p), |r| r[ix]);
                        if let Some(il) = il.as_deref_mut() {
                            il[ix] += a * a;
                        }
                    }
                }
            }
        });
    }

    fn inject_source(&mut self, medium: &Self::Medium, acq: &Self::Acq, amp: f32) {
        self.inject_at(medium, acq.source(), amp);
    }

    /// Inject sample `t` of every trace at its receiver.
    fn inject_receivers(
        &mut self,
        medium: &Self::Medium,
        acq: &Self::Acq,
        seis: &Seismogram,
        t: usize,
    ) {
        for (r, p) in acq.receiver_points().enumerate() {
            self.inject_at(medium, p, seis.get(r, t));
        }
    }

    /// Record sample `t` of every trace from its receiver.
    fn record(&self, acq: &Self::Acq, seis: &mut Seismogram, t: usize) {
        for (r, p) in acq.receiver_points().enumerate() {
            seis.record(r, t, self.at(p));
        }
    }
}

impl Wave for State2 {
    type Medium = Medium2;
    type Acq = Acquisition2;
    type Field = Field2;

    fn new(medium: &Medium2) -> Self {
        State2::new(medium)
    }

    fn zeros(medium: &Medium2) -> Field2 {
        Field2::zeros(medium.extent())
    }

    fn interior(medium: &Medium2) -> [usize; 3] {
        let e = medium.extent();
        [e.nx, 1, e.nz]
    }

    fn dt(medium: &Medium2) -> f32 {
        medium.dt()
    }

    fn step(&mut self, medium: &Medium2, config: &OptimizationConfig, gangs: usize) {
        State2::step(self, medium, config, gangs)
    }

    fn step_reverse(&mut self, medium: &Medium2, config: &OptimizationConfig, gangs: usize) {
        State2::step_reverse(self, medium, config, gangs)
    }

    fn copy_from(&mut self, other: &Self) {
        State2::copy_from(self, other)
    }

    fn inject_at(&mut self, medium: &Medium2, [ix, _, iz]: [usize; 3], amp: f32) {
        self.inject(medium, ix, iz, amp)
    }

    fn frame(medium: &Medium2) -> Field2 {
        Field2::zeros(medium.extent())
    }

    fn write_frame(&self, _acq: &Acquisition2, out: &mut Field2, gangs: usize) {
        self.snapshot(out, gangs)
    }

    fn direct_wave(medium: &Medium2, acq: &Acquisition2) -> (f32, f32, f32) {
        let (ix, iz) = (acq.src_ix, acq.src_iz);
        let (dx, v) = match medium {
            Medium2::Iso { model, .. } => (model.geom.dx, model.vp.get(ix, iz)),
            Medium2::Acoustic { model, .. } => (model.geom.dx, model.vp.get(ix, iz)),
            Medium2::Elastic { model, .. } => {
                let vp = ((model.lam.get(ix, iz) + 2.0 * model.mu.get(ix, iz))
                    / model.rho.get(ix, iz))
                .sqrt();
                (model.geom.dx, vp)
            }
            // Mute along the fastest (horizontal) velocity so the taper is
            // conservative for receivers offset along x.
            Medium2::Vti { model, .. } => {
                let v = model.vp.get(ix, iz) * (1.0 + 2.0 * model.epsilon.get(ix, iz)).sqrt();
                (model.geom.dx, v)
            }
        };
        (dx, v, medium.dt())
    }
}

impl Wave for State3 {
    type Medium = Medium3;
    type Acq = Acquisition3;
    type Field = Field3;

    fn new(medium: &Medium3) -> Self {
        State3::new(medium)
    }

    fn zeros(medium: &Medium3) -> Field3 {
        Field3::zeros(medium.extent())
    }

    fn interior(medium: &Medium3) -> [usize; 3] {
        let e = medium.extent();
        [e.nx, e.ny, e.nz]
    }

    fn dt(medium: &Medium3) -> f32 {
        medium.dt()
    }

    fn step(&mut self, medium: &Medium3, config: &OptimizationConfig, gangs: usize) {
        State3::step(self, medium, config, gangs)
    }

    fn step_reverse(&mut self, medium: &Medium3, config: &OptimizationConfig, gangs: usize) {
        State3::step_reverse(self, medium, config, gangs)
    }

    fn copy_from(&mut self, other: &Self) {
        State3::copy_from(self, other)
    }

    fn inject_at(&mut self, medium: &Medium3, [ix, iy, iz]: [usize; 3], amp: f32) {
        self.inject(medium, ix, iy, iz, amp)
    }

    fn frame(medium: &Medium3) -> Field2 {
        let e = medium.extent();
        Field2::zeros(Extent2::new(e.nx, e.nz, e.halo))
    }

    fn write_frame(&self, acq: &Acquisition3, out: &mut Field2, _gangs: usize) {
        self.write_slice_y_into(acq.src_iy, out)
    }

    fn direct_wave(medium: &Medium3, acq: &Acquisition3) -> (f32, f32, f32) {
        let (ix, iy, iz) = (acq.src_ix, acq.src_iy, acq.src_iz);
        let (dx, v) = match medium {
            Medium3::Iso { model, .. } => (model.geom.dx, model.vp.get(ix, iy, iz)),
            Medium3::Acoustic { model, .. } => (model.geom.dx, model.vp.get(ix, iy, iz)),
            Medium3::Elastic { model, .. } => {
                let vp = ((model.lam.get(ix, iy, iz) + 2.0 * model.mu.get(ix, iy, iz))
                    / model.rho.get(ix, iy, iz))
                .sqrt();
                (model.geom.dx, vp)
            }
        };
        (dx, v, medium.dt())
    }
}

/// One shot's run parameters: everything both time loops share.
pub(crate) struct Shot<'a, W: Wave> {
    pub medium: &'a W::Medium,
    pub acq: &'a W::Acq,
    pub config: &'a OptimizationConfig,
    pub steps: usize,
    pub snap_period: usize,
    pub gangs: usize,
}

impl<W: Wave> Clone for Shot<'_, W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<W: Wave> Copy for Shot<'_, W> {}

impl<'a, W: Wave> Shot<'a, W> {
    pub fn new(
        medium: &'a W::Medium,
        acq: &'a W::Acq,
        config: &'a OptimizationConfig,
        steps: usize,
        snap_period: usize,
        gangs: usize,
    ) -> Self {
        Self {
            medium,
            acq,
            config,
            steps,
            snap_period,
            gangs,
        }
    }

    /// The shot, or the typed reason its time loops cannot run.
    pub fn checked(self) -> Result<Self, ConfigError> {
        if self.steps == 0 {
            return Err(ConfigError::ZeroSteps);
        }
        if self.snap_period == 0 {
            return Err(ConfigError::ZeroSnapPeriod);
        }
        Ok(self)
    }

    /// The same shot propagated through another medium.
    pub fn through(self, medium: &'a W::Medium) -> Self {
        Self { medium, ..self }
    }
}

/// Run `f` inside a wall-clock phase span (a no-op unless the host
/// profiler is on).
fn phase<R>(id: u32, f: impl FnOnce() -> R) -> R {
    let t0 = prof::begin();
    let r = f();
    prof::end(t0, prof::EventKind::Phase, id, 0);
    r
}

/// The forward time loop over `steps`: step, inject the source, then hand
/// the state to `hook`.
pub(crate) fn forward<W: Wave>(
    shot: &Shot<W>,
    state: &mut W,
    wavelet: &Wavelet,
    steps: Range<usize>,
    mut hook: impl FnMut(usize, &W),
) {
    let dt = W::dt(shot.medium);
    for t in steps {
        state.step(shot.medium, shot.config, shot.gangs);
        state.inject_source(shot.medium, shot.acq, wavelet.sample(t as f32 * dt));
        hook(t, state);
    }
}

/// A checkpoint-restart plan for a forward pass: the pre-step state is
/// stored at every step in `checkpoints` (sorted; the quiescent state of
/// step 0 is always available), and each entry of `interrupts` kills the
/// pass once when it first reaches that step, resuming from the last
/// stored state. The counters report what the pass actually executed.
pub(crate) struct Restart<'a> {
    pub checkpoints: &'a [usize],
    pub interrupts: &'a [usize],
    /// Forward steps executed, replayed ones included.
    pub executed: usize,
    /// Checkpoint restores performed.
    pub restores: usize,
}

impl Restart<'_> {
    /// The forward loop from step 0, one step at a time so the pass can be
    /// killed and resumed anywhere. Replay re-runs the hook over the same
    /// steps, overwriting what it wrote with identical values.
    fn run<W: Wave>(
        &mut self,
        shot: &Shot<W>,
        state: &mut W,
        wavelet: &Wavelet,
        mut hook: impl FnMut(usize, &W),
    ) {
        let mut pending: Vec<usize> = self.interrupts.to_vec();
        pending.sort_unstable();
        let mut pending = pending.into_iter().peekable();
        // One slot, allocated once: stores and restores are overwrites.
        let (mut saved, mut saved_at) = (W::new(shot.medium), 0);
        let mut t = 0;
        while t < shot.steps {
            if pending.next_if_eq(&t).is_some() {
                self.restores += 1;
                state.copy_from(&saved);
                t = saved_at;
                continue;
            }
            if self.checkpoints.binary_search(&t).is_ok() {
                saved.copy_from(state);
                saved_at = t;
            }
            forward(shot, state, wavelet, t..t + 1, &mut hook);
            self.executed += 1;
            t += 1;
        }
    }
}

/// The forward phase of a shot: record every receiver trace and hand the
/// state to `snap` with the snapshot index at every `snap_period`-th step,
/// optionally under a checkpoint-restart plan.
pub(crate) fn record<W: Wave>(
    shot: &Shot<W>,
    wavelet: &Wavelet,
    restart: Option<&mut Restart>,
    mut snap: impl FnMut(usize, &W),
) -> Seismogram {
    let n_receivers = shot.acq.receiver_points().count();
    let mut seis = Seismogram::zeros(n_receivers, shot.steps);
    let mut state = W::new(shot.medium);
    let hook = |t: usize, s: &W| {
        s.record(shot.acq, &mut seis, t);
        if t.is_multiple_of(shot.snap_period) {
            snap(t / shot.snap_period, s);
        }
    };
    phase(prof::PHASE_FORWARD, || match restart {
        None => forward(shot, &mut state, wavelet, 0..shot.steps, hook),
        Some(r) => r.run(shot, &mut state, wavelet, hook),
    });
    seis
}

/// Where the backward loop's source wavefield comes from.
pub(crate) trait SourceField<W: Wave> {
    /// Bring the source field to forward step `t` (the state after step
    /// `t`). Called once per step, with `t` descending.
    fn seek(&mut self, t: usize);
    /// Source snapshot `k` (step `k · snap_period`), if there is one: a
    /// stored snapshot or a live state.
    fn snap(&self, k: usize) -> Option<impl Sampled + '_>;
}

/// The backward time loop: at every `snap_period`-th step correlate the
/// source field with the receiver field, then step the receiver field and
/// inject the recorded traces time-reversed. At the top of iteration `t`
/// the receiver field has absorbed the data of steps `t+1..steps`.
pub(crate) fn backward<W: Wave>(
    shot: &Shot<W>,
    seis: &Seismogram,
    src: &mut impl SourceField<W>,
    mut illum: Option<&mut W::Field>,
) -> W::Field {
    let mut image = W::zeros(shot.medium);
    let mut rstate = W::new(shot.medium);
    phase(prof::PHASE_BACKWARD, || {
        for t in (0..shot.steps).rev() {
            src.seek(t);
            if t.is_multiple_of(shot.snap_period) {
                if let Some(s) = src.snap(t / shot.snap_period) {
                    phase(prof::PHASE_IMAGING, || {
                        rstate.correlate(&s, &mut image, illum.as_deref_mut(), shot.gangs)
                    });
                }
            }
            rstate.step(shot.medium, shot.config, shot.gangs);
            rstate.inject_receivers(shot.medium, shot.acq, seis, t);
        }
    });
    image
}

/// Every snapshot of a shot in one allocation: snapshot `k` holds the
/// interior rows of forward step `k · snap_period` back to back, laid out
/// by [`Rows::packed`] — `nx·ny·nz` points, no halo. One buffer per shot,
/// rather than one field per snapshot, lets the allocator serve each shot
/// from memory the previous shot released.
pub(crate) struct Snapshots {
    data: Vec<f32>,
    rows: Rows,
}

impl Snapshots {
    /// `count` zeroed snapshots of the medium's interior.
    fn zeros<W: Wave>(medium: &W::Medium, count: usize) -> Self {
        let rows = Rows::packed(W::interior(medium));
        Self {
            data: vec![0.0; count * rows.points()],
            rows,
        }
    }

    /// Copy the interior of `src` into snapshot `k`, slab-parallel over
    /// `gangs`.
    fn write(&mut self, k: usize, src: &impl Sampled, gangs: usize) {
        let n = self.rows.points();
        copy_rows(src, &mut self.data[k * n..][..n], self.rows, gangs)
    }

    /// Snapshot `k`.
    fn get(&self, k: usize) -> Packed<'_> {
        let n = self.rows.points();
        Packed {
            data: &self.data[k * n..][..n],
            rows: self.rows,
        }
    }
}

/// One snapshot of a [`Snapshots`] store.
struct Packed<'a> {
    data: &'a [f32],
    rows: Rows,
}

impl Sampled for Packed<'_> {
    fn at(&self, [ix, iy, iz]: [usize; 3]) -> f32 {
        self.data[self.rows.start(iy, iz) + ix]
    }
    fn row(&self, iy: usize, iz: usize) -> Option<&[f32]> {
        Some(self.rows.row(self.data, iy, iz))
    }
}

/// Dense source field: the snapshots the forward phase packed.
impl<W: Wave> SourceField<W> for Snapshots {
    fn seek(&mut self, _t: usize) {}

    fn snap(&self, k: usize) -> Option<impl Sampled + '_> {
        Some(self.get(k))
    }
}

/// Dense source field: snapshot fields stored by the caller.
pub(crate) struct Stored<'a, F>(pub &'a [F]);

impl<W: Wave> SourceField<W> for Stored<'_, W::Field> {
    fn seek(&mut self, _t: usize) {}

    fn snap(&self, k: usize) -> Option<impl Sampled + '_> {
        self.0.get(k)
    }
}

/// Checkpointed source field: the forward pass keeps only the pre-step
/// states at `checkpoints`; the backward loop replays one segment at a
/// time from its checkpoint into a reused snapshot store sized for the
/// longest segment. The propagator is bitwise deterministic, so the
/// replayed snapshots equal the dense ones.
pub(crate) struct Replay<'a, W: Wave> {
    shot: Shot<'a, W>,
    wavelet: &'a Wavelet,
    checkpoints: Vec<usize>,
    stored: Vec<W>,
    state: W,
    /// Snapshots of the replayed segment, `k - first` for index `k`.
    snaps: Snapshots,
    first: usize,
    /// First step of the replayed segment (`steps` before any replay).
    seg_start: usize,
}

impl<'a, W: Wave> Replay<'a, W> {
    /// Run the forward pass, storing the state before each checkpoint step
    /// (`checkpoints` sorted, starting at 0).
    pub fn new(shot: Shot<'a, W>, wavelet: &'a Wavelet, checkpoints: Vec<usize>) -> Self {
        let p = shot.snap_period;
        let ends = checkpoints.iter().skip(1).chain([&shot.steps]);
        let longest = checkpoints
            .iter()
            .zip(ends)
            .map(|(&a, &b)| b.div_ceil(p) - a.div_ceil(p))
            .max()
            .unwrap_or(0);
        let mut stored: Vec<W> = checkpoints.iter().map(|_| W::new(shot.medium)).collect();
        let mut state = W::new(shot.medium);
        phase(prof::PHASE_FORWARD, || {
            let mut t = 0;
            for (slot, &c) in stored.iter_mut().zip(&checkpoints) {
                forward(&shot, &mut state, wavelet, t..c, |_, _| {});
                slot.copy_from(&state);
                t = c;
            }
        });
        Self {
            shot,
            wavelet,
            checkpoints,
            stored,
            state,
            snaps: Snapshots::zeros::<W>(shot.medium, longest),
            first: 0,
            seg_start: shot.steps,
        }
    }
}

impl<W: Wave> SourceField<W> for Replay<'_, W> {
    fn seek(&mut self, t: usize) {
        if t >= self.seg_start {
            return;
        }
        let seg = self.checkpoints.partition_point(|&c| c <= t) - 1;
        let start = self.checkpoints[seg];
        let p = self.shot.snap_period;
        self.state.copy_from(&self.stored[seg]);
        self.first = start.div_ceil(p);
        let (shot, snaps) = (&self.shot, &mut self.snaps);
        let mut n = 0;
        forward(
            shot,
            &mut self.state,
            self.wavelet,
            start..self.seg_start,
            |t, s| {
                if t.is_multiple_of(p) {
                    snaps.write(n, s, shot.gangs);
                    n += 1;
                }
            },
        );
        self.seg_start = start;
    }

    fn snap(&self, k: usize) -> Option<impl Sampled + '_> {
        Some(self.snaps.get(k - self.first))
    }
}

/// Random-boundary source field: the source runs forward through a
/// lossless randomized medium storing nothing, and the backward loop walks
/// that final state back one step at a time with `step_reverse`.
pub(crate) struct Reversed<'a, W: Wave> {
    shot: Shot<'a, W>,
    wavelet: &'a Wavelet,
    state: W,
    /// Forward step the state currently holds.
    at: usize,
}

impl<'a, W: Wave> Reversed<'a, W> {
    /// Run the source pass of `shot` (whose medium must be lossless).
    pub fn new(shot: Shot<'a, W>, wavelet: &'a Wavelet) -> Self {
        let mut state = W::new(shot.medium);
        phase(prof::PHASE_FORWARD, || {
            forward(&shot, &mut state, wavelet, 0..shot.steps, |_, _| {})
        });
        Self {
            shot,
            wavelet,
            state,
            at: shot.steps - 1,
        }
    }
}

impl<W: Wave> SourceField<W> for Reversed<'_, W> {
    fn seek(&mut self, t: usize) {
        if self.at > t {
            // Undo forward step `at`: remove its injection, reverse the step.
            let s = &self.shot;
            let amp = self.wavelet.sample(self.at as f32 * W::dt(s.medium));
            self.state.inject_source(s.medium, s.acq, -amp);
            self.state.step_reverse(s.medium, s.config, s.gangs);
            self.at = t;
        }
    }

    fn snap(&self, _k: usize) -> Option<impl Sampled + '_> {
        Some(&self.state)
    }
}

/// Mute the direct wave of a recorded shot, tapered over 2.4 periods of
/// the wavelet's peak frequency.
pub(crate) fn mute<W: Wave>(shot: &Shot<W>, seis: &Seismogram, wavelet: &Wavelet) -> Seismogram {
    let (h, v, dt) = W::direct_wave(shot.medium, shot.acq);
    mute_direct(seis, shot.acq, h, v, dt, 2.4 / wavelet.f_peak())
}

/// RTM of one shot: record, mute, migrate — against dense snapshots, or,
/// given a `randomized` medium, against the source walked back through it
/// with nothing stored.
pub(crate) fn rtm<W: Wave>(
    shot: &Shot<W>,
    wavelet: &Wavelet,
    randomized: Option<&W::Medium>,
    restart: Option<&mut Restart>,
) -> RtmResult<W::Field> {
    let n_snaps = match randomized {
        Some(_) => 0,
        None => shot.steps.div_ceil(shot.snap_period),
    };
    let mut snaps = Snapshots::zeros::<W>(shot.medium, n_snaps);
    let seis = record(shot, wavelet, restart, |k, s| {
        if k < n_snaps {
            snaps.write(k, s, shot.gangs)
        }
    });
    let seismogram = mute(shot, &seis, wavelet);
    let image = match randomized {
        Some(m) => backward(
            shot,
            &seismogram,
            &mut Reversed::new(shot.through(m), wavelet),
            None,
        ),
        None => backward(shot, &seismogram, &mut snaps, None),
    };
    RtmResult {
        image,
        seismogram,
        snapshots_saved: n_snaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::plan_checkpoints;
    use crate::modeling::run_modeling;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{
        acoustic2_layered, acoustic3_layered, elastic2_layered, elastic3_layered, iso2_layered,
        iso3_layered, standard_layers,
    };
    use seismic_model::{extent2, extent3, Geometry, VtiModel2};
    use seismic_pml::{CpmlAxis, DampProfile};

    const H: f32 = 10.0;
    const VMAX: f32 = 3200.0;
    const SNAP: usize = 3;

    fn geom(dims: usize, safety: f32) -> Geometry {
        Geometry::uniform(H, stable_dt(8, dims, VMAX, H, safety))
    }

    fn media2(n: usize) -> Vec<(&'static str, Medium2)> {
        let e = extent2(n, n);
        let layers = standard_layers(n);
        let damp = || DampProfile::new(n, e.halo, 6, VMAX, H, 1e-4);
        let cpml = |safety| {
            let c = || CpmlAxis::new(n, e.halo, 6, geom(2, safety).dt, VMAX, H, 1e-4);
            [c(), c()]
        };
        vec![
            (
                "iso2d",
                Medium2::Iso {
                    model: iso2_layered(e, &layers, geom(2, 0.7)),
                    damp_x: damp(),
                    damp_z: damp(),
                },
            ),
            (
                "acoustic2d",
                Medium2::Acoustic {
                    model: acoustic2_layered(e, &layers, geom(2, 0.6)),
                    cpml: cpml(0.6),
                },
            ),
            (
                "vti2d",
                Medium2::Vti {
                    model: VtiModel2::constant(e, 2200.0, 0.2, 0.1, geom(2, 0.5)),
                    damp_x: damp(),
                    damp_z: damp(),
                },
            ),
            (
                "elastic2d",
                Medium2::Elastic {
                    model: elastic2_layered(e, &layers, geom(2, 0.5)),
                    cpml: cpml(0.5),
                },
            ),
        ]
    }

    fn media3(n: usize) -> Vec<(&'static str, Medium3)> {
        let e = extent3(n, n, n);
        let layers = standard_layers(n);
        let damp = || DampProfile::new(n, e.halo, 3, VMAX, H, 1e-4);
        let cpml = |safety| {
            let c = || CpmlAxis::new(n, e.halo, 3, geom(3, safety).dt, VMAX, H, 1e-4);
            [c(), c(), c()]
        };
        vec![
            (
                "iso3d",
                Medium3::Iso {
                    model: iso3_layered(e, &layers, geom(3, 0.7)),
                    damp: [damp(), damp(), damp()],
                },
            ),
            (
                "acoustic3d",
                Medium3::Acoustic {
                    model: acoustic3_layered(e, &layers, geom(3, 0.55)),
                    cpml: cpml(0.55),
                },
            ),
            (
                "elastic3d",
                Medium3::Elastic {
                    model: elastic3_layered(e, &layers, geom(3, 0.5)),
                    cpml: cpml(0.5),
                },
            ),
        ]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The whole halo-inclusive array of `f`, as bits.
    fn field_bits(f: &mut impl Grid) -> Vec<u32> {
        bits(f.data_mut())
    }

    /// The serial imaging condition over stored fields, one interior row
    /// at a time — the oracle the slab-parallel row body must match.
    fn correlate_rows(
        [src, rcv]: [&[f32]; 2],
        image: &mut [f32],
        mut illum: Option<&mut [f32]>,
        rows: impl Iterator<Item = usize>,
        nx: usize,
    ) {
        assert!(src.len() == image.len() && rcv.len() == image.len());
        for c in rows {
            let s = &src[c..][..nx];
            for ((o, &a), &b) in image[c..][..nx].iter_mut().zip(s).zip(&rcv[c..][..nx]) {
                *o += a * b;
            }
            if let Some(il) = illum.as_deref_mut() {
                for (o, &a) in il[c..][..nx].iter_mut().zip(s) {
                    *o += a * a;
                }
            }
        }
    }

    /// `x` sampled point by point, serially, into a fresh field.
    fn dense<W: Wave>(x: &impl Sampled, medium: &W::Medium) -> W::Field {
        let mut f = W::zeros(medium);
        let rows = f.rows();
        let v = f.data_mut();
        for iz in 0..rows.nz {
            for iy in 0..rows.ny {
                for ix in 0..rows.nx {
                    v[rows.start(iy, iz) + ix] = x.at([ix, iy, iz]);
                }
            }
        }
        f
    }

    /// The backward loop's image and illumination, as bits.
    fn migrate<W: Wave>(
        shot: &Shot<W>,
        seis: &Seismogram,
        src: &mut impl SourceField<W>,
    ) -> [Vec<u32>; 2] {
        let mut illum = W::zeros(shot.medium);
        let mut image = backward(shot, seis, src, Some(&mut illum));
        [field_bits(&mut image), field_bits(&mut illum)]
    }

    /// [`migrate`] with the backward loop written out and imaging through
    /// the serial oracle.
    fn migrate_serial<W: Wave>(
        shot: &Shot<W>,
        seis: &Seismogram,
        src: &mut impl SourceField<W>,
    ) -> [Vec<u32>; 2] {
        let (mut image, mut illum) = (W::zeros(shot.medium), W::zeros(shot.medium));
        let mut rstate = W::new(shot.medium);
        let rows = image.rows();
        for t in (0..shot.steps).rev() {
            src.seek(t);
            if t.is_multiple_of(shot.snap_period) {
                if let Some(s) = src.snap(t / shot.snap_period) {
                    let mut s = dense::<W>(&s, shot.medium);
                    let mut r = dense::<W>(&rstate, shot.medium);
                    let pair = [&*s.data_mut(), &*r.data_mut()];
                    let starts =
                        (0..rows.nz).flat_map(|iz| (0..rows.ny).map(move |iy| rows.start(iy, iz)));
                    let il = Some(illum.data_mut());
                    correlate_rows(pair, image.data_mut(), il, starts, rows.nx);
                }
            }
            rstate.step(shot.medium, shot.config, shot.gangs);
            rstate.inject_receivers(shot.medium, shot.acq, seis, t);
        }
        [field_bits(&mut image), field_bits(&mut illum)]
    }

    /// The interior of `x` sampled point by point, serially, in the
    /// packed row order: the oracle of a packed snapshot.
    fn packed<W: Wave>(x: &impl Sampled, medium: &W::Medium) -> Vec<u32> {
        let [nx, ny, nz] = W::interior(medium);
        let points =
            (0..nz).flat_map(|iz| (0..ny).flat_map(move |iy| (0..nx).map(move |ix| [ix, iy, iz])));
        points.map(|p| x.at(p).to_bits()).collect()
    }

    /// Images and illuminations from packed and field snapshots,
    /// checkpoints and random boundaries at gangs 1, 2 and 3 against the
    /// serial oracle, and every snapshot, packed or field, against a serial
    /// point-by-point copy; one line per mismatch.
    fn imaging_mismatches<M: Medium>(
        name: &str,
        medium: &M,
        acq: &AcqOf<M>,
        steps: usize,
    ) -> Vec<String> {
        let w = Wavelet::ricker(25.0);
        let cfg = OptimizationConfig::default();
        let randomized = medium.randomized(&RandomBoundarySpec::new(4, 7));
        let checkpoints = plan_checkpoints(steps, 3).expect("valid schedule");
        let serial = Shot::<M::Wave>::new(medium, acq, &cfg, steps, SNAP, 1);
        let mut snaps: Vec<FieldOf<M>> = (0..steps.div_ceil(SNAP))
            .map(|_| M::Wave::zeros(medium))
            .collect();
        let seis = record(&serial, &w, None, |k, s| s.snapshot(&mut snaps[k], 1));
        let dense_oracle = migrate_serial(&serial, &seis, &mut Stored(&snaps));
        let oracle = [
            dense_oracle.clone(),
            dense_oracle,
            migrate_serial(
                &serial,
                &seis,
                &mut Replay::new(serial, &w, checkpoints.clone()),
            ),
            migrate_serial(
                &serial,
                &seis,
                &mut Reversed::new(serial.through(&randomized), &w),
            ),
        ];
        let mut bad = Vec::new();
        for gangs in 1..=3 {
            let shot = Shot::<M::Wave>::new(medium, acq, &cfg, steps, SNAP, gangs);
            let mut packs = Snapshots::zeros::<M::Wave>(medium, steps.div_ceil(SNAP));
            let mut scratch = M::Wave::zeros(medium);
            record(&shot, &w, None, |k, s| {
                s.snapshot(&mut scratch, gangs);
                if field_bits(&mut scratch) != field_bits(&mut dense::<M::Wave>(s, medium)) {
                    bad.push(format!("{name} gangs {gangs}: snapshot field {k}"));
                }
                packs.write(k, s, gangs);
                if bits(packs.get(k).data) != packed::<M::Wave>(s, medium) {
                    bad.push(format!("{name} gangs {gangs}: packed snapshot {k}"));
                }
            });
            let got = [
                migrate(&shot, &seis, &mut packs),
                migrate(&shot, &seis, &mut Stored(&snaps)),
                migrate(
                    &shot,
                    &seis,
                    &mut Replay::new(shot, &w, checkpoints.clone()),
                ),
                migrate(
                    &shot,
                    &seis,
                    &mut Reversed::new(shot.through(&randomized), &w),
                ),
            ];
            for ((strategy, got), want) in ["packed", "fields", "replay", "reversed"]
                .iter()
                .zip(got)
                .zip(&oracle)
            {
                if got != *want {
                    bad.push(format!(
                        "{name} gangs {gangs}: {strategy} image or illumination"
                    ));
                }
            }
        }
        bad
    }

    /// Slab-parallel imaging is bitwise the serial imaging condition, for
    /// every 2D formulation and source-field strategy.
    #[test]
    fn imaging_2d_matches_the_serial_oracle() {
        let n = 32;
        let acq = Acquisition2::surface_line(n, n / 2, 3, 3, 2);
        let bad: Vec<String> = media2(n)
            .iter()
            .flat_map(|(name, m)| imaging_mismatches(name, m, &acq, 36))
            .collect();
        assert!(bad.is_empty(), "{bad:#?}");
    }

    /// The same in 3D.
    #[test]
    fn imaging_3d_matches_the_serial_oracle() {
        let n = 12;
        let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2, 2), 2, 3);
        let bad: Vec<String> = media3(n)
            .iter()
            .flat_map(|(name, m)| imaging_mismatches(name, m, &acq, 18))
            .collect();
        assert!(bad.is_empty(), "{bad:#?}");
    }

    /// The old serial snapshot: the whole pressure-like field, halo
    /// included.
    fn full_copy(s: &State2) -> Vec<f32> {
        match s {
            State2::Iso(s) => s.u_cur.as_slice().to_vec(),
            State2::Acoustic(s) => s.p.as_slice().to_vec(),
            State2::Vti(s) => s.p_cur.as_slice().to_vec(),
            State2::Elastic(s) => s
                .sxx
                .as_slice()
                .iter()
                .zip(s.szz.as_slice())
                .map(|(a, b)| 0.5 * (a + b))
                .collect(),
        }
    }

    /// Modeling frames copy only the interior, so they equal full-field
    /// copies only while every state's halo stays zero.
    #[test]
    fn modeling_frames_equal_full_field_copies() {
        let (n, steps) = (32, 30);
        let w = Wavelet::ricker(25.0);
        let cfg = OptimizationConfig::default();
        let acq = Acquisition2::surface_line(n, n / 2, 3, 3, 2);
        for (name, medium) in media2(n) {
            let dt = medium.dt();
            for gangs in [2, 3] {
                let frames = run_modeling(&medium, &acq, &w, &cfg, steps, SNAP, gangs).snapshots;
                let mut s = State2::new(&medium);
                for t in 0..steps {
                    s.step(&medium, &cfg, 1);
                    s.inject(&medium, acq.src_ix, acq.src_iz, w.sample(t as f32 * dt));
                    if t.is_multiple_of(SNAP) {
                        assert_eq!(
                            bits(frames[t / SNAP].as_slice()),
                            bits(&full_copy(&s)),
                            "{name} gangs {gangs}: frame at step {t}"
                        );
                    }
                }
            }
        }
    }
}
