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
//! from — the [`SourceField`] seam: snapshots stored by the forward phase
//! ([`Stored`]), segments replayed from checkpoints ([`Replay`]), or a
//! lossless state walked back in time ([`Reversed`]). Dimensionality and
//! formulation hide behind [`Wave`], implemented by [`State2`] and
//! [`State3`]. The wall-clock `Phase` spans of [`exec_host::prof`] are
//! emitted here only — forward around every forward pass, backward around
//! [`backward`], imaging around each correlation — so every strategy
//! reports them.

use crate::case::OptimizationConfig;
use crate::error::ConfigError;
use crate::modeling::{Medium2, State2};
use crate::modeling3::{Medium3, State3};
use crate::rand_boundary::{randomize_medium2, randomize_medium3};
use crate::rtm::{mute_direct, RtmResult};
use exec_host::prof;
use seismic_grid::{Extent2, Field2, Field3};
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

/// A scalar field sampled at interior grid points: a stored snapshot or
/// the pressure-like field of a live state.
pub trait Sampled {
    type Ix: Copy;
    fn at(&self, i: Self::Ix) -> f32;
    /// The sampled values as one halo-inclusive array laid out like the
    /// grid, when the field stores them; `None` when each sample is
    /// derived (the elastic stress mean).
    fn stored(&self) -> Option<&[f32]>;
}

impl Sampled for Field2 {
    type Ix = [usize; 2];
    fn at(&self, [ix, iz]: [usize; 2]) -> f32 {
        self.get(ix, iz)
    }
    fn stored(&self) -> Option<&[f32]> {
        Some(self.as_slice())
    }
}

impl Sampled for State2 {
    type Ix = [usize; 2];
    fn at(&self, [ix, iz]: [usize; 2]) -> f32 {
        self.sample(ix, iz)
    }
    fn stored(&self) -> Option<&[f32]> {
        match self {
            State2::Iso(s) => Some(s.u_cur.as_slice()),
            State2::Acoustic(s) => Some(s.p.as_slice()),
            State2::Vti(s) => Some(s.p_cur.as_slice()),
            State2::Elastic(_) => None,
        }
    }
}

impl Sampled for Field3 {
    type Ix = [usize; 3];
    fn at(&self, [ix, iy, iz]: [usize; 3]) -> f32 {
        self.get(ix, iy, iz)
    }
    fn stored(&self) -> Option<&[f32]> {
        Some(self.as_slice())
    }
}

impl Sampled for State3 {
    type Ix = [usize; 3];
    fn at(&self, [ix, iy, iz]: [usize; 3]) -> f32 {
        self.sample(ix, iy, iz)
    }
    fn stored(&self) -> Option<&[f32]> {
        match self {
            State3::Iso(s) => Some(s.u_cur.as_slice()),
            State3::Acoustic(s) => Some(s.p.as_slice()),
            State3::Elastic(_) => None,
        }
    }
}

/// The imaging condition over stored fields, one interior row at a time:
/// `image += src·rcv` (and `illum += src²`) over the `nx` points from each
/// flat index in `rows`. Row slices let the compiler vectorise the loop;
/// each point's sums are those of the per-point form.
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
    type Field: Sampled<Ix = Self::Ix>;

    fn new(medium: &Self::Medium) -> Self;
    /// A zeroed image/snapshot field over the medium's grid.
    fn zeros(medium: &Self::Medium) -> Self::Field;
    fn dt(medium: &Self::Medium) -> f32;
    fn step(&mut self, medium: &Self::Medium, config: &OptimizationConfig, gangs: usize);
    fn step_reverse(&mut self, medium: &Self::Medium, config: &OptimizationConfig, gangs: usize);
    fn copy_from(&mut self, other: &Self);
    /// The grid index of an `[x, y, z]` shot point.
    fn point(p: [usize; 3]) -> Self::Ix;
    fn inject_at(&mut self, medium: &Self::Medium, i: Self::Ix, amp: f32);
    fn snapshot(&self, out: &mut Self::Field);
    /// A zeroed movie frame: the x–z plane modeling saves.
    fn frame(medium: &Self::Medium) -> Field2;
    /// Write the frame: the whole field in 2D, the source's y plane in 3D.
    fn write_frame(&self, acq: &Self::Acq, out: &mut Field2);
    /// The imaging condition over the interior: `image += src·self`, and
    /// `illum += src²` when an illumination field is given.
    fn correlate(
        &self,
        src: &impl Sampled<Ix = Self::Ix>,
        image: &mut Self::Field,
        illum: Option<&mut Self::Field>,
    );
    /// Direct-wave mute inputs: grid spacing, velocity at the source, dt.
    fn direct_wave(medium: &Self::Medium, acq: &Self::Acq) -> (f32, f32, f32);

    fn inject_source(&mut self, medium: &Self::Medium, acq: &Self::Acq, amp: f32) {
        self.inject_at(medium, Self::point(acq.source()), amp);
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
            self.inject_at(medium, Self::point(p), seis.get(r, t));
        }
    }

    /// Record sample `t` of every trace from its receiver.
    fn record(&self, acq: &Self::Acq, seis: &mut Seismogram, t: usize) {
        for (r, p) in acq.receiver_points().enumerate() {
            seis.record(r, t, self.at(Self::point(p)));
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

    fn point([x, _, z]: [usize; 3]) -> [usize; 2] {
        [x, z]
    }

    fn inject_at(&mut self, medium: &Medium2, [ix, iz]: [usize; 2], amp: f32) {
        self.inject(medium, ix, iz, amp)
    }

    fn snapshot(&self, out: &mut Field2) {
        self.write_wavefield_into(out)
    }

    fn frame(medium: &Medium2) -> Field2 {
        Field2::zeros(medium.extent())
    }

    fn write_frame(&self, _acq: &Acquisition2, out: &mut Field2) {
        self.write_wavefield_into(out)
    }

    fn correlate(
        &self,
        src: &impl Sampled<Ix = [usize; 2]>,
        image: &mut Field2,
        mut illum: Option<&mut Field2>,
    ) {
        let e = image.extent();
        if let (Some(s), Some(r)) = (src.stored(), self.stored()) {
            let rows = (0..e.nz).map(|iz| e.idx(0, iz));
            let illum = illum.map(Field2::as_mut_slice);
            return correlate_rows([s, r], image.as_mut_slice(), illum, rows, e.nx);
        }
        for iz in 0..e.nz {
            for ix in 0..e.nx {
                let s = src.at([ix, iz]);
                image.set(ix, iz, image.get(ix, iz) + s * self.sample(ix, iz));
                if let Some(il) = illum.as_deref_mut() {
                    il.set(ix, iz, il.get(ix, iz) + s * s);
                }
            }
        }
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

    fn point(p: [usize; 3]) -> [usize; 3] {
        p
    }

    fn inject_at(&mut self, medium: &Medium3, [ix, iy, iz]: [usize; 3], amp: f32) {
        self.inject(medium, ix, iy, iz, amp)
    }

    fn snapshot(&self, out: &mut Field3) {
        self.write_wavefield_into(out)
    }

    fn frame(medium: &Medium3) -> Field2 {
        let e = medium.extent();
        Field2::zeros(Extent2::new(e.nx, e.nz, e.halo))
    }

    fn write_frame(&self, acq: &Acquisition3, out: &mut Field2) {
        self.write_slice_y_into(acq.src_iy, out)
    }

    fn correlate(
        &self,
        src: &impl Sampled<Ix = [usize; 3]>,
        image: &mut Field3,
        mut illum: Option<&mut Field3>,
    ) {
        let e = image.extent();
        if let (Some(s), Some(r)) = (src.stored(), self.stored()) {
            let rows = (0..e.nz).flat_map(|iz| (0..e.ny).map(move |iy| e.idx(0, iy, iz)));
            let illum = illum.map(Field3::as_mut_slice);
            return correlate_rows([s, r], image.as_mut_slice(), illum, rows, e.nx);
        }
        for iz in 0..e.nz {
            for iy in 0..e.ny {
                for ix in 0..e.nx {
                    let s = src.at([ix, iy, iz]);
                    let v = image.get(ix, iy, iz) + s * self.sample(ix, iy, iz);
                    image.set(ix, iy, iz, v);
                    if let Some(il) = illum.as_deref_mut() {
                        il.set(ix, iy, iz, il.get(ix, iy, iz) + s * s);
                    }
                }
            }
        }
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
    /// Correlate source snapshot `k` (step `k · snap_period`) with `rcv`.
    fn image(&self, k: usize, rcv: &W, image: &mut W::Field, illum: Option<&mut W::Field>);
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
                phase(prof::PHASE_IMAGING, || {
                    let k = t / shot.snap_period;
                    src.image(k, &rstate, &mut image, illum.as_deref_mut())
                });
            }
            rstate.step(shot.medium, shot.config, shot.gangs);
            rstate.inject_receivers(shot.medium, shot.acq, seis, t);
        }
    });
    image
}

/// Dense source field: the snapshots the forward phase stored.
pub(crate) struct Stored<'a, F>(pub &'a [F]);

impl<W: Wave> SourceField<W> for Stored<'_, W::Field> {
    fn seek(&mut self, _t: usize) {}

    fn image(&self, k: usize, rcv: &W, image: &mut W::Field, illum: Option<&mut W::Field>) {
        if let Some(s) = self.0.get(k) {
            rcv.correlate(s, image, illum);
        }
    }
}

/// Checkpointed source field: the forward pass keeps only the pre-step
/// states at `checkpoints`; the backward loop replays one segment at a
/// time from its checkpoint into a reused snapshot buffer. The propagator
/// is bitwise deterministic, so the replayed snapshots equal the dense ones.
pub(crate) struct Replay<'a, W: Wave> {
    shot: Shot<'a, W>,
    wavelet: &'a Wavelet,
    checkpoints: Vec<usize>,
    stored: Vec<W>,
    state: W,
    /// Snapshots of the replayed segment, `snaps[k - first]` for index `k`.
    snaps: Vec<W::Field>,
    first: usize,
    /// First step of the replayed segment (`steps` before any replay).
    seg_start: usize,
}

impl<'a, W: Wave> Replay<'a, W> {
    /// Run the forward pass, storing the state before each checkpoint step
    /// (`checkpoints` sorted, starting at 0).
    pub fn new(shot: Shot<'a, W>, wavelet: &'a Wavelet, checkpoints: Vec<usize>) -> Self {
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
            snaps: Vec::new(),
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
                    if n == snaps.len() {
                        snaps.push(W::zeros(shot.medium));
                    }
                    s.snapshot(&mut snaps[n]);
                    n += 1;
                }
            },
        );
        self.seg_start = start;
    }

    fn image(&self, k: usize, rcv: &W, image: &mut W::Field, illum: Option<&mut W::Field>) {
        rcv.correlate(&self.snaps[k - self.first], image, illum);
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

    fn image(&self, _k: usize, rcv: &W, image: &mut W::Field, illum: Option<&mut W::Field>) {
        rcv.correlate(&self.state, image, illum);
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
    let mut snaps: Vec<W::Field> = (0..n_snaps).map(|_| W::zeros(shot.medium)).collect();
    let seis = record(shot, wavelet, restart, |k, s| {
        if let Some(f) = snaps.get_mut(k) {
            s.snapshot(f)
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
        None => backward(shot, &seismogram, &mut Stored(&snaps), None),
    };
    RtmResult {
        image,
        seismogram,
        snapshots_saved: n_snaps,
    }
}
