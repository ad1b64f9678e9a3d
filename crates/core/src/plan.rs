//! Per-time-step kernel launch schedules, and the one directive schedule
//! of each driver.
//!
//! A *plan* is what the OpenACC port of a propagator looks like to the
//! device: an ordered list of phases, each a set of kernels that are
//! mutually independent (the elastic model's velocity kernels, say) and can
//! go on async streams, with an implicit wait between phases.
//!
//! [`walk`] is the only place the drivers' directive sequence (Algorithm 1
//! of the paper) is written down: the `enter data`/`exit data` phasing, the
//! branch that issues `update host` only every `snap_period` steps, the
//! extra host–device updates the isotropic case needs, and the
//! random-boundary lockstep backward pass. It emits a stream of
//! [`Directive`]s; the production-scale timing estimator
//! ([`crate::gpu_time::price`]) and the verifier
//! ([`crate::verify::program`]) are two replays of that stream, so the
//! priced tables and the verified programs cannot drift apart. The one
//! directive only one of them acts on is [`Directive::QcNorm`]: the QC
//! energy norm is declared for the verifier, and no driver or pricer
//! computes it.

use crate::case::{ImagePlacement, OptimizationConfig, SeismicCase, Workload};
use openacc_sim::{Clause, Compiler, ConstructKind, LoopNest, LoopSched};
use seismic_grid::STENCIL_HALF;
use seismic_model::footprint::{self, Dims, Formulation};
use seismic_prop::desc::{self, KernelDesc};
use seismic_prop::{IsoPmlVariant, TransposeVariant};

/// One kernel launch: descriptor + loop nest + directives.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// Arithmetic descriptor.
    pub desc: KernelDesc,
    /// Iteration space.
    pub nest: LoopNest,
    /// Compute construct.
    pub kind: ConstructKind,
    /// Clauses on the construct.
    pub clauses: Vec<Clause>,
}

/// A group of independent launches (async candidates); groups execute in
/// order with a wait between them.
pub type Phase = Vec<LaunchSpec>;

/// Width of the absorbing strips assumed by the plan's point counts.
pub const PML_WIDTH: usize = 20;

/// The construct and base clauses each compiler performs best with
/// (Section 5.2): PGI wants `kernels` + `independent`; CRAY wants
/// `parallel` with explicit gang/worker/vector scheduling.
pub fn preferred_construct(compiler: Compiler, depth: usize) -> (ConstructKind, Vec<LoopSched>) {
    match compiler {
        Compiler::Pgi(_) => (ConstructKind::Kernels, vec![LoopSched::Auto; depth]),
        Compiler::Cray => {
            let mut sched = vec![LoopSched::Gang; 1];
            if depth >= 3 {
                sched.push(LoopSched::Worker);
            }
            while sched.len() + 1 < depth {
                sched.push(LoopSched::Auto);
            }
            sched.push(LoopSched::Vector(128));
            (ConstructKind::Parallel, sched)
        }
    }
}

fn nest_for(case: &SeismicCase, w: &Workload, points_scale: f64) -> LoopNest {
    let sizes: Vec<u64> = match case.dims {
        Dims::Two => vec![((w.nz as f64 * points_scale) as u64).max(1), w.nx as u64],
        Dims::Three => vec![
            ((w.nz as f64 * points_scale) as u64).max(1),
            w.ny as u64,
            w.nx as u64,
        ],
    };
    LoopNest::new(&sizes)
}

fn spec(
    case: &SeismicCase,
    w: &Workload,
    compiler: Compiler,
    config: &OptimizationConfig,
    d: KernelDesc,
    points_scale: f64,
    stream: Option<u32>,
) -> LaunchSpec {
    let mut nest = nest_for(case, w, points_scale);
    let (kind, sched) = preferred_construct(compiler, nest.depth());
    nest = nest.with_sched(&sched);
    if !d.coalesced {
        // The direct acoustic-2D backward kernel sweeps the strided axis
        // innermost and the compiler must assume the inner dependence.
        nest = nest.strided().with_dependence();
    }
    let mut clauses = Vec::new();
    if matches!(compiler, Compiler::Pgi(_)) && d.coalesced {
        clauses.push(Clause::Independent);
        if nest.depth() >= 3 {
            // "Our 3D loop nest case led to the collapsing of the 2
            // innermost loops to generate a 2D grid."
            clauses.push(Clause::Collapse(2));
        }
    }
    if let Some(m) = config.maxregcount {
        clauses.push(Clause::MaxRegCount(m));
    }
    if let Some(q) = stream {
        clauses.push(Clause::Async(q));
    }
    LaunchSpec {
        desc: d,
        nest,
        kind,
        clauses,
    }
}

/// Fraction of the domain inside the absorbing strips (boundary kernels of
/// the restructured isotropic variant cover only this share of points).
pub fn pml_fraction(case: &SeismicCase, w: &Workload) -> f64 {
    let fx = 1.0 - 2.0 * PML_WIDTH as f64 / w.nx as f64;
    let fz = 1.0 - 2.0 * PML_WIDTH as f64 / w.nz as f64;
    let interior = match case.dims {
        Dims::Two => fx.max(0.0) * fz.max(0.0),
        Dims::Three => {
            let fy = 1.0 - 2.0 * PML_WIDTH as f64 / w.ny as f64;
            fx.max(0.0) * fy.max(0.0) * fz.max(0.0)
        }
    };
    1.0 - interior
}

/// The per-time-step launch phases of a propagator under a configuration.
pub fn step_phases(
    case: &SeismicCase,
    config: &OptimizationConfig,
    w: &Workload,
    compiler: Compiler,
) -> Vec<Phase> {
    // Async streams apply where kernels within a phase are independent —
    // the elastic model in the paper's study.
    let use_async = config.async_streams && case.formulation == Formulation::Elastic;
    let stream = |i: usize| use_async.then_some(i as u32);

    match (case.formulation, case.dims) {
        (Formulation::Isotropic, dims) => {
            let descs = match dims {
                Dims::Two => desc::iso2d(config.iso_pml),
                Dims::Three => desc::iso3d(config.iso_pml),
            };
            let phase: Phase = match config.iso_pml {
                IsoPmlVariant::RestructuredIndices => {
                    let pml_frac = pml_fraction(case, w);
                    descs
                        .into_iter()
                        .enumerate()
                        .map(|(i, d)| {
                            let scale = if i == 0 { 1.0 - pml_frac } else { pml_frac };
                            spec(case, w, compiler, config, d, scale, None)
                        })
                        .collect()
                }
                _ => descs
                    .into_iter()
                    .map(|d| spec(case, w, compiler, config, d, 1.0, None))
                    .collect(),
            };
            vec![phase]
        }
        (Formulation::Acoustic, Dims::Two) => {
            let descs = desc::acoustic2d(config.transpose);
            match config.transpose {
                TransposeVariant::Direct => {
                    // velocity kernel phase, then pressure kernel phase.
                    descs
                        .into_iter()
                        .map(|d| vec![spec(case, w, compiler, config, d, 1.0, None)])
                        .collect()
                }
                TransposeVariant::Transposed => {
                    // transpose-in; velocity; pressure; transpose-out.
                    descs
                        .into_iter()
                        .map(|d| vec![spec(case, w, compiler, config, d, 1.0, None)])
                        .collect()
                }
            }
        }
        (Formulation::Acoustic, Dims::Three) => {
            let descs = desc::acoustic3d(config.fission);
            let mut phases: Vec<Phase> = Vec::new();
            // First desc is the velocity kernel, the rest are the pressure
            // kernel(s); fissioned pressure kernels are independent of one
            // another only through ψ, so they stay sequential phases.
            for d in descs {
                phases.push(vec![spec(case, w, compiler, config, d, 1.0, None)]);
            }
            phases
        }
        (Formulation::Elastic, dims) => {
            let descs = match dims {
                Dims::Two => desc::elastic2d(),
                Dims::Three => desc::elastic3d(),
            };
            let n_vel = match dims {
                Dims::Two => 2,
                Dims::Three => 3,
            };
            let (vel, stress) = descs.split_at(n_vel);
            let vel_phase: Phase = vel
                .iter()
                .enumerate()
                .map(|(i, d)| spec(case, w, compiler, config, d.clone(), 1.0, stream(i)))
                .collect();
            let stress_phase: Phase = stress
                .iter()
                .enumerate()
                .map(|(i, d)| spec(case, w, compiler, config, d.clone(), 1.0, stream(i)))
                .collect();
            vec![vel_phase, stress_phase]
        }
    }
}

/// Source injection: a single-point kernel (the 0.04 %-utilization kernel
/// of Figure 14).
pub fn source_injection(
    case: &SeismicCase,
    compiler: Compiler,
    config: &OptimizationConfig,
) -> LaunchSpec {
    let d = KernelDesc {
        name: "source_injection",
        flops: 8.0,
        reads: 2.0,
        writes: 1.0,
        regs: 16,
        coalesced: true,
        divergence: 0.0,
    };
    let w1 = Workload {
        nx: 1,
        ny: 1,
        nz: 1,
        steps: 0,
        snap_period: 1,
        n_receivers: 0,
    };
    spec(case, &w1, compiler, config, d, 1.0, None)
}

/// Receiver injection: either one inlined kernel over all receivers (the
/// CRAY-compiled version; 26 % utilization in Figure 14) or one launch per
/// receiver (what PGI's failed inlining produced —
/// `#receivers × #timesteps` launches, Section 6.2).
pub fn receiver_injection(
    case: &SeismicCase,
    compiler: Compiler,
    config: &OptimizationConfig,
    n_receivers: usize,
) -> Vec<LaunchSpec> {
    let d = KernelDesc {
        name: "receiver_injection",
        flops: 10.0,
        reads: 3.0,
        writes: 1.0,
        regs: 18,
        coalesced: false, // receivers scatter across the grid
        divergence: 0.0,
    };
    let w = Workload {
        nx: n_receivers.max(1),
        ny: 1,
        nz: 1,
        steps: 0,
        snap_period: 1,
        n_receivers,
    };
    let case1 = SeismicCase {
        dims: Dims::Two,
        ..*case
    };
    let inlined = config.inline_receiver_injection && matches!(compiler, Compiler::Cray);
    let mut s = spec(
        &case1,
        &w,
        compiler,
        config,
        d,
        1.0 / n_receivers.max(1) as f64,
        None,
    );
    if inlined {
        // CRAY's successful inlining produces one clean kernel over all
        // receivers (26 % utilization in Figure 14); accesses still scatter
        // (the desc stays uncoalesced) but the loop parallelises.
        s.nest.innermost_dependence = false;
    } else {
        // PGI "could not" inline the receiver routine: the loop over
        // receivers stays sequential inside one kernel (and the paper notes
        // the unresolved "loop carried dependencies between the different
        // receivers" hurt especially the 2D cases).
        s.nest = s.nest.with_dependence();
        s.clauses.retain(|c| !matches!(c, Clause::Independent));
    }
    vec![s]
}

/// The imaging-condition kernel (cross-correlation accumulate): low
/// intensity, ~1.9 % utilization in Figure 15.
pub fn imaging_kernel(
    case: &SeismicCase,
    compiler: Compiler,
    config: &OptimizationConfig,
    w: &Workload,
) -> LaunchSpec {
    let d = KernelDesc {
        name: "imaging_condition",
        flops: 2.0,
        reads: 3.0,
        writes: 1.0,
        regs: 12,
        coalesced: true,
        divergence: 0.0,
    };
    spec(case, w, compiler, config, d, 1.0, None)
}

/// Which driver's directive schedule [`walk`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Job {
    /// Reverse time migration (forward + backward + imaging).
    Rtm,
    /// Forward modeling only.
    Modeling,
    /// Random-boundary RTM: remodeling-based source reconstruction —
    /// roughly 2× the source compute of [`Job::Rtm`]'s forward pass in
    /// exchange for zero checkpoint I/O.
    RtmRandomBoundary,
}

/// What a kernel launch does in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Kernel `index` of the step's stencil phase `phase` (indices into
    /// [`step_phases`]).
    Stencil {
        /// Phase index.
        phase: usize,
        /// Kernel index within the phase.
        index: usize,
    },
    /// Source injection.
    Source,
    /// Receiver injection.
    Receiver,
    /// The imaging condition: correlates the source wavefield held in the
    /// named region with the receiver field of the launch's region.
    Imaging(&'static str),
}

/// One element of a driver's directive schedule. A `&'static str` is a
/// region: a named device data block of the `enter data`/`exit data`
/// phasing; a `u64` is the bytes the directive maps or moves.
#[derive(Debug, Clone, Copy)]
pub enum Directive<'a> {
    /// `enter data copyin` of a region.
    EnterData(&'static str, u64),
    /// `exit data delete` of a region.
    ExitData(&'static str),
    /// One kernel launch on a region's fields.
    Launch(&'a LaunchSpec, &'static str, Role),
    /// `wait` after a phase with async launches.
    Wait,
    /// The per-step QC energy norm over a region's newest wavefield. It is
    /// declared for the verifier only: no driver or pricer computes it.
    QcNorm(&'static str),
    /// Snapshot save: `update host` of the wavefield, which the host reads.
    SnapshotSave(&'static str, u64),
    /// A snapshot step of random-boundary RTM, which moves nothing: the
    /// wavefield bytes the checkpointed driver would have saved.
    SnapshotAvoided(u64),
    /// Snapshot restore: the host stages the saved wavefield, then
    /// `update device`.
    SnapshotRestore(&'static str, u64),
    /// Isotropic consistency refresh: `update host`, a host write, and
    /// `update device` of part of the wavefield.
    IsoRefresh(&'static str, u64),
    /// Imaging on the host: `update host` of the receiver wavefield, then
    /// the cross-correlation over the grid in host time.
    HostImaging(&'static str, u64),
    /// Final image store: `update host` of the image, which the host reads.
    ImageStore(&'static str, u64),
    /// Begin of a named phase (`forward`, `backward`, `imaging`,
    /// `remodel_forward`, `remodel_backward`).
    Begin(&'static str),
    /// End of the innermost open phase.
    End(&'static str),
}

/// Emit one time step's stencil phases on `region`: every launch of a
/// phase, then a [`Directive::Wait`] if any of them went on an async queue.
pub(crate) fn emit_step<'a, E>(
    phases: &'a [Phase],
    region: &'static str,
    emit: &mut impl FnMut(Directive<'a>) -> Result<(), E>,
) -> Result<(), E> {
    for (phase, launches) in phases.iter().enumerate() {
        for (index, spec) in launches.iter().enumerate() {
            emit(Directive::Launch(
                spec,
                region,
                Role::Stencil { phase, index },
            ))?;
        }
        let is_async = |s: &LaunchSpec| s.clauses.iter().any(|c| matches!(c, Clause::Async(_)));
        if launches.iter().any(is_async) {
            emit(Directive::Wait)?;
        }
    }
    Ok(())
}

/// Emit the whole directive schedule of `job` on `case`, stopping at the
/// first error `emit` returns.
///
/// Modeling maps one `fields` region and saves a snapshot every
/// `snap_period` steps. RTM runs the same forward pass on `forward`, then
/// swaps it for the saved `forward_wavefield` and the `backward` set
/// (receiver field + image), restoring a snapshot and imaging every
/// `snap_period` steps. Random-boundary RTM saves nothing: its backward
/// pass re-runs the source phases in lockstep on the co-resident `source`
/// set and images straight off it.
pub fn walk<E>(
    job: Job,
    case: &SeismicCase,
    config: &OptimizationConfig,
    compiler: Compiler,
    w: &Workload,
    mut emit: impl FnMut(Directive<'_>) -> Result<(), E>,
) -> Result<(), E> {
    use Directive::*;
    let phases = step_phases(case, config, w, compiler);
    let src = source_injection(case, compiler, config);
    let rcv = receiver_injection(case, compiler, config, w.n_receivers);
    let img = imaging_kernel(case, compiler, config, w);
    let alloc = w.alloc_points(STENCIL_HALF);
    let fields = footprint::modeling_bytes(case.formulation, case.dims, alloc as usize);
    let wavefield = alloc * 4;
    // The isotropic formulation "requires many host-GPU updates within the
    // (enter data/exit data) region to keep the variables consistent".
    let iso_refresh = case.formulation == Formulation::Isotropic && job != Job::Modeling;
    let (source, forward, backward) = match job {
        Job::Modeling => ("fields", "forward", ""),
        Job::Rtm => ("forward", "forward", "backward"),
        Job::RtmRandomBoundary => ("source", "remodel_forward", "remodel_backward"),
    };

    // Forward pass on the source field set.
    emit(EnterData(source, fields))?;
    emit(Begin(forward))?;
    for step in 0..w.steps {
        emit_step(&phases, source, &mut emit)?;
        emit(Launch(&src, source, Role::Source))?;
        emit(QcNorm(source))?;
        // "A branch condition was needed to ensure that the host snapshot
        // data will not be updated at each time step."
        if step % w.snap_period == 0 {
            emit(match job {
                Job::RtmRandomBoundary => SnapshotAvoided(wavefield),
                _ => SnapshotSave(source, wavefield),
            })?;
        }
        if iso_refresh {
            emit(IsoRefresh(source, wavefield / 8))?;
        }
    }
    emit(End(forward))?;
    if job == Job::Modeling {
        return emit(ExitData(source));
    }

    // Checkpointed RTM offloads the forward scratch but keeps its saved
    // wavefield; then the receiver/imaging set (a modeling-sized field set
    // plus the accumulating image) is uploaded. This phased peak, rather
    // than forward and backward co-resident, is what the paper's enter/exit
    // data restructuring buys. Random-boundary RTM keeps both sets.
    let image_source = match job {
        Job::Rtm => "forward_wavefield",
        _ => source,
    };
    if job == Job::Rtm {
        emit(ExitData(source))?;
        emit(EnterData(image_source, wavefield))?;
    }
    emit(EnterData("backward", fields + wavefield))?;

    // Backward pass: imaging every `snap_period` steps, then the receiver
    // step (after the source reconstruction step, for random boundaries).
    emit(Begin(backward))?;
    for step in 0..w.steps {
        if step % w.snap_period == 0 {
            if job == Job::Rtm {
                emit(SnapshotRestore(image_source, wavefield))?;
            }
            emit(Begin("imaging"))?;
            emit(match config.image_placement {
                ImagePlacement::Gpu => Launch(&img, "backward", Role::Imaging(image_source)),
                ImagePlacement::Cpu => HostImaging("backward", wavefield),
            })?;
            emit(End("imaging"))?;
        }
        if job == Job::RtmRandomBoundary {
            emit_step(&phases, source, &mut emit)?;
            emit(Launch(&src, source, Role::Source))?;
        }
        emit_step(&phases, "backward", &mut emit)?;
        for spec in &rcv {
            emit(Launch(spec, "backward", Role::Receiver))?;
        }
        emit(QcNorm("backward"))?;
        if iso_refresh {
            emit(IsoRefresh("backward", wavefield / 8))?;
        }
    }
    emit(End(backward))?;

    // Store the image and free the device.
    emit(ImageStore("backward", w.points() * 4))?;
    emit(ExitData("backward"))?;
    emit(ExitData(image_source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Cluster;
    use openacc_sim::PgiVersion;
    use seismic_prop::FissionVariant;

    fn w2() -> Workload {
        Workload {
            nx: 1000,
            ny: 1,
            nz: 1000,
            steps: 100,
            snap_period: 10,
            n_receivers: 200,
        }
    }

    fn w3() -> Workload {
        Workload {
            nx: 200,
            ny: 200,
            nz: 200,
            steps: 100,
            snap_period: 10,
            n_receivers: 400,
        }
    }

    fn cfg() -> OptimizationConfig {
        OptimizationConfig::default()
    }

    #[test]
    fn construct_preference_by_compiler() {
        let (k, _) = preferred_construct(Compiler::Pgi(PgiVersion::V14_6), 3);
        assert_eq!(k, ConstructKind::Kernels);
        let (k, sched) = preferred_construct(Compiler::Cray, 3);
        assert_eq!(k, ConstructKind::Parallel);
        assert!(matches!(sched.last(), Some(LoopSched::Vector(_))));
        assert_eq!(sched.len(), 3);
        let (_, s2) = preferred_construct(Compiler::Cray, 2);
        assert_eq!(s2.len(), 2);
    }

    #[test]
    fn elastic_gets_async_streams() {
        let case = SeismicCase {
            formulation: Formulation::Elastic,
            dims: Dims::Three,
        };
        let phases = step_phases(&case, &cfg(), &w3(), Compiler::Cray);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].len(), 3); // vx, vy, vz
        assert_eq!(phases[1].len(), 3); // stress groups
        assert!(phases[0]
            .iter()
            .all(|s| s.clauses.iter().any(|c| matches!(c, Clause::Async(_)))));
        // Acoustic never gets async.
        let ac = SeismicCase {
            formulation: Formulation::Acoustic,
            dims: Dims::Three,
        };
        let ap = step_phases(&ac, &cfg(), &w3(), Compiler::Cray);
        assert!(ap
            .iter()
            .flatten()
            .all(|s| !s.clauses.iter().any(|c| matches!(c, Clause::Async(_)))));
    }

    #[test]
    fn restructured_iso_splits_points() {
        let case = SeismicCase {
            formulation: Formulation::Isotropic,
            dims: Dims::Two,
        };
        let phases = step_phases(&case, &cfg(), &w2(), Compiler::Pgi(PgiVersion::V14_3));
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].len(), 2);
        let total: u64 = phases[0].iter().map(|s| s.nest.points()).sum();
        let full = w2().points();
        // Interior + strip points ≈ the full domain (within row rounding).
        let rel = (total as f64 - full as f64).abs() / (full as f64);
        assert!(rel < 0.05, "rel {rel}");
        // Strip kernel is the smaller one.
        assert!(phases[0][1].nest.points() < phases[0][0].nest.points());
    }

    #[test]
    fn fission_changes_kernel_count() {
        let case = SeismicCase {
            formulation: Formulation::Acoustic,
            dims: Dims::Three,
        };
        let fused = step_phases(
            &case,
            &OptimizationConfig {
                fission: FissionVariant::Fused,
                ..cfg()
            },
            &w3(),
            Compiler::Cray,
        );
        let fiss = step_phases(&case, &cfg(), &w3(), Compiler::Cray);
        assert_eq!(fused.iter().flatten().count(), 2);
        assert_eq!(fiss.iter().flatten().count(), 4);
    }

    #[test]
    fn receiver_injection_inlining() {
        let case = SeismicCase {
            formulation: Formulation::Acoustic,
            dims: Dims::Two,
        };
        let inl = receiver_injection(&case, Compiler::Cray, &cfg(), 200);
        assert_eq!(inl.len(), 1);
        assert_eq!(inl[0].nest.points(), 200);
        assert!(!inl[0].nest.innermost_dependence, "CRAY inlines cleanly");
        // PGI "could not" inline: the receiver loop stays sequential
        // inside its kernel (the unresolved loop-carried dependence).
        let per = receiver_injection(&case, Compiler::Pgi(PgiVersion::V14_6), &cfg(), 200);
        assert_eq!(per.len(), 1);
        assert!(per[0].nest.innermost_dependence);
        let _ = Cluster::Ibm;
    }

    #[test]
    fn pml_fraction_reasonable() {
        let case2 = SeismicCase {
            formulation: Formulation::Isotropic,
            dims: Dims::Two,
        };
        let f = pml_fraction(&case2, &w2());
        assert!(f > 0.05 && f < 0.2, "f = {f}");
        let case3 = SeismicCase {
            formulation: Formulation::Isotropic,
            dims: Dims::Three,
        };
        let f3 = pml_fraction(&case3, &w3());
        assert!(f3 > f, "3D has relatively more boundary");
    }

    #[test]
    fn direct_transpose_variant_is_strided_and_dependent() {
        let case = SeismicCase {
            formulation: Formulation::Acoustic,
            dims: Dims::Two,
        };
        let direct = step_phases(
            &case,
            &OptimizationConfig {
                transpose: TransposeVariant::Direct,
                ..cfg()
            },
            &w2(),
            Compiler::Cray,
        );
        assert!(direct
            .iter()
            .flatten()
            .all(|s| s.nest.innermost_dependence && !s.nest.innermost_contiguous));
        let trans = step_phases(&case, &cfg(), &w2(), Compiler::Cray);
        assert_eq!(trans.len(), 4); // in, vel, prs, out
        assert!(trans.iter().flatten().all(|s| !s.nest.innermost_dependence));
    }
}
