//! The per-layer ladder of the traced run: timed calls into each layer's
//! public functions, from outside the program, on the seeded inputs of
//! both workloads and of the simulated paper pipeline. Each rung's comment
//! names the end-to-end metric and workload it should move (README.md has
//! the table).

use crate::paper::Paper;
use crate::rtm3d::Shot3;
use crate::stats::{median, quantile, timed};
use crate::survey::{self, Survey};
use crate::{rtm3d, Metric};
use acc_obs::wallclock::HostReport;
use accel_sim::EventKind;
use exec_host::prof;
use openacc_sim::exec::par_slabs;
use repro::accprof::{profile, DeviceChoice};
use repro::cases::table_workload;
use repro::serve::smoke_violations;
use rtm_core::case::SeismicCase;
use rtm_core::gpu_time::{modeling_time, rtm_time, GpuRun};
use rtm_core::modeling::{run_modeling, State2};
use rtm_core::modeling3::{run_modeling3, Medium3, State3};
use rtm_core::rand_boundary::{migrate_random_boundary3, randomize_medium3};
use rtm_core::rtm::migrate_shot;
use seismic_grid::Field2;
use seismic_source::{Acquisition2, Seismogram};
use serde_json::Map;

/// Bytes an isotropic leapfrog step moves per grid point, computed from
/// the array sizes (read `u`, `u⁻`, `vp`; write `u⁺`; f32), ignoring
/// stencil-neighbour cache misses.
const ISO_BYTES_PER_POINT: f64 = 16.0;

/// Per-step wall times of forward propagation (step, then source
/// injection) of the survey's first `shots` shots.
fn steps2(s: &Survey, gangs: usize, shots: usize) -> Vec<f64> {
    let dt = s.medium.dt();
    let mut out = Vec::with_capacity(shots * s.size.steps);
    for acq in s.shots.iter().take(shots) {
        let mut st = State2::new(&s.medium);
        for t in 0..s.size.steps {
            out.push(timed(|| st.step(&s.medium, &s.cfg, gangs)).1);
            st.inject(
                &s.medium,
                acq.src_ix,
                acq.src_iz,
                s.wavelet.sample(t as f32 * dt),
            );
        }
    }
    out
}

/// Per-step wall times of the shot's forward propagation through
/// `medium`; with `reverse`, also those of the reconstruction walking the
/// same trajectory back (the medium must be the lossless randomized one).
fn steps3(shot: &Shot3, medium: &Medium3, gangs: usize, reverse: bool) -> (Vec<f64>, Vec<f64>) {
    let (acq, w, dt) = (&shot.acq, &shot.wavelet, medium.dt());
    let mut st = State3::new(medium);
    let (mut fwd, mut rev) = (Vec::with_capacity(shot.size.steps), Vec::new());
    for t in 0..shot.size.steps {
        fwd.push(timed(|| st.step(medium, &shot.cfg, gangs)).1);
        st.inject(
            medium,
            acq.src_ix,
            acq.src_iy,
            acq.src_iz,
            w.sample(t as f32 * dt),
        );
    }
    if reverse {
        for t in (0..shot.size.steps).rev() {
            st.inject(
                medium,
                acq.src_ix,
                acq.src_iy,
                acq.src_iz,
                -w.sample(t as f32 * dt),
            );
            rev.push(timed(|| st.step_reverse(medium, &shot.cfg, gangs)).1);
        }
    }
    (fwd, rev)
}

/// Per-step wall times of the survey's receiver pass for `acq`: the
/// recorded traces injected backward in time, as `migrate_shot` does,
/// without its imaging.
fn receiver_steps2(s: &Survey, acq: &Acquisition2, seis: &Seismogram, gangs: usize) -> Vec<f64> {
    let mut st = State2::new(&s.medium);
    (0..s.size.steps)
        .rev()
        .map(|t| {
            let d = timed(|| st.step(&s.medium, &s.cfg, gangs)).1;
            for (r, rcv) in acq.receivers.iter().enumerate() {
                st.inject(&s.medium, rcv.ix, rcv.iz, seis.get(r, t));
            }
            d
        })
        .collect()
}

/// Per-step wall times of the shot's receiver pass, as
/// `migrate_random_boundary3` runs it, without its imaging.
fn receiver_steps3(shot: &Shot3, seis: &Seismogram, gangs: usize) -> Vec<f64> {
    let m = &shot.medium;
    let mut st = State3::new(m);
    (0..shot.size.steps)
        .rev()
        .map(|t| {
            let d = timed(|| st.step(m, &shot.cfg, gangs)).1;
            for (r, rcv) in shot.acq.receivers.iter().enumerate() {
                st.inject(m, rcv.ix, rcv.iy, rcv.iz, seis.get(r, t));
            }
            d
        })
        .collect()
}

/// One `survey2d_iso` iteration rebuilt from timed layer calls, in
/// seconds: each shot's forward steps with the snapshot copies
/// `run_modeling` makes between them, its receiver pass (`muted` holds
/// each shot's record), and stacking. What it leaves out — imaging, source
/// injection, recording, muting — is the drivers' serial remainder.
pub fn survey_layers_s(s: &Survey, muted: &[Seismogram], gangs: usize) -> f64 {
    let (sz, dt, e) = (s.size, s.medium.dt(), s.medium.extent());
    let mut snaps: Vec<Field2> = (0..sz.steps.div_ceil(sz.snap))
        .map(|_| Field2::zeros(e))
        .collect();
    let mut stack = Field2::zeros(e);
    let mut total = 0.0;
    for (acq, seis) in s.shots.iter().zip(muted) {
        let mut st = State2::new(&s.medium);
        for t in 0..sz.steps {
            total += timed(|| st.step(&s.medium, &s.cfg, gangs)).1;
            st.inject(
                &s.medium,
                acq.src_ix,
                acq.src_iz,
                s.wavelet.sample(t as f32 * dt),
            );
            if t % sz.snap == 0 {
                total += timed(|| st.write_wavefield_into(&mut snaps[t / sz.snap])).1;
            }
        }
        total += receiver_steps2(s, acq, seis, gangs).iter().sum::<f64>();
        total += timed(|| survey::add_into(&mut stack, &snaps[0])).1;
    }
    total
}

/// One `rtm3d_iso_randb` iteration rebuilt from timed layer calls, in
/// seconds: the recording pass, the halo randomization, the source
/// forward and reconstruction passes through the randomized medium, and
/// the receiver pass of the muted record. What it leaves out — imaging,
/// injection, recording, muting — is the driver's serial remainder.
pub fn shot3_layers_s(shot: &Shot3, muted: &Seismogram, gangs: usize) -> f64 {
    let (rec, _) = steps3(shot, &shot.medium, gangs, false);
    let (randomized, rand_s) = timed(|| randomize_medium3(&shot.medium, &shot.spec));
    let (fwd, rev) = steps3(shot, &randomized, gangs, true);
    let rcv = receiver_steps3(shot, muted, gangs);
    rand_s + [rec, fwd, rev, rcv].iter().flatten().sum::<f64>()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// What one run under the host profiler gave.
struct Profiled<R> {
    out: R,
    wall_s: f64,
    /// Seconds inside slab launches (sweep spans).
    sweep_s: f64,
    report: HostReport,
    /// Events lost to full rings or thread-slot overflow.
    dropped: u64,
}

/// Run `f` with the host profiler on (its cost is within the profiler's
/// ≤5% overhead budget).
fn profiled<R>(f: impl FnOnce() -> R) -> Profiled<R> {
    let _ = prof::drain();
    prof::set_enabled(true);
    let (out, wall_s) = timed(f);
    prof::set_enabled(false);
    let p = prof::drain();
    let sweep_ns: u64 = p
        .slots
        .iter()
        .flat_map(|s| &s.events)
        .filter(|e| e.kind == prof::EventKind::Sweep)
        .map(|e| e.dur_ns())
        .sum();
    Profiled {
        out,
        wall_s,
        sweep_s: sweep_ns as f64 * 1e-9,
        report: acc_obs::wallclock::report(&p),
        dropped: p.dropped + p.thread_overflow,
    }
}

fn kernel_launches(run: &GpuRun) -> u64 {
    run.runtime
        .profiler()
        .summary()
        .iter()
        .filter(|(_, s)| s.kind == EventKind::Kernel)
        .map(|(_, s)| s.invocations)
        .sum()
}

/// Run every rung and append its metrics (and rung details to `detail`).
/// `triad_gbs` is the bandwidth ceiling measured in the same run. Returns
/// the failed output checks of the pipeline layers: verification errors,
/// a broken vector gate, serve violations.
pub fn run(
    seed: u64,
    toy: bool,
    gangs: usize,
    triad_gbs: f64,
    out: &mut Vec<Metric>,
    detail: &mut Map,
) -> Vec<String> {
    let reps = if toy { 1 } else { 3 };
    let mut fails = Vec::new();
    let mut push = |name, unit, value, samples| {
        out.push(Metric {
            name,
            unit,
            value,
            samples,
        })
    };

    // Set-up (moves setup_s on both workloads).
    let survey = Survey::new(seed, toy);
    let shot = Shot3::new(seed, toy);
    let paper = Paper::new(seed, toy);
    let model_s: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                (
                    survey::build_medium(survey.size),
                    rtm3d::build_medium(shot.size),
                )
            })
            .1
        })
        .collect();
    push("setup.model_s", "s", median(&model_s), model_s.len());
    let rand_s: Vec<f64> = (0..5)
        .map(|_| timed(|| randomize_medium3(&shot.medium, &shot.spec)).1)
        .collect();
    push("setup.randomize_s", "s", median(&rand_s), rand_s.len());

    // Propagators (move wall_s on the matching workload).
    let pts2 = (survey.size.nx * survey.size.nz) as f64;
    let pts3 = shot.size.n.pow(3) as f64;
    let s2 = steps2(&survey, gangs, survey.shots.len());
    let rate2 = pts2 / mean(&s2);
    push(
        "prop.iso2d.step_gpts_per_s",
        "Gpts/s",
        rate2 / 1e9,
        s2.len(),
    );
    push(
        "prop.iso2d.step_p99_ms",
        "ms",
        1e3 * quantile(&s2, 0.99),
        s2.len(),
    );
    let (f3, _) = steps3(&shot, &shot.medium, gangs, false);
    let rate3 = pts3 / mean(&f3);
    push(
        "prop.iso3d.step_gpts_per_s",
        "Gpts/s",
        rate3 / 1e9,
        f3.len(),
    );
    let (_, r3) = steps3(&shot, &shot.randomized, gangs, true);
    push(
        "prop.iso3d.reverse_gpts_per_s",
        "Gpts/s",
        pts3 / mean(&r3) / 1e9,
        r3.len(),
    );
    let bw = |rate: f64| rate * ISO_BYTES_PER_POINT / (triad_gbs * 1e9);
    push("prop.iso2d.bw_frac", "fraction", bw(rate2), s2.len());
    push("prop.iso3d.bw_frac", "fraction", bw(rate3), f3.len());

    // Host engine: dispatch cost over the survey's row count (moves wall_s
    // on survey2d_iso, barely rtm3d_iso_randb) and scaling over the
    // single-gang baseline (gpts_per_s on both workloads).
    let launches = if toy { 200 } else { 4000 };
    let rows = survey.size.nz;
    let launch_us: Vec<f64> = (0..launches)
        .map(|_| 1e6 * timed(|| par_slabs(rows, gangs, |_z0, _z1| {})).1)
        .collect();
    push("pool.launch_us", "us", median(&launch_us), launch_us.len());
    let one2 = steps2(&survey, 1, 1);
    let (one3, _) = steps3(&shot, &shot.medium, 1, false);
    let many: f64 = s2[..one2.len()].iter().chain(&f3).sum();
    let single: f64 = one2.iter().chain(&one3).sum();
    push(
        "pool.speedup",
        "ratio",
        single / many,
        one2.len() + one3.len(),
    );

    // Dense-snapshot driver, one survey shot under the profiler (moves
    // wall_s, and through the snapshots peak_rss_mb, on survey2d_iso).
    let (sz, acq) = (survey.size, &survey.shots[0]);
    let dense = profiled(|| {
        let (fwd, forward_s) = timed(|| {
            run_modeling(
                &survey.medium,
                acq,
                &survey.wavelet,
                &survey.cfg,
                sz.steps,
                sz.snap,
                gangs,
            )
        });
        let muted = survey.mute(acq, &fwd.seismogram);
        let (_, backward_s) = timed(|| {
            migrate_shot(
                &survey.medium,
                acq,
                &muted,
                &fwd.snapshots,
                &survey.cfg,
                sz.steps,
                sz.snap,
                gangs,
            )
        });
        (fwd.snapshots, forward_s, backward_s)
    });
    let (mut snapshots, forward_s, backward_s) = dense.out;
    push("rtm.forward_s", "s", forward_s, 1);
    push("rtm.backward_s", "s", backward_s, 1);
    let snap_bytes: usize = snapshots.iter().map(|f| 4 * f.as_slice().len()).sum();
    let src_state = {
        let mut st = State2::new(&survey.medium);
        for _ in 0..sz.steps / 2 {
            st.step(&survey.medium, &survey.cfg, gangs);
        }
        st
    };
    let copy_s: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                for f in snapshots.iter_mut() {
                    src_state.write_wavefield_into(f);
                }
            })
            .1
        })
        .collect();
    push(
        "rtm.snapshot_gbs",
        "GB/s",
        snap_bytes as f64 / median(&copy_s) / 1e9,
        copy_s.len(),
    );
    push("rtm.snapshot_bytes", "bytes", snap_bytes as f64, 1);

    // Random-boundary driver, the shot under the profiler: gang metrics
    // and phase times (move wall_s on rtm3d_iso_randb).
    let st = shot.size;
    let randb = profiled(|| {
        let (rec, record_s) = timed(|| {
            run_modeling3(
                &shot.medium,
                &shot.acq,
                &shot.wavelet,
                &shot.cfg,
                st.steps,
                st.steps,
                gangs,
            )
        });
        let a = &shot.acq;
        let muted = shot.mute(&rec.seismogram);
        let (_, migrate_s) = timed(|| {
            migrate_random_boundary3(
                &shot.medium,
                a,
                &muted,
                &shot.wavelet,
                &shot.cfg,
                st.steps,
                st.snap,
                &shot.spec,
                gangs,
            )
        });
        (record_s, migrate_s)
    });
    let host = &randb.report;
    push(
        "pool.barrier_wait_frac",
        "fraction",
        host.barrier_wait_frac,
        host.sweeps as usize,
    );
    push(
        "pool.utilization",
        "fraction",
        host.utilization,
        host.sweeps as usize,
    );
    push(
        "pool.imbalance",
        "ratio",
        host.imbalance,
        host.slabs as usize,
    );
    let (record_s, migrate_s) = randb.out;
    push("randb.record_s", "s", record_s, 1);
    push("randb.migrate_s", "s", migrate_s, 1);
    // Driver time outside slab launches — imaging, injection, recording,
    // snapshot copies, halo randomization — of one shot of each driver
    // (moves wall_s on both workloads).
    let serial = [dense.wall_s - dense.sweep_s, randb.wall_s - randb.sweep_s];
    push("rtm.serial_s", "s", serial[0] + serial[1], serial.len());
    detail.insert("serial_dense_shot_s", serial[0]);
    detail.insert("serial_randb_shot_s", serial[1]);
    detail.insert("host_prof_dropped_events", dense.dropped + randb.dropped);

    // The simulated pipeline's layers: no gated workload runs them, so
    // these rungs are their only record. Pricing first: every case on both
    // devices at table scale.
    let (mut m_ms, mut r_ms) = (Vec::new(), Vec::new());
    let (mut priced_launches, mut priced_s) = (0u64, 0.0f64);
    for _ in 0..reps {
        for case in SeismicCase::all() {
            let w = table_workload(&case);
            for dev in [DeviceChoice::M2090, DeviceChoice::K40] {
                let (c, cl) = (dev.compiler(), dev.cluster());
                let (run, t) = timed(|| modeling_time(&case, &paper.cfg, c, cl, &w));
                if let Ok(run) = run {
                    m_ms.push(1e3 * t);
                    priced_launches += kernel_launches(&run);
                    priced_s += t;
                }
                let (run, t) = timed(|| rtm_time(&case, &paper.cfg, c, cl, &w));
                if let Ok(run) = run {
                    r_ms.push(1e3 * t);
                    priced_launches += kernel_launches(&run);
                    priced_s += t;
                }
            }
        }
    }
    push("price.modeling_ms", "ms", median(&m_ms), m_ms.len());
    push("price.rtm_ms", "ms", median(&r_ms), r_ms.len());
    push(
        "price.launches_per_s",
        "1/s",
        priced_launches as f64 / priced_s,
        m_ms.len() + r_ms.len(),
    );

    // Verification: the 12 programs must verify clean and the vector gate
    // must hold.
    let mut cases_s = Vec::new();
    for _ in 0..reps {
        let (reports, t) = timed(|| repro::verify::verify_all_cases(&paper.cfg));
        cases_s.push(t);
        fails.extend(
            reports
                .iter()
                .filter(|r| r.fails(false))
                .map(|r| format!("verification errors in {}", r.program)),
        );
    }
    push("verify.cases_s", "s", median(&cases_s), cases_s.len());
    let mut vector_s = Vec::new();
    for _ in 0..reps {
        let ((certs, mutations), t) = timed(|| {
            (
                repro::vector::certify_all_cases(&paper.cfg),
                repro::vector::mutation_gate(&paper.cfg),
            )
        });
        vector_s.push(t);
        if !repro::vector::vector_gate(&certs, &mutations) {
            fails.push("vector gate does not hold".into());
        }
    }
    push("verify.vector_s", "s", median(&vector_s), vector_s.len());

    // Serve event loop: the seeded overload must show no smoke violation.
    let min_serve_s = if toy { 0.01 } else { 0.25 };
    let (mut jobs, mut serve_s, mut serves) = (0usize, 0.0f64, 0usize);
    while serve_s < min_serve_s {
        let (r, t) = timed(|| paper.server.run(&paper.scenario, None));
        match r {
            Ok(report) if serves == 0 => fails.extend(
                smoke_violations(&paper.scenario, &report)
                    .into_iter()
                    .map(|v| format!("serve: {v}")),
            ),
            Ok(_) => {}
            Err(e) => {
                fails.push(format!("serve failed: {e}"));
                break;
            }
        }
        jobs += paper.scenario.jobs.len();
        serve_s += t;
        serves += 1;
    }
    push("serve.jobs_per_s", "1/s", jobs as f64 / serve_s, serves);

    // Trace export of one profiled case (the trace self-validates).
    let export_s = match profile(&paper.profile_req) {
        Ok(prof) => (0..reps)
            .map(|_| {
                let (t, s) = timed(|| prof.session.tracer.export_chrome("accprof"));
                t.len() as f64 / 1e6 / s
            })
            .collect(),
        Err(e) => {
            fails.push(format!("profile failed: {e}"));
            vec![f64::NAN]
        }
    };
    push(
        "obs.trace_mb_per_s",
        "MB/s",
        median(&export_s),
        export_s.len(),
    );
    fails
}
