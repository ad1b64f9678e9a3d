//! Property-based tests (proptest) on the core data structures and
//! invariants of the workspace.

use proptest::prelude::*;
use seismic_grid::cfl::{courant_limit, stable_dt};
use seismic_grid::{Extent2, Extent3, Field2, SyncSlice};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_source::ricker;

proptest! {
    /// Interior indexing is a bijection into the allocated buffer: distinct
    /// coordinates map to distinct flat indices, all in range.
    #[test]
    fn extent2_indexing_bijective(nx in 1usize..40, nz in 1usize..40, halo in 0usize..6) {
        let e = Extent2::new(nx, nz, halo);
        let mut seen = std::collections::HashSet::new();
        for iz in 0..nz {
            for ix in 0..nx {
                let i = e.idx(ix, iz);
                prop_assert!(i < e.len());
                prop_assert!(seen.insert(i), "duplicate index {i}");
            }
        }
    }

    /// 3D interior indexing stays in range and respects the x-fastest order.
    #[test]
    fn extent3_strides(nx in 2usize..16, ny in 2usize..16, nz in 2usize..16, halo in 0usize..5) {
        let e = Extent3::new(nx, ny, nz, halo);
        prop_assert_eq!(e.idx(0, 0, 0) + 1, e.idx(1, 0, 0));
        prop_assert_eq!(e.idx(0, 0, 0) + e.full_nx(), e.idx(0, 1, 0));
        prop_assert_eq!(
            e.idx(nx - 1, ny - 1, nz - 1),
            e.raw_idx(nx - 1 + halo, ny - 1 + halo, nz - 1 + halo)
        );
        prop_assert!(e.idx(nx - 1, ny - 1, nz - 1) < e.len());
    }

    /// Transposition is an involution and preserves every value.
    #[test]
    fn field2_transpose_involution(nx in 1usize..24, nz in 1usize..24, seed in any::<u32>()) {
        let e = Extent2::new(nx, nz, 3);
        let f = Field2::from_fn(e, |ix, iz| {
            let h = ix.wrapping_mul(31).wrapping_add(iz.wrapping_mul(17)).wrapping_add(seed as usize);
            (h % 1000) as f32 - 500.0
        });
        let t = f.transposed();
        prop_assert_eq!(t.extent().nx, e.nz);
        for iz in 0..e.nz {
            for ix in 0..e.nx {
                prop_assert_eq!(t.get(iz, ix), f.get(ix, iz));
            }
        }
        prop_assert_eq!(t.transposed(), f);
    }

    /// CFL: the stable dt scales linearly in h and inversely in v, and
    /// higher dimensionality is always more restrictive.
    #[test]
    fn cfl_scaling(v in 300.0f32..8000.0, h in 1.0f32..100.0) {
        let d2 = stable_dt(8, 2, v, h, 0.9);
        let d3 = stable_dt(8, 3, v, h, 0.9);
        prop_assert!(d3 < d2);
        let d2b = stable_dt(8, 2, v, 2.0 * h, 0.9);
        prop_assert!((d2b / d2 - 2.0).abs() < 1e-3);
        prop_assert!(courant_limit(8, 2) > 0.0);
    }

    /// C-PML coefficients are bounded for arbitrary valid parameters:
    /// b ∈ (0, 1], 1/κ ∈ (0, 1], a ≤ 0, and the interior is exactly
    /// transparent.
    #[test]
    fn cpml_coefficients_bounded(
        n in 30usize..200,
        width_frac in 0.05f64..0.4,
        dt in 1e-5f32..1e-2,
        vmax in 500.0f32..6000.0,
        h in 2.0f32..50.0,
    ) {
        let width = ((n as f64 * width_frac) as usize).max(1).min(n / 2);
        let ax = CpmlAxis::new(n, 4, width, dt, vmax, h, 1e-4);
        for i in 0..n {
            let (a, b, ik) = ax.coeffs(i);
            prop_assert!(b > 0.0 && b <= 1.0, "b = {b}");
            prop_assert!(ik > 0.0 && ik <= 1.0, "1/k = {ik}");
            prop_assert!(a <= 0.0, "a = {a}");
            if !ax.in_layer(i) {
                prop_assert_eq!(a, 0.0);
                prop_assert_eq!(b, 1.0);
                prop_assert_eq!(ik, 1.0);
            }
        }
    }

    /// Damping-profile windows agree with the global profile for arbitrary
    /// slab splits (the MPI-decomposition invariant).
    #[test]
    fn damp_window_consistency(
        n in 60usize..160,
        cut1 in 0.2f64..0.45,
        cut2 in 0.55f64..0.8,
    ) {
        let g = DampProfile::new(n, 4, 12, 3000.0, 10.0, 1e-4);
        let c1 = (n as f64 * cut1) as usize;
        let c2 = (n as f64 * cut2) as usize;
        for (z0, nz) in [(0, c1), (c1, c2 - c1), (c2, n - c2)] {
            if nz == 0 { continue; }
            let wdw = g.window(z0, nz);
            for i in 0..nz {
                prop_assert_eq!(wdw.sigma(i), g.sigma(z0 + i));
                prop_assert_eq!(wdw.in_layer(i), g.in_layer(z0 + i));
            }
        }
    }

    /// The Ricker wavelet is bounded by 1, even, and integrates to ~0.
    #[test]
    fn ricker_properties(f in 5.0f32..60.0, t in -0.5f32..0.5) {
        let v = ricker(f, t);
        prop_assert!((-0.5..=1.0 + 1e-6).contains(&v));
        prop_assert!((v - ricker(f, -t)).abs() < 1e-5);
    }

    /// Disjoint parallel writes through SyncSlice reconstruct exactly the
    /// sequential result for arbitrary chunkings.
    #[test]
    fn sync_slice_arbitrary_chunking(
        n in 1usize..2000,
        chunks in 1usize..9,
    ) {
        let mut seq = vec![0.0f32; n];
        for (i, v) in seq.iter_mut().enumerate() {
            *v = (i as f32).sin();
        }
        let mut par = vec![0.0f32; n];
        {
            let s = SyncSlice::new(&mut par);
            std::thread::scope(|scope| {
                let per = n.div_ceil(chunks);
                for c in 0..chunks {
                    let lo = (c * per).min(n);
                    let hi = ((c + 1) * per).min(n);
                    scope.spawn(move || {
                        for i in lo..hi {
                            // Safety: ranges are disjoint by construction.
                            unsafe { s.set(i, (i as f32).sin()) };
                        }
                    });
                }
            });
        }
        prop_assert_eq!(par, seq);
    }
}

/// Slab decomposition covers every row exactly once for arbitrary sizes.
#[test]
fn slab_decomp_partition_property() {
    proptest!(|(nz in 8usize..500, ranks in 1usize..8)| {
        prop_assume!(nz >= ranks * 4);
        let d = mpi_sim::SlabDecomp::new(nz, ranks, 4);
        let mut covered = vec![0u8; nz];
        for r in 0..ranks {
            let s = d.slab(r);
            for c in &mut covered[s.z0..s.z1] {
                *c += 1;
            }
            prop_assert_eq!(d.owner(s.z0), r);
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    });
}

proptest! {
    /// Any CFL-safe random layered model propagates without NaN/Inf for a
    /// short run (robustness of the acoustic kernels to arbitrary
    /// admissible media).
    #[test]
    fn random_layered_models_stay_finite(
        v1 in 1450.0f32..2500.0,
        v2 in 1450.0f32..4500.0,
        v3 in 1450.0f32..4500.0,
        r1 in 1000.0f32..2600.0,
        r2 in 1000.0f32..2600.0,
        src_x in 10usize..50,
    ) {
        use rtm_core::case::OptimizationConfig;
        use rtm_core::modeling::{run_modeling, Medium2};
        use seismic_model::builder::{acoustic2_layered, Layer};
        use seismic_model::{extent2, Geometry};
        use seismic_source::{Acquisition2, Wavelet};

        let n = 60;
        let e = extent2(n, n);
        let h = 10.0;
        let vmax = v1.max(v2).max(v3);
        let dt = stable_dt(8, 2, vmax, h, 0.5);
        let layers = [
            Layer { z_top: 0, vp: v1, vs: 0.0, rho: r1 },
            Layer { z_top: 20, vp: v2, vs: 0.0, rho: r2 },
            Layer { z_top: 40, vp: v3, vs: 0.0, rho: 2200.0 },
        ];
        let model = acoustic2_layered(e, &layers, Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 10, dt, vmax, h, 1e-4);
        let medium = Medium2::Acoustic { model, cpml: [c.clone(), c] };
        let acq = Acquisition2::surface_line(n, src_x, 5, 4, 10);
        let r = run_modeling(
            &medium,
            &acq,
            &Wavelet::ricker(20.0),
            &OptimizationConfig::default(),
            60,
            30,
            2,
        );
        let m = r.snapshots.last().unwrap().max_abs();
        prop_assert!(m.is_finite(), "max = {m}");
        prop_assert!(r.seismogram.rms().is_finite());
    }

    /// Checkpoint schedules partition sanely for arbitrary sizes: sorted,
    /// unique, starting at 0, within range, and never more than slots.
    #[test]
    fn checkpoint_plan_properties(steps in 1usize..5000, slots in 1usize..64) {
        let cps = rtm_core::checkpoint::plan_checkpoints(steps, slots).unwrap();
        prop_assert!(!cps.is_empty());
        prop_assert_eq!(cps[0], 0);
        prop_assert!(cps.len() <= slots);
        prop_assert!(cps.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(cps.iter().all(|&c| c < steps));
        // Peak memory bound is positive and no worse than dense storage+slots.
        let peak = rtm_core::checkpoint::peak_states(steps, slots, 4).unwrap();
        prop_assert!(peak >= 1);
        prop_assert!(peak <= slots + steps.div_ceil(4) + 1);
    }

    /// The FD dispersion curve is monotone: more points per wavelength
    /// never increases the phase-velocity error.
    #[test]
    fn dispersion_error_monotone(order_idx in 0usize..4, ppw in 3.0f64..40.0) {
        let order = [2usize, 4, 6, 8][order_idx];
        let e1 = (1.0 - seismic_grid::dispersion::phase_velocity_ratio(order, ppw)).abs();
        let e2 = (1.0 - seismic_grid::dispersion::phase_velocity_ratio(order, ppw * 1.5)).abs();
        prop_assert!(e2 <= e1 + 1e-12, "order {order} ppw {ppw}: {e2} vs {e1}");
    }

    /// Muting is idempotent and only ever zeroes samples.
    #[test]
    fn mute_is_idempotent_projection(
        nt in 30usize..200,
        taper_ms in 1.0f32..80.0,
    ) {
        use rtm_core::rtm::mute_direct;
        use seismic_source::{Acquisition2, Seismogram};
        let acq = Acquisition2::surface_line(40, 20, 3, 3, 5);
        let mut s = Seismogram::zeros(acq.n_receivers(), nt);
        for r in 0..acq.n_receivers() {
            for t in 0..nt {
                s.record(r, t, ((r + 1) * (t + 1)) as f32 % 7.0 - 3.0);
            }
        }
        let dt = 1e-3;
        let m1 = mute_direct(&s, &acq, 10.0, 1500.0, dt, taper_ms * 1e-3);
        let m2 = mute_direct(&m1, &acq, 10.0, 1500.0, dt, taper_ms * 1e-3);
        // Projection up to the (deterministic) ramp weights: applying the
        // ramp twice squares it, so only compare the fully-kept region and
        // the zeroed region.
        for r in 0..s.n_receivers() {
            for t in 0..nt {
                if m1.get(r, t) == 0.0 {
                    prop_assert_eq!(m2.get(r, t), 0.0);
                } else if m1.get(r, t) == s.get(r, t) {
                    // Fully kept sample stays fully kept.
                    prop_assert_eq!(m2.get(r, t), m1.get(r, t));
                }
                prop_assert!(m1.get(r, t).abs() <= s.get(r, t).abs() + 1e-6);
            }
        }
    }
}

proptest! {
    /// A fault plan is a pure function of its seed: the event schedule and
    /// every per-operation query answer identically across regenerations,
    /// and a different seed (almost always) changes the schedule.
    #[test]
    fn fault_plans_are_reproducible_from_seed(
        seed in 0u64..10_000,
        devices in 1usize..6,
        horizon in 50.0f64..500.0,
    ) {
        use accel_sim::fault::{FaultPlan, FaultRates};
        let mtti = horizon / 3.0;
        let rates = FaultRates {
            device_lost_mtti_s: mtti,
            transient_oom_prob: 1e-3,
            straggler_mtti_s: mtti / 4.0,
            straggler_duration_s: mtti / 20.0,
            straggler_slowdown: 2.5,
        };
        let a = FaultPlan::generate(seed, devices, horizon, rates);
        let b = FaultPlan::generate(seed, devices, horizon, rates);
        prop_assert_eq!(a.events(), b.events());
        for d in 0..devices {
            prop_assert_eq!(a.device_lost_at(d), b.device_lost_at(d));
            for q in 0..32u64 {
                prop_assert_eq!(a.alloc_fails(d, q), b.alloc_fails(d, q));
                let t = horizon * (q as f64 / 32.0);
                prop_assert!(a.slowdown(d, t) == b.slowdown(d, t));
            }
        }
        // Events are time-sorted and inside the horizon.
        prop_assert!(a.events().windows(2).all(|w| w[0].t_s <= w[1].t_s));
        prop_assert!(a.events().iter().all(|e| e.t_s >= 0.0 && e.t_s < horizon));
    }

    /// Backoff delays are deterministic, strictly positive, bounded by the
    /// cap, and monotone non-decreasing in the attempt number.
    #[test]
    fn backoff_is_monotone_and_bounded(
        seed in any::<u64>(),
        base_ms in 1.0f64..2000.0,
        cap_s in 1.0f64..600.0,
    ) {
        use rtm_core::resilient::RetryPolicy;
        let p = RetryPolicy {
            max_retries: 16,
            base_delay_s: base_ms * 1e-3,
            max_delay_s: cap_s,
        };
        let mut prev = 0.0f64;
        for attempt in 0..20u32 {
            let d = p.backoff_delay(seed, attempt);
            prop_assert_eq!(d, p.backoff_delay(seed, attempt));
            prop_assert!(d > 0.0);
            prop_assert!(d <= p.max_delay_s + 1e-12, "attempt {attempt}: {d}");
            prop_assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
            prev = d;
        }
    }

    /// Any seeded in-place mutation of any case's directive program — the
    /// classic false-`independent` bug — is flagged statically as a race at
    /// the mutated op, and Tier 2's shadow-memory replay on a small grid
    /// witnesses the same conflict, so the two tiers agree.
    #[test]
    fn seeded_inplace_mutation_caught_by_both_tiers(
        case_idx in 0usize..6,
        rtm in any::<bool>(),
        pick in any::<u64>(),
        gangs in 2usize..8,
    ) {
        use acc_verify::{sanitize, Op, Rule, VerifyContext};
        use openacc_sim::{Compiler, PgiVersion};
        use rtm_core::case::{Cluster, OptimizationConfig, SeismicCase};
        use rtm_core::gpu_time::test_workload;
        use rtm_core::verify::{break_kernel_inplace, breakable_launches, case_programs};

        let case = SeismicCase::all()[case_idx];
        let w = test_workload(case.dims);
        let compiler = Compiler::Pgi(PgiVersion::V14_6);
        let programs = case_programs(&case, &OptimizationConfig::default(), compiler, &w);
        let mut prog = programs.into_iter().nth(usize::from(rtm)).unwrap();

        let eligible = breakable_launches(&prog);
        prop_assert!(eligible > 0, "{}: no breakable launch", prog.name);
        let nth = (pick % eligible as u64) as usize;
        let mutated = break_kernel_inplace(&mut prog, nth);
        prop_assert!(mutated.is_some());
        let mutated = mutated.unwrap();

        // Tier 1: the static dependence test pins the race on the mutated op.
        let ctx = VerifyContext {
            compiler,
            device: Cluster::CrayXc30.device(),
        };
        let diags = acc_verify::verify_program(&prog, &ctx);
        prop_assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::IndependentRace && d.span.op == mutated),
            "{}: no race at op {mutated}: {diags:?}",
            prog.name
        );

        // Tier 2: the threaded replay confirms it, for any gang count.
        let Op::Launch(l) = &prog.ops[mutated] else {
            return Err("mutated op is not a launch".into());
        };
        let cc = sanitize::crosscheck(l);
        prop_assert!(cc.static_race, "{}: static tier missed the race", l.name);
        prop_assert!(cc.dynamic.is_race(), "{}: replay missed the race", l.name);
        prop_assert!(cc.agree());
        let scaled = sanitize::scaled(&l.access, sanitize::SANITIZE_TRIP);
        prop_assert!(
            sanitize::replay_verdict(&scaled, gangs).is_race(),
            "{}: replay with {gangs} gangs missed the race",
            l.name
        );
    }

    /// The twelve paper programs verify clean under the best configuration
    /// no matter the seed, and Tier 2 agrees: a seed-chosen launch of a
    /// seed-chosen program replays conflict-free at any gang count.
    #[test]
    fn clean_verdicts_stable_across_seeds(
        report_pick in any::<u64>(),
        launch_pick in any::<u64>(),
        gangs in 2usize..8,
    ) {
        use acc_verify::{sanitize, Severity};
        use repro::verify::verify_all_cases;
        use rtm_core::case::{OptimizationConfig, SeismicCase};
        use rtm_core::verify::case_programs;

        let reports = verify_all_cases(&OptimizationConfig::default());
        prop_assert_eq!(reports.len(), 12);
        for r in &reports {
            prop_assert_eq!(r.count(Severity::Error), 0, "{}", r.program);
            prop_assert_eq!(r.count(Severity::Warning), 0, "{}", r.program);
            prop_assert!(!r.fails(true), "{}", r.program);
        }

        // Replay one arbitrary launch of one arbitrary program: clean
        // programs stay conflict-free under the dynamic tier too.
        let case = SeismicCase::all()[(report_pick % 6) as usize];
        let w = repro::cases::table_workload(&case);
        let programs = case_programs(
            &case,
            &OptimizationConfig::default(),
            repro::verify::table_context().compiler,
            &w,
        );
        let prog = &programs[(report_pick % 2) as usize];
        let launches: Vec<_> = prog.launches().collect();
        prop_assert!(!launches.is_empty());
        let (_, l) = launches[(launch_pick % launches.len() as u64) as usize];
        let scaled = sanitize::scaled(&l.access, sanitize::SANITIZE_TRIP);
        let verdict = sanitize::replay_verdict(&scaled, gangs);
        prop_assert!(
            !verdict.is_race(),
            "{} / {}: spurious dynamic race with {gangs} gangs",
            prog.name,
            l.name
        );
    }

    /// Resilient scheduling places every shot exactly once whenever at
    /// least one rank survives, no matter which ranks the plan kills; with
    /// every rank dead it fails with the typed error instead of looping.
    #[test]
    fn resilient_schedule_covers_every_shot_exactly_once(
        seed in 0u64..5_000,
        n_shots in 1usize..40,
        ranks in 1usize..6,
        mtti in 5.0f64..400.0,
    ) {
        use accel_sim::fault::{FaultPlan, FaultRates};
        use rtm_core::resilient::{plan_survey, RetryPolicy};
        use rtm_core::RtmError;
        let rates = FaultRates {
            device_lost_mtti_s: mtti,
            transient_oom_prob: 0.05,
            ..FaultRates::none()
        };
        let plan = FaultPlan::generate(seed, ranks, 600.0, rates);
        match plan_survey(n_shots, ranks, 9.0, &plan, &RetryPolicy::default(), None) {
            Ok(s) => {
                prop_assert_eq!(s.placement.len(), n_shots);
                prop_assert!(s.placement.iter().all(|&r| r < ranks));
                prop_assert!(!s.survivors.is_empty());
                // Rescheduled shots were counted, never duplicated: the
                // placement vector *is* the exactly-once witness (one slot
                // per shot, every slot filled).
                prop_assert!(s.stats.rescheduled_shots <= n_shots + s.stats.retries as usize);
            }
            Err(e) => prop_assert_eq!(e, RtmError::NoHealthyRanks),
        }
    }
}
