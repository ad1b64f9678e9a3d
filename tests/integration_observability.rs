//! Integration tests over the observability stack: the `accprof` pipeline
//! across all twelve paper cases on both evaluation platforms.
//!
//! These check the properties the unit tests cannot: that the per-kernel
//! counter table produced by the [`acc_obs::ObsSession`] agrees with the
//! profiler ledger the timing model filled in (same launches, same
//! seconds), that the counters satisfy the analytic roofline identities on
//! real driver workloads, and that attaching observability does not perturb
//! a single modeled number.

use acc_obs::ObsSession;
use accel_sim::EventKind;
use repro::accprof::{case_name, parse_case, profile, DeviceChoice, ProfileRequest, RunMode};
use repro::cases::table_workload;
use rtm_core::case::OptimizationConfig;
use rtm_core::gpu_time::{price, rtm_time};
use rtm_core::plan::Job;
use std::sync::Arc;

const CASES: [&str; 6] = ["iso2d", "ac2d", "el2d", "iso3d", "ac3d", "el3d"];
const REL_TOL: f64 = 1e-9;

fn rel_close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    scale == 0.0 || (a - b).abs() <= REL_TOL * scale
}

/// All twelve case/mode combinations on both platforms: every kernel row in
/// the metrics table must agree with the profiler ledger (same invocation
/// count, same total seconds to 1e-9 relative) and satisfy the analytic
/// cross-counter identities — throughput-derived arithmetic intensity and
/// DRAM utilization against the device's peak bandwidth.
#[test]
fn metrics_agree_with_analytic_model_across_all_cases() {
    let mut profiled = 0usize;
    for device in [DeviceChoice::M2090, DeviceChoice::K40] {
        let dev = device.cluster().device();
        for case in CASES {
            for mode in [RunMode::Modeling, RunMode::Rtm] {
                let req = ProfileRequest {
                    case: parse_case(case).unwrap(),
                    mode,
                    device,
                    steps: Some(10),
                    serve: false,
                    host: false,
                };
                let out = match profile(&req) {
                    Ok(o) => o,
                    Err(e) => {
                        // The only legitimate failure is a case that does
                        // not fit the smaller card (elastic 3D on M2090).
                        assert_eq!(device, DeviceChoice::M2090, "{case}/{e}");
                        assert!(
                            matches!(e, rtm_core::error::RtmError::Data(_)),
                            "{case}: unexpected {e}"
                        );
                        continue;
                    }
                };
                profiled += 1;

                let metrics = out.session.metrics();
                assert!(!metrics.is_empty(), "{case}: no kernels recorded");
                let ledger = out.run.runtime.profiler().summary();
                for row in metrics.rows() {
                    let m = &row.metrics;
                    let name = m.name.as_str();
                    let (_, stats) = ledger
                        .iter()
                        .find(|(n, s)| n == name && s.kind == EventKind::Kernel)
                        .unwrap_or_else(|| panic!("{case}: {name} missing from ledger"));
                    assert_eq!(
                        row.invocations, stats.invocations,
                        "{case}/{name}: launch counts disagree"
                    );
                    assert!(
                        rel_close(row.total_exec_s, stats.total_s),
                        "{case}/{name}: metrics {} s vs ledger {} s",
                        row.total_exec_s,
                        stats.total_s
                    );

                    // Analytic identities from the roofline derivation.
                    let dram = m.dram_read_throughput + m.dram_write_throughput;
                    assert!(dram > 0.0, "{case}/{name}: zero DRAM throughput");
                    assert!(
                        rel_close(m.arithmetic_intensity, m.flop_throughput / dram),
                        "{case}/{name}: intensity {} vs flop/byte {}",
                        m.arithmetic_intensity,
                        m.flop_throughput / dram
                    );
                    assert!(
                        rel_close(m.dram_utilization_pct, dram / dev.bandwidth() * 100.0),
                        "{case}/{name}: utilization disagrees with {} peak",
                        dev.name
                    );
                    assert!(
                        m.achieved_occupancy > 0.0 && m.achieved_occupancy <= 1.0,
                        "{case}/{name}: occupancy {}",
                        m.achieved_occupancy
                    );
                    for eff in [
                        m.warp_execution_efficiency_pct,
                        m.gld_efficiency_pct,
                        m.gst_efficiency_pct,
                    ] {
                        assert!((0.0..=100.0).contains(&eff), "{case}/{name}: {eff} %");
                    }
                }
            }
        }
    }
    // 24 combinations minus the M2090 OOM casualties; at least 22 ran.
    assert!(profiled >= 22, "only {profiled} combinations profiled");
}

/// Seeded coalescing mutation: running the acoustic 2D case with the
/// Figure 13 transposition reverted (the direct, strided sweep) must drop
/// the load/store efficiency counters of the stencil kernels — the exact
/// `nvprof --metrics` signal the paper used to justify the optimization.
#[test]
fn coalescing_mutation_drops_load_efficiency() {
    let case = parse_case("ac2d").unwrap();
    let mut w = table_workload(&case);
    w.steps = 10;
    let device = DeviceChoice::K40;

    let run_with = |cfg: &OptimizationConfig| {
        let obs = Arc::new(ObsSession::new());
        price(
            Job::Modeling,
            &case,
            cfg,
            device.compiler(),
            device.cluster(),
            &w,
            Some(obs.clone()),
        )
        .expect("ac2d fits the K40");
        obs.metrics()
    };

    let good = run_with(&OptimizationConfig::default());
    let mutated_cfg = OptimizationConfig {
        transpose: seismic_prop::TransposeVariant::Direct,
        ..Default::default()
    };
    let bad = run_with(&mutated_cfg);

    for kernel in ["ac2d_velocity", "ac2d_pressure"] {
        let g = &good.get(kernel).unwrap().metrics;
        let b = &bad.get(kernel).unwrap().metrics;
        assert_eq!(g.gld_efficiency_pct, 100.0, "{kernel} baseline");
        assert!(
            b.gld_efficiency_pct < 50.0 && b.gld_efficiency_pct > 0.0,
            "{kernel}: mutation left gld_efficiency at {} %",
            b.gld_efficiency_pct
        );
        assert!(b.gst_efficiency_pct < g.gst_efficiency_pct, "{kernel}");
    }
    // The transposition itself disappears from the mutated run.
    assert!(good.get("ac2d_transpose_in").is_some());
    assert!(bad.get("ac2d_transpose_in").is_none());
}

/// Attaching the observability session must not change a single profiler
/// number: the rendered nvprof table (and with it every kernel percentage
/// share) is byte-identical with and without the session.
#[test]
fn observation_leaves_nvprof_shares_unchanged() {
    for case in ["iso2d", "ac3d"] {
        let case = parse_case(case).unwrap();
        let mut w = table_workload(&case);
        w.steps = 12;
        let cfg = OptimizationConfig::default();
        let device = DeviceChoice::K40;

        let plain = rtm_time(&case, &cfg, device.compiler(), device.cluster(), &w).unwrap();
        let obs = Arc::new(ObsSession::new());
        let observed = price(
            Job::Rtm,
            &case,
            &cfg,
            device.compiler(),
            device.cluster(),
            &w,
            Some(obs),
        )
        .unwrap();

        assert_eq!(plain.breakdown, observed.breakdown, "{}", case_name(&case));
        assert_eq!(
            plain.runtime.profiler().render("Tesla K40"),
            observed.runtime.profiler().render("Tesla K40"),
            "{}: nvprof table changed under observation",
            case_name(&case)
        );
    }
}

/// The acceptance-criteria trace shape on the headline case: at least
/// three distinct tracks (host, a device stream, an MPI rank), and on every
/// track the spans are monotone and non-overlapping at the same depth.
#[test]
fn iso3d_trace_has_three_monotone_tracks() {
    let req = ProfileRequest {
        case: parse_case("iso3d").unwrap(),
        mode: RunMode::Rtm,
        device: DeviceChoice::K40,
        steps: Some(25),
        serve: false,
        host: false,
    };
    let out = profile(&req).expect("iso3d fits the K40");

    let labels: Vec<String> = out
        .session
        .tracer
        .tracks()
        .iter()
        .map(|t| t.label())
        .collect();
    assert!(labels.len() >= 3, "{labels:?}");
    assert!(labels.iter().any(|l| l == "host"));
    assert!(labels.iter().any(|l| l.starts_with("stream")));
    assert!(labels.iter().any(|l| l.starts_with("rank")));
    out.session
        .tracer
        .validate_tracks()
        .expect("monotone, flame-nested tracks");

    // The emitted JSON is what a Perfetto/Chrome load sees: complete
    // events with the required keys on every record.
    let trace = serde_json::from_str(&out.trace_json).expect("valid trace JSON");
    let events = trace.get("traceEvents").unwrap().as_array().unwrap();
    assert_eq!(events.len(), out.session.tracer.len());
    for ev in events {
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing {key}");
        }
        assert!(ev.get("ts").unwrap().as_f64().unwrap() >= 0.0);
        assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
    }
}
