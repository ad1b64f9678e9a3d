//! The `accprof` pseudo-profiler: one observed run, four artifacts.
//!
//! Reproduces the paper's profiling workflow (`nvprof` summaries like
//! Figures 14/15, `nvprof --metrics` counter tables, and a visual
//! timeline) from the simulation stack: any of the twelve seismic cases
//! runs through [`rtm_core::gpu_time`] with an [`ObsSession`] attached,
//! and the session is serialized as
//!
//! 1. `nvprof_summary.txt` — the per-kernel/memcpy time table,
//! 2. `metrics.txt` — the per-kernel hardware-counter table,
//! 3. `trace.json` — a Chrome/Perfetto trace-event timeline with one
//!    track per device stream, the host, and the MPI ranks of a 2-way
//!    decomposed companion run,
//! 4. `report.json` — the machine-readable roll-up (breakdown, metrics,
//!    registry, track inventory).

use crate::cases::table_workload;
use acc_obs::ObsSession;
use openacc_sim::{Compiler, PgiVersion};
use rtm_core::case::{Cluster, OptimizationConfig, SeismicCase, Workload};
use rtm_core::error::RtmError;
use rtm_core::gpu_time::{price, GpuRun};
use rtm_core::multi_gpu::{emit_halo_timeline, modeling_time_multi, CommMode, GhostPacking};
use rtm_core::plan::Job;
use seismic_model::footprint::{Dims, Formulation};
use std::sync::Arc;

/// Which driver the profiled run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Forward modeling only.
    Modeling,
    /// Forward + backward + imaging.
    Rtm,
}

impl RunMode {
    /// CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            RunMode::Modeling => "modeling",
            RunMode::Rtm => "rtm",
        }
    }

    /// Parse a `--mode` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "modeling" => Some(RunMode::Modeling),
            "rtm" => Some(RunMode::Rtm),
            _ => None,
        }
    }
}

/// Which evaluation platform the run is priced on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceChoice {
    /// Tesla M2090 on the IBM cluster (PGI 14.3).
    M2090,
    /// Tesla K40 on the CRAY XC30 (PGI 14.6).
    K40,
}

impl DeviceChoice {
    /// CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceChoice::M2090 => "m2090",
            DeviceChoice::K40 => "k40",
        }
    }

    /// Parse a `--device` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "m2090" => Some(DeviceChoice::M2090),
            "k40" => Some(DeviceChoice::K40),
            _ => None,
        }
    }

    /// The cluster hosting the card.
    pub fn cluster(self) -> Cluster {
        match self {
            DeviceChoice::M2090 => Cluster::Ibm,
            DeviceChoice::K40 => Cluster::CrayXc30,
        }
    }

    /// The compiler the paper pairs with the platform.
    pub fn compiler(self) -> Compiler {
        match self {
            DeviceChoice::M2090 => Compiler::Pgi(PgiVersion::V14_3),
            DeviceChoice::K40 => Compiler::Pgi(PgiVersion::V14_6),
        }
    }
}

/// Parse a `--case` value (`iso2d`, `ac2d`, `el2d`, `iso3d`, `ac3d`,
/// `el3d`).
pub fn parse_case(s: &str) -> Option<SeismicCase> {
    let (formulation, dims) = match s {
        "iso2d" => (Formulation::Isotropic, Dims::Two),
        "ac2d" => (Formulation::Acoustic, Dims::Two),
        "el2d" => (Formulation::Elastic, Dims::Two),
        "iso3d" => (Formulation::Isotropic, Dims::Three),
        "ac3d" => (Formulation::Acoustic, Dims::Three),
        "el3d" => (Formulation::Elastic, Dims::Three),
        _ => return None,
    };
    Some(SeismicCase { formulation, dims })
}

/// CLI name of a case.
pub fn case_name(case: &SeismicCase) -> &'static str {
    match (case.formulation, case.dims) {
        (Formulation::Isotropic, Dims::Two) => "iso2d",
        (Formulation::Acoustic, Dims::Two) => "ac2d",
        (Formulation::Elastic, Dims::Two) => "el2d",
        (Formulation::Isotropic, Dims::Three) => "iso3d",
        (Formulation::Acoustic, Dims::Three) => "ac3d",
        (Formulation::Elastic, Dims::Three) => "el3d",
    }
}

/// One fully-specified profiling request.
#[derive(Debug, Clone, Copy)]
pub struct ProfileRequest {
    /// The seismic case.
    pub case: SeismicCase,
    /// Modeling or RTM.
    pub mode: RunMode,
    /// Evaluation platform.
    pub device: DeviceChoice,
    /// Override the table workload's step count (smoke runs); `None`
    /// keeps the calibrated production scale.
    pub steps: Option<usize>,
    /// Also run the `acc-serve` smoke burst against the same session:
    /// the service tracks join the timeline and the server's queue-depth
    /// and shed-rate gauges land in the report registry.
    pub serve: bool,
    /// Also run the case for real (smoke scale) on the pooled host engine
    /// with the wall-clock profiler on: the per-worker wall-clock tracks
    /// join the same timeline (distinct clock domain, labeled `wall
    /// worker N` with a `clock=wall` arg), the derived gang metrics land
    /// in the registry, and `host_profile.json` is emitted. The gang
    /// count comes from [`openacc_sim::exec::try_default_gangs`].
    pub host: bool,
}

/// The four artifacts plus the raw session, for tests that want to poke.
pub struct ProfileOutput {
    /// Figure-14/15-style nvprof text summary.
    pub nvprof_summary: String,
    /// `nvprof --metrics`-style per-kernel counter table.
    pub metrics: String,
    /// Schema-valid Chrome/Perfetto trace-event JSON.
    pub trace_json: String,
    /// Machine-readable roll-up.
    pub report_json: String,
    /// Standalone wall-clock profile document (`--host` only): the
    /// derived gang report plus the raw per-slot event streams.
    pub host_profile_json: Option<String>,
    /// The derived gang report of the host run (`--host` only).
    pub host_report: Option<acc_obs::wallclock::HostReport>,
    /// The observed session (tracer + metrics + registry).
    pub session: Arc<ObsSession>,
    /// The priced run (timing breakdown + profiler ledger).
    pub run: GpuRun,
}

/// Human label used in the text artifacts.
fn device_label(device: DeviceChoice) -> String {
    device.cluster().device().name.to_string()
}

/// Run one profiled case and build all four artifacts. The trace is
/// self-validated before being returned: it must re-parse as JSON and
/// every track must hold monotone, flame-nested spans.
pub fn profile(req: &ProfileRequest) -> Result<ProfileOutput, RtmError> {
    // The real host run takes its gang count from `ACC_GANGS` or the
    // hardware, as `calibrate` does; a bad value fails before any work.
    let host_gangs = if req.host {
        Some(openacc_sim::exec::try_default_gangs().map_err(RtmError::Gangs)?)
    } else {
        None
    };
    let mut w = table_workload(&req.case);
    if let Some(steps) = req.steps {
        w.steps = steps.max(1);
        w.snap_period = w.snap_period.min(w.steps);
    }
    let cfg = OptimizationConfig::default();
    let cluster = req.device.cluster();
    let compiler = req.device.compiler();
    let obs = Arc::new(ObsSession::new());

    let job = match req.mode {
        RunMode::Modeling => Job::Modeling,
        RunMode::Rtm => Job::Rtm,
    };
    let run = price(
        job,
        &req.case,
        &cfg,
        compiler,
        cluster,
        &w,
        Some(obs.clone()),
    )?;

    // The MPI-rank tracks: a 2-way decomposed companion run of the same
    // case prices the halo exchanges the paper's hybrid OpenACC-MPI code
    // performs; its timeline rides along on its own tracks. A case too big
    // even for the decomposed slabs simply has no rank tracks.
    if let Ok(mt) = modeling_time_multi(
        &req.case,
        &cfg,
        compiler,
        cluster,
        &w,
        2,
        GhostPacking::DevicePacked,
        CommMode::Overlapped,
    ) {
        emit_halo_timeline(&obs, &req.case, &w, &mt);
    }

    // The served burst rides on the same session: its spans land on the
    // per-device service tracks and its queue/shed gauges in the registry.
    if req.serve {
        crate::serve::smoke_run(Some(&obs))?;
    }

    // The real host run rides on the same session too: a smoke-scale
    // execution of the same case on the pooled host engine, its
    // wall-clock worker tracks merged next to the simulated-time tracks
    // (two clock domains, one timeline; each wall span carries a
    // `clock=wall` arg so the domains cannot be confused).
    let (host_profile_json, host_report) = if let Some(gangs) = host_gangs {
        let (_hw, _wall_s, hp) = crate::calibrate::profiled_host_run(&req.case, gangs);
        let report = acc_obs::wallclock::ingest(&hp, &obs);
        (
            Some(acc_obs::wallclock::host_profile_json(&hp)),
            Some(report),
        )
    } else {
        (None, None)
    };

    let label = device_label(req.device);
    let nvprof_summary = run.runtime.profiler().render(&label);
    let metrics = obs.metrics().render(&label);
    let trace_json = obs.tracer.export_chrome("accprof");

    // Self-validation: the emitted trace must be machine-readable and the
    // timeline well-formed.
    serde_json::from_str(&trace_json)
        .map_err(|e| RtmError::Observability(format!("trace is not valid JSON: {e:?}")))?;
    obs.tracer
        .validate_tracks()
        .map_err(RtmError::Observability)?;

    let report_json = build_report(req, &w, &run, &obs, host_report.as_ref());
    Ok(ProfileOutput {
        nvprof_summary,
        metrics,
        trace_json,
        report_json,
        host_profile_json,
        host_report,
        session: obs,
        run,
    })
}

/// The machine-readable roll-up of one profiled run.
fn build_report(
    req: &ProfileRequest,
    w: &Workload,
    run: &GpuRun,
    obs: &ObsSession,
    host: Option<&acc_obs::wallclock::HostReport>,
) -> String {
    let mut doc = serde_json::Map::new();
    doc.insert("tool", "accprof");
    doc.insert("case", case_name(&req.case));
    doc.insert("mode", req.mode.as_str());
    doc.insert("device", req.device.as_str());
    doc.insert("serve", req.serve);

    let mut wl = serde_json::Map::new();
    wl.insert("nx", w.nx as u64);
    wl.insert("ny", w.ny as u64);
    wl.insert("nz", w.nz as u64);
    wl.insert("steps", w.steps as u64);
    wl.insert("snap_period", w.snap_period as u64);
    wl.insert("n_receivers", w.n_receivers as u64);
    doc.insert("workload", wl);

    let mut bd = serde_json::Map::new();
    bd.insert("total_s", run.breakdown.total_s);
    bd.insert("kernel_s", run.breakdown.kernel_s);
    bd.insert("transfer_s", run.breakdown.transfer_s);
    doc.insert("breakdown", bd);

    let tracks: Vec<serde_json::Value> = obs
        .tracer
        .tracks()
        .iter()
        .map(|t| serde_json::Value::from(t.label()))
        .collect();
    doc.insert("tracks", tracks);
    if let Some(h) = host {
        doc.insert("host", h.to_json());
    }
    doc.insert("span_count", obs.tracer.len() as u64);
    doc.insert("metrics", obs.metrics().to_json());
    doc.insert("registry", obs.registry.to_json());
    serde_json::to_string(&serde_json::Value::Object(doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips() {
        for name in ["iso2d", "ac2d", "el2d", "iso3d", "ac3d", "el3d"] {
            let c = parse_case(name).unwrap();
            assert_eq!(case_name(&c), name);
        }
        assert!(parse_case("nope").is_none());
        assert_eq!(RunMode::parse("rtm"), Some(RunMode::Rtm));
        assert_eq!(RunMode::parse("modeling"), Some(RunMode::Modeling));
        assert!(RunMode::parse("x").is_none());
        assert_eq!(DeviceChoice::parse("k40"), Some(DeviceChoice::K40));
        assert_eq!(DeviceChoice::parse("m2090"), Some(DeviceChoice::M2090));
        assert!(DeviceChoice::parse("x").is_none());
    }

    /// A smoke-scale profile emits all four artifacts, the trace holds the
    /// host, at least one device-stream, and both MPI-rank tracks, and the
    /// report round-trips as JSON.
    #[test]
    fn smoke_profile_emits_all_artifacts() {
        let req = ProfileRequest {
            case: parse_case("iso2d").unwrap(),
            mode: RunMode::Rtm,
            device: DeviceChoice::K40,
            steps: Some(20),
            serve: false,
            host: false,
        };
        let out = profile(&req).expect("smoke profile runs");
        assert!(out.nvprof_summary.contains("Compute"));
        assert!(out.nvprof_summary.contains("MemCpy (HtoD)"));
        assert!(out.metrics.contains("==accprof== Metrics result"));
        assert!(out.metrics.contains("achieved_occupancy"));

        let trace = serde_json::from_str(&out.trace_json).expect("valid trace JSON");
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        let labels: Vec<String> = out
            .session
            .tracer
            .tracks()
            .iter()
            .map(|t| t.label())
            .collect();
        assert!(labels.iter().any(|l| l == "host"));
        assert!(labels.iter().any(|l| l.starts_with("stream")));
        assert!(labels.iter().any(|l| l.starts_with("rank")));
        assert!(labels.len() >= 3, "{labels:?}");

        let report = serde_json::from_str(&out.report_json).expect("valid report JSON");
        assert_eq!(report.get("case").unwrap().as_str(), Some("iso2d"));
        assert_eq!(report.get("mode").unwrap().as_str(), Some("rtm"));
        assert!(report.get("breakdown").unwrap().get("total_s").is_some());
        assert!(report
            .get("registry")
            .unwrap()
            .get("counters")
            .unwrap()
            .get("kernels_launched")
            .is_some());
    }

    /// `--serve` folds the served smoke burst into the same session: the
    /// service tracks join the timeline and the server's queue-depth and
    /// shed-rate gauges land in the report registry.
    #[test]
    fn serve_profile_reports_queue_gauges() {
        let req = ProfileRequest {
            case: parse_case("iso2d").unwrap(),
            mode: RunMode::Modeling,
            device: DeviceChoice::K40,
            steps: Some(10),
            serve: true,
            host: false,
        };
        let out = profile(&req).expect("served profile runs");
        let report = serde_json::from_str(&out.report_json).expect("valid report JSON");
        let gauges = report
            .get("registry")
            .unwrap()
            .get("gauges")
            .expect("registry has gauges");
        for name in ["queue_depth", "shed_rate"] {
            assert!(gauges.get(name).is_some(), "missing gauge {name}");
        }
        let counters = report.get("registry").unwrap().get("counters").unwrap();
        assert!(counters.get("jobs_submitted").is_some());
        let labels: Vec<String> = out
            .session
            .tracer
            .tracks()
            .iter()
            .map(|t| t.label())
            .collect();
        assert!(
            labels.iter().any(|l| l.starts_with("serve dev")),
            "{labels:?}"
        );
    }

    /// `--host` merges a real wall-clock run into the same timeline: the
    /// `wall worker N` tracks join the simulated-time tracks (the merged
    /// trace still self-validates inside `profile`), the derived gang
    /// metrics land in the registry, and the standalone host profile
    /// document is emitted.
    #[test]
    fn host_profile_merges_wall_tracks() {
        let req = ProfileRequest {
            case: parse_case("iso2d").unwrap(),
            mode: RunMode::Rtm,
            device: DeviceChoice::K40,
            steps: Some(10),
            serve: false,
            host: true,
        };
        let out = profile(&req).expect("host profile runs");
        let labels: Vec<String> = out
            .session
            .tracer
            .tracks()
            .iter()
            .map(|t| t.label())
            .collect();
        // Both clock domains on one timeline.
        assert!(
            labels.iter().any(|l| l.starts_with("wall worker")),
            "{labels:?}"
        );
        assert!(labels.iter().any(|l| l == "host"), "{labels:?}");

        let hp = out.host_profile_json.expect("host profile emitted");
        let doc = serde_json::from_str(&hp).expect("valid host profile JSON");
        assert_eq!(doc.get("clock").unwrap().as_str(), Some("wall"));
        assert!(doc.get("report").unwrap().get("utilization").is_some());
        assert!(!doc.get("slots").unwrap().as_array().unwrap().is_empty());

        let report = serde_json::from_str(&out.report_json).expect("valid report JSON");
        assert!(report.get("host").unwrap().get("wall_s").is_some());
        let gauges = report.get("registry").unwrap().get("gauges").unwrap();
        assert!(gauges.get("host_utilization").is_some());
    }

    /// Observability must not perturb the modeled timings: the observed
    /// run's breakdown equals the plain pricing.
    #[test]
    fn observed_breakdown_matches_plain() {
        let case = parse_case("ac2d").unwrap();
        let mut w = table_workload(&case);
        w.steps = 15;
        let cfg = OptimizationConfig::default();
        let plain = rtm_core::gpu_time::rtm_time(
            &case,
            &cfg,
            DeviceChoice::K40.compiler(),
            Cluster::CrayXc30,
            &w,
        )
        .unwrap();
        let obs = Arc::new(ObsSession::new());
        let observed = price(
            Job::Rtm,
            &case,
            &cfg,
            DeviceChoice::K40.compiler(),
            Cluster::CrayXc30,
            &w,
            Some(obs),
        )
        .unwrap();
        assert_eq!(plain.breakdown, observed.breakdown);
    }
}
