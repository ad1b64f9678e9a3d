//! `accprof` — the simulated-profiler CLI.
//!
//! Runs one of the twelve seismic cases on one evaluation platform with
//! the full observability stack attached and writes four artifacts into
//! the output directory:
//!
//! * `nvprof_summary.txt` — Figure-14/15-style per-kernel/memcpy table,
//! * `metrics.txt` — `nvprof --metrics`-style per-kernel counters,
//! * `trace.json` — Chrome/Perfetto timeline (open in `ui.perfetto.dev`),
//! * `report.json` — machine-readable roll-up,
//! * `host_profile.json` (with `--host`) — the real wall-clock host-engine
//!   run's derived gang report and raw per-worker event streams; its
//!   `wall worker N` tracks also join `trace.json` next to the
//!   simulated-time tracks. The host run uses `ACC_GANGS` gangs, or one
//!   per core when it is unset; an invalid `ACC_GANGS` exits with status 2.
//!
//! ```text
//! accprof --case iso3d --device k40 [--mode rtm|modeling]
//!         [--steps N] [--serve] [--host] [--out DIR]
//! ```

use repro::accprof::{parse_case, profile, DeviceChoice, ProfileRequest, RunMode};
use rtm_core::error::RtmError;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: accprof --case {iso2d|ac2d|el2d|iso3d|ac3d|el3d} \
--device {m2090|k40} [--mode {modeling|rtm}] [--steps N] [--serve] [--host] [--out DIR]";

struct Args {
    req: ProfileRequest,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut case = None;
    let mut device = None;
    let mut mode = RunMode::Rtm;
    let mut steps = None;
    let mut serve = false;
    let mut host = false;
    let mut out = PathBuf::from("accprof-out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--case" => {
                let v = value("--case")?;
                case = Some(parse_case(&v).ok_or_else(|| format!("unknown case '{v}'\n{USAGE}"))?);
            }
            "--device" => {
                let v = value("--device")?;
                device = Some(
                    DeviceChoice::parse(&v)
                        .ok_or_else(|| format!("unknown device '{v}'\n{USAGE}"))?,
                );
            }
            "--mode" => {
                let v = value("--mode")?;
                mode = RunMode::parse(&v).ok_or_else(|| format!("unknown mode '{v}'\n{USAGE}"))?;
            }
            "--steps" => {
                let v = value("--steps")?;
                steps = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--steps must be a positive integer, got '{v}'"))?,
                );
            }
            "--serve" => serve = true,
            "--host" => host = true,
            "--out" => out = PathBuf::from(value("--out")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let case = case.ok_or_else(|| format!("--case is required\n{USAGE}"))?;
    let device = device.ok_or_else(|| format!("--device is required\n{USAGE}"))?;
    Ok(Args {
        req: ProfileRequest {
            case,
            mode,
            device,
            steps,
            serve,
            host,
        },
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let out = match profile(&args.req) {
        Ok(o) => o,
        Err(RtmError::Gangs(e)) => {
            eprintln!("accprof: {e}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("accprof: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("accprof: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    for (name, content) in [
        ("nvprof_summary.txt", &out.nvprof_summary),
        ("metrics.txt", &out.metrics),
        ("trace.json", &out.trace_json),
        ("report.json", &out.report_json),
    ] {
        let path = args.out.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("accprof: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if let Some(hp) = &out.host_profile_json {
        let path = args.out.join("host_profile.json");
        if let Err(e) = std::fs::write(&path, hp) {
            eprintln!("accprof: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if let Some(h) = out.host_report.as_ref().filter(|h| !h.complete()) {
        eprintln!(
            "warning: host profile incomplete: {} events lost to full rings, {} to thread-slot overflow",
            h.dropped, h.thread_overflow
        );
    }
    println!();
    println!("{}", out.nvprof_summary);
    println!("{}", out.metrics);
    println!(
        "total {:.3} s (kernels {:.3} s, transfers {:.3} s); {} spans on {} tracks",
        out.run.breakdown.total_s,
        out.run.breakdown.kernel_s,
        out.run.breakdown.transfer_s,
        out.session.tracer.len(),
        out.session.tracer.tracks().len(),
    );
    ExitCode::SUCCESS
}
