//! `calibrate` — model-vs-measured calibration of the GPU timing model
//! against real host-engine runs.
//!
//! ```text
//! calibrate [--smoke] [--out DIR]
//! ```
//!
//! Runs all six propagator cases for real on the pooled host engine with
//! the wall-clock profiler on, prices the same workloads on both of the
//! paper's GPUs, and writes `calibration.json` plus a markdown table to
//! stdout. `--smoke` shrinks the grids for CI. The host runs use
//! `ACC_GANGS` gangs when set, else one per core; a bad `ACC_GANGS` exits
//! 2. A profile that lost events is flagged on stderr.

use repro::calibrate::run_calibration;
use std::path::PathBuf;

fn main() {
    let mut smoke = false;
    let mut out_dir = PathBuf::from("target/calibration");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                });
                out_dir = PathBuf::from(v);
            }
            "--help" | "-h" => {
                eprintln!("usage: calibrate [--smoke] [--out DIR]");
                return;
            }
            other => {
                eprintln!("unknown flag {other:?}; see --help");
                std::process::exit(2);
            }
        }
    }

    let gangs = openacc_sim::exec::try_default_gangs().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let report = run_calibration(smoke, gangs);
    print!("{}", report.to_markdown());
    if report.lost_events > 0 {
        eprintln!(
            "warning: host profile incomplete: {} events lost; the phase split undercounts",
            report.lost_events
        );
    }

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let path = out_dir.join("calibration.json");
    std::fs::write(&path, report.to_json()).expect("write calibration.json");
    eprintln!("wrote {}", path.display());
}
