//! Fingerprints of every driver's directive schedule, as its two consumers
//! see it.
//!
//! The GPU pricer (`gpu_time`) and the verifier (`verify`) each replay the
//! directive sequence of the modeling, RTM and random-boundary drivers:
//! data phasing, per-step launches and waits, the snapshot branch and the
//! isotropic consistency updates. These tests fold what each consumer
//! produces over a grid of cases, jobs, clusters, compilers, configs and
//! workloads into FNV-1a hashes and compare them with recorded constants:
//!
//! - the f64 bits of every priced `TimingBreakdown` (or the allocation
//!   error of the cells that do not fit the card);
//! - the phase, checkpoint, directive and kernel spans (name, start,
//!   duration, bytes) and the registry of observed pricing runs;
//! - the `Debug` text of every `case_programs` result.
//!
//! One workload per dimension has `steps % snap_period != 0`, so a change
//! to how many snapshots the branch takes moves the hashes. A change that
//! is *meant* to alter a schedule must re-record them and say why.

use acc_obs::ObsSession;
use openacc_sim::{Compiler, PgiVersion};
use rtm_core::case::{Cluster, ImagePlacement, OptimizationConfig, SeismicCase, Workload};
use rtm_core::gpu_time::{self, GpuRun};
use rtm_core::plan::Job;
use rtm_core::verify::case_programs;
use seismic_model::footprint::Dims;
use seismic_prop::{FissionVariant, IsoPmlVariant, TransposeVariant};
use std::sync::Arc;

const JOBS: [Job; 3] = [Job::Modeling, Job::Rtm, Job::RtmRandomBoundary];
const CLUSTERS: [Cluster; 2] = [Cluster::CrayXc30, Cluster::Ibm];
const COMPILERS: [Compiler; 3] = [
    Compiler::Pgi(PgiVersion::V13_7),
    Compiler::Pgi(PgiVersion::V14_6),
    Compiler::Cray,
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn fold_f64(hash: &mut u64, v: f64) {
    fnv1a(hash, &v.to_bits().to_le_bytes());
}

/// The paper's best configuration, the naive port, and a mix of the two
/// (CPU imaging with async streams, fused 3-D pressure, PML everywhere).
fn configs() -> [OptimizationConfig; 3] {
    [
        OptimizationConfig::default(),
        OptimizationConfig::naive(),
        OptimizationConfig {
            iso_pml: IsoPmlVariant::PmlEverywhere,
            fission: FissionVariant::Fused,
            transpose: TransposeVariant::Transposed,
            inline_receiver_injection: false,
            image_placement: ImagePlacement::Cpu,
            async_streams: true,
            maxregcount: Some(32),
        },
    ]
}

/// The unit-test workload of each dimension, and a small one whose step
/// count is not a multiple of its snapshot period.
fn workloads(dims: Dims) -> [Workload; 2] {
    let odd = match dims {
        Dims::Two => Workload {
            nx: 300,
            ny: 1,
            nz: 200,
            steps: 23,
            snap_period: 5,
            n_receivers: 64,
        },
        Dims::Three => Workload {
            nx: 64,
            ny: 48,
            nz: 40,
            steps: 11,
            snap_period: 4,
            n_receivers: 100,
        },
    };
    [gpu_time::test_workload(dims), odd]
}

fn fold_run(hash: &mut u64, run: &Result<GpuRun, openacc_sim::data::DataError>) {
    match run {
        Ok(r) => {
            fold_f64(hash, r.breakdown.total_s);
            fold_f64(hash, r.breakdown.kernel_s);
            fold_f64(hash, r.breakdown.transfer_s);
        }
        Err(e) => fnv1a(hash, format!("{e:?}").as_bytes()),
    }
}

#[test]
fn priced_breakdowns_match_recorded_fingerprint() {
    let mut hash = FNV_OFFSET;
    let mut n = 0;
    for case in SeismicCase::all() {
        for job in JOBS {
            for cluster in CLUSTERS {
                for compiler in COMPILERS {
                    for cfg in configs() {
                        for w in workloads(case.dims) {
                            fold_run(
                                &mut hash,
                                &gpu_time::price(job, &case, &cfg, compiler, cluster, &w, None),
                            );
                            n += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(n, 648);
    assert_eq!(
        hash, 0x609a_7d7c_2e99_e667,
        "priced breakdowns: {hash:#018x}"
    );
}

#[test]
fn observed_runs_match_recorded_fingerprint() {
    let compiler = Compiler::Pgi(PgiVersion::V14_6);
    let mut hash = FNV_OFFSET;
    let mut n = 0;
    for case in SeismicCase::all() {
        let w = workloads(case.dims)[1];
        for job in JOBS {
            for cfg in configs() {
                let obs = Arc::new(ObsSession::new());
                let run = gpu_time::price(
                    job,
                    &case,
                    &cfg,
                    compiler,
                    Cluster::Ibm,
                    &w,
                    Some(obs.clone()),
                );
                fold_run(&mut hash, &run);
                for s in obs.tracer.spans() {
                    fnv1a(&mut hash, s.name.as_bytes());
                    fold_f64(&mut hash, s.start_s);
                    fold_f64(&mut hash, s.dur_s);
                    fnv1a(&mut hash, &s.bytes.to_le_bytes());
                }
                fnv1a(
                    &mut hash,
                    format!("{:?}", obs.registry.to_json()).as_bytes(),
                );
                n += 1;
            }
        }
    }
    assert_eq!(n, 54);
    assert_eq!(hash, 0xa154_6b87_047b_a229, "observed runs: {hash:#018x}");
}

#[test]
fn verifier_programs_match_recorded_fingerprint() {
    let mut hash = FNV_OFFSET;
    let mut n = 0;
    for case in SeismicCase::all() {
        for compiler in COMPILERS {
            for cfg in configs() {
                for w in workloads(case.dims) {
                    for program in case_programs(&case, &cfg, compiler, &w) {
                        fnv1a(&mut hash, format!("{program:?}").as_bytes());
                        n += 1;
                    }
                }
            }
        }
    }
    assert_eq!(n, 216);
    assert_eq!(
        hash, 0xf053_d217_f745_6410,
        "verifier programs: {hash:#018x}"
    );
}
