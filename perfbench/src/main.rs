//! The repository benchmark: one workload per invocation, measured for a
//! fixed time by a single process in a closed loop (one iteration at a
//! time, after one untimed warm-up), every physics call at as many gangs
//! as the machine has cores.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer ladder with `--trace 1`. The line before
//! it is a detail record: machine descriptor, sample count behind every
//! metric, error rate, and every iteration's wall time. `--toy` shrinks every problem for the self-test. README.md
//! documents the workloads and metrics.

mod ladder;
mod machine;
mod paper;
mod rtm3d;
mod stats;
mod survey;

use exec_host::prof;
use rtm3d::Shot3;
use seismic_grid::{Field2, Field3};
use seismic_source::Seismogram;
use serde_json::{Map, Value};
use stats::{median, timed};
use std::time::Instant;
use survey::Survey;

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 2] = ["survey2d_iso", "rtm3d_iso_randb"];

/// Seed reserved for re-checking performance claims: tune on any other.
pub const RESERVED_SEED: u64 = 2015;

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// Set-ups timed after each iteration.
const SETUPS_PER_ITERATION: usize = 5;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut toy) = (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            toy = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("expected 0 to 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        toy,
    })
}

/// The inputs of the selected workload (one value per process, so the
/// variants' size difference costs nothing).
#[allow(clippy::large_enum_variant)]
enum Inputs {
    Survey(Survey),
    Shot3(Shot3),
}

/// What one iteration produced.
#[derive(PartialEq)]
enum Output {
    Image2(Field2),
    Image3(Field3),
}

impl Inputs {
    /// Set-up: build the inputs (model, boundaries, acquisition,
    /// randomized halo) from the seed.
    fn new(args: &Args) -> Self {
        if args.workload == "survey2d_iso" {
            Inputs::Survey(Survey::new(args.seed, args.toy))
        } else {
            Inputs::Shot3(Shot3::new(args.seed, args.toy))
        }
    }

    fn iterate(&self, gangs: usize) -> Output {
        match self {
            Inputs::Survey(s) => Output::Image2(s.iterate(gangs)),
            Inputs::Shot3(s) => Output::Image3(s.iterate(gangs)),
        }
    }

    /// The muted shot records the layer rebuild's receiver passes inject.
    fn muted_records(&self, gangs: usize) -> Vec<Seismogram> {
        match self {
            Inputs::Survey(s) => s.muted_records(gangs),
            Inputs::Shot3(s) => vec![s.muted_record(gangs)],
        }
    }

    /// One iteration rebuilt from timed layer calls, in seconds.
    fn layers_s(&self, muted: &[Seismogram], gangs: usize) -> f64 {
        match self {
            Inputs::Survey(s) => ladder::survey_layers_s(s, muted, gangs),
            Inputs::Shot3(s) => ladder::shot3_layers_s(s, &muted[0], gangs),
        }
    }

    /// Interior grid-point updates per iteration.
    fn points_per_iteration(&self) -> f64 {
        match self {
            Inputs::Survey(s) => s.points_per_iteration(),
            Inputs::Shot3(s) => s.points_per_iteration(),
        }
    }

    /// Checks of the warm-up output against independent references, run
    /// once after the timed loop. Returns the failures.
    fn check(&self, first: &Output, gangs: usize, detail: &mut Map) -> Vec<String> {
        match (self, first) {
            (Inputs::Survey(s), Output::Image2(img)) => s.check(img, gangs),
            (Inputs::Shot3(s), Output::Image3(img)) => {
                let (corr, fails) = s.check(img, gangs);
                detail.insert("dense_image_correlation", corr);
                detail.insert("min_correlation", rtm3d::MIN_CORRELATION);
                fails
            }
            _ => unreachable!("output matches its workload"),
        }
    }
}

/// Everything one invocation reports.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub detail: Map,
}

/// Run one workload as the command line asks.
pub fn run(args: &Args) -> Report {
    let gangs = machine::nproc();
    let mut detail = Map::new();

    // The process-wide gang pool the physics drivers run on starts on
    // first use, once per process: timed once, apart from the set-up.
    let (_, pool_s) = timed(exec_host::GangPool::global);
    let (inputs, dt) = timed(|| Inputs::new(args));
    let mut setup_s = vec![dt];
    let first = inputs.iterate(gangs);

    let muted = if args.trace {
        inputs.muted_records(gangs)
    } else {
        Vec::new()
    };

    // Closed loop. Every output must repeat the warm-up's bit for bit. In
    // the traced run each plain iteration is followed by the same
    // iteration with the host profiler on and by its rebuild from timed
    // layer calls, so the three see the same machine speed, which drifts
    // by tens of percent over minutes. The set-up is timed again after
    // each iteration, so its samples span the window like the iterations
    // do instead of hanging on the machine's speed at one instant.
    let (mut attempted, mut failed) = (0usize, 0usize);
    let (mut plain_s, mut overhead, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let mut dropped = 0u64;
    let start = Instant::now();
    loop {
        let cycle_start = start.elapsed().as_secs_f64();
        let (out, wall) = timed(|| inputs.iterate(gangs));
        plain_s.push(wall);
        let mut outs = vec![out];
        if args.trace {
            let _ = prof::drain();
            prof::set_enabled(true);
            let (out, profiled) = timed(|| inputs.iterate(gangs));
            prof::set_enabled(false);
            let p = prof::drain();
            dropped += p.dropped + p.thread_overflow;
            outs.push(out);
            overhead.push(profiled / wall - 1.0);
            unattributed.push(1.0 - inputs.layers_s(&muted, gangs) / wall);
        }
        for out in outs {
            attempted += 1;
            if out != first {
                failed += 1;
            }
        }
        for _ in 0..SETUPS_PER_ITERATION {
            let (again, dt) = timed(|| Inputs::new(args));
            setup_s.push(dt);
            drop(again);
        }
        // A traced cycle is three iterations long, so the traced loop ends
        // before a cycle that would finish past the window: on a host in a
        // slow phase, one cycle too many would push the run past its time
        // limit.
        let now = start.elapsed().as_secs_f64();
        let next_end = if args.trace {
            2.0 * now - cycle_start
        } else {
            now
        };
        if next_end >= args.seconds {
            break;
        }
    }
    let peak_rss_mb = machine::peak_rss_mb();

    let mut fails = inputs.check(&first, gangs, &mut detail);
    let mut metrics = Vec::new();
    let m = |name, unit, value, samples| Metric {
        name,
        unit,
        value,
        samples,
    };
    let triad = machine::triad(machine::triad_array_bytes(args.toy), gangs, 5);
    if args.trace {
        drop(inputs);
        fails.extend(ladder::run(
            args.seed,
            args.toy,
            gangs,
            triad.gbs,
            &mut metrics,
            &mut detail,
        ));
        metrics.push(m("setup.pool_s", "s", pool_s, 1));
        metrics.push(m("machine.triad_gbs", "GB/s", triad.gbs, triad.passes));
        metrics.push(m(
            "ladder.unattributed_frac",
            "fraction",
            median(&unattributed),
            unattributed.len(),
        ));
        metrics.push(m(
            "trace.overhead_frac",
            "fraction",
            median(&overhead),
            overhead.len(),
        ));
        detail.insert("loop_prof_dropped_events", dropped);
    } else {
        // The fastest iteration: contention from other tenants of the host
        // only ever adds time, and its slow phases last minutes, longer
        // than a run, so they move a run's median but rarely its minimum.
        let wall_s = plain_s.iter().copied().fold(f64::INFINITY, f64::min);
        metrics.push(m("wall_s", "s", wall_s, plain_s.len()));
        metrics.push(m(
            "gpts_per_s",
            "Gpts/s",
            inputs.points_per_iteration() / wall_s / 1e9,
            plain_s.len(),
        ));
        metrics.push(m("setup_s", "s", median(&setup_s), setup_s.len()));
        metrics.push(m("peak_rss_mb", "MiB", peak_rss_mb, 1));
        detail.insert("median_iteration_s", median(&plain_s));
        detail.insert(
            "iteration_s",
            plain_s.iter().map(|&s| Value::from(s)).collect::<Vec<_>>(),
        );
    }
    if !fails.is_empty() {
        // Every passing iteration repeated the warm-up output bit for bit,
        // so a failed reference check makes every iteration wrong.
        failed = attempted;
    }

    detail.insert("workload", args.workload.as_str());
    detail.insert("seed", args.seed);
    detail.insert("reserved_seed", RESERVED_SEED);
    detail.insert("trace", args.trace);
    detail.insert("toy", args.toy);
    detail.insert("gangs", gangs);
    detail.insert("machine", machine::descriptor(&triad));
    detail.insert("error_rate", failed as f64 / attempted as f64);
    detail.insert(
        "failures",
        fails.into_iter().map(Value::from).collect::<Vec<_>>(),
    );
    let mut samples = Map::new();
    for m in &metrics {
        samples.insert(m.name, m.samples);
    }
    detail.insert("samples", samples);
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(r: &Report) -> Value {
    let mut metrics = Map::new();
    for m in &r.metrics {
        let mut v = Map::new();
        v.insert("value", m.value);
        v.insert("unit", m.unit);
        metrics.insert(m.name, v);
    }
    let mut o = Map::new();
    o.insert("correct", r.correct);
    o.insert("attempted", r.attempted);
    o.insert("failed", r.failed);
    o.insert("metrics", metrics);
    Value::Object(o)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    let result = result_json(&report);
    let mut detail = Map::new();
    detail.insert("detail", report.detail);
    println!("{}", serde_json::to_string(&Value::Object(detail)));
    println!("{}", serde_json::to_string(&result));
}

#[cfg(test)]
mod selftest {
    use super::*;

    /// Names of one BENCHMARK.json list.
    fn names(doc: &Value, section: &str) -> Vec<String> {
        doc.get(section)
            .and_then(Value::as_array)
            .expect("section is a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Toy-size run of every workload, untraced and traced: each emits
    /// exactly the metrics BENCHMARK.json names for that mode, each with a
    /// valid name and unit and a finite value, and every output check
    /// passes.
    #[test]
    fn every_workload_emits_every_named_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
        for workload in WORKLOADS {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    toy: true,
                };
                let r = run(&args);
                assert!(
                    r.correct,
                    "{workload} trace={trace}: {:?}",
                    r.detail.get("failures")
                );
                assert!(r.attempted >= 1 && r.failed == 0);
                let mut emitted: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
                let mut listed = names(&doc, section);
                emitted.sort_unstable();
                listed.sort_unstable();
                assert_eq!(emitted, listed, "{workload} trace={trace}");
                for m in &r.metrics {
                    assert!(valid_name(m.name), "bad name {}", m.name);
                    assert!(
                        !m.unit.is_empty()
                            && m.unit.len() <= 16
                            && m.unit
                                .chars()
                                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                        "bad unit {:?} of {}",
                        m.unit,
                        m.name
                    );
                    assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                    assert!(m.samples >= 1, "{} has no samples", m.name);
                }
            }
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload survey2d_iso --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload survey2d_iso --seed -1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload survey2d_iso --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload survey2d_iso --seed 1 --seconds 10").is_err());
    }
}
