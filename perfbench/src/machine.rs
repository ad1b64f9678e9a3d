//! The machine a result was taken on: descriptor, memory-bandwidth
//! ceiling (STREAM triad) and peak resident memory.

use crate::stats::timed;
use serde_json::{Map, Value};
use std::process::Command;

/// Threads the benchmark may keep in flight: every physics call runs at
/// this many gangs.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Size in bytes of the level-`level` data or unified cache of CPU 0.
pub fn cache_bytes(level: u32) -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.flatten().find_map(|entry| {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let lvl = read("level")?.trim().parse::<u32>().ok()?;
        if lvl != level || read("type")?.trim() == "Instruction" {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (size, 1),
            },
        };
        digits.parse::<u64>().ok().map(|n| n * scale)
    })
}

/// First line of a command's standard output, when it runs and succeeds.
fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// The commit of the working directory, when it is the top of a git
/// checkout (a plain source tree reports `unknown`).
fn git_commit() -> String {
    let cwd = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = command_line("git", &["rev-parse", "--show-toplevel"])
        .and_then(|t| std::path::PathBuf::from(t).canonicalize().ok());
    match (cwd, top) {
        (Some(c), Some(t)) if c == t => {
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Result of the bandwidth probe.
pub struct Triad {
    /// Best sustained triad bandwidth over the passes, GB/s (10⁹ B/s).
    pub gbs: f64,
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
    /// Timed passes.
    pub passes: usize,
}

/// STREAM triad `a = b + s·c` over three f64 arrays of `array_bytes` each,
/// split over `threads` threads, counting 24 bytes per element (two loads,
/// one store). Reports the best of `passes` timed passes, as STREAM does.
pub fn triad(array_bytes: u64, threads: usize, passes: usize) -> Triad {
    let n = (array_bytes / 8) as usize;
    let chunk = n.div_ceil(threads.max(1));
    let mut a = vec![0.0f64; n];
    let mut b = vec![0.0f64; n];
    let mut c = vec![0.0f64; n];
    let sweep = |a: &mut [f64], b: &mut [f64], c: &mut [f64], init: bool| {
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(c.chunks_mut(chunk))
            {
                s.spawn(move || {
                    if init {
                        // First touch from the thread that later streams it.
                        a.fill(0.0);
                        b.fill(1.0);
                        c.fill(2.0);
                    } else {
                        for ((x, y), z) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                            *x = y + 3.0 * z;
                        }
                    }
                });
            }
        });
    };
    sweep(&mut a, &mut b, &mut c, true);
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let ((), dt) = timed(|| sweep(&mut a, &mut b, &mut c, false));
        best = best.min(dt);
    }
    assert!(
        a[n / 2] == 7.0 && a[n - 1] == 7.0,
        "triad produced a wrong value"
    );
    Triad {
        gbs: 24.0 * n as f64 / best / 1e9,
        array_bytes: (n * 8) as u64,
        passes,
    }
}

/// Triad array size: four times the last-level cache, so no array fits in
/// it (64 MiB when the cache size is unknown, at most 1 GiB).
pub fn triad_array_bytes(toy: bool) -> u64 {
    if toy {
        return 8 << 20;
    }
    let llc = cache_bytes(3)
        .or_else(|| cache_bytes(2))
        .unwrap_or(16 << 20);
    (4 * llc).clamp(64 << 20, 1 << 30)
}

/// The descriptor recorded with every result.
pub fn descriptor(triad: &Triad) -> Value {
    let mut m = Map::new();
    m.insert("nproc", nproc());
    m.insert("cpu_model", cpu_model());
    m.insert("l2_bytes", cache_bytes(2));
    m.insert("l3_bytes", cache_bytes(3));
    m.insert("triad_gbs", triad.gbs);
    m.insert("triad_array_bytes", triad.array_bytes);
    m.insert("triad_passes", triad.passes);
    m.insert(
        "rustc",
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    );
    m.insert("git_commit", git_commit());
    Value::Object(m)
}
