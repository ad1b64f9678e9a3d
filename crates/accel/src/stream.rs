//! Stream/async execution timeline.
//!
//! Models the paper's Section 5.2 async findings:
//!
//! * synchronously issued kernels pay the CPU→GPU *issue gap* between every
//!   launch ("the async on parallel and kernels directives is useful to let
//!   the CPU queue up the next work unit"),
//! * truly overlapping big kernels is hard — "the available streaming
//!   multiprocessors are occupied by one or few kernels" — so execution
//!   time overlaps only to the extent kernels leave SMs idle,
//! * "using multiple streams can lead to small jobs packing on to the
//!   device all at once and ... reduced lag time between kernel launches" —
//!   the mechanism behind the CRAY 30 % improvement (Figure 11).

use crate::{DeviceSpec, SimTime};

/// One unit of queued device work.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedKernel {
    /// Kernel name (profiler correlation).
    pub name: String,
    /// Execution time excluding launch costs.
    pub exec_s: SimTime,
    /// Fraction of the device's SMs the kernel keeps busy (1.0 = saturates).
    pub sm_fraction: f64,
    /// Stream the kernel was issued to.
    pub stream: u32,
}

/// Issue semantics for a batch of kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueMode {
    /// One implicit stream; the host waits for each launch to be consumed
    /// before preparing the next (pays the issue gap every time).
    Synchronous,
    /// Kernels spread across async streams; the host queues ahead so issue
    /// gaps are paid once, and kernels may overlap where SMs are free.
    AsyncStreams,
}

/// One kernel placed on the drain timeline: where it starts (relative to
/// the drain origin) and how long it runs. The layout is an *attribution*
/// of the batch makespan to per-stream tracks — spans on one stream are
/// serial and non-overlapping, and every span ends at or before the
/// makespan — so traces built from it agree with the aggregate model.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledKernel {
    /// Kernel name (profiler correlation).
    pub name: String,
    /// Start offset from the drain origin, seconds.
    pub start_s: SimTime,
    /// Execution time, seconds.
    pub exec_s: SimTime,
    /// Stream the kernel ran on.
    pub stream: u32,
}

/// Result of draining a batch: the makespan (identical to what
/// [`StreamSim::drain_makespan`] returns) plus the per-kernel timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainSchedule {
    /// Total wall time of the batch, seconds.
    pub makespan_s: SimTime,
    /// Per-kernel placements, in issue order.
    pub kernels: Vec<ScheduledKernel>,
}

/// Simulated device work queue.
#[derive(Debug, Default)]
pub struct StreamSim {
    queue: Vec<QueuedKernel>,
}

impl StreamSim {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue one kernel.
    pub fn push(&mut self, k: QueuedKernel) {
        self.queue.push(k);
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Compute the makespan of the queued batch under the given issue mode,
    /// then clear the queue.
    pub fn drain_makespan(&mut self, dev: &DeviceSpec, mode: IssueMode) -> SimTime {
        self.drain_schedule(dev, mode).makespan_s
    }

    /// [`Self::drain_makespan`] plus the per-kernel timeline. The makespan
    /// is byte-identical to the aggregate formula; the spans attribute it:
    ///
    /// * `Synchronous` — strictly serial: each kernel starts one issue gap
    ///   plus one launch overhead after its predecessor finished.
    /// * `AsyncStreams` — kernel `i` becomes *launchable* once the host has
    ///   issued it (`issue_gap + (i+1)·launch_overhead`) and starts at the
    ///   later of that and its stream's cursor, so spans on one stream
    ///   never overlap while different streams run concurrently.
    pub fn drain_schedule(&mut self, dev: &DeviceSpec, mode: IssueMode) -> DrainSchedule {
        let kernels = std::mem::take(&mut self.queue);
        if kernels.is_empty() {
            return DrainSchedule {
                makespan_s: 0.0,
                kernels: Vec::new(),
            };
        }
        match mode {
            IssueMode::Synchronous => {
                let mut cursor = 0.0;
                let mut spans = Vec::with_capacity(kernels.len());
                for k in kernels {
                    let start = cursor + dev.issue_gap_s + dev.launch_overhead_s;
                    cursor = start + k.exec_s;
                    spans.push(ScheduledKernel {
                        name: k.name,
                        start_s: start,
                        exec_s: k.exec_s,
                        stream: k.stream,
                    });
                }
                DrainSchedule {
                    makespan_s: cursor,
                    kernels: spans,
                }
            }
            IssueMode::AsyncStreams => {
                let n_streams = kernels
                    .iter()
                    .map(|k| k.stream)
                    .collect::<std::collections::HashSet<_>>()
                    .len()
                    .clamp(1, dev.async_streams as usize);
                // Queued-ahead launches: the first kernel pays the gap, the
                // rest are already resident in the queues.
                let setup = dev.issue_gap_s + kernels.len() as f64 * dev.launch_overhead_s;
                // Execution overlap: total SM-seconds cannot shrink, and a
                // kernel occupying the full device serializes regardless of
                // streams. Makespan ≥ both bounds.
                let sm_seconds: f64 = kernels.iter().map(|k| k.exec_s * k.sm_fraction).sum();
                let longest = kernels.iter().map(|k| k.exec_s).fold(0.0f64, f64::max);
                let _ = n_streams;
                let makespan = setup + sm_seconds.max(longest);
                // Timeline attribution: kernel i is launchable once the
                // host has pushed it into its queue; within a stream work
                // stays serial.
                let mut cursors: std::collections::HashMap<u32, SimTime> =
                    std::collections::HashMap::new();
                let mut spans = Vec::with_capacity(kernels.len());
                for (i, k) in kernels.into_iter().enumerate() {
                    let issued = dev.issue_gap_s + (i as f64 + 1.0) * dev.launch_overhead_s;
                    let cursor = cursors.entry(k.stream).or_insert(0.0);
                    let start = cursor.max(issued);
                    *cursor = start + k.exec_s;
                    spans.push(ScheduledKernel {
                        name: k.name,
                        start_s: start,
                        exec_s: k.exec_s,
                        stream: k.stream,
                    });
                }
                DrainSchedule {
                    makespan_s: makespan,
                    kernels: spans,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(name: &str, exec_ms: f64, frac: f64, stream: u32) -> QueuedKernel {
        QueuedKernel {
            name: name.into(),
            exec_s: exec_ms * 1e-3,
            sm_fraction: frac,
            stream,
        }
    }

    #[test]
    fn empty_queue_is_zero() {
        let mut s = StreamSim::new();
        assert!(s.is_empty());
        assert_eq!(
            s.drain_makespan(&DeviceSpec::k40(), IssueMode::Synchronous),
            0.0
        );
    }

    /// Saturating kernels gain only the hidden issue gaps from async —
    /// the paper's "overlapping GPU kernels is very hard ... as the
    /// available streaming multiprocessors are occupied by one or few
    /// kernels", with the observed gain coming from reduced launch lag.
    #[test]
    fn async_gain_on_saturating_kernels_is_launch_lag_only() {
        let dev = DeviceSpec::k40();
        let mut s = StreamSim::new();
        let mut a = StreamSim::new();
        for i in 0..6 {
            s.push(k(&format!("k{i}"), 0.05, 1.0, 0));
            a.push(k(&format!("k{i}"), 0.05, 1.0, i));
        }
        let sync = s.drain_makespan(&dev, IssueMode::Synchronous);
        let asy = a.drain_makespan(&dev, IssueMode::AsyncStreams);
        assert!(asy < sync);
        // Exactly the per-kernel issue gaps were saved (minus the one paid).
        let saved = sync - asy;
        let expect = 5.0 * dev.issue_gap_s;
        assert!((saved - expect).abs() < 1e-9, "saved {saved} vs {expect}");
    }

    /// Many *small* kernels (short exec, issue-gap dominated) see large
    /// async gains — this is where the CRAY 30 % comes from on the elastic
    /// 2D model whose per-step kernels are tiny.
    #[test]
    fn async_gain_large_for_small_kernels() {
        let dev = DeviceSpec::k40();
        let mut s = StreamSim::new();
        let mut a = StreamSim::new();
        for i in 0..4 {
            s.push(k(&format!("k{i}"), 0.012, 0.9, 0));
            a.push(k(&format!("k{i}"), 0.012, 0.9, i));
        }
        let sync = s.drain_makespan(&dev, IssueMode::Synchronous);
        let asy = a.drain_makespan(&dev, IssueMode::AsyncStreams);
        let gain = 1.0 - asy / sync;
        assert!(gain > 0.3 && gain < 0.75, "gain {gain}");
    }

    /// Kernels that each use a sliver of the device genuinely overlap.
    #[test]
    fn partial_kernels_overlap() {
        let dev = DeviceSpec::k40();
        let mut a = StreamSim::new();
        for i in 0..4 {
            a.push(k(&format!("k{i}"), 1.0, 0.25, i));
        }
        let asy = a.drain_makespan(&dev, IssueMode::AsyncStreams);
        // 4 kernels × 1 ms × 0.25 = 1 ms of SM-time; makespan ≈ 1 ms.
        assert!(asy < 1.2e-3, "asy {asy}");
    }

    #[test]
    fn longest_kernel_lower_bounds_async() {
        let dev = DeviceSpec::k40();
        let mut a = StreamSim::new();
        a.push(k("big", 5.0, 0.1, 0));
        a.push(k("small", 0.1, 0.1, 1));
        let asy = a.drain_makespan(&dev, IssueMode::AsyncStreams);
        assert!(asy >= 5.0e-3);
    }

    /// The schedule's makespan is the aggregate formula, and its spans are
    /// serial/non-overlapping per stream with every span inside the batch.
    #[test]
    fn schedule_matches_makespan_and_is_per_stream_serial() {
        let dev = DeviceSpec::k40();
        for mode in [IssueMode::Synchronous, IssueMode::AsyncStreams] {
            let mut a = StreamSim::new();
            let mut b = StreamSim::new();
            for i in 0..6 {
                let kk = k(&format!("k{i}"), 0.03 + 0.01 * i as f64, 0.4, i % 3);
                a.push(kk.clone());
                b.push(kk);
            }
            let plain = a.drain_makespan(&dev, mode);
            let sched = b.drain_schedule(&dev, mode);
            assert_eq!(sched.makespan_s, plain, "{mode:?}");
            assert_eq!(sched.kernels.len(), 6);
            let mut last_end: std::collections::HashMap<u32, f64> = Default::default();
            for s in &sched.kernels {
                let prev = last_end.entry(s.stream).or_insert(0.0);
                assert!(
                    s.start_s >= *prev,
                    "{mode:?}: overlap on stream {}",
                    s.stream
                );
                *prev = s.start_s + s.exec_s;
                assert!(s.start_s + s.exec_s <= sched.makespan_s + 1e-12);
            }
        }
    }
}
