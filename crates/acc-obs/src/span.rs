//! Span and track types for the simulated-time timeline.

use accel_sim::SimTime;

/// Which timeline row a span belongs to. Tracks render as separate rows in
/// Perfetto; within one track, spans are expected to be serial (the trace
/// validators enforce monotone, non-overlapping placement per track).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Track {
    /// Host (CPU) activity: directives, phases, host-side compute.
    Host,
    /// One device stream (kernels and the copies issued to it).
    DeviceStream(u32),
    /// One simulated MPI rank (halo exchanges, shot scheduling).
    MpiRank(u32),
    /// One fleet device of the job server (`acc-serve`): shot execution,
    /// backoff sleeps, and circuit-breaker transitions.
    Service(u32),
    /// One wall-clock host-engine thread slot (`exec-host::prof`). Unlike
    /// every other track, timestamps here are **real elapsed seconds**
    /// since the profiler epoch, not simulated time — the label and the
    /// `clock=wall` span arg mark the clock domain when both kinds share
    /// one trace.
    WallWorker(u32),
}

impl Track {
    /// Stable human-readable label — becomes the trace `tid`.
    pub fn label(&self) -> String {
        match self {
            Track::Host => "host".to_string(),
            Track::DeviceStream(s) => format!("stream {s}"),
            Track::MpiRank(r) => format!("rank {r}"),
            Track::Service(d) => format!("serve dev {d}"),
            Track::WallWorker(w) => format!("wall worker {w}"),
        }
    }
}

/// Span category — becomes the trace `cat`, used by Perfetto for filtering
/// and coloring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanCat {
    /// OpenACC directive enter/exit (`parallel`, `kernels`, `data`).
    Directive,
    /// Device kernel execution.
    Kernel,
    /// Host→device transfer.
    MemcpyH2D,
    /// Device→host transfer.
    MemcpyD2H,
    /// Stream/queue wait.
    Wait,
    /// MPI halo exchange.
    Halo,
    /// RTM phase (per-shot forward/backward/imaging).
    Phase,
    /// Checkpoint write or restore.
    Checkpoint,
    /// Resilience event (retry backoff, blacklist, reschedule).
    Resilience,
    /// Job-server event (shot dispatch, shed, breaker transition).
    Service,
    /// Wall-clock gang launch (`par_slabs` end to end) on the host engine.
    Sweep,
    /// Wall-clock slab execution by one gang on the host engine.
    Slab,
    /// Wall-clock fork-join barrier wait on the host engine.
    Barrier,
    /// Wall-clock worker wake latency (job publish → pickup).
    Wake,
}

impl SpanCat {
    /// Stable category string for trace serialization.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanCat::Directive => "directive",
            SpanCat::Kernel => "kernel",
            SpanCat::MemcpyH2D => "memcpy_h2d",
            SpanCat::MemcpyD2H => "memcpy_d2h",
            SpanCat::Wait => "wait",
            SpanCat::Halo => "halo",
            SpanCat::Phase => "phase",
            SpanCat::Checkpoint => "checkpoint",
            SpanCat::Resilience => "resilience",
            SpanCat::Service => "service",
            SpanCat::Sweep => "sweep",
            SpanCat::Slab => "slab",
            SpanCat::Barrier => "barrier",
            SpanCat::Wake => "wake",
        }
    }
}

/// One closed interval on the timeline, in simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Timeline row.
    pub track: Track,
    /// Category.
    pub cat: SpanCat,
    /// Event name (kernel name, `copyin:u`, `halo:north`, …).
    pub name: String,
    /// True simulated start, seconds — propagated from the scheduler that
    /// placed the underlying event, not reconstructed after the fact.
    pub start_s: SimTime,
    /// Duration, seconds.
    pub dur_s: SimTime,
    /// Payload bytes (transfers, halos, checkpoints; 0 = not applicable).
    pub bytes: u64,
    /// Extra key/value annotations (neighbor rank, attempt number, …).
    pub args: Vec<(String, String)>,
}

impl Span {
    /// Span with no byte payload or annotations.
    pub fn new(
        track: Track,
        cat: SpanCat,
        name: impl Into<String>,
        start_s: SimTime,
        dur_s: SimTime,
    ) -> Self {
        Self {
            track,
            cat,
            name: name.into(),
            start_s,
            dur_s,
            bytes: 0,
            args: Vec::new(),
        }
    }

    /// Attach a byte payload.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Attach one key/value annotation.
    pub fn with_arg(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.args.push((key.into(), value.into()));
        self
    }

    /// End timestamp, seconds.
    pub fn end_s(&self) -> SimTime {
        self.start_s + self.dur_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_labels_are_distinct_and_stable() {
        assert_eq!(Track::Host.label(), "host");
        assert_eq!(Track::DeviceStream(3).label(), "stream 3");
        assert_eq!(Track::MpiRank(7).label(), "rank 7");
        assert_eq!(Track::Service(2).label(), "serve dev 2");
        assert_eq!(Track::WallWorker(5).label(), "wall worker 5");
    }

    #[test]
    fn span_builders_compose() {
        let s = Span::new(Track::MpiRank(1), SpanCat::Halo, "halo:up", 0.5, 0.01)
            .with_bytes(4096)
            .with_arg("neighbor", "2");
        assert_eq!(s.end_s(), 0.51);
        assert_eq!(s.bytes, 4096);
        assert_eq!(s.args[0].1, "2");
        assert_eq!(s.cat.as_str(), "halo");
    }
}
