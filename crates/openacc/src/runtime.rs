//! The OpenACC runtime: clock, launches, data movement, async queues.

use crate::compiler::Compiler;
use crate::construct::{Clause, ConstructKind, LoopNest};
use crate::data::{DataEnv, DataError};
use acc_obs::{ObsSession, Span, SpanCat, Track};
use accel_sim::kernel::{roofline_terms, KernelProfile, KernelTiming};
use accel_sim::pcie::{HostAlloc, TransferKind};
use accel_sim::stream::{IssueMode, QueuedKernel, StreamSim};
use accel_sim::{DeviceSpec, EventKind, Profiler, SimTime};
use seismic_prop::desc::KernelDesc;
use std::sync::Arc;

/// A device context: simulated clock + data environment + async queues.
///
/// Drivers call [`AccRuntime::launch`] once per kernel per time step with
/// the propagator's static descriptor and the directives they would have
/// written in Fortran; the runtime lowers them through the configured
/// compiler, prices the launch, and advances the simulated clock.
pub struct AccRuntime {
    compiler: Compiler,
    data: DataEnv,
    profiler: Profiler,
    queue: StreamSim,
    clock: SimTime,
    /// Observability session, when attached: receives directive/kernel/
    /// transfer spans, per-kernel counters, and registry increments in
    /// addition to the profiler ledger. Never perturbs modeled timings.
    obs: Option<Arc<ObsSession>>,
    /// Global `-ta=nvidia,maxregcount:n` compile flag (the paper's best
    /// strategy pinned 64).
    pub default_maxregcount: Option<u32>,
}

impl AccRuntime {
    /// New runtime for a device/compiler pair with pinned host memory (the
    /// paper's best compile line uses `pin`).
    pub fn new(dev: DeviceSpec, compiler: Compiler) -> Self {
        Self {
            compiler,
            data: DataEnv::new(dev, HostAlloc::Pinned),
            profiler: Profiler::new(),
            queue: StreamSim::new(),
            clock: 0.0,
            obs: None,
            default_maxregcount: Some(64),
        }
    }

    /// Attach an observability session; subsequent launches, waits, and
    /// data directives record spans, counters, and metrics into it.
    pub fn attach_obs(&mut self, obs: Arc<ObsSession>) {
        self.obs = Some(obs);
    }

    /// The attached observability session, if any.
    pub fn obs(&self) -> Option<&Arc<ObsSession>> {
        self.obs.as_ref()
    }

    /// The device spec.
    pub fn device(&self) -> &DeviceSpec {
        self.data.device()
    }

    /// The configured compiler.
    pub fn compiler(&self) -> Compiler {
        self.compiler
    }

    /// The data environment.
    pub fn data(&mut self) -> &mut DataEnv {
        &mut self.data
    }

    /// The profiler ledger.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Simulated wall-clock so far.
    pub fn elapsed(&self) -> SimTime {
        self.clock
    }

    /// Add host-side simulated time (e.g. the CPU part of a driver step).
    pub fn advance_host(&mut self, dt: SimTime) {
        self.clock += dt;
    }

    /// Launch one kernel described by `desc` over `nest` under the given
    /// construct and clauses. Synchronous launches advance the clock
    /// immediately; async launches queue until [`AccRuntime::wait_async`].
    pub fn launch(
        &mut self,
        desc: &KernelDesc,
        nest: &LoopNest,
        kind: ConstructKind,
        clauses: &[Clause],
    ) -> KernelTiming {
        let plan = self
            .compiler
            .map(nest, kind, clauses, desc.divergence > 0.0);
        let dev = self.data.device();
        let rw = desc.reads + desc.writes;
        let profile = KernelProfile {
            name: desc.name.to_string(),
            points: nest.points(),
            flops_per_point: desc.flops,
            bytes_per_point: desc.bytes_per_point(),
            regs_needed: desc.regs,
            maxregcount: plan.maxregcount.or(self.default_maxregcount),
            coalesced: desc.coalesced && plan.coalesced,
            divergence: desc.divergence,
            vectorized: plan.vectorized,
            read_fraction: if rw > 0.0 { desc.reads / rw } else { 0.5 },
        };
        let terms = roofline_terms(dev, &profile);
        let exec_s = terms.exec_s * plan.quality;
        let timing = KernelTiming {
            total_s: exec_s + dev.launch_overhead_s,
            exec_s,
            memory_bound: terms.memory_bound,
            occupancy: terms.occupancy,
            spilled: terms.spilled,
        };
        if let Some(obs) = &self.obs {
            obs.record_kernel(dev, &profile, &terms, exec_s);
        }

        let stream = plan.async_stream.unwrap_or(0);
        match plan.async_stream {
            Some(q) => {
                // Async: the kernel's true start is only known once the
                // drain schedule runs, so profiler/tracer recording is
                // deferred to the wait (see `wait_async`).
                let capacity = f64::from(dev.sm_count) * f64::from(dev.max_threads_per_sm);
                self.queue.push(QueuedKernel {
                    name: desc.name.to_string(),
                    exec_s,
                    sm_fraction: ((nest.points() as f64) / capacity).min(1.0),
                    stream: q,
                });
            }
            None => {
                // Sync: the host pays the issue gap, the device the launch
                // overhead, then the kernel executes.
                let start = self.clock + dev.issue_gap_s + dev.launch_overhead_s;
                self.profiler
                    .record(EventKind::Kernel, desc.name, start, exec_s, stream);
                if let Some(obs) = &self.obs {
                    obs.span(Span::new(
                        Track::Host,
                        SpanCat::Directive,
                        format!("launch:{}", desc.name),
                        self.clock,
                        dev.issue_gap_s + dev.launch_overhead_s,
                    ));
                    obs.span(Span::new(
                        Track::DeviceStream(stream),
                        SpanCat::Kernel,
                        desc.name,
                        start,
                        exec_s,
                    ));
                }
                self.clock += dev.issue_gap_s + timing.total_s;
            }
        }
        timing
    }

    /// `!$acc wait` — drain all async queues, advancing the clock by the
    /// overlapped makespan. A `wait` with nothing pending is the
    /// OpenACC-spec no-op: it returns `0.0` and leaves the clock alone.
    pub fn wait_async(&mut self) -> SimTime {
        if self.queue.is_empty() {
            return 0.0;
        }
        let dev = self.data.device().clone();
        let sched = self.queue.drain_schedule(&dev, IssueMode::AsyncStreams);
        self.record_drained(&sched);
        self.clock += sched.makespan_s;
        sched.makespan_s
    }

    /// Deferred recording of async work at its wait: the drain schedule
    /// fixed each kernel's true start (relative to the wait, i.e. the
    /// current clock), so the profiler ledger and the trace carry real
    /// timestamps instead of a serial-per-stream approximation.
    fn record_drained(&mut self, sched: &accel_sim::DrainSchedule) {
        let base = self.clock;
        for k in &sched.kernels {
            self.profiler.record(
                EventKind::Kernel,
                k.name.clone(),
                base + k.start_s,
                k.exec_s,
                k.stream,
            );
        }
        if let Some(obs) = &self.obs {
            for k in &sched.kernels {
                obs.span(Span::new(
                    Track::DeviceStream(k.stream),
                    SpanCat::Kernel,
                    k.name.clone(),
                    base + k.start_s,
                    k.exec_s,
                ));
            }
            obs.span(Span::new(
                Track::Host,
                SpanCat::Wait,
                "wait",
                base,
                sched.makespan_s,
            ));
        }
    }

    /// Data directive: `enter data copyin`, advancing the clock.
    pub fn enter_data_copyin(&mut self, name: &str, bytes: u64) -> Result<(), DataError> {
        let now = self.clock;
        let t = self
            .data
            .enter_data_copyin(name, bytes, now, &self.profiler)?;
        if let Some(obs) = &self.obs {
            obs.span(
                Span::new(
                    Track::DeviceStream(0),
                    SpanCat::MemcpyH2D,
                    format!("copyin:{name}"),
                    now,
                    t,
                )
                .with_bytes(bytes),
            );
            obs.registry.inc("bytes_h2d", bytes);
        }
        self.clock += t;
        Ok(())
    }

    /// Data directive: `enter data create` (no transfer).
    pub fn enter_data_create(&mut self, name: &str, bytes: u64) -> Result<(), DataError> {
        let t = self.data.enter_data_create(name, bytes)?;
        self.clock += t;
        Ok(())
    }

    /// Data directive: `exit data delete`.
    pub fn exit_data_delete(&mut self, name: &str) -> Result<(), DataError> {
        self.data.exit_data_delete(name)?;
        if let Some(obs) = &self.obs {
            obs.span(Span::new(
                Track::DeviceStream(0),
                SpanCat::Directive,
                format!("delete:{name}"),
                self.clock,
                0.0,
            ));
        }
        Ok(())
    }

    /// `update host`, advancing the clock.
    pub fn update_host(
        &mut self,
        name: &str,
        bytes: Option<u64>,
        kind: TransferKind,
    ) -> Result<SimTime, DataError> {
        let now = self.clock;
        let moved = self.moved_bytes(name, bytes);
        let t = self
            .data
            .update_host(name, bytes, kind, now, &self.profiler)?;
        if let Some(obs) = &self.obs {
            obs.span(
                Span::new(
                    Track::DeviceStream(0),
                    SpanCat::MemcpyD2H,
                    format!("update_host:{name}"),
                    now,
                    t,
                )
                .with_bytes(moved),
            );
            obs.registry.inc("bytes_d2h", moved);
        }
        self.clock += t;
        Ok(t)
    }

    /// `update device`, advancing the clock.
    pub fn update_device(
        &mut self,
        name: &str,
        bytes: Option<u64>,
        kind: TransferKind,
    ) -> Result<SimTime, DataError> {
        let now = self.clock;
        let moved = self.moved_bytes(name, bytes);
        let t = self
            .data
            .update_device(name, bytes, kind, now, &self.profiler)?;
        if let Some(obs) = &self.obs {
            obs.span(
                Span::new(
                    Track::DeviceStream(0),
                    SpanCat::MemcpyH2D,
                    format!("update_device:{name}"),
                    now,
                    t,
                )
                .with_bytes(moved),
            );
            obs.registry.inc("bytes_h2d", moved);
        }
        self.clock += t;
        Ok(t)
    }

    /// Bytes a ranged `update` of `name` actually moves.
    fn moved_bytes(&self, name: &str, bytes: Option<u64>) -> u64 {
        let mapped = self.data.mapped_bytes(name).unwrap_or(0);
        bytes.unwrap_or(mapped).min(mapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::PgiVersion;
    use seismic_prop::desc::KernelDesc;

    fn desc() -> KernelDesc {
        KernelDesc {
            name: "test_kernel",
            flops: 58.0,
            reads: 4.6,
            writes: 1.0,
            regs: 52,
            coalesced: true,
            divergence: 0.0,
        }
    }

    fn rt() -> AccRuntime {
        AccRuntime::new(DeviceSpec::k40(), Compiler::Pgi(PgiVersion::V14_6))
    }

    #[test]
    fn sync_launch_advances_clock() {
        let mut r = rt();
        let nest = LoopNest::new(&[128, 128, 128]);
        let t0 = r.elapsed();
        let timing = r.launch(
            &desc(),
            &nest,
            ConstructKind::Kernels,
            &[Clause::Independent],
        );
        assert!(r.elapsed() > t0);
        assert!(timing.exec_s > 0.0);
        assert_eq!(r.profiler().len(), 1);
    }

    #[test]
    fn async_launches_wait_for_drain() {
        let mut r = AccRuntime::new(DeviceSpec::k40(), Compiler::Cray);
        let nest = LoopNest::new(&[64, 64]);
        let before = r.elapsed();
        for q in 0..4 {
            r.launch(&desc(), &nest, ConstructKind::Parallel, &[Clause::Async(q)]);
        }
        // Async launches do not advance the clock until the wait.
        assert_eq!(r.elapsed(), before);
        let t = r.wait_async();
        assert!(t > 0.0);
        assert_eq!(r.elapsed(), before + t);
        // Second wait is a no-op.
        assert_eq!(r.wait_async(), 0.0);
    }

    /// The paper's async contrast: under CRAY, issuing the independent
    /// kernels on async streams beats synchronous issue of the *same*
    /// kernels (reduced launch lag); under PGI the clause changes nothing
    /// because it lands everything on one queue.
    #[test]
    fn cray_async_beats_cray_sync_pgi_unchanged() {
        let nest = LoopNest::new(&[512, 512]);
        let run = |compiler: Compiler, use_async: bool| {
            let mut r = AccRuntime::new(DeviceSpec::k40(), compiler);
            for q in 0..4u32 {
                let mut clauses = Vec::new();
                if use_async {
                    clauses.push(Clause::Async(q));
                }
                r.launch(&desc(), &nest, ConstructKind::Parallel, &clauses);
            }
            r.wait_async();
            r.elapsed()
        };
        let cray_sync = run(Compiler::Cray, false);
        let cray_async = run(Compiler::Cray, true);
        assert!(
            cray_async < cray_sync,
            "async {cray_async} vs sync {cray_sync}"
        );
        let pgi_sync = run(Compiler::Pgi(PgiVersion::V14_6), false);
        let pgi_async = run(Compiler::Pgi(PgiVersion::V14_6), true);
        assert!((pgi_sync - pgi_async).abs() < 1e-12, "PGI ignores async");
    }

    #[test]
    fn data_directives_roundtrip() {
        let mut r = rt();
        r.enter_data_copyin("u", 1 << 20).unwrap();
        let t = r
            .update_host("u", Some(1 << 10), TransferKind::Contiguous)
            .unwrap();
        assert!(t > 0.0);
        r.exit_data_delete("u").unwrap();
        assert!(r
            .update_device("u", None, TransferKind::Contiguous)
            .is_err());
    }

    #[test]
    fn maxregcount_default_applies() {
        let mut r = rt();
        r.default_maxregcount = Some(32);
        let mut d = desc();
        d.regs = 80; // above the cap → spills
        let nest = LoopNest::new(&[256, 256]);
        let t = r.launch(&d, &nest, ConstructKind::Kernels, &[]);
        assert!(t.spilled > 0);
        // Explicit clause overrides the default.
        let t2 = r.launch(
            &d,
            &nest,
            ConstructKind::Kernels,
            &[Clause::MaxRegCount(128)],
        );
        assert_eq!(t2.spilled, 0);
    }

    #[test]
    fn host_time_accumulates() {
        let mut r = rt();
        r.advance_host(1.5);
        assert_eq!(r.elapsed(), 1.5);
    }

    /// A doubled wait is the spec no-op: it returns `0.0` and leaves the
    /// clock where the first wait put it.
    #[test]
    fn double_wait_is_a_no_op() {
        let mut r = AccRuntime::new(DeviceSpec::k40(), Compiler::Cray);
        let nest = LoopNest::new(&[64, 64]);
        r.launch(&desc(), &nest, ConstructKind::Parallel, &[Clause::Async(2)]);
        assert!(r.wait_async() > 0.0);
        let drained = r.elapsed();
        assert_eq!(r.wait_async(), 0.0);
        assert_eq!(r.elapsed(), drained, "a doubled wait moves the clock");
    }

    #[test]
    fn deferred_async_recording_has_true_starts() {
        let mut r = AccRuntime::new(DeviceSpec::k40(), Compiler::Cray);
        let nest = LoopNest::new(&[64, 64]);
        for q in 0..3 {
            r.launch(&desc(), &nest, ConstructKind::Parallel, &[Clause::Async(q)]);
        }
        assert!(
            r.profiler().is_empty(),
            "async events defer until the wait fixes their start"
        );
        let base = r.elapsed();
        let t = r.wait_async();
        let events = r.profiler().events();
        assert_eq!(events.len(), 3);
        for e in &events {
            assert!(e.start_s >= base, "starts inside the drain window");
            assert!(e.start_s + e.duration_s <= base + t + 1e-12);
        }
    }

    #[test]
    fn obs_session_records_spans_metrics_registry() {
        let mut r = AccRuntime::new(DeviceSpec::k40(), Compiler::Cray);
        let obs = Arc::new(ObsSession::new());
        r.attach_obs(obs.clone());
        let nest = LoopNest::new(&[256, 256]);
        r.enter_data_copyin("u", 1 << 20).unwrap();
        r.launch(&desc(), &nest, ConstructKind::Kernels, &[]);
        r.launch(&desc(), &nest, ConstructKind::Parallel, &[Clause::Async(1)]);
        r.wait_async();
        r.update_host("u", Some(1 << 10), TransferKind::Contiguous)
            .unwrap();
        r.exit_data_delete("u").unwrap();
        assert_eq!(obs.registry.counter("kernels_launched"), 2);
        assert_eq!(obs.registry.counter("bytes_h2d"), 1 << 20);
        assert_eq!(obs.registry.counter("bytes_d2h"), 1 << 10);
        assert_eq!(obs.metrics().get("test_kernel").unwrap().invocations, 2);
        let tracks = obs.tracer.tracks();
        assert!(tracks.contains(&acc_obs::Track::Host));
        assert!(tracks.contains(&acc_obs::Track::DeviceStream(0)));
        assert!(tracks.contains(&acc_obs::Track::DeviceStream(1)));
        // Kernel spans mirror the profiler ledger exactly.
        let kernel_spans: Vec<_> = obs
            .tracer
            .spans()
            .into_iter()
            .filter(|s| s.cat == acc_obs::SpanCat::Kernel)
            .collect();
        assert_eq!(kernel_spans.len(), 2);
        let total_span: f64 = kernel_spans.iter().map(|s| s.dur_s).sum();
        assert!((total_span - r.profiler().compute_time()).abs() < 1e-15);
    }

    /// Attaching observability must not change modeled timings.
    #[test]
    fn obs_does_not_perturb_clock() {
        let run = |observed: bool| {
            let mut r = AccRuntime::new(DeviceSpec::k40(), Compiler::Cray);
            if observed {
                r.attach_obs(Arc::new(ObsSession::new()));
            }
            let nest = LoopNest::new(&[512, 512]);
            r.enter_data_copyin("u", 8 << 20).unwrap();
            r.launch(&desc(), &nest, ConstructKind::Kernels, &[]);
            for q in 0..4 {
                r.launch(&desc(), &nest, ConstructKind::Parallel, &[Clause::Async(q)]);
            }
            r.wait_async();
            r.update_host("u", None, TransferKind::Contiguous).unwrap();
            r.elapsed()
        };
        assert_eq!(run(false), run(true));
    }
}
