//! Bridge from the host engine's wall-clock profiler to the observability
//! session: `exec_host::prof::HostProfile` → spans on [`Track::WallWorker`]
//! tracks, histograms/counters in the [`Registry`], and a derived
//! [`HostReport`] (utilization, barrier-wait fraction, slab imbalance,
//! per-worker busy/barrier/wake seconds, and whether the profile is
//! complete). [`report`] is the one place a drained profile is summed up.
//!
//! ## Two clock domains, one trace
//!
//! Every other track in the tracer carries *simulated* seconds from the
//! accel-sim scheduler; wall-clock tracks carry *real elapsed* seconds
//! since the profiler epoch. Both render in one Perfetto document — the
//! track label prefix (`wall worker N`) and a `clock=wall` arg on every
//! span mark the domain, so a reader never mistakes modeled time for
//! measured time. The timestamps are deliberately **not** aligned or
//! rescaled: the point of the calibration layer is to compare the two
//! domains, not to blend them.
//!
//! [`Registry`]: crate::Registry

use crate::registry::Histogram;
use crate::session::ObsSession;
use crate::span::{Span, SpanCat, Track};
use exec_host::prof::{phase_name, Event, EventKind, HostProfile};

const NS: f64 = 1e-9;

/// Per-worker-slot wall-clock statistics derived from one profile.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStat {
    /// Thread slot in the profiler's registry.
    pub slot: u32,
    /// Slabs executed.
    pub slabs: u64,
    /// Grid rows executed.
    pub rows: u64,
    /// Seconds inside slab bodies.
    pub busy_s: f64,
    /// Seconds the launching caller spent in the join barrier.
    pub barrier_wait_s: f64,
    /// Seconds of publish→pickup wake latency.
    pub wake_s: f64,
}

/// Gang-level roll-up of one drained host profile.
#[derive(Debug, Clone, PartialEq)]
pub struct HostReport {
    /// Wall-clock extent of the profile (first event start → last end), s.
    pub wall_s: f64,
    /// Per-slot statistics, slot-ordered (slots that only recorded
    /// non-slab events still appear).
    pub workers: Vec<WorkerStat>,
    /// Σ busy / (slab-executing slots × wall): how much of the engaged
    /// threads' time went into slab bodies.
    pub utilization: f64,
    /// Σ barrier-wait / Σ sweep time: the fraction of launch wall time the
    /// caller spent waiting on stragglers.
    pub barrier_wait_frac: f64,
    /// Max slab-executing slot busy time / mean busy time (1.0 = perfectly
    /// balanced claims; 0 when no slabs ran).
    pub imbalance: f64,
    /// Wall seconds per phase: `[forward, backward, imaging]`. Imaging is
    /// nested inside backward.
    pub phases_s: [f64; 3],
    /// Gang launches observed.
    pub sweeps: u64,
    /// Slabs observed.
    pub slabs: u64,
    /// Events lost to full rings.
    pub dropped: u64,
    /// Events lost to thread-slot exhaustion.
    pub thread_overflow: u64,
}

impl HostReport {
    /// True when no event was lost: no ring overflowed and no thread was
    /// refused a slot. An incomplete report undercounts every total.
    pub fn complete(&self) -> bool {
        self.dropped + self.thread_overflow == 0
    }

    /// The report as a JSON object (the `host_profile.json` payload's
    /// `report` section, and the `host` section of accprof's
    /// `report.json`).
    pub fn to_json(&self) -> serde_json::Value {
        let mut o = serde_json::Map::new();
        o.insert("complete", self.complete());
        o.insert("wall_s", self.wall_s);
        o.insert("utilization", self.utilization);
        o.insert("barrier_wait_frac", self.barrier_wait_frac);
        o.insert("imbalance", self.imbalance);
        let mut phases = serde_json::Map::new();
        for (i, s) in self.phases_s.iter().enumerate() {
            phases.insert(phase_name(i as u32), *s);
        }
        o.insert("phases_s", phases);
        o.insert("sweeps", self.sweeps);
        o.insert("slabs", self.slabs);
        o.insert("dropped", self.dropped);
        o.insert("thread_overflow", self.thread_overflow);
        o.insert(
            "workers",
            self.workers
                .iter()
                .map(|w| {
                    let mut m = serde_json::Map::new();
                    m.insert("slot", u64::from(w.slot));
                    m.insert("slabs", w.slabs);
                    m.insert("rows", w.rows);
                    m.insert("busy_s", w.busy_s);
                    m.insert("barrier_wait_s", w.barrier_wait_s);
                    m.insert("wake_s", w.wake_s);
                    serde_json::Value::Object(m)
                })
                .collect::<Vec<serde_json::Value>>(),
        );
        serde_json::Value::Object(o)
    }
}

/// Derive the gang-level report from a drained profile, in one pass over
/// its events.
pub fn report(profile: &HostProfile) -> HostReport {
    let (mut lo_ns, mut hi_ns) = (u64::MAX, 0u64);
    let (mut sweeps, mut sweep_ns, mut barrier_ns) = (0u64, 0u64, 0u64);
    let mut phase_ns = [0u64; 3];
    let mut workers: Vec<WorkerStat> = profile
        .slots
        .iter()
        .map(|s| {
            let (mut slabs, mut rows) = (0u64, 0u64);
            let (mut busy, mut barrier, mut wake) = (0u64, 0u64, 0u64);
            for e in &s.events {
                lo_ns = lo_ns.min(e.start_ns);
                hi_ns = hi_ns.max(e.end_ns);
                match e.kind {
                    EventKind::Slab => {
                        slabs += 1;
                        rows += u64::from(e.arg1);
                        busy += e.dur_ns();
                    }
                    EventKind::BarrierWait => barrier += e.dur_ns(),
                    EventKind::Wake => wake += e.dur_ns(),
                    EventKind::Sweep => {
                        sweeps += 1;
                        sweep_ns += e.dur_ns();
                    }
                    EventKind::Phase => {
                        if let Some(t) = phase_ns.get_mut(e.arg0 as usize) {
                            *t += e.dur_ns();
                        }
                    }
                }
            }
            barrier_ns += barrier;
            WorkerStat {
                slot: s.slot,
                slabs,
                rows,
                busy_s: busy as f64 * NS,
                barrier_wait_s: barrier as f64 * NS,
                wake_s: wake as f64 * NS,
            }
        })
        .collect();
    workers.sort_by_key(|w| w.slot);
    let wall_s = hi_ns.saturating_sub(lo_ns) as f64 * NS;

    let engaged: Vec<&WorkerStat> = workers.iter().filter(|w| w.slabs > 0).collect();
    let busy_total: f64 = engaged.iter().map(|w| w.busy_s).sum();
    let utilization = if wall_s > 0.0 && !engaged.is_empty() {
        busy_total / (engaged.len() as f64 * wall_s)
    } else {
        0.0
    };
    let imbalance = if !engaged.is_empty() && busy_total > 0.0 {
        let max = engaged.iter().map(|w| w.busy_s).fold(0.0, f64::max);
        max / (busy_total / engaged.len() as f64)
    } else {
        0.0
    };
    let barrier_wait_frac = if sweep_ns > 0 {
        barrier_ns as f64 / sweep_ns as f64
    } else {
        0.0
    };

    HostReport {
        wall_s,
        utilization,
        barrier_wait_frac,
        imbalance,
        phases_s: phase_ns.map(|ns| ns as f64 * NS),
        sweeps,
        slabs: workers.iter().map(|w| w.slabs).sum(),
        dropped: profile.dropped,
        thread_overflow: profile.thread_overflow,
        workers,
    }
}

fn span_for(slot: u32, e: &Event) -> Span {
    let (cat, name) = match e.kind {
        EventKind::Sweep => (SpanCat::Sweep, format!("sweep g{}", e.arg0)),
        EventKind::Slab => (SpanCat::Slab, format!("slab g{}", e.arg0)),
        EventKind::BarrierWait => (SpanCat::Barrier, "barrier".to_string()),
        EventKind::Wake => (SpanCat::Wake, "wake".to_string()),
        EventKind::Phase => (SpanCat::Phase, phase_name(e.arg0).to_string()),
    };
    Span::new(
        Track::WallWorker(slot),
        cat,
        name,
        e.start_ns as f64 * NS,
        e.dur_ns() as f64 * NS,
    )
    .with_arg("clock", "wall")
}

/// Ingest a drained profile into a session: spans onto `wall worker N`
/// tracks (tagged `clock=wall`), per-event-kind duration histograms
/// (`host_slab_s`, `host_sweep_s`, `host_barrier_wait_s`, `host_wake_s`),
/// counters (`host_sweeps`, `host_slabs`, `host_prof_dropped`,
/// `host_prof_thread_overflow`), and headline gauges from the derived
/// report. Returns that report.
pub fn ingest(profile: &HostProfile, session: &ObsSession) -> HostReport {
    let mut slab_h = Histogram::default();
    let mut sweep_h = Histogram::default();
    let mut barrier_h = Histogram::default();
    let mut wake_h = Histogram::default();
    for s in &profile.slots {
        for e in &s.events {
            let dur_s = e.dur_ns() as f64 * NS;
            match e.kind {
                EventKind::Slab => slab_h.observe(dur_s),
                EventKind::Sweep => sweep_h.observe(dur_s),
                EventKind::BarrierWait => barrier_h.observe(dur_s),
                EventKind::Wake => wake_h.observe(dur_s),
                EventKind::Phase => {}
            }
            session.span(span_for(s.slot, e));
        }
    }
    session.registry.merge_histogram("host_slab_s", &slab_h);
    session.registry.merge_histogram("host_sweep_s", &sweep_h);
    session
        .registry
        .merge_histogram("host_barrier_wait_s", &barrier_h);
    session.registry.merge_histogram("host_wake_s", &wake_h);

    let rep = report(profile);
    session.registry.inc("host_sweeps", rep.sweeps);
    session.registry.inc("host_slabs", rep.slabs);
    session.registry.inc("host_prof_dropped", rep.dropped);
    session
        .registry
        .inc("host_prof_thread_overflow", rep.thread_overflow);
    session
        .registry
        .set_gauge("host_utilization", rep.utilization);
    session
        .registry
        .set_gauge("host_barrier_wait_frac", rep.barrier_wait_frac);
    session.registry.set_gauge("host_imbalance", rep.imbalance);
    session.registry.set_gauge("host_wall_s", rep.wall_s);
    rep
}

/// Serialize one drained profile as the standalone `host_profile.json`
/// document: the derived report plus the raw per-slot event streams.
pub fn host_profile_json(profile: &HostProfile) -> String {
    let rep = report(profile);
    let mut doc = serde_json::Map::new();
    doc.insert("clock", "wall");
    doc.insert("report", rep.to_json());
    doc.insert(
        "slots",
        profile
            .slots
            .iter()
            .map(|s| {
                let mut m = serde_json::Map::new();
                m.insert("slot", u64::from(s.slot));
                m.insert(
                    "events",
                    s.events
                        .iter()
                        .map(|e| {
                            let mut ev = serde_json::Map::new();
                            ev.insert(
                                "kind",
                                match e.kind {
                                    EventKind::Sweep => "sweep",
                                    EventKind::Slab => "slab",
                                    EventKind::BarrierWait => "barrier_wait",
                                    EventKind::Wake => "wake",
                                    EventKind::Phase => "phase",
                                },
                            );
                            ev.insert("arg0", u64::from(e.arg0));
                            ev.insert("arg1", u64::from(e.arg1));
                            ev.insert("start_ns", e.start_ns);
                            ev.insert("end_ns", e.end_ns);
                            serde_json::Value::Object(ev)
                        })
                        .collect::<Vec<serde_json::Value>>(),
                );
                serde_json::Value::Object(m)
            })
            .collect::<Vec<serde_json::Value>>(),
    );
    serde_json::to_string_pretty(&serde_json::Value::Object(doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_host::prof::{SlotEvents, PHASE_BACKWARD, PHASE_FORWARD, PHASE_IMAGING};

    fn ev(kind: EventKind, arg0: u32, arg1: u32, start_ns: u64, end_ns: u64) -> Event {
        Event {
            kind,
            arg0,
            arg1,
            start_ns,
            end_ns,
        }
    }

    /// A hand-built profile: caller slot (sweep ⊇ slab + barrier, phases)
    /// and one worker slot (wake then slab).
    fn sample_profile() -> HostProfile {
        HostProfile {
            slots: vec![
                SlotEvents {
                    slot: 0,
                    events: vec![
                        ev(EventKind::Phase, PHASE_FORWARD, 0, 0, 10_000),
                        ev(EventKind::Sweep, 2, 64, 1_000, 9_000),
                        ev(EventKind::Slab, 0, 32, 1_200, 5_000),
                        ev(EventKind::BarrierWait, 2, 0, 5_100, 8_800),
                        ev(EventKind::Phase, PHASE_BACKWARD, 0, 10_000, 30_000),
                        ev(EventKind::Phase, PHASE_IMAGING, 0, 12_000, 14_000),
                    ],
                },
                SlotEvents {
                    slot: 1,
                    events: vec![
                        ev(EventKind::Wake, 1, 0, 1_050, 1_150),
                        ev(EventKind::Slab, 1, 32, 1_200, 8_700),
                    ],
                },
            ],
            dropped: 2,
            thread_overflow: 0,
        }
    }

    #[test]
    fn report_derives_gang_metrics() {
        let rep = report(&sample_profile());
        assert_eq!(rep.sweeps, 1);
        assert_eq!(rep.slabs, 2);
        assert_eq!(rep.dropped, 2);
        assert!(!rep.complete());
        assert!((rep.wall_s - 30_000.0 * NS).abs() < 1e-12);
        // Phases: forward 10µs, backward 20µs, imaging 2µs.
        assert!((rep.phases_s[0] - 1e-5).abs() < 1e-12);
        assert!((rep.phases_s[1] - 2e-5).abs() < 1e-12);
        assert!((rep.phases_s[2] - 2e-6).abs() < 1e-12);
        // Barrier fraction = 3700 / 8000 of sweep time.
        assert!((rep.barrier_wait_frac - 3700.0 / 8000.0).abs() < 1e-9);
        // Two engaged slots; busy 3800ns and 7500ns → imbalance > 1.
        assert!(rep.imbalance > 1.0 && rep.imbalance < 2.0, "{rep:?}");
        assert!(rep.utilization > 0.0 && rep.utilization < 1.0);
        // Per-slot roll-up: slot 0 is the caller (slab, barrier, phases),
        // slot 1 a worker (wake, slab).
        let w0 = &rep.workers[0];
        assert_eq!((w0.slot, w0.slabs, w0.rows), (0, 1, 32));
        assert!((w0.busy_s - 3_800.0 * NS).abs() < 1e-15);
        assert!((w0.barrier_wait_s - 3_700.0 * NS).abs() < 1e-15);
        assert_eq!(w0.wake_s, 0.0);
        let w1 = &rep.workers[1];
        assert_eq!((w1.slot, w1.slabs, w1.rows), (1, 1, 32));
        assert!((w1.busy_s - 7_500.0 * NS).abs() < 1e-15);
        assert_eq!(w1.barrier_wait_s, 0.0);
        assert!((w1.wake_s - 100.0 * NS).abs() < 1e-15);
    }

    #[test]
    fn ingest_lands_spans_metrics_and_validates() {
        let session = ObsSession::new();
        // A simulated-time span shares the trace with the wall tracks.
        session.span(Span::new(Track::Host, SpanCat::Phase, "forward", 0.0, 1.0));
        let rep = ingest(&sample_profile(), &session);
        assert!(rep.sweeps == 1);
        // Every event is a span: 8 wall spans + 1 simulated.
        assert_eq!(session.tracer.len(), 9);
        // Both clock domains present, flame discipline holds per track.
        let tracks = session.tracer.tracks();
        assert!(tracks.contains(&Track::Host));
        assert!(tracks.contains(&Track::WallWorker(0)));
        assert!(tracks.contains(&Track::WallWorker(1)));
        session.tracer.validate_tracks().expect("nesting holds");
        // Every wall span carries the clock marker.
        for s in session.tracer.spans() {
            match s.track {
                Track::WallWorker(_) => {
                    assert!(s.args.iter().any(|(k, v)| k == "clock" && v == "wall"))
                }
                _ => assert!(!s.args.iter().any(|(k, _)| k == "clock")),
            }
        }
        // Registry got histograms, counters, and gauges.
        assert_eq!(session.registry.histogram("host_slab_s").unwrap().count, 2);
        assert_eq!(session.registry.histogram("host_wake_s").unwrap().count, 1);
        assert_eq!(session.registry.counter("host_slabs"), 2);
        assert_eq!(session.registry.counter("host_prof_dropped"), 2);
        assert!(session.registry.gauge("host_utilization").unwrap() > 0.0);
    }

    #[test]
    fn host_profile_json_is_valid_and_complete() {
        let doc = host_profile_json(&sample_profile());
        let v = serde_json::from_str(&doc).expect("valid JSON");
        assert_eq!(v.get("clock").unwrap().as_str(), Some("wall"));
        let rep = v.get("report").unwrap();
        assert_eq!(rep.get("sweeps").unwrap().as_u64(), Some(1));
        assert_eq!(rep.get("slabs").unwrap().as_u64(), Some(2));
        // The sample lost 2 events, so the profile says it is incomplete.
        assert_eq!(rep.get("complete").unwrap().as_bool(), Some(false));
        assert!(rep.get("phases_s").unwrap().get("forward").is_some());
        let slots = v.get("slots").unwrap().as_array().unwrap();
        assert_eq!(slots.len(), 2);
        let ev0 = &slots[0].get("events").unwrap().as_array().unwrap()[0];
        assert_eq!(ev0.get("kind").unwrap().as_str(), Some("phase"));
        assert_eq!(ev0.get("end_ns").unwrap().as_u64(), Some(10_000));
    }

    #[test]
    fn empty_profile_is_benign() {
        let rep = report(&HostProfile::default());
        assert_eq!(rep.wall_s, 0.0);
        assert_eq!(rep.utilization, 0.0);
        assert_eq!(rep.imbalance, 0.0);
        assert!(rep.workers.is_empty());
        assert!(rep.complete());
        let session = ObsSession::new();
        ingest(&HostProfile::default(), &session);
        assert!(session.tracer.is_empty());
        let doc = host_profile_json(&HostProfile::default());
        assert!(serde_json::from_str(&doc).is_ok());
    }
}
