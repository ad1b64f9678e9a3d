//! `nvprof`-style event ledger.
//!
//! "Nvidia profiler was the main tool used to analyze our performance
//! measurements" (Section 6). The drivers record every simulated kernel
//! launch and memcpy here; [`Profiler::summary`] regenerates the
//! kernel-percentage breakdowns of Figures 11, 14, and 15, and
//! [`Profiler::export_chrome_trace`] emits the ledger as a Perfetto /
//! `chrome://tracing` timeline with the *true* simulated start timestamps
//! the schedulers computed (sync launches at issue time, async launches at
//! their drain-schedule slots).

use crate::SimTime;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Kind of a timeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// Device kernel execution.
    Kernel,
    /// Host→device copy.
    MemcpyH2D,
    /// Device→host copy.
    MemcpyD2H,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// Kernel name, or a transfer label.
    pub name: String,
    /// Simulated start timestamp, seconds — fed by the scheduler that
    /// placed the event (the runtime clock for sync work, the stream
    /// drain schedule for async work).
    pub start_s: SimTime,
    /// Duration, seconds.
    pub duration_s: SimTime,
    /// Stream id.
    pub stream: u32,
    /// Bytes moved (transfers; 0 for kernels).
    pub bytes: u64,
}

/// Aggregated statistics for one kernel/transfer name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameStats {
    /// Event kind.
    pub kind: EventKind,
    /// Number of invocations (nvprof's bracketed count).
    pub invocations: u64,
    /// Total time, seconds.
    pub total_s: SimTime,
    /// Total bytes moved (transfers).
    pub bytes: u64,
    /// Share of all *compute* time (kernels only), 0–1.
    pub compute_share: f64,
}

/// Thread-safe simulated profiler.
#[derive(Debug, Default)]
pub struct Profiler {
    events: Mutex<Vec<Event>>,
}

/// Render a byte count the way `nvprof` does (`1.234 GB`, `56.7 MB`, …).
pub fn human_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e9 {
        format!("{:.3} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} KB", b / 1e3)
    } else {
        format!("{bytes} B")
    }
}

impl Profiler {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event with no byte payload (kernels).
    pub fn record(
        &self,
        kind: EventKind,
        name: impl Into<String>,
        start_s: SimTime,
        duration_s: SimTime,
        stream: u32,
    ) {
        self.record_bytes(kind, name, start_s, duration_s, stream, 0);
    }

    /// Record one event carrying a byte count (transfers).
    pub fn record_bytes(
        &self,
        kind: EventKind,
        name: impl Into<String>,
        start_s: SimTime,
        duration_s: SimTime,
        stream: u32,
        bytes: u64,
    ) {
        self.events.lock().push(Event {
            kind,
            name: name.into(),
            start_s,
            duration_s,
            stream,
            bytes,
        });
    }

    /// Snapshot of the ledger, sorted by (start, name) — the deterministic
    /// order every aggregation below consumes, independent of the
    /// interleaving concurrent recorders produced.
    pub fn events(&self) -> Vec<Event> {
        let mut evs = self.events.lock().clone();
        evs.sort_by(|a, b| {
            a.start_s
                .total_cmp(&b.start_s)
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.stream.cmp(&b.stream))
        });
        evs
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Total simulated kernel (compute) time.
    pub fn compute_time(&self) -> SimTime {
        self.events
            .lock()
            .iter()
            .filter(|e| e.kind == EventKind::Kernel)
            .map(|e| e.duration_s)
            .sum()
    }

    /// Total simulated transfer time.
    pub fn transfer_time(&self) -> SimTime {
        self.events
            .lock()
            .iter()
            .filter(|e| e.kind != EventKind::Kernel)
            .map(|e| e.duration_s)
            .sum()
    }

    /// Per-name aggregation, sorted by descending total time (name breaks
    /// ties, so the order is deterministic under concurrent recording).
    pub fn summary(&self) -> Vec<(String, NameStats)> {
        let events = self.events();
        let compute: f64 = events
            .iter()
            .filter(|e| e.kind == EventKind::Kernel)
            .map(|e| e.duration_s)
            .sum();
        let mut map: BTreeMap<String, NameStats> = BTreeMap::new();
        for e in events.iter() {
            let s = map.entry(e.name.clone()).or_insert(NameStats {
                kind: e.kind,
                invocations: 0,
                total_s: 0.0,
                bytes: 0,
                compute_share: 0.0,
            });
            s.invocations += 1;
            s.total_s += e.duration_s;
            s.bytes += e.bytes;
        }
        for s in map.values_mut() {
            if s.kind == EventKind::Kernel && compute > 0.0 {
                s.compute_share = s.total_s / compute;
            }
        }
        let mut out: Vec<_> = map.into_iter().collect();
        out.sort_by(|a, b| b.1.total_s.total_cmp(&a.1.total_s).then(a.0.cmp(&b.0)));
        out
    }

    fn memcpy_row(&self, kind: EventKind) -> (u64, SimTime, u64) {
        let events = self.events.lock();
        let mut n = 0u64;
        let mut t = 0.0;
        let mut b = 0u64;
        for e in events.iter().filter(|e| e.kind == kind) {
            n += 1;
            t += e.duration_s;
            b += e.bytes;
        }
        (n, t, b)
    }

    /// Render an `nvprof`-like text block (the Figure 14/15 layout):
    /// `[invocations]` counts, seconds, and bytes for the memcpy rows, then
    /// `percent% [invocations] name` for each kernel.
    pub fn render(&self, device_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "[0] {device_name}");
        let _ = writeln!(out, "  Context 1 (SIM)");
        let (h2d_n, h2d_t, h2d_b) = self.memcpy_row(EventKind::MemcpyH2D);
        let (d2h_n, d2h_t, d2h_b) = self.memcpy_row(EventKind::MemcpyD2H);
        let _ = writeln!(
            out,
            "    MemCpy (HtoD)  [{h2d_n}]  {h2d_t:.3} s  {}",
            human_bytes(h2d_b)
        );
        let _ = writeln!(
            out,
            "    MemCpy (DtoH)  [{d2h_n}]  {d2h_t:.3} s  {}",
            human_bytes(d2h_b)
        );
        let _ = writeln!(out, "    Compute");
        for (name, s) in self.summary() {
            if s.kind == EventKind::Kernel {
                let _ = writeln!(
                    out,
                    "      {:5.1}% [{}] {}",
                    s.compute_share * 100.0,
                    s.invocations,
                    name
                );
            }
        }
        out
    }

    /// Forget all events (reused between experiment phases).
    pub fn clear(&self) {
        self.events.lock().clear();
    }

    /// Export the ledger as a Chrome trace-event JSON string
    /// (`chrome://tracing` / Perfetto compatible), one complete-event
    /// (`ph: "X"`) per entry with the recorded simulated start timestamps
    /// and one track (`tid`) per device stream. Serialization goes through
    /// `serde_json`, so names containing quotes, backslashes, or control
    /// characters stay valid JSON.
    pub fn export_chrome_trace(&self, process_name: &str) -> String {
        serde_json::to_string(&self.chrome_trace_value(process_name))
    }

    /// The trace as a `serde_json` value (callers embedding the events in a
    /// larger document).
    pub fn chrome_trace_value(&self, process_name: &str) -> serde_json::Value {
        let events = self.events();
        let mut out = Vec::with_capacity(events.len());
        for e in events.iter() {
            let cat = match e.kind {
                EventKind::Kernel => "kernel",
                EventKind::MemcpyH2D => "memcpy_h2d",
                EventKind::MemcpyD2H => "memcpy_d2h",
            };
            let mut obj = serde_json::Map::new();
            obj.insert("name", e.name.as_str());
            obj.insert("cat", cat);
            obj.insert("ph", "X");
            obj.insert("ts", e.start_s * 1e6);
            obj.insert("dur", e.duration_s * 1e6);
            obj.insert("pid", process_name);
            obj.insert("tid", format!("stream {}", e.stream));
            if e.bytes > 0 {
                let mut args = serde_json::Map::new();
                args.insert("bytes", e.bytes);
                obj.insert("args", args);
            }
            out.push(serde_json::Value::Object(obj));
        }
        serde_json::Value::Array(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let p = Profiler::new();
        p.record(EventKind::Kernel, "main", 0.0, 3.0, 0);
        p.record(EventKind::Kernel, "main", 3.0, 1.0, 0);
        p.record(EventKind::Kernel, "inject", 4.0, 1.0, 0);
        p.record_bytes(EventKind::MemcpyH2D, "model", 5.0, 0.5, 0, 1 << 20);
        assert_eq!(p.len(), 4);
        assert_eq!(p.compute_time(), 5.0);
        assert_eq!(p.transfer_time(), 0.5);
        let s = p.summary();
        // Sorted descending by time: main first.
        assert_eq!(s[0].0, "main");
        assert_eq!(s[0].1.invocations, 2);
        assert!((s[0].1.compute_share - 0.8).abs() < 1e-12);
        let model = s.iter().find(|(n, _)| n == "model").unwrap();
        assert_eq!(model.1.bytes, 1 << 20);
    }

    #[test]
    fn render_contains_percentages() {
        let p = Profiler::new();
        p.record(EventKind::Kernel, "kernel_2d_139_gpu", 0.0, 7.34, 0);
        p.record(EventKind::Kernel, "sample_put_real_118_gpu", 7.34, 2.62, 0);
        p.record(EventKind::Kernel, "sample_put_real_98_gpu", 9.96, 0.04, 0);
        let r = p.render("Tesla M2090");
        assert!(r.contains("Tesla M2090"));
        assert!(r.contains("73.4%"));
        assert!(r.contains("26.2%"));
        assert!(r.contains("kernel_2d_139_gpu"));
    }

    /// MemCpy rows show counts and bytes like real nvprof output.
    #[test]
    fn render_memcpy_counts_and_bytes() {
        let p = Profiler::new();
        p.record_bytes(EventKind::MemcpyH2D, "copyin:u", 0.0, 0.1, 0, 500 << 20);
        p.record_bytes(EventKind::MemcpyH2D, "copyin:v", 0.1, 0.1, 0, 524 << 20);
        p.record_bytes(EventKind::MemcpyD2H, "update_host:u", 0.2, 0.05, 0, 3 << 20);
        let r = p.render("K40");
        assert!(r.contains("MemCpy (HtoD)  [2]"), "{r}");
        assert!(r.contains("GB"), "HtoD total crosses 1 GB: {r}");
        assert!(r.contains("MemCpy (DtoH)  [1]"), "{r}");
        assert!(r.contains("MB"), "{r}");
    }

    #[test]
    fn clear_resets() {
        let p = Profiler::new();
        p.record(EventKind::Kernel, "a", 0.0, 1.0, 0);
        assert!(!p.is_empty());
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.compute_time(), 0.0);
    }

    #[test]
    fn chrome_trace_uses_recorded_starts() {
        let p = Profiler::new();
        p.record(EventKind::Kernel, "a", 1.0e-3, 1.0e-3, 0);
        p.record(EventKind::Kernel, "b", 2.5e-3, 2.0e-3, 0);
        p.record_bytes(EventKind::MemcpyH2D, "up", 0.0, 0.5e-3, 1, 4096);
        let j = p.export_chrome_trace("K40");
        let v = serde_json::from_str(&j).expect("valid JSON");
        let evs = v.as_array().unwrap();
        assert_eq!(evs.len(), 3);
        // Sorted by start: the memcpy (t=0) leads, then a, then b at its
        // recorded (not serially approximated) timestamp.
        assert_eq!(evs[0].get("name").unwrap().as_str(), Some("up"));
        assert_eq!(
            evs[0].get("args").unwrap().get("bytes").unwrap().as_u64(),
            Some(4096)
        );
        assert_eq!(evs[1].get("name").unwrap().as_str(), Some("a"));
        assert!((evs[2].get("ts").unwrap().as_f64().unwrap() - 2500.0).abs() < 1e-9);
        assert_eq!(evs[2].get("cat").unwrap().as_str(), Some("kernel"));
        assert_eq!(evs[0].get("tid").unwrap().as_str(), Some("stream 1"));
    }

    /// The JSON-injection hazard of the hand-formatted exporter: names with
    /// quotes and backslashes must round-trip through a real parser.
    #[test]
    fn chrome_trace_escapes_hostile_names() {
        let p = Profiler::new();
        let hostile = "kernel\"with\\quotes\nand newline";
        p.record(EventKind::Kernel, hostile, 0.0, 1.0e-3, 0);
        let j = p.export_chrome_trace("dev\"ice");
        let v = serde_json::from_str(&j).expect("hostile names stay valid JSON");
        let evs = v.as_array().unwrap();
        assert_eq!(evs[0].get("name").unwrap().as_str(), Some(hostile));
        assert_eq!(evs[0].get("pid").unwrap().as_str(), Some("dev\"ice"));
    }

    /// summary()/events() order is a pure function of (start, name), not
    /// of recording order.
    #[test]
    fn aggregation_order_is_start_sorted() {
        let build = |order: &[usize]| {
            let p = Profiler::new();
            let evs = [
                (EventKind::Kernel, "b", 1.0, 1.0),
                (EventKind::Kernel, "a", 0.0, 1.0),
                (EventKind::Kernel, "c", 2.0, 1.0),
            ];
            for &i in order {
                let (k, n, s, d) = evs[i];
                p.record(k, n, s, d, 0);
            }
            p
        };
        let x = build(&[0, 1, 2]);
        let y = build(&[2, 0, 1]);
        assert_eq!(x.events(), y.events());
        assert_eq!(x.summary(), y.summary());
        assert_eq!(x.events()[0].name, "a");
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let p = std::sync::Arc::new(Profiler::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        p.record(EventKind::Kernel, "k", i as f64, 0.001, 0);
                    }
                });
            }
        });
        assert_eq!(p.len(), 400);
        assert!((p.compute_time() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(17), "17 B");
        assert_eq!(human_bytes(2_500), "2.50 KB");
        assert_eq!(human_bytes(3_400_000), "3.40 MB");
        assert_eq!(human_bytes(1_234_000_000), "1.234 GB");
    }
}
