//! `nvprof --metrics`-style per-kernel counter model.
//!
//! Every counter is derived from [`accel_sim::RooflineTerms`] — the exact
//! intermediates the timing model consumed — so the table agrees with the
//! simulated durations by construction. This mirrors how the paper's
//! authors cross-checked `nvprof` counters (occupancy, DRAM throughput,
//! load/store efficiency) against the timeline to decide which of the
//! Section 5 optimizations to apply.

use accel_sim::kernel::UNCOALESCED_BW_DIVISOR;
use accel_sim::{DeviceSpec, KernelProfile, RooflineTerms, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Roofline classification of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// DRAM bandwidth term dominated.
    Memory,
    /// Arithmetic term dominated.
    Compute,
}

impl BoundKind {
    /// Lowercase label (`memory` / `compute`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BoundKind::Memory => "memory",
            BoundKind::Compute => "compute",
        }
    }
}

/// Counters for one kernel launch shape, in `nvprof --metrics` vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMetrics {
    /// Kernel name.
    pub name: String,
    /// Grid points per launch.
    pub points: u64,
    /// Execution time per launch, seconds (post any quality scaling).
    pub exec_s: SimTime,
    /// `achieved_occupancy` — warps resident / maximum resident.
    pub achieved_occupancy: f64,
    /// `dram_read_throughput`, byte/s.
    pub dram_read_throughput: f64,
    /// `dram_write_throughput`, byte/s.
    pub dram_write_throughput: f64,
    /// Combined DRAM throughput as % of the device's peak bandwidth.
    pub dram_utilization_pct: f64,
    /// `warp_execution_efficiency`, % (divergence wastes issue slots).
    pub warp_execution_efficiency_pct: f64,
    /// `gld_efficiency`, % — global-load coalescing.
    pub gld_efficiency_pct: f64,
    /// `gst_efficiency`, % — global-store coalescing.
    pub gst_efficiency_pct: f64,
    /// Register-spill (local memory) DRAM traffic per launch, bytes.
    pub spill_traffic_bytes: f64,
    /// Arithmetic intensity, flop/byte (including spill traffic).
    pub arithmetic_intensity: f64,
    /// Sustained arithmetic throughput, flop/s.
    pub flop_throughput: f64,
    /// Roofline classification.
    pub bound: BoundKind,
}

impl KernelMetrics {
    /// Derive the counters for one launch.
    ///
    /// `exec_s` is the execution time the runtime actually charged (it may
    /// include compiler-quality scaling on top of `terms.exec_s`);
    /// throughputs are computed against it so `throughput × time = bytes`
    /// holds exactly for the recorded timeline.
    pub fn from_launch(
        dev: &DeviceSpec,
        profile: &KernelProfile,
        terms: &RooflineTerms,
        exec_s: SimTime,
    ) -> Self {
        let n = profile.points as f64;
        let rf = profile.read_fraction.clamp(0.0, 1.0);
        // Spill traffic is a store + reload round trip: half each way.
        let read_bpp = profile.bytes_per_point * rf + terms.spill_bytes_per_point * 0.5;
        let write_bpp = profile.bytes_per_point * (1.0 - rf) + terms.spill_bytes_per_point * 0.5;
        let dram_read = n * read_bpp / exec_s;
        let dram_write = n * write_bpp / exec_s;
        let coalesce_pct = if profile.coalesced {
            100.0
        } else {
            100.0 / UNCOALESCED_BW_DIVISOR
        };
        KernelMetrics {
            name: profile.name.clone(),
            points: profile.points,
            exec_s,
            achieved_occupancy: terms.occupancy,
            dram_read_throughput: dram_read,
            dram_write_throughput: dram_write,
            dram_utilization_pct: (dram_read + dram_write) / dev.bandwidth() * 100.0,
            warp_execution_efficiency_pct: 100.0 / terms.div_penalty,
            gld_efficiency_pct: coalesce_pct,
            gst_efficiency_pct: coalesce_pct,
            spill_traffic_bytes: n * terms.spill_bytes_per_point,
            arithmetic_intensity: profile.flops_per_point / terms.bytes_per_point,
            flop_throughput: n * profile.flops_per_point / exec_s,
            bound: if terms.memory_bound {
                BoundKind::Memory
            } else {
                BoundKind::Compute
            },
        }
    }

    /// The metrics as a JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        let mut o = serde_json::Map::new();
        o.insert("name", self.name.as_str());
        o.insert("points", self.points);
        o.insert("exec_s", self.exec_s);
        o.insert("achieved_occupancy", self.achieved_occupancy);
        o.insert("dram_read_throughput", self.dram_read_throughput);
        o.insert("dram_write_throughput", self.dram_write_throughput);
        o.insert("dram_utilization_pct", self.dram_utilization_pct);
        o.insert(
            "warp_execution_efficiency_pct",
            self.warp_execution_efficiency_pct,
        );
        o.insert("gld_efficiency_pct", self.gld_efficiency_pct);
        o.insert("gst_efficiency_pct", self.gst_efficiency_pct);
        o.insert("spill_traffic_bytes", self.spill_traffic_bytes);
        o.insert("arithmetic_intensity", self.arithmetic_intensity);
        o.insert("flop_throughput", self.flop_throughput);
        o.insert("bound", self.bound.as_str());
        serde_json::Value::Object(o)
    }
}

/// One table row: the representative launch-shape metrics plus invocation
/// aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRow {
    /// Counters from the first launch of this kernel (launch shapes are
    /// stable per kernel in the drivers).
    pub metrics: KernelMetrics,
    /// Number of launches recorded.
    pub invocations: u64,
    /// Total execution time across launches, seconds.
    pub total_exec_s: SimTime,
}

/// Per-kernel-name metrics table for one device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsTable {
    rows: BTreeMap<String, MetricsRow>,
}

impl MetricsTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one launch; first launch of a name fixes the row's counters.
    pub fn record(
        &mut self,
        dev: &DeviceSpec,
        profile: &KernelProfile,
        terms: &RooflineTerms,
        exec_s: SimTime,
    ) {
        let row = self
            .rows
            .entry(profile.name.clone())
            .or_insert_with(|| MetricsRow {
                metrics: KernelMetrics::from_launch(dev, profile, terms, exec_s),
                invocations: 0,
                total_exec_s: 0.0,
            });
        row.invocations += 1;
        row.total_exec_s += exec_s;
    }

    /// Rows sorted by descending total time (name breaks ties).
    pub fn rows(&self) -> Vec<&MetricsRow> {
        let mut out: Vec<&MetricsRow> = self.rows.values().collect();
        out.sort_by(|a, b| {
            b.total_exec_s
                .total_cmp(&a.total_exec_s)
                .then_with(|| a.metrics.name.cmp(&b.metrics.name))
        });
        out
    }

    /// Look up one kernel's row.
    pub fn get(&self, name: &str) -> Option<&MetricsRow> {
        self.rows.get(name)
    }

    /// Number of distinct kernels.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no launches were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `nvprof --metrics`-style text rendering.
    pub fn render(&self, device_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==accprof== Metrics result: {device_name}");
        for row in self.rows() {
            let m = &row.metrics;
            let _ = writeln!(
                out,
                "Kernel: {}  [{} invocations, {:.3} s total]",
                m.name, row.invocations, row.total_exec_s
            );
            let _ = writeln!(
                out,
                "    achieved_occupancy        {:10.3}",
                m.achieved_occupancy
            );
            let _ = writeln!(
                out,
                "    dram_read_throughput      {:10.2} GB/s",
                m.dram_read_throughput / 1e9
            );
            let _ = writeln!(
                out,
                "    dram_write_throughput     {:10.2} GB/s",
                m.dram_write_throughput / 1e9
            );
            let _ = writeln!(
                out,
                "    dram_utilization          {:10.1} % of peak",
                m.dram_utilization_pct
            );
            let _ = writeln!(
                out,
                "    warp_execution_efficiency {:10.1} %",
                m.warp_execution_efficiency_pct
            );
            let _ = writeln!(
                out,
                "    gld_efficiency            {:10.1} %",
                m.gld_efficiency_pct
            );
            let _ = writeln!(
                out,
                "    gst_efficiency            {:10.1} %",
                m.gst_efficiency_pct
            );
            let _ = writeln!(
                out,
                "    local_memory_traffic      {:10.0} B/launch",
                m.spill_traffic_bytes
            );
            let _ = writeln!(
                out,
                "    arithmetic_intensity      {:10.2} flop/byte",
                m.arithmetic_intensity
            );
            let _ = writeln!(
                out,
                "    bound                     {:>10}",
                m.bound.as_str()
            );
        }
        out
    }

    /// The table as a JSON array (descending total time).
    pub fn to_json(&self) -> serde_json::Value {
        let mut arr = Vec::new();
        for row in self.rows() {
            let mut o = serde_json::Map::new();
            o.insert("invocations", row.invocations);
            o.insert("total_exec_s", row.total_exec_s);
            o.insert("metrics", row.metrics.to_json());
            arr.push(serde_json::Value::Object(o));
        }
        serde_json::Value::Array(arr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::kernel::roofline_terms;

    fn profile() -> KernelProfile {
        KernelProfile::new("stencil", 1 << 20, 58.0, 22.4, 52)
    }

    /// throughput × time recovers the modeled byte traffic exactly, and
    /// every counter matches the roofline terms it was derived from.
    #[test]
    fn counters_agree_with_roofline_terms() {
        for dev in [DeviceSpec::m2090(), DeviceSpec::k40()] {
            let p = profile();
            let t = roofline_terms(&dev, &p);
            let m = KernelMetrics::from_launch(&dev, &p, &t, t.exec_s);
            assert_eq!(m.achieved_occupancy, t.occupancy);
            let n = p.points as f64;
            let total_bytes = (m.dram_read_throughput + m.dram_write_throughput) * m.exec_s;
            assert!(
                (total_bytes - n * t.bytes_per_point).abs() / (n * t.bytes_per_point) < 1e-9,
                "{}: bytes {total_bytes}",
                dev.name
            );
            assert_eq!(m.bound == BoundKind::Memory, t.memory_bound);
            assert_eq!(m.spill_traffic_bytes, n * t.spill_bytes_per_point);
            assert!((m.warp_execution_efficiency_pct - 100.0 / t.div_penalty).abs() < 1e-9);
        }
    }

    /// Degrading coalescing must drop the load efficiency counter — the
    /// signal the paper's Figure 13 transposition was driven by.
    #[test]
    fn uncoalesced_drops_gld_efficiency() {
        let dev = DeviceSpec::k40();
        let good = profile();
        let mut bad = profile();
        bad.coalesced = false;
        let mg = KernelMetrics::from_launch(&dev, &good, &roofline_terms(&dev, &good), 1e-3);
        let mb = KernelMetrics::from_launch(&dev, &bad, &roofline_terms(&dev, &bad), 1e-3);
        assert_eq!(mg.gld_efficiency_pct, 100.0);
        assert!(mb.gld_efficiency_pct < 20.0);
        assert!(mb.gld_efficiency_pct > 0.0);
    }

    #[test]
    fn table_aggregates_and_renders() {
        let dev = DeviceSpec::k40();
        let p = profile();
        let t = roofline_terms(&dev, &p);
        let mut tab = MetricsTable::new();
        tab.record(&dev, &p, &t, t.exec_s);
        tab.record(&dev, &p, &t, t.exec_s);
        let small = KernelProfile::new("inject", 100, 10.0, 8.0, 24);
        let ts = roofline_terms(&dev, &small);
        tab.record(&dev, &small, &ts, ts.exec_s);
        assert_eq!(tab.len(), 2);
        let row = tab.get("stencil").unwrap();
        assert_eq!(row.invocations, 2);
        assert!((row.total_exec_s - 2.0 * t.exec_s).abs() < 1e-15);
        let txt = tab.render("Tesla K40");
        assert!(txt.contains("achieved_occupancy"));
        assert!(txt.contains("dram_read_throughput"));
        assert!(txt.contains("Kernel: stencil  [2 invocations"));
        // Big stencil sorts before the tiny injector.
        assert!(txt.find("stencil").unwrap() < txt.find("inject").unwrap());
        let j = serde_json::to_string(&tab.to_json());
        let v = serde_json::from_str(&j).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 2);
    }
}
