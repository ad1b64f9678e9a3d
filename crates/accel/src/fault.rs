//! Deterministic fault injection for the simulated cluster.
//!
//! Three fault classes are modeled, the ones the survey scheduler
//! (`rtm-core::resilient`) and the job server (`acc-serve`) react to:
//! Xid-style device losses, transient allocation failures, and stragglers
//! (thermal throttling, a busy PCIe switch). A resilience layer can only
//! be tested against *reproducible* failures, so every fault here derives
//! from a single `u64` seed: the same seed always yields the same
//! [`FaultPlan`], and every query is a pure function of the plan — no
//! wall clock, no global RNG, no query-order dependence.
//!
//! * **Scheduled events** ([`FaultEvent`]) — device losses and straggler
//!   windows are drawn once at plan generation with exponential
//!   inter-arrival times (mean = the configured MTTI), giving each device
//!   a failure timeline over the simulated horizon. Each class draws from
//!   its own salted stream, so one class's rates never move another's
//!   events.
//! * **Stateless per-operation draws** — transient allocation failures
//!   hash `(seed, device, sequence-number)`, so the i-th allocation on a
//!   device fails identically no matter when or how often it is asked.

use crate::SimTime;

/// What went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device fell off the bus (Xid 79-style): terminal for the device.
    DeviceLost,
    /// A straggler window opened: kernels and transfers slow down.
    Straggler,
}

/// One scheduled fault on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time the fault strikes.
    pub t_s: SimTime,
    /// Device index within the plan.
    pub device: usize,
    /// Fault class.
    pub kind: FaultKind,
    /// Duration of the effect (straggler windows; 0 for point events).
    pub duration_s: SimTime,
}

/// Fault process intensities. A rate of `f64::INFINITY` for an MTTI (or
/// `0.0` for a probability) disables that fault class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Mean time between device losses, per device, seconds.
    pub device_lost_mtti_s: f64,
    /// Probability any single device allocation transiently fails.
    pub transient_oom_prob: f64,
    /// Mean time between straggler windows, per device, seconds.
    pub straggler_mtti_s: f64,
    /// Length of one straggler window, seconds.
    pub straggler_duration_s: f64,
    /// Multiplicative slowdown inside a straggler window (≥ 1).
    pub straggler_slowdown: f64,
}

impl FaultRates {
    /// No faults at all (the plan becomes a no-op).
    pub fn none() -> Self {
        Self {
            device_lost_mtti_s: f64::INFINITY,
            transient_oom_prob: 0.0,
            straggler_mtti_s: f64::INFINITY,
            straggler_duration_s: 0.0,
            straggler_slowdown: 1.0,
        }
    }
}

/// `splitmix64` step — the workspace's standard deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless mix of the plan seed with a query coordinate: one splitmix64
/// step from a combined state, so each `(seed, salt, a, b)` cell is an
/// independent draw.
fn mix(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut s = seed
        ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ a.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ b.wrapping_mul(0x1656_67b1_9e37_79f9);
    splitmix64(&mut s)
}

/// Map a `u64` draw to a uniform float in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_DEVICE_LOST: u64 = 1;
const SALT_STRAGGLER: u64 = 3;
const SALT_ALLOC: u64 = 5;

/// Draw exponential arrival times with mean `mtti_s` over `[0, horizon_s)`.
fn arrivals(seed: u64, salt: u64, device: usize, mtti_s: f64, horizon_s: f64) -> Vec<SimTime> {
    let mut out = Vec::new();
    if !(mtti_s.is_finite() && mtti_s > 0.0) {
        return out;
    }
    let mut state = mix(seed, salt, device as u64, 0);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential; the draw is in (0, 1] so ln is finite.
        let u = 1.0 - unit(splitmix64(&mut state));
        t += -mtti_s * u.ln();
        if t >= horizon_s {
            return out;
        }
        out.push(t);
    }
}

/// A reproducible fault schedule for `n_devices` devices over a simulated
/// horizon. Cheap to clone and to query; immutable once generated.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    n_devices: usize,
    rates: FaultRates,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generate the full schedule. Deterministic: the same arguments always
    /// produce the same plan.
    pub fn generate(seed: u64, n_devices: usize, horizon_s: SimTime, rates: FaultRates) -> Self {
        let mut events = Vec::new();
        for dev in 0..n_devices {
            // A lost device is terminal — only the first arrival matters.
            if let Some(&t) = arrivals(
                seed,
                SALT_DEVICE_LOST,
                dev,
                rates.device_lost_mtti_s,
                horizon_s,
            )
            .first()
            {
                events.push(FaultEvent {
                    t_s: t,
                    device: dev,
                    kind: FaultKind::DeviceLost,
                    duration_s: 0.0,
                });
            }
            for t in arrivals(seed, SALT_STRAGGLER, dev, rates.straggler_mtti_s, horizon_s) {
                events.push(FaultEvent {
                    t_s: t,
                    device: dev,
                    kind: FaultKind::Straggler,
                    duration_s: rates.straggler_duration_s,
                });
            }
        }
        events.sort_by(|a, b| a.t_s.total_cmp(&b.t_s).then(a.device.cmp(&b.device)));
        Self {
            seed,
            n_devices,
            rates,
            events,
        }
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Devices covered by the plan.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// All scheduled events in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// When (if ever) `device` falls off the bus.
    pub fn device_lost_at(&self, device: usize) -> Option<SimTime> {
        self.events
            .iter()
            .find(|e| e.device == device && e.kind == FaultKind::DeviceLost)
            .map(|e| e.t_s)
    }

    /// True when `device` is already lost at time `t_s`.
    pub fn device_lost(&self, device: usize, t_s: SimTime) -> bool {
        self.device_lost_at(device).is_some_and(|lost| lost <= t_s)
    }

    /// Does the `seq`-th device allocation on `device` transiently fail?
    /// Stateless: the answer never changes for a given `(device, seq)`.
    pub fn alloc_fails(&self, device: usize, seq: u64) -> bool {
        self.rates.transient_oom_prob > 0.0
            && unit(mix(self.seed, SALT_ALLOC, device as u64, seq)) < self.rates.transient_oom_prob
    }

    /// Multiplicative slowdown on `device` at time `t_s` (1.0 = healthy,
    /// larger inside a straggler window).
    pub fn slowdown(&self, device: usize, t_s: SimTime) -> f64 {
        let in_window = self.events.iter().any(|e| {
            e.device == device
                && e.kind == FaultKind::Straggler
                && e.t_s <= t_s
                && t_s < e.t_s + e.duration_s
        });
        if in_window {
            self.rates.straggler_slowdown.max(1.0)
        } else {
            1.0
        }
    }

    /// Devices still alive (never lost within the horizon).
    pub fn surviving_devices(&self) -> Vec<usize> {
        (0..self.n_devices)
            .filter(|&d| self.device_lost_at(d).is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every class active at rates that hit a day-long horizon many times.
    const HARSH: FaultRates = FaultRates {
        device_lost_mtti_s: 3600.0,
        transient_oom_prob: 1e-3,
        straggler_mtti_s: 900.0,
        straggler_duration_s: 180.0,
        straggler_slowdown: 2.5,
    };

    #[test]
    fn same_seed_same_plan() {
        let r = HARSH;
        let a = FaultPlan::generate(42, 8, 86_400.0, r);
        let b = FaultPlan::generate(42, 8, 86_400.0, r);
        assert_eq!(a, b);
        assert_eq!(a.events(), b.events());
        // Stateless queries agree too, in any order.
        for seq in [0u64, 1, 999] {
            assert_eq!(a.alloc_fails(3, seq), b.alloc_fails(3, seq));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let r = HARSH;
        let a = FaultPlan::generate(1, 8, 86_400.0, r);
        let b = FaultPlan::generate(2, 8, 86_400.0, r);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn no_rates_no_events() {
        let p = FaultPlan::generate(7, 16, 1e6, FaultRates::none());
        assert!(p.events().is_empty());
        assert_eq!(p.surviving_devices().len(), 16);
        assert!(!p.alloc_fails(0, 0));
        assert_eq!(p.slowdown(0, 123.0), 1.0);
    }

    #[test]
    fn device_loss_count_tracks_mtti() {
        // 64 devices, horizon = 3 MTTIs ⇒ P(survive) = e^-3 ≈ 5 %; expect
        // most devices lost but determinism keeps the check exact per seed.
        let r = FaultRates {
            device_lost_mtti_s: 1000.0,
            ..FaultRates::none()
        };
        let p = FaultPlan::generate(11, 64, 3000.0, r);
        let lost = 64 - p.surviving_devices().len();
        assert!((45..=64).contains(&lost), "lost {lost}");
        // Events are time-sorted.
        assert!(p.events().windows(2).all(|w| w[0].t_s <= w[1].t_s));
    }

    #[test]
    fn alloc_failure_rate_close_to_prob() {
        let r = FaultRates {
            transient_oom_prob: 0.05,
            ..FaultRates::none()
        };
        let p = FaultPlan::generate(5, 1, 1.0, r);
        let fails = (0..20_000).filter(|&s| p.alloc_fails(0, s)).count();
        let rate = fails as f64 / 20_000.0;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn straggler_window_slows_then_recovers() {
        let r = FaultRates {
            straggler_mtti_s: 100.0,
            straggler_duration_s: 10.0,
            straggler_slowdown: 3.0,
            ..FaultRates::none()
        };
        let p = FaultPlan::generate(21, 2, 1000.0, r);
        let w = p
            .events()
            .iter()
            .find(|e| e.kind == FaultKind::Straggler)
            .expect("straggler scheduled");
        assert_eq!(p.slowdown(w.device, w.t_s + 1.0), 3.0);
        assert_eq!(p.slowdown(w.device, w.t_s - 1e-3), 1.0);
    }
}
