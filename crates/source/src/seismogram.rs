//! Shot records: the traces recorded at each receiver over time.

/// A dense (n_receivers × nt) shot record, receiver-major.
///
/// Recorded by the modeling/forward phase at every time step and re-injected
/// (time-reversed) by the RTM backward phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Seismogram {
    n_receivers: usize,
    nt: usize,
    /// `data[r * nt + t]`
    data: Vec<f32>,
}

impl Seismogram {
    /// Zero-filled record.
    pub fn zeros(n_receivers: usize, nt: usize) -> Self {
        Self {
            n_receivers,
            nt,
            data: vec![0.0; n_receivers * nt],
        }
    }

    /// Number of receivers.
    pub fn n_receivers(&self) -> usize {
        self.n_receivers
    }

    /// Number of time samples per trace.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Record a sample.
    #[inline(always)]
    pub fn record(&mut self, receiver: usize, t: usize, v: f32) {
        debug_assert!(receiver < self.n_receivers && t < self.nt);
        self.data[receiver * self.nt + t] = v;
    }

    /// Read a sample.
    #[inline(always)]
    pub fn get(&self, receiver: usize, t: usize) -> f32 {
        debug_assert!(receiver < self.n_receivers && t < self.nt);
        self.data[receiver * self.nt + t]
    }

    /// One receiver's full trace.
    pub fn trace(&self, receiver: usize) -> &[f32] {
        &self.data[receiver * self.nt..(receiver + 1) * self.nt]
    }

    /// Root-mean-square amplitude of the whole record.
    pub fn rms(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let s: f64 = self.data.iter().map(|&v| (v as f64) * (v as f64)).sum();
        (s / self.data.len() as f64).sqrt()
    }

    /// Index of the absolute-maximum sample of a trace (first-arrival proxy
    /// in the analytic travel-time tests).
    pub fn peak_time(&self, receiver: usize) -> usize {
        let tr = self.trace(receiver);
        let mut best = 0usize;
        let mut amp = 0.0f32;
        for (t, &v) in tr.iter().enumerate() {
            if v.abs() > amp {
                amp = v.abs();
                best = t;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut s = Seismogram::zeros(3, 5);
        s.record(1, 2, 7.0);
        assert_eq!(s.get(1, 2), 7.0);
        assert_eq!(s.get(0, 0), 0.0);
        assert_eq!(s.trace(1), &[0.0, 0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn rms_and_peak() {
        let mut s = Seismogram::zeros(2, 4);
        s.record(0, 1, 3.0);
        s.record(0, 3, -4.0);
        assert_eq!(s.peak_time(0), 3);
        let want = ((9.0 + 16.0) / 8.0f64).sqrt();
        assert!((s.rms() - want).abs() < 1e-12);
        assert_eq!(Seismogram::zeros(0, 0).rms(), 0.0);
    }
}
