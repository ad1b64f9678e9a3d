//! Source time functions.

/// Ricker wavelet (second derivative of a Gaussian) with peak frequency
/// `f_peak`, evaluated at time `t` relative to the wavelet center:
/// `(1 − 2π²f²t²)·exp(−π²f²t²)`.
pub fn ricker(f_peak: f32, t: f32) -> f32 {
    let a = std::f32::consts::PI * f_peak * t;
    let a2 = a * a;
    (1.0 - 2.0 * a2) * (-a2).exp()
}

/// Sampled Ricker trace of `nt` steps at interval `dt`, centered at the
/// standard delay `t0 = 1.2 / f_peak` so the wavelet starts near zero.
pub fn ricker_trace(f_peak: f32, dt: f32, nt: usize) -> Vec<f32> {
    let t0 = 1.2 / f_peak;
    (0..nt)
        .map(|n| ricker(f_peak, n as f32 * dt - t0))
        .collect()
}

/// A parameterised source time function, sampled lazily by the drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wavelet {
    /// Ricker wavelet with the given peak frequency (Hz) and delay (s).
    Ricker {
        /// Peak frequency in Hz.
        f_peak: f32,
        /// Time delay in seconds.
        t0: f32,
    },
    /// First derivative of a Gaussian (used for velocity-component sources in
    /// the elastic model).
    GaussianDeriv {
        /// Controlling frequency in Hz.
        f_peak: f32,
        /// Time delay in seconds.
        t0: f32,
    },
    /// Ormsby band-pass wavelet with corner frequencies `f` (Hz).
    Ormsby {
        /// Corner frequencies f1 < f2 < f3 < f4.
        f: [f32; 4],
        /// Time delay in seconds.
        t0: f32,
    },
}

impl Wavelet {
    /// Standard Ricker with the conventional 1.2/f delay.
    pub fn ricker(f_peak: f32) -> Self {
        Wavelet::Ricker {
            f_peak,
            t0: 1.2 / f_peak,
        }
    }

    /// Amplitude at time `t` (s).
    pub fn sample(&self, t: f32) -> f32 {
        match *self {
            Wavelet::Ricker { f_peak, t0 } => ricker(f_peak, t - t0),
            Wavelet::GaussianDeriv { f_peak, t0 } => {
                let a = std::f32::consts::PI * f_peak * (t - t0);
                -2.0 * a * (-a * a).exp()
            }
            Wavelet::Ormsby { f, t0 } => ormsby(f, t - t0),
        }
    }

    /// Peak frequency (Hz), used to derive the snapshot period: the paper
    /// notes "the snap_period value depends on the maximum frequency used in
    /// the attached velocity model".
    pub fn f_peak(&self) -> f32 {
        match *self {
            Wavelet::Ricker { f_peak, .. } | Wavelet::GaussianDeriv { f_peak, .. } => f_peak,
            // The flat band's centre is the closest analogue.
            Wavelet::Ormsby { f, .. } => 0.5 * (f[1] + f[2]),
        }
    }
}

/// Ormsby wavelet: a trapezoidal band-pass pulse defined by four corner
/// frequencies `f1 < f2 < f3 < f4` (Hz) — the standard alternative to the
/// Ricker when the survey's usable band is known. Evaluated at time `t`
/// relative to the wavelet center.
pub fn ormsby(f: [f32; 4], t: f32) -> f32 {
    assert!(
        f[0] < f[1] && f[1] < f[2] && f[2] < f[3],
        "need f1<f2<f3<f4"
    );
    let pi = std::f32::consts::PI;
    // Normalised sinc-squared ramp terms; the t=0 limit is handled by sinc.
    let sinc = |x: f32| {
        if x.abs() < 1e-6 {
            1.0
        } else {
            (pi * x).sin() / (pi * x)
        }
    };
    // Classic Ormsby: the difference of two sinc²-ramp brackets.
    let bracket = |fa: f32, fb: f32| {
        // (π/(fb−fa)) · (fb²·sinc²(fb·t) − fa²·sinc²(fa·t)), fb > fa.
        pi / (fb - fa) * (fb * fb * sinc(fb * t).powi(2) - fa * fa * sinc(fa * t).powi(2))
    };
    let hi = bracket(f[2], f[3]);
    let lo = bracket(f[0], f[1]);
    // Normalise so the peak (t = 0) is 1: A(0) = π(f3+f4) − π(f1+f2).
    let peak = pi * (f[2] + f[3] - f[0] - f[1]);
    (hi - lo) / peak
}

/// Snapshot save period in time steps for a given wavelet and `dt`: sample
/// the wavefield at ≥ 2× the Nyquist rate of ~3·f_peak (the usable maximum
/// frequency of a Ricker).
pub fn snap_period(w: &Wavelet, dt: f32) -> usize {
    let f_max = 3.0 * w.f_peak();
    let period = 1.0 / (2.0 * f_max * dt);
    (period as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ricker_peaks_at_center_with_unit_amplitude() {
        assert_eq!(ricker(25.0, 0.0), 1.0);
        assert!(ricker(25.0, 0.005) < 1.0);
        assert!(ricker(25.0, -0.005) < 1.0);
    }

    #[test]
    fn ricker_is_even_and_decays() {
        for &t in &[0.001f32, 0.01, 0.02] {
            assert!((ricker(25.0, t) - ricker(25.0, -t)).abs() < 1e-6);
        }
        assert!(ricker(25.0, 0.5).abs() < 1e-6);
    }

    /// Zero crossings of a Ricker sit at t = ±1/(π f √2).
    #[test]
    fn ricker_zero_crossing_location() {
        let f = 20.0f32;
        let tz = 1.0 / (std::f32::consts::PI * f * 2.0f32.sqrt());
        assert!(ricker(f, tz).abs() < 1e-5);
    }

    /// A Ricker has (near-)zero mean — required so injected pressure does not
    /// accumulate a DC offset.
    #[test]
    fn ricker_trace_has_small_mean() {
        let dt = 1e-3;
        let tr = ricker_trace(20.0, dt, 400);
        let mean: f32 = tr.iter().sum::<f32>() / tr.len() as f32;
        assert!(mean.abs() < 1e-3, "mean = {mean}");
        // Peak is 1 at t = t0.
        let imax = (1.2 / 20.0 / dt) as usize;
        assert!((tr[imax] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn wavelet_enum_matches_free_function() {
        let w = Wavelet::ricker(30.0);
        let t0 = 1.2 / 30.0;
        for &t in &[0.0f32, 0.01, 0.04, 0.1] {
            assert!((w.sample(t) - ricker(30.0, t - t0)).abs() < 1e-7);
        }
        assert_eq!(w.f_peak(), 30.0);
    }

    #[test]
    fn gaussian_deriv_is_odd_around_delay() {
        let w = Wavelet::GaussianDeriv {
            f_peak: 25.0,
            t0: 0.05,
        };
        assert!(w.sample(0.05).abs() < 1e-7);
        assert!((w.sample(0.06) + w.sample(0.04)).abs() < 1e-6);
    }

    #[test]
    fn ormsby_peaks_at_center_and_decays() {
        let f = [5.0f32, 10.0, 40.0, 60.0];
        let p0 = ormsby(f, 0.0);
        assert!((p0 - 1.0).abs() < 1e-4, "unit peak: {p0}");
        assert!(ormsby(f, 0.012).abs() < p0);
        assert!(ormsby(f, 0.5).abs() < 0.02, "decayed tail");
        // Even symmetry.
        assert!((ormsby(f, 0.01) - ormsby(f, -0.01)).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "f1<f2<f3<f4")]
    fn ormsby_rejects_bad_corners() {
        ormsby([10.0, 5.0, 40.0, 60.0], 0.0);
    }

    #[test]
    fn ormsby_wavelet_enum() {
        let w = Wavelet::Ormsby {
            f: [5.0, 10.0, 40.0, 60.0],
            t0: 0.1,
        };
        assert_eq!(w.f_peak(), 25.0);
        assert!((w.sample(0.1) - ormsby([5.0, 10.0, 40.0, 60.0], 0.0)).abs() < 1e-7);
    }

    #[test]
    fn snap_period_scales_inversely_with_frequency() {
        let dt = 1e-3;
        let p_low = snap_period(&Wavelet::ricker(10.0), dt);
        let p_high = snap_period(&Wavelet::ricker(40.0), dt);
        assert!(p_low > p_high);
        assert!(p_high >= 1);
    }
}
