//! Finite-difference coefficient tables.
//!
//! Taylor-series coefficients for the centered and staggered operators used by
//! the three propagators. The paper's operators are 8th-order ("stencil width
//! of 8"); lower orders are kept for the convergence-order tests, which verify
//! that each table really achieves its nominal accuracy.

/// A request for a coefficient table at an order no table exists for.
///
/// The supported orders are the even orders 2, 4, 6, 8 — 8 being the
/// paper's operator. Anything else (odd, zero, or higher than tabulated)
/// is this error rather than a panic, so config-driven callers (CLI order
/// flags, CFL helpers) can surface it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedOrder {
    /// The rejected order.
    pub order: usize,
    /// Which operator family the table was requested from.
    pub operator: &'static str,
}

impl std::fmt::Display for UnsupportedOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsupported {} order {} (supported: 2, 4, 6, 8)",
            self.operator, self.order
        )
    }
}

impl std::error::Error for UnsupportedOrder {}

/// Centered second-derivative coefficients (c\[0\] is the center weight).
///
/// d²u/dx² ≈ (1/h²) · ( c₀·u\[i\] + Σₖ cₖ·(u\[i+k\] + u\[i−k\]) )
pub fn try_centered_second(order: usize) -> Result<&'static [f64], UnsupportedOrder> {
    match order {
        2 => Ok(&[-2.0, 1.0]),
        4 => Ok(&[-5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0]),
        6 => Ok(&[-49.0 / 18.0, 3.0 / 2.0, -3.0 / 20.0, 1.0 / 90.0]),
        8 => Ok(&[
            -205.0 / 72.0,
            8.0 / 5.0,
            -1.0 / 5.0,
            8.0 / 315.0,
            -1.0 / 560.0,
        ]),
        _ => Err(UnsupportedOrder {
            order,
            operator: "centered second-derivative",
        }),
    }
}

/// [`try_centered_second`] for the fixed-order call sites (the workspace
/// default is the literal 8). Panics on unsupported orders.
pub fn centered_second(order: usize) -> &'static [f64] {
    try_centered_second(order).unwrap_or_else(|e| panic!("{e}"))
}

/// Centered first-derivative coefficients (antisymmetric; c\[0\] pairs with k=1).
///
/// du/dx ≈ (1/h) · Σₖ cₖ·(u\[i+k\] − u\[i−k\])
pub fn try_centered_first(order: usize) -> Result<&'static [f64], UnsupportedOrder> {
    match order {
        2 => Ok(&[1.0 / 2.0]),
        4 => Ok(&[2.0 / 3.0, -1.0 / 12.0]),
        6 => Ok(&[3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0]),
        8 => Ok(&[4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0]),
        _ => Err(UnsupportedOrder {
            order,
            operator: "centered first-derivative",
        }),
    }
}

/// [`try_centered_first`] for fixed-order call sites; panics on
/// unsupported orders.
pub fn centered_first(order: usize) -> &'static [f64] {
    try_centered_first(order).unwrap_or_else(|e| panic!("{e}"))
}

/// Staggered first-derivative coefficients on a half-offset grid.
///
/// du/dx|_{i+1/2} ≈ (1/h) · Σₖ cₖ·(u\[i+1+k\] − u\[i−k\])
///
/// These are the operators for the acoustic and elastic staggered-grid
/// first-order systems; the paper notes the staggered approach "has the
/// advantage of accuracy with less computational effort because it allows a
/// larger grid size".
pub fn try_staggered_first(order: usize) -> Result<&'static [f64], UnsupportedOrder> {
    match order {
        2 => Ok(&[1.0]),
        4 => Ok(&[9.0 / 8.0, -1.0 / 24.0]),
        6 => Ok(&[75.0 / 64.0, -25.0 / 384.0, 3.0 / 640.0]),
        8 => Ok(&[
            1225.0 / 1024.0,
            -245.0 / 3072.0,
            49.0 / 5120.0,
            -5.0 / 7168.0,
        ]),
        _ => Err(UnsupportedOrder {
            order,
            operator: "staggered first-derivative",
        }),
    }
}

/// [`try_staggered_first`] for fixed-order call sites; panics on
/// unsupported orders.
pub fn staggered_first(order: usize) -> &'static [f64] {
    try_staggered_first(order).unwrap_or_else(|e| panic!("{e}"))
}

/// Smallest magnitude a propagator kernel stores: 2⁻¹⁰⁰. See [`flush`].
pub const FLOOR: f32 = f32::from_bits(0x0D80_0000);

/// The numeric rule of every propagator store: a value with `|x| < FLOOR`
/// is stored as `0.0`; every other value, non-finite ones included, is
/// stored as is, so a blow-up still shows as inf or NaN.
///
/// Each forward pass starts from a zero field, and ahead of the wavefront
/// the field decays towards zero. Without the floor it passes through the
/// f32 subnormal range (below `f32::MIN_POSITIVE` = 2⁻¹²⁶), and every
/// subnormal operand costs the CPU a microcode assist, tens of times the
/// cost of a normal one. Flooring at `MIN_POSITIVE` alone is not enough:
/// the stencils multiply stored values by coefficient products as small as
/// about 2⁻¹⁶ (`C2[4]/h²` at h = 10 m; the staggered `S1[3]/h` is about
/// 2⁻¹⁴), so the intermediates of values just above 2⁻¹²⁶ would still
/// underflow. The 26 binades between 2⁻¹⁰⁰ and 2⁻¹²⁶ cover those products:
/// a stored value times any stencil coefficient stays a normal number, and
/// so does a difference of two stored values, which is 0 or a multiple of
/// an ulp of at least 2⁻¹²³. Only intermediates of deep cancellation can
/// still be subnormal, and none of them is stored.
///
/// Nothing an image or trace could show is lost: 2⁻¹⁰⁰ ≈ 7.9·10⁻³¹, about
/// 30 decades below the wave amplitudes (order 1, and 10⁶ in the elastic
/// stresses). The rule is a compare-and-select in safe code, so it gives
/// the same bits on every target and at every gang count, and LLVM keeps
/// it inside the packed loops. Setting the FPU's flush-to-zero mode
/// instead would be per-thread state that safe Rust assumes is off.
#[inline(always)]
pub fn flush(x: f32) -> f32 {
    if x.abs() < FLOOR {
        0.0
    } else {
        x
    }
}

/// The default 8th-order tables as `f32`, pre-cast for the hot kernels.
// The written digits intentionally mirror the exact rational values; the
// nearest-f32 roundings are checked against the f64 tables by test.
#[allow(clippy::excessive_precision)]
pub mod f32c {
    /// 8th-order centered second derivative, including the center weight.
    pub const C2: [f32; 5] = [
        -2.847_222_3,   // -205/72
        1.6,            // 8/5
        -0.2,           // -1/5
        0.025_396_826,  // 8/315
        -0.001_785_714, // -1/560
    ];

    /// 8th-order staggered first derivative.
    pub const S1: [f32; 4] = [
        1.196_289_1,      // 1225/1024
        -0.079_752_605,   // -245/3072
        0.009_570_313,    // 49/5120
        -0.000_697_544_7, // -5/7168
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Any consistent derivative stencil must annihilate constants and, for
    /// first derivatives, reproduce linear slopes exactly.
    #[test]
    fn centered_second_weights_sum_to_zero() {
        for order in [2, 4, 6, 8] {
            let c = centered_second(order);
            let total: f64 = c[0] + 2.0 * c[1..].iter().sum::<f64>();
            assert!(total.abs() < 1e-12, "order {order}: sum {total}");
        }
    }

    #[test]
    fn centered_first_reproduces_unit_slope() {
        for order in [2, 4, 6, 8] {
            let c = centered_first(order);
            // Σ cₖ·((i+k)−(i−k)) = Σ cₖ·2k must equal 1.
            let slope: f64 = c
                .iter()
                .enumerate()
                .map(|(j, &ck)| ck * 2.0 * (j + 1) as f64)
                .sum();
            assert!((slope - 1.0).abs() < 1e-12, "order {order}: slope {slope}");
        }
    }

    #[test]
    fn staggered_first_reproduces_unit_slope() {
        for order in [2, 4, 6, 8] {
            let c = staggered_first(order);
            // Offsets are (k+1/2) on each side: Σ cₖ·(2k+1) must equal 1.
            let slope: f64 = c
                .iter()
                .enumerate()
                .map(|(j, &ck)| ck * (2 * j + 1) as f64)
                .sum();
            assert!((slope - 1.0).abs() < 1e-12, "order {order}: slope {slope}");
        }
    }

    #[test]
    fn f32_tables_match_f64_tables() {
        let c2 = centered_second(8);
        for (a, b) in f32c::C2.iter().zip(c2.iter()) {
            assert!((*a as f64 - b).abs() < 1e-6);
        }
        let s1 = staggered_first(8);
        for (a, b) in f32c::S1.iter().zip(s1.iter()) {
            assert!((*a as f64 - b).abs() < 1e-6);
        }
    }

    /// The floor is 2⁻¹⁰⁰; values below it become `+0.0`, values at or
    /// above it and non-finite values pass through bit for bit.
    #[test]
    fn flush_zeroes_below_floor_only() {
        assert_eq!(FLOOR, 2f32.powi(-100));
        let below = f32::from_bits(FLOOR.to_bits() - 1);
        let bits = |x: f32| flush(x).to_bits();
        for x in [FLOOR, -FLOOR, f32::MIN_POSITIVE * 2f32.powi(26), 1.0, -3.5] {
            assert_eq!(bits(x), x.to_bits(), "{x:e} must pass through");
        }
        for x in [f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN] {
            assert_eq!(bits(x), x.to_bits(), "{x:e} must pass through");
        }
        assert!(flush(f32::NAN).is_nan(), "NaN must pass through");
        assert!(flush(-f32::NAN).is_nan(), "NaN must pass through");
        let subnormal = f32::from_bits(1);
        for x in [
            below,
            -below,
            f32::MIN_POSITIVE,
            subnormal,
            -subnormal,
            0.0,
            -0.0,
        ] {
            assert_eq!(bits(x), 0, "{x:e} must become +0.0");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn odd_order_rejected() {
        centered_second(3);
    }

    /// The fallible variants return the typed error with the offending
    /// order and operator family, instead of panicking.
    #[test]
    fn unsupported_order_is_a_typed_error() {
        let e = try_centered_second(3).unwrap_err();
        assert_eq!(e.order, 3);
        assert!(e.to_string().contains("centered second-derivative order 3"));
        let e = try_centered_first(10).unwrap_err();
        assert_eq!(e.operator, "centered first-derivative");
        let e = try_staggered_first(0).unwrap_err();
        assert_eq!(e.order, 0);
        // Every supported order round-trips through the fallible path.
        for order in [2, 4, 6, 8] {
            assert_eq!(try_centered_second(order).unwrap(), centered_second(order));
            assert_eq!(try_centered_first(order).unwrap(), centered_first(order));
            assert_eq!(try_staggered_first(order).unwrap(), staggered_first(order));
        }
    }

    /// Empirical convergence check: the 8th-order second derivative of sin(x)
    /// must converge ~O(h⁸) (measured as a large reduction when h halves).
    #[test]
    fn second_derivative_convergence_order() {
        fn err(order: usize, h: f64) -> f64 {
            let c = centered_second(order);
            let x0 = 0.7f64;
            let mut acc = c[0] * x0.sin();
            for (j, &ck) in c.iter().enumerate().skip(1) {
                let k = j as f64;
                acc += ck * ((x0 + k * h).sin() + (x0 - k * h).sin());
            }
            let approx = acc / (h * h);
            (approx - (-x0.sin())).abs()
        }
        // Larger steps for the high orders keep truncation error above the
        // f64 rounding floor, which would otherwise mask the convergence rate.
        for order in [2usize, 4, 6, 8] {
            let h = 0.4;
            let e1 = err(order, h);
            let e2 = err(order, h / 2.0);
            let rate = (e1 / e2).log2();
            assert!(
                rate > order as f64 - 0.7,
                "order {order}: measured rate {rate}"
            );
        }
    }

    /// Staggered first derivative convergence on sin(x), evaluated mid-cell.
    #[test]
    fn staggered_derivative_convergence_order() {
        fn err(order: usize, h: f64) -> f64 {
            let c = staggered_first(order);
            let x0 = 0.3f64; // derivative evaluated here, samples at ±(k+1/2)h
            let mut acc = 0.0;
            for (j, &ck) in c.iter().enumerate() {
                let off = (j as f64 + 0.5) * h;
                acc += ck * ((x0 + off).sin() - (x0 - off).sin());
            }
            let approx = acc / h;
            (approx - x0.cos()).abs()
        }
        for order in [2usize, 4, 6, 8] {
            let e1 = err(order, 0.1);
            let e2 = err(order, 0.05);
            let rate = (e1 / e2).log2();
            assert!(
                rate > order as f64 - 0.5,
                "order {order}: measured rate {rate}"
            );
        }
    }
}
