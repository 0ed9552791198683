//! Scalar statistics helpers: the standard-normal PDF/CDF needed by the Expected
//! Improvement acquisition function.

use std::f64::consts::PI;

/// Probability density function of the standard normal distribution.
#[inline]
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * PI).sqrt()
}

/// Cumulative distribution function of the standard normal distribution.
///
/// Uses the Abramowitz–Stegun 7.1.26 rational approximation of `erf`, whose absolute error
/// is below 1.5e-7 — far more accurate than the tuning algorithms require.
#[inline]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz–Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();

    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_peaks_at_zero_and_is_symmetric() {
        assert!((normal_pdf(0.0) - 0.3989422804014327).abs() < 1e-12);
        assert!((normal_pdf(1.3) - normal_pdf(-1.3)).abs() < 1e-15);
    }

    #[test]
    fn cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(8.0) > 0.999999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for x in [-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0] {
            assert!((erf(x) + erf(-x)).abs() < 1e-6);
            assert!(erf(x).abs() <= 1.0);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_cdf_monotone(a in -6.0f64..6.0, b in -6.0f64..6.0) {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
            }

            #[test]
            fn prop_cdf_in_unit_interval(x in -50.0f64..50.0) {
                let c = normal_cdf(x);
                prop_assert!((0.0..=1.0).contains(&c));
            }
        }
    }
}
