//! Small vector helpers shared by the GP, ML and tuning crates.

/// Dot product of two equally sized slices. Panics in debug builds on length mismatch and
/// truncates to the shorter slice in release builds (callers are expected to pass matched
/// lengths; the tuning code always does).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Distance between two finite `f64` values in units in the last place (ULPs): the
/// number of representable doubles strictly between them, plus one if they differ.
/// Returns 0 for bitwise-equal values (including `-0.0` vs `0.0`, which are numerically
/// equal) and `u64::MAX` when either value is NaN. Used by the numerical-equivalence
/// gates (blocked vs reference Cholesky) where "within k ULPs" is the contract.
#[inline]
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    if a == b {
        return 0;
    }
    // Map the IEEE-754 bit patterns onto a monotone integer line: non-negative floats
    // keep their bits, negative floats are reflected below zero. The distance on that
    // line is exactly the ULP count.
    fn monotone(v: f64) -> i128 {
        let bits = v.to_bits();
        if bits >> 63 == 0 {
            bits as i128
        } else {
            -((bits & 0x7fff_ffff_ffff_ffff) as i128)
        }
    }
    monotone(a).abs_diff(monotone(b)) as u64
}

/// Euclidean distance between two points.
#[inline]
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Squared Euclidean distance (avoids the square root in hot loops such as kernel
/// evaluation and DBSCAN neighbourhood queries).
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
}

/// Whether `a` lies within Euclidean distance `radius` of `b`, decided on squared
/// distances (`‖a − b‖² ≤ radius²`) so proximity sweeps over many points skip the
/// square root entirely. A negative `radius` matches nothing (squaring would
/// otherwise silently turn a fail-closed comparison into a fail-open one).
#[inline]
pub fn within_radius(a: &[f64], b: &[f64], radius: f64) -> bool {
    radius >= 0.0 && squared_distance(a, b) <= radius * radius
}

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance. Returns 0.0 for slices with fewer than two elements.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Population standard deviation.
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Index of the maximum element (first occurrence). Returns `None` for an empty slice or a
/// slice that contains only NaNs.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((squared_distance(&[0.0, 0.0], &[3.0, 4.0]) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn within_radius_agrees_with_euclidean_distance() {
        assert!(within_radius(&[0.0, 0.0], &[3.0, 4.0], 5.0));
        assert!(!within_radius(&[0.0, 0.0], &[3.0, 4.0], 4.999));
        assert!(within_radius(&[1.0], &[1.0], 0.0));
        // A negative radius stays fail-closed even though its square is positive.
        assert!(!within_radius(&[1.0], &[1.0], -0.5));
    }

    #[test]
    fn mean_variance_std() {
        let a = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&a) - 5.0).abs() < 1e-12);
        assert!((variance(&a) - 4.0).abs() < 1e-12);
        assert!((std_dev(&a) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn argmax_handles_nan_and_empty() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 2.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_dot_symmetry(a in proptest::collection::vec(-10.0f64..10.0, 8),
                                 b in proptest::collection::vec(-10.0f64..10.0, 8)) {
                prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-9);
            }

            #[test]
            fn prop_triangle_inequality(a in proptest::collection::vec(-10.0f64..10.0, 5),
                                        b in proptest::collection::vec(-10.0f64..10.0, 5),
                                        c in proptest::collection::vec(-10.0f64..10.0, 5)) {
                let ab = euclidean_distance(&a, &b);
                let bc = euclidean_distance(&b, &c);
                let ac = euclidean_distance(&a, &c);
                prop_assert!(ac <= ab + bc + 1e-9);
            }

            #[test]
            fn prop_variance_nonnegative(a in proptest::collection::vec(-100.0f64..100.0, 1..32)) {
                prop_assert!(variance(&a) >= 0.0);
            }
        }
    }
}
