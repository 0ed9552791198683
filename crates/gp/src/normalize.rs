//! Output normalization.
//!
//! Observed performance values are standardized to zero mean and unit variance before a
//! GP is fitted, and predictions are mapped back to the objective's units. Configurations
//! need no scaler here: they reach the GP already in the unit hypercube
//! (`simdb::Configuration::normalized`).

/// Standardizes scalars to zero mean and unit variance (and back).
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    mean: f64,
    scale: f64,
}

impl Standardizer {
    /// Fits the standardizer on a sample. A degenerate (constant or empty) sample produces
    /// a unit scale so transforms stay well-defined.
    pub fn fit(values: &[f64]) -> Self {
        let mean = linalg::vecops::mean(values);
        let sd = linalg::vecops::std_dev(values);
        let scale = if sd > 1e-12 { sd } else { 1.0 };
        Standardizer { mean, scale }
    }

    /// Maps an original-unit value to standardized space.
    pub fn transform(&self, v: f64) -> f64 {
        (v - self.mean) / self.scale
    }

    /// Maps a standardized value back to original units.
    pub fn inverse(&self, v: f64) -> f64 {
        v * self.scale + self.mean
    }

    /// The scale (standard deviation) used; needed to un-standardize predictive variances.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizer_roundtrip() {
        let values = [10.0, 20.0, 30.0, 40.0];
        let s = Standardizer::fit(&values);
        for &v in &values {
            assert!((s.inverse(s.transform(v)) - v).abs() < 1e-10);
        }
        let transformed: Vec<f64> = values.iter().map(|&v| s.transform(v)).collect();
        assert!(linalg::vecops::mean(&transformed).abs() < 1e-10);
        assert!((linalg::vecops::std_dev(&transformed) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn standardizer_handles_constant_input() {
        let s = Standardizer::fit(&[5.0, 5.0, 5.0]);
        assert_eq!(s.transform(5.0), 0.0);
        assert_eq!(s.inverse(0.0), 5.0);
        assert_eq!(s.scale(), 1.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_standardizer_roundtrip(values in proptest::collection::vec(-1e6f64..1e6, 2..50), probe in -1e6f64..1e6) {
                let s = Standardizer::fit(&values);
                prop_assert!((s.inverse(s.transform(probe)) - probe).abs() < 1e-6 * probe.abs().max(1.0));
            }
        }
    }
}
