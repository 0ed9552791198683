//! Configuration vectors: named access, normalization and distance helpers.

use crate::knobs::KnobCatalogue;
use serde::{Deserialize, Serialize};

/// A full configuration: one value per knob, in catalogue order, in native units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Configuration {
    values: Vec<f64>,
}

impl Configuration {
    /// Builds a configuration from raw values (sanitized against the catalogue).
    pub fn from_values(catalogue: &KnobCatalogue, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            catalogue.len(),
            "configuration must have one value per knob"
        );
        let values = values
            .into_iter()
            .zip(catalogue.knobs().iter())
            .map(|(v, k)| k.sanitize(v))
            .collect();
        Configuration { values }
    }

    /// The vendor-default configuration.
    pub fn vendor_default(catalogue: &KnobCatalogue) -> Self {
        Configuration::from_values(catalogue, catalogue.default_values())
    }

    /// The DBA-default configuration.
    pub fn dba_default(catalogue: &KnobCatalogue) -> Self {
        Configuration::from_values(catalogue, catalogue.dba_default_values())
    }

    /// Builds a configuration from a normalized `[0, 1]^m` vector.
    pub fn from_normalized(catalogue: &KnobCatalogue, unit: &[f64]) -> Self {
        let mut cfg = Configuration {
            values: Vec::with_capacity(unit.len()),
        };
        cfg.set_from_normalized(catalogue, unit);
        cfg
    }

    /// Overwrites this configuration in place from a normalized vector, reusing the
    /// existing allocation. Per-candidate sweeps (the white-box rule check evaluates
    /// every candidate of every suggest call) use this so the loop performs no
    /// allocations; the result is identical to [`Configuration::from_normalized`].
    pub fn set_from_normalized(&mut self, catalogue: &KnobCatalogue, unit: &[f64]) {
        assert_eq!(unit.len(), catalogue.len());
        self.values.clear();
        self.values.extend(
            unit.iter()
                .zip(catalogue.knobs().iter())
                .map(|(u, k)| k.denormalize(*u)),
        );
    }

    /// The raw values in catalogue order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of knobs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the configuration is empty (only for degenerate catalogues).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value of a knob by name; `None` if the catalogue does not contain it.
    pub fn get(&self, catalogue: &KnobCatalogue, name: &str) -> Option<f64> {
        catalogue.index_of(name).map(|i| self.values[i])
    }

    /// Sets a knob by name (sanitized). Returns `false` when the knob is unknown.
    pub fn set(&mut self, catalogue: &KnobCatalogue, name: &str, value: f64) -> bool {
        match catalogue.index_of(name) {
            Some(i) => {
                self.values[i] = catalogue.knob(i).sanitize(value);
                true
            }
            None => false,
        }
    }

    /// Normalized `[0, 1]^m` representation of the configuration.
    pub fn normalized(&self, catalogue: &KnobCatalogue) -> Vec<f64> {
        self.values
            .iter()
            .zip(catalogue.knobs().iter())
            .map(|(v, k)| k.normalize(*v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Euclidean distance between two configurations in normalized space.
    fn normalized_distance(a: &Configuration, b: &Configuration, cat: &KnobCatalogue) -> f64 {
        let (a, b) = (a.normalized(cat), b.normalized(cat));
        a.iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn defaults_reflect_catalogue() {
        let cat = KnobCatalogue::mysql57();
        let vendor = Configuration::vendor_default(&cat);
        let dba = Configuration::dba_default(&cat);
        assert_eq!(vendor.len(), 40);
        assert_eq!(
            vendor.get(&cat, "innodb_buffer_pool_size").unwrap(),
            128.0 * 1024.0 * 1024.0
        );
        assert_eq!(
            dba.get(&cat, "innodb_buffer_pool_size").unwrap(),
            13.0 * 1024.0 * 1024.0 * 1024.0
        );
        assert!(normalized_distance(&vendor, &dba, &cat) > 0.5);
    }

    #[test]
    fn set_and_get_by_name() {
        let cat = KnobCatalogue::mysql57();
        let mut cfg = Configuration::vendor_default(&cat);
        assert!(cfg.set(&cat, "sort_buffer_size", 8.0 * 1024.0 * 1024.0));
        assert_eq!(
            cfg.get(&cat, "sort_buffer_size").unwrap(),
            8.0 * 1024.0 * 1024.0
        );
        assert!(!cfg.set(&cat, "not_a_knob", 1.0));
        assert_eq!(cfg.get(&cat, "not_a_knob"), None);
    }

    #[test]
    fn from_values_sanitizes_out_of_range_inputs() {
        let cat = KnobCatalogue::mysql57();
        let mut values = cat.default_values();
        let bp = cat.index_of("innodb_buffer_pool_size").unwrap();
        values[bp] = 1e18; // way above the max
        let cfg = Configuration::from_values(&cat, values);
        assert_eq!(cfg.values()[bp], 15.0 * 1024.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn normalized_roundtrip_is_close() {
        let cat = KnobCatalogue::mysql57();
        let dba = Configuration::dba_default(&cat);
        let unit = dba.normalized(&cat);
        assert!(unit.iter().all(|u| (0.0..=1.0).contains(u)));
        let back = Configuration::from_normalized(&cat, &unit);
        for (a, b) in dba.values().iter().zip(back.values().iter()) {
            let rel = (a - b).abs() / a.abs().max(1.0);
            assert!(rel < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn set_from_normalized_matches_from_normalized() {
        let cat = KnobCatalogue::mysql57();
        let unit_a: Vec<f64> = (0..cat.len())
            .map(|i| i as f64 / cat.len() as f64)
            .collect();
        let unit_b: Vec<f64> = (0..cat.len())
            .map(|i| 1.0 - i as f64 / cat.len() as f64)
            .collect();
        let mut scratch = Configuration::from_normalized(&cat, &unit_a);
        assert_eq!(scratch, Configuration::from_normalized(&cat, &unit_a));
        scratch.set_from_normalized(&cat, &unit_b);
        assert_eq!(scratch, Configuration::from_normalized(&cat, &unit_b));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let cat = KnobCatalogue::mysql57();
        let cfg = Configuration::dba_default(&cat);
        assert_eq!(normalized_distance(&cfg, &cfg, &cat), 0.0);
    }
}
