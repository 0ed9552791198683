//! Fixed-configuration "tuners": the MySQL default and the DBA default baselines, plus the
//! "apply the best offline configuration forever" baseline of Figure 1d.

use crate::{Tuner, TuningInput};
use onlinetune::IterationDiagnostics;
use simdb::{Configuration, InternalMetrics, KnobCatalogue};

/// Always recommends the same configuration.
pub struct FixedConfigTuner {
    name: String,
    config: Configuration,
}

impl FixedConfigTuner {
    /// A tuner that always recommends the supplied configuration.
    pub fn new(name: impl Into<String>, config: Configuration) -> Self {
        FixedConfigTuner {
            name: name.into(),
            config,
        }
    }

    /// The vendor (MySQL) default baseline.
    pub fn mysql_default(catalogue: &KnobCatalogue) -> Self {
        Self::new("MySQL Default", Configuration::vendor_default(catalogue))
    }

    /// The DBA default baseline.
    pub fn dba_default(catalogue: &KnobCatalogue) -> Self {
        Self::new("DBA Default", Configuration::dba_default(catalogue))
    }
}

impl Tuner for FixedConfigTuner {
    fn name(&self) -> &str {
        &self.name
    }

    fn suggest(
        &mut self,
        _input: &TuningInput<'_>,
    ) -> (Configuration, Option<IterationDiagnostics>) {
        (self.config.clone(), None)
    }

    fn observe(
        &mut self,
        _input: &TuningInput<'_>,
        _config: &Configuration,
        _performance: f64,
        _metrics: &InternalMetrics,
        _safe: bool,
    ) {
        // Fixed configurations never learn.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_tuner_always_returns_the_same_configuration() {
        let cat = KnobCatalogue::mysql57();
        let mut t = FixedConfigTuner::dba_default(&cat);
        let input = TuningInput {
            context: &[0.0],
            metrics: None,
            safety_threshold: 0.0,
            clients: 8,
        };
        let a = t.suggest(&input).0;
        t.observe(&input, &a, 1.0, &InternalMetrics::zeroed(), true);
        let b = t.suggest(&input).0;
        assert_eq!(a, b);
        assert_eq!(t.name(), "DBA Default");
        assert_eq!(a, Configuration::dba_default(&cat));
    }

    #[test]
    fn mysql_and_dba_defaults_differ() {
        let cat = KnobCatalogue::mysql57();
        let mysql = FixedConfigTuner::mysql_default(&cat);
        let dba = FixedConfigTuner::dba_default(&cat);
        assert_ne!(mysql.config, dba.config);
    }
}
