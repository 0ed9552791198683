//! # baselines — the tuners OnlineTune is compared against
//!
//! §7 of the paper compares OnlineTune with:
//!
//! * **DBA / MySQL defaults** ([`fixed`]) — fixed configurations, no learning;
//! * **BO** ([`bo`]) — OtterTune-style Bayesian optimization (GP surrogate + Expected
//!   Improvement) over the configuration space, context-oblivious and safety-oblivious;
//! * **DDPG** ([`ddpg`]) — CDBTune-style deep reinforcement learning (actor–critic over the
//!   internal-metric state);
//! * **QTune** ([`qtune`]) — query-aware RL that feeds a workload embedding through a
//!   metric-prediction network before the agent;
//! * **ResTune** ([`restune`]) — constrained BO with an RGPE (rank-weighted GP ensemble)
//!   transferring knowledge from earlier observation batches;
//! * **MysqlTuner** ([`mysqltuner`]) — the white-box heuristic script, applied directly.
//!
//! All of them (plus OnlineTune itself, via [`OnlineTuneBaseline`]) implement the common
//! [`Tuner`] trait so the experiment harness can run them interchangeably.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bo;
pub mod ddpg;
pub mod fixed;
pub mod mysqltuner;
pub mod qtune;
pub mod restune;

use onlinetune::IterationDiagnostics;
use simdb::{Configuration, InternalMetrics};

/// Everything a tuner may look at when producing a recommendation.
pub struct TuningInput<'a> {
    /// Context feature vector of the current interval (OnlineTune, QTune use it).
    pub context: &'a [f64],
    /// Internal metrics of the previous interval, if any (DDPG, MysqlTuner use them).
    pub metrics: Option<&'a InternalMetrics>,
    /// Performance of the default configuration under the current context (the safety
    /// threshold; OnlineTune and ResTune use it).
    pub safety_threshold: f64,
    /// Client connections of the current workload.
    pub clients: usize,
}

/// The common interface of all tuners in the evaluation.
pub trait Tuner {
    /// Display name used in experiment tables.
    fn name(&self) -> &str;

    /// Recommends a configuration for the upcoming interval, with the tuner's account of
    /// how it chose it (`None` for tuners that keep no diagnostics).
    fn suggest(&mut self, input: &TuningInput<'_>)
        -> (Configuration, Option<IterationDiagnostics>);

    /// Feeds back the observed performance (higher-is-better units) of `config`.
    fn observe(
        &mut self,
        input: &TuningInput<'_>,
        config: &Configuration,
        performance: f64,
        metrics: &InternalMetrics,
        safe: bool,
    );
}

/// Adapter exposing [`onlinetune::OnlineTune`] through the [`Tuner`] trait.
pub struct OnlineTuneBaseline {
    inner: onlinetune::OnlineTune,
}

impl OnlineTuneBaseline {
    /// Wraps an OnlineTune instance.
    pub fn new(inner: onlinetune::OnlineTune) -> Self {
        OnlineTuneBaseline { inner }
    }

    /// Access to the wrapped tuner (for diagnostics).
    pub fn inner(&self) -> &onlinetune::OnlineTune {
        &self.inner
    }
}

impl Tuner for OnlineTuneBaseline {
    fn name(&self) -> &str {
        "OnlineTune"
    }

    fn suggest(
        &mut self,
        input: &TuningInput<'_>,
    ) -> (Configuration, Option<IterationDiagnostics>) {
        let suggestion = self
            .inner
            .suggest(input.context, input.safety_threshold, input.clients);
        (suggestion.config, Some(suggestion.diagnostics))
    }

    fn observe(
        &mut self,
        input: &TuningInput<'_>,
        config: &Configuration,
        performance: f64,
        metrics: &InternalMetrics,
        safe: bool,
    ) {
        self.inner
            .observe(input.context, config, performance, Some(metrics), safe)
            .expect("simulated measurements are finite");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::{HardwareSpec, KnobCatalogue};

    #[test]
    fn onlinetune_adapter_round_trips() {
        let cat = KnobCatalogue::mysql57();
        let initial = Configuration::dba_default(&cat);
        let tuner = onlinetune::OnlineTune::new(
            cat.clone(),
            HardwareSpec::default(),
            3,
            &initial,
            onlinetune::OnlineTuneOptions::default(),
            1,
        );
        let mut baseline = OnlineTuneBaseline::new(tuner);
        assert_eq!(baseline.name(), "OnlineTune");
        let input = TuningInput {
            context: &[0.5, 0.5, 0.5],
            metrics: None,
            safety_threshold: 100.0,
            clients: 32,
        };
        let (config, diagnostics) = baseline.suggest(&input);
        assert_eq!(diagnostics.map(|d| d.iteration), Some(1));
        baseline.observe(&input, &config, 120.0, &InternalMetrics::zeroed(), true);
        assert_eq!(baseline.inner().observations().len(), 1);
    }
}
