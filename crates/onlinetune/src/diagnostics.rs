//! Per-iteration diagnostics: what the tuner did on one iteration.
//!
//! These power Figure 13 of the paper's evaluation (selected model, subspace distance
//! from the default, safety-set size). How long each stage took is telemetry's job: the
//! tuner records one span per Table A1 stage (`telemetry::SpanId::ModelSelection` and
//! the three after it), which `fig8_overhead` reads.

use serde::Serialize;

/// Everything the tuner can report about one iteration.
#[derive(Debug, Clone, Default, Serialize)]
pub struct IterationDiagnostics {
    /// Iteration counter (1-based, incremented per suggestion).
    pub iteration: usize,
    /// Index of the per-cluster model selected for the context.
    pub selected_model: usize,
    /// Number of per-cluster models currently maintained.
    pub n_models: usize,
    /// Number of times the clustering has been re-learned so far.
    pub recluster_count: usize,
    /// Hypercube radius, when the current subspace is a hypercube.
    pub subspace_radius: Option<f64>,
    /// Whether the current subspace is a line region.
    pub subspace_is_line: bool,
    /// L2 distance (normalized space) between the subspace centre and the initial (default)
    /// configuration — the quantity plotted in Figure 13 (left).
    pub center_distance_from_default: f64,
    /// L2 distance between the recommended configuration and the initial configuration.
    pub recommendation_distance_from_default: f64,
    /// Number of candidates produced by discretizing the subspace.
    pub candidates_total: usize,
    /// Number of candidates that passed both safety checks (the safety-set size of
    /// Figure 13, right).
    pub safety_set_size: usize,
    /// Candidates rejected by the black-box (GP lower bound) check.
    pub blackbox_rejections: usize,
    /// Candidates rejected by the white-box rules.
    pub whitebox_rejections: usize,
    /// Name of the white-box rule that was ignored for this recommendation, if any.
    pub overridden_rule: Option<String>,
    /// Whether the tuner fell back to re-applying the best known configuration because the
    /// safety set was empty.
    pub fell_back_to_center: bool,
    /// Whether the recommendation came from the boundary-exploration branch.
    pub explored_boundary: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_diagnostics_are_empty() {
        let d = IterationDiagnostics::default();
        assert_eq!(d.safety_set_size, 0);
        assert!(d.overridden_rule.is_none());
    }

    #[test]
    fn diagnostics_serialize_to_json() {
        let d = IterationDiagnostics {
            iteration: 3,
            selected_model: 1,
            ..Default::default()
        };
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"iteration\":3"));
        assert!(json.contains("\"selected_model\":1"));
    }
}
