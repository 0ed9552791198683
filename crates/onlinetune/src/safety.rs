//! Black-box safety assessment (§6.2.1).
//!
//! A candidate configuration is *black-box safe* when the lower confidence bound of the
//! selected contextual GP, evaluated at the candidate under the current context, clears the
//! safety threshold `τ` (the default configuration's performance). Before the model has
//! seen enough observations to produce meaningful bounds, the assessment falls back to a
//! proximity criterion: only candidates close to a configuration already known to be safe
//! are admitted — this is the paper's "start from configurations similar to those known to
//! be safe".

use gp::acquisition::{lower_confidence_bound, upper_confidence_bound};
use gp::contextual::ContextualGp;
use gp::regression::Posterior;

/// Assessment of one candidate configuration.
#[derive(Debug, Clone)]
pub struct CandidateAssessment {
    /// Index of the candidate in the candidate list it was built from.
    pub index: usize,
    /// GP posterior (if the model could produce one).
    pub posterior: Option<Posterior>,
    /// Lower confidence bound (worst plausible performance).
    pub lcb: f64,
    /// Upper confidence bound (optimistic performance, the UCB acquisition value).
    pub ucb: f64,
    /// Whether the candidate passed the black-box safety check.
    pub black_safe: bool,
}

/// Options of the black-box safety assessment.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct SafetyOptions {
    /// Minimum observations the model must hold before its confidence bounds are trusted.
    pub min_observations: usize,
    /// Proximity radius (normalized space) used in the cold-start fallback.
    pub cold_start_radius: f64,
    /// Relative slack on the safety threshold: a candidate is admitted when its lower bound
    /// clears `τ − margin·|τ|`. The measured default performance itself fluctuates by the
    /// measurement noise, so a small slack keeps already-observed safe configurations from
    /// being ejected from the safety set.
    pub threshold_margin: f64,
}

impl Default for SafetyOptions {
    fn default() -> Self {
        SafetyOptions {
            min_observations: 3,
            cold_start_radius: 0.08,
            threshold_margin: 0.03,
        }
    }
}

/// Assesses every candidate under the given context.
///
/// * `threshold` — the safety threshold `τ` in the same units as the model's targets.
/// * `beta` — confidence-bound multiplier (from [`gp::acquisition::ucb_beta`]).
/// * `known_safe` — configurations already known to be safe (normalized); used only in the
///   cold-start fallback.
///
/// The whole candidate sweep is **one batched posterior call**
/// ([`ContextualGp::predict_batch`]): one cross-kernel matrix with a shared context
/// column, one multi-RHS triangular solve, no per-candidate allocation. The joint
/// `[θ, c]` query rows belong to the calling thread, not to the caller, so a tuner keeps
/// no candidate rows between iterations. The resulting assessments are bit-identical to
/// evaluating each candidate through the scalar [`ContextualGp::predict`] (the batched
/// path's contract); a batch-level failure (e.g. a malformed candidate) recovers through
/// the scalar per-candidate loop so well-formed candidates are still assessed exactly as
/// before.
pub fn assess_candidates(
    model: &ContextualGp,
    context: &[f64],
    candidates: &[Vec<f64>],
    threshold: f64,
    beta: f64,
    known_safe: &[Vec<f64>],
    options: &SafetyOptions,
) -> Vec<CandidateAssessment> {
    let assessments = assess_candidates_inner(
        model, context, candidates, threshold, beta, known_safe, options,
    );
    // Observability only: counts flow into the model's telemetry sink (a no-op branch
    // when none is installed) and never back into the assessment itself.
    let t = model.telemetry();
    if t.is_enabled() {
        let rejected = assessments.iter().filter(|a| !a.black_safe).count();
        t.add(telemetry::CounterId::BlackboxRejections, rejected as u64);
        if rejected == assessments.len() && !assessments.is_empty() {
            t.event(
                telemetry::EventKind::SafetyRejection,
                "blackbox",
                &format!("all {rejected} candidates rejected"),
            );
        }
    }
    assessments
}

/// The assessment proper, free of instrumentation.
fn assess_candidates_inner(
    model: &ContextualGp,
    context: &[f64],
    candidates: &[Vec<f64>],
    threshold: f64,
    beta: f64,
    known_safe: &[Vec<f64>],
    options: &SafetyOptions,
) -> Vec<CandidateAssessment> {
    let model_ready = model.is_fitted() && model.len() >= options.min_observations;
    let threshold = threshold - options.threshold_margin * threshold.abs();
    // Both the batched arm and the scalar recovery arm derive assessments the same way;
    // one shared constructor keeps them bit-identical by construction.
    let assess = |index: usize, posterior: Posterior| {
        let lcb = lower_confidence_bound(&posterior, beta);
        let ucb = upper_confidence_bound(&posterior, beta);
        CandidateAssessment {
            index,
            posterior: Some(posterior),
            lcb,
            ucb,
            black_safe: lcb >= threshold,
        }
    };
    let unassessable = |index: usize| CandidateAssessment {
        index,
        posterior: None,
        lcb: f64::NEG_INFINITY,
        ucb: f64::NEG_INFINITY,
        black_safe: false,
    };
    if model_ready {
        match model.predict_batch(candidates, context) {
            Ok(posteriors) => posteriors
                .into_iter()
                .enumerate()
                .map(|(index, posterior)| assess(index, posterior))
                .collect(),
            Err(_) => candidates
                .iter()
                .enumerate()
                .map(
                    |(index, candidate)| match model.predict(candidate, context) {
                        Ok(posterior) => assess(index, posterior),
                        Err(_) => unassessable(index),
                    },
                )
                .collect(),
        }
    } else {
        // Cold start: proximity to a known-safe configuration, decided on squared
        // distances so the C × |known_safe| sweep performs no square roots.
        candidates
            .iter()
            .enumerate()
            .map(|(index, candidate)| {
                let near_safe = known_safe.iter().any(|safe| {
                    linalg::vecops::within_radius(candidate, safe, options.cold_start_radius)
                });
                CandidateAssessment {
                    index,
                    posterior: None,
                    lcb: if near_safe {
                        threshold
                    } else {
                        f64::NEG_INFINITY
                    },
                    ucb: threshold,
                    black_safe: near_safe,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp::contextual::ContextObservation;

    fn trained_model() -> ContextualGp {
        // f(θ, c) = 10 - 20·(θ - 0.5)²: safe region is around θ = 0.5 for a threshold of 8.
        let mut model = ContextualGp::new(1, 1);
        for i in 0..15 {
            let theta = i as f64 / 14.0;
            model.add_observation(ContextObservation {
                context: vec![0.0],
                config: vec![theta],
                performance: 10.0 - 20.0 * (theta - 0.5).powi(2),
            });
        }
        model.refit().unwrap();
        model
    }

    #[test]
    fn confident_good_candidates_are_safe_and_bad_ones_are_not() {
        let model = trained_model();
        let candidates = vec![vec![0.5], vec![0.05], vec![0.95]];
        let out = assess_candidates(
            &model,
            &[0.0],
            &candidates,
            8.0,
            2.0,
            &[],
            &SafetyOptions::default(),
        );
        assert!(
            out[0].black_safe,
            "θ=0.5 should be safe: lcb={}",
            out[0].lcb
        );
        assert!(
            !out[1].black_safe,
            "θ=0.05 should be unsafe: lcb={}",
            out[1].lcb
        );
        assert!(!out[2].black_safe);
        assert!(out[0].ucb >= out[0].lcb);
    }

    #[test]
    fn higher_beta_is_more_conservative() {
        let model = trained_model();
        let candidates = vec![vec![0.42]];
        let relaxed = assess_candidates(
            &model,
            &[0.0],
            &candidates,
            8.0,
            0.5,
            &[],
            &SafetyOptions::default(),
        );
        let strict = assess_candidates(
            &model,
            &[0.0],
            &candidates,
            8.0,
            5.0,
            &[],
            &SafetyOptions::default(),
        );
        assert!(relaxed[0].lcb > strict[0].lcb);
    }

    #[test]
    fn batched_assessment_is_bit_identical_to_scalar_prediction() {
        let model = trained_model();
        let beta = 2.2;
        let threshold = 8.0;
        let options = SafetyOptions::default();
        let candidates: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 / 24.0]).collect();
        let out = assess_candidates(&model, &[0.0], &candidates, threshold, beta, &[], &options);
        let margin = threshold - options.threshold_margin * threshold.abs();
        for (candidate, a) in candidates.iter().zip(out.iter()) {
            let p = model.predict(candidate, &[0.0]).unwrap();
            let posterior = a.posterior.as_ref().expect("posterior present");
            assert_eq!(p.mean.to_bits(), posterior.mean.to_bits());
            assert_eq!(p.std_dev.to_bits(), posterior.std_dev.to_bits());
            assert_eq!(a.lcb.to_bits(), lower_confidence_bound(&p, beta).to_bits());
            assert_eq!(a.ucb.to_bits(), upper_confidence_bound(&p, beta).to_bits());
            assert_eq!(a.black_safe, a.lcb >= margin);
        }
    }

    #[test]
    fn malformed_candidate_degrades_gracefully_without_poisoning_the_batch() {
        // A wrong-dimension candidate fails the batched call; the scalar recovery loop
        // must still assess the well-formed candidates exactly as before and mark only
        // the malformed one unsafe.
        let model = trained_model();
        let candidates = vec![vec![0.5], vec![0.5, 0.9], vec![0.55]];
        let out = assess_candidates(
            &model,
            &[0.0],
            &candidates,
            8.0,
            2.0,
            &[],
            &SafetyOptions::default(),
        );
        assert!(out[0].black_safe);
        assert!(!out[1].black_safe);
        assert!(out[1].posterior.is_none());
        assert_eq!(out[1].lcb, f64::NEG_INFINITY);
        let p = model.predict(&candidates[2], &[0.0]).unwrap();
        assert_eq!(
            out[2].posterior.as_ref().unwrap().mean.to_bits(),
            p.mean.to_bits()
        );
    }

    #[test]
    fn cold_start_falls_back_to_proximity() {
        let model = ContextualGp::new(2, 1); // empty model
        let candidates = vec![vec![0.5, 0.5], vec![0.9, 0.9]];
        let known_safe = vec![vec![0.5, 0.52]];
        let out = assess_candidates(
            &model,
            &[0.0],
            &candidates,
            100.0,
            2.0,
            &known_safe,
            &SafetyOptions::default(),
        );
        assert!(out[0].black_safe, "close to a known-safe configuration");
        assert!(
            !out[1].black_safe,
            "far from every known-safe configuration"
        );
        assert!(out[0].posterior.is_none());
    }

    #[test]
    fn cold_start_without_known_safe_admits_nothing() {
        let model = ContextualGp::new(1, 1);
        let out = assess_candidates(
            &model,
            &[0.0],
            &[vec![0.5]],
            0.0,
            2.0,
            &[],
            &SafetyOptions::default(),
        );
        assert!(!out[0].black_safe);
    }
}
