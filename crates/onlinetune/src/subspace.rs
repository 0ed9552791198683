//! Configuration-subspace adaptation (Algorithm 2, §6.1 and Appendix A3).
//!
//! Instead of optimizing over the whole (normalized) configuration space `[0, 1]^m`,
//! OnlineTune restricts each step to a small subspace centred on the best configuration
//! found so far. The subspace alternates between
//!
//! * a **hypercube region** `{θ : ‖θ − θ_best‖₂ ≤ R}` whose radius doubles after
//!   `η_succ` consecutive successes and halves after `η_fail` consecutive failures, and
//! * a **line region** `{θ_best + α·d}` whose direction is either random (exploration) or
//!   aligned with an important knob (exploitation), following the direction oracle of
//!   Appendix A3.2.
//!
//! The subspace is discretized into a finite candidate set on which safety can be assessed
//! point-wise (the paper's argument for why SAFEOPT-style discretization becomes feasible).

use rand::Rng;

/// Which kind of region the subspace currently is.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Region {
    /// `{θ : ‖θ − center‖₂ ≤ radius} ∩ [0,1]^m`
    Hypercube {
        /// Current radius in normalized space.
        radius: f64,
    },
    /// `{center + α·direction : α ∈ R} ∩ [0,1]^m`
    Line {
        /// Unit direction vector.
        direction: Vec<f64>,
    },
}

/// Options controlling subspace adaptation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SubspaceOptions {
    /// Initial hypercube radius (normalized units). The paper initializes to ~5 % of each
    /// dimension's range.
    pub initial_radius: f64,
    /// Upper bound on the hypercube radius.
    pub max_radius: f64,
    /// Lower bound on the hypercube radius before a switch to a line region is forced.
    pub min_radius: f64,
    /// Consecutive successes before the radius doubles (`η_succ`).
    pub success_threshold: usize,
    /// Consecutive failures before the radius halves (`η_fail`).
    pub failure_threshold: usize,
    /// Consecutive failures before switching the region type.
    pub switch_threshold: usize,
    /// Number of candidates produced when discretizing the region.
    pub candidates: usize,
}

impl Default for SubspaceOptions {
    fn default() -> Self {
        SubspaceOptions {
            initial_radius: 0.12,
            max_radius: 0.8,
            min_radius: 0.01,
            success_threshold: 3,
            failure_threshold: 3,
            switch_threshold: 5,
            candidates: 220,
        }
    }
}

/// The adaptive subspace belonging to one surrogate model.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Subspace {
    region: Region,
    center: Vec<f64>,
    options: SubspaceOptions,
    consecutive_successes: usize,
    consecutive_failures: usize,
    failures_since_switch: usize,
}

impl Subspace {
    /// Creates a hypercube subspace centred on the (normalized) initial safe configuration.
    pub fn new(center: Vec<f64>, options: SubspaceOptions) -> Self {
        Subspace {
            region: Region::Hypercube {
                radius: options.initial_radius,
            },
            center,
            options,
            consecutive_successes: 0,
            consecutive_failures: 0,
            failures_since_switch: 0,
        }
    }

    /// The current centre (the best configuration found so far).
    pub fn center(&self) -> &[f64] {
        &self.center
    }

    /// Current hypercube radius, if the region is a hypercube.
    pub fn radius(&self) -> Option<f64> {
        match &self.region {
            Region::Hypercube { radius } => Some(*radius),
            Region::Line { .. } => None,
        }
    }

    /// Moves the subspace centre (called when a better configuration is observed).
    pub fn recenter(&mut self, new_center: Vec<f64>) {
        debug_assert_eq!(new_center.len(), self.center.len());
        self.center = new_center;
    }

    /// Records the outcome of the last recommendation: `success` means it improved on the
    /// previous best. This drives the counters of Algorithm 2.
    pub fn record_outcome(&mut self, success: bool) {
        if success {
            self.consecutive_successes += 1;
            self.consecutive_failures = 0;
            self.failures_since_switch = 0;
        } else {
            self.consecutive_failures += 1;
            self.consecutive_successes = 0;
            self.failures_since_switch += 1;
        }
    }

    /// Adapts the region (Algorithm 2). `direction_oracle` supplies the direction when the
    /// region switches to a line; `no_safe_candidates` forces a switch (the paper's other
    /// switching-rule trigger: "no unevaluated safe configuration exists in Θ").
    pub fn adapt(
        &mut self,
        direction_oracle: &mut dyn FnMut() -> Vec<f64>,
        no_safe_candidates: bool,
    ) {
        let switch =
            no_safe_candidates || self.failures_since_switch >= self.options.switch_threshold;
        match &mut self.region {
            Region::Hypercube { radius } => {
                if self.consecutive_successes >= self.options.success_threshold {
                    *radius = (*radius * 2.0).min(self.options.max_radius);
                    self.consecutive_successes = 0;
                    self.consecutive_failures = 0;
                }
                if self.consecutive_failures >= self.options.failure_threshold {
                    *radius = (*radius / 2.0).max(self.options.min_radius);
                    self.consecutive_failures = 0;
                    self.consecutive_successes = 0;
                }
                if switch {
                    let mut d = direction_oracle();
                    let n = linalg::vecops::norm(&d);
                    if n < 1e-12 {
                        d = vec![1.0 / (self.center.len() as f64).sqrt(); self.center.len()];
                    } else {
                        d.iter_mut().for_each(|v| *v /= n);
                    }
                    self.region = Region::Line { direction: d };
                    self.failures_since_switch = 0;
                }
            }
            Region::Line { .. } => {
                if switch {
                    self.region = Region::Hypercube {
                        radius: self.options.initial_radius,
                    };
                    self.failures_since_switch = 0;
                }
            }
        }
    }

    /// Discretizes the region into candidate configurations inside `[0, 1]^m`.
    ///
    /// The centre itself is always the first candidate so the tuner can always fall back to
    /// the best known configuration.
    pub fn discretize<R: Rng>(&self, rng: &mut R) -> Vec<Vec<f64>> {
        let dim = self.center.len();
        let n = self.options.candidates.max(2);
        let mut candidates = Vec::with_capacity(n + 1);
        candidates.push(self.center.clone());
        match &self.region {
            Region::Hypercube { radius } => {
                for _ in 0..n {
                    // Sample a direction uniformly on the sphere, then a radius with
                    // density pushed toward the boundary (r^(1/3)) so that the candidate
                    // set covers the shell as well as the interior.
                    let mut dir: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let norm = linalg::vecops::norm(&dir).max(1e-12);
                    dir.iter_mut().for_each(|v| *v /= norm);
                    let r = radius * rng.gen_range(0.0f64..1.0).powf(1.0 / 3.0);
                    let mut point: Vec<f64> = self
                        .center
                        .iter()
                        .zip(dir.iter())
                        .map(|(c, d)| c + r * d)
                        .collect();
                    point.iter_mut().for_each(|v| *v = v.clamp(0.0, 1.0));
                    candidates.push(point);
                }
            }
            Region::Line { direction } => {
                for i in 0..n {
                    // Evenly spaced offsets in [-1, 1], covering the full intersection of
                    // the line with the unit cube (clamped).
                    let alpha = -1.0 + 2.0 * (i as f64 + 0.5) / n as f64;
                    let mut point: Vec<f64> = self
                        .center
                        .iter()
                        .zip(direction.iter())
                        .map(|(c, d)| c + alpha * d)
                        .collect();
                    point.iter_mut().for_each(|v| *v = v.clamp(0.0, 1.0));
                    candidates.push(point);
                }
            }
        }
        candidates
    }

    /// Whether a (normalized) point lies on the boundary shell of the region — used by the
    /// ε-greedy exploration step, which prefers uncertain boundary points to expand the
    /// safety set.
    pub fn is_boundary(&self, point: &[f64]) -> bool {
        match &self.region {
            Region::Hypercube { radius } => {
                let d = linalg::vecops::euclidean_distance(point, &self.center);
                d >= radius * 0.8
            }
            Region::Line { .. } => {
                let d = linalg::vecops::euclidean_distance(point, &self.center);
                d >= 0.4
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn subspace(dim: usize) -> Subspace {
        Subspace::new(vec![0.5; dim], SubspaceOptions::default())
    }

    fn random_direction() -> Vec<f64> {
        vec![1.0, 0.0, 0.0, 0.0]
    }

    #[test]
    fn starts_as_hypercube_with_initial_radius() {
        let s = subspace(4);
        assert_eq!(s.radius(), Some(SubspaceOptions::default().initial_radius));
        assert_eq!(s.center(), &[0.5; 4]);
    }

    #[test]
    fn radius_doubles_after_consecutive_successes() {
        let mut s = subspace(4);
        let r0 = s.radius().unwrap();
        for _ in 0..3 {
            s.record_outcome(true);
        }
        s.adapt(&mut random_direction, false);
        assert!((s.radius().unwrap() - 2.0 * r0).abs() < 1e-12);
    }

    #[test]
    fn radius_halves_after_consecutive_failures() {
        let mut s = subspace(4);
        let r0 = s.radius().unwrap();
        for _ in 0..3 {
            s.record_outcome(false);
        }
        s.adapt(&mut random_direction, false);
        assert!((s.radius().unwrap() - r0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn radius_respects_bounds() {
        let mut s = subspace(3);
        for _ in 0..50 {
            for _ in 0..3 {
                s.record_outcome(true);
            }
            s.adapt(&mut random_direction, false);
        }
        assert!(s.radius().unwrap() <= SubspaceOptions::default().max_radius + 1e-12);
    }

    #[test]
    fn switches_to_line_when_no_safe_candidates_and_back() {
        let mut s = subspace(4);
        s.adapt(&mut random_direction, true);
        assert!(matches!(&s.region, Region::Line { .. }));
        // And back to a hypercube on the next forced switch.
        s.adapt(&mut random_direction, true);
        assert!(matches!(&s.region, Region::Hypercube { .. }));
    }

    #[test]
    fn switches_to_line_after_many_failures() {
        let mut s = subspace(4);
        for _ in 0..SubspaceOptions::default().switch_threshold {
            s.record_outcome(false);
            s.adapt(&mut random_direction, false);
        }
        assert!(matches!(&s.region, Region::Line { .. }));
    }

    #[test]
    fn line_direction_is_normalized_even_for_zero_oracle() {
        let mut s = subspace(4);
        let mut zero_oracle = || vec![0.0; 4];
        s.adapt(&mut zero_oracle, true);
        if let Region::Line { direction } = &s.region {
            assert!((linalg::vecops::norm(direction) - 1.0).abs() < 1e-9);
        } else {
            panic!("expected a line region");
        }
    }

    #[test]
    fn discretized_candidates_stay_in_unit_cube_and_region() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = subspace(6);
        let candidates = s.discretize(&mut rng);
        assert_eq!(candidates.len(), SubspaceOptions::default().candidates + 1);
        assert_eq!(candidates[0], s.center());
        let r = s.radius().unwrap();
        for c in &candidates {
            assert!(c.iter().all(|v| (0.0..=1.0).contains(v)));
            // Clamping can only reduce the distance to the centre, so the radius bound holds.
            assert!(linalg::vecops::euclidean_distance(c, s.center()) <= r + 1e-9);
        }
    }

    #[test]
    fn line_discretization_spans_both_directions() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = subspace(3);
        let mut oracle = || vec![1.0, 0.0, 0.0];
        s.adapt(&mut oracle, true);
        let candidates = s.discretize(&mut rng);
        let xs: Vec<f64> = candidates.iter().map(|c| c[0]).collect();
        assert!(xs.iter().cloned().fold(f64::INFINITY, f64::min) < 0.2);
        assert!(xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max) > 0.8);
        // Off-direction coordinates stay at the centre.
        assert!(candidates.iter().all(|c| (c[1] - 0.5).abs() < 1e-9));
    }

    #[test]
    fn recenter_moves_the_subspace() {
        let mut s = subspace(3);
        s.recenter(vec![0.9, 0.1, 0.4]);
        assert_eq!(s.center(), &[0.9, 0.1, 0.4]);
    }

    #[test]
    fn boundary_detection_for_hypercube() {
        let s = subspace(2);
        let r = s.radius().unwrap();
        assert!(!s.is_boundary(&[0.5, 0.5]));
        assert!(s.is_boundary(&[0.5 + r * 0.95, 0.5]));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn prop_candidates_always_valid(
                center in proptest::collection::vec(0.0f64..1.0, 5),
                seed in 0u64..1000,
                outcomes in proptest::collection::vec(proptest::bool::ANY, 0..12),
            ) {
                let mut s = Subspace::new(center, SubspaceOptions { candidates: 40, ..Default::default() });
                let mut oracle = || vec![0.3, -0.2, 0.1, 0.05, -0.4];
                for o in outcomes {
                    s.record_outcome(o);
                    s.adapt(&mut oracle, false);
                }
                let mut rng = StdRng::seed_from_u64(seed);
                for c in s.discretize(&mut rng) {
                    prop_assert_eq!(c.len(), 5);
                    prop_assert!(c.iter().all(|v| (0.0..=1.0).contains(v)));
                }
                if let Some(r) = s.radius() {
                    prop_assert!(r >= SubspaceOptions::default().min_radius - 1e-12);
                    prop_assert!(r <= SubspaceOptions::default().max_radius + 1e-12);
                }
            }
        }
    }
}
