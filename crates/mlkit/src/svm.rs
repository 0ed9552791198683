//! Multi-class linear SVM (one-vs-rest, trained with Pegasos-style SGD).
//!
//! After DBSCAN clusters the context features, OnlineTune learns a decision boundary so
//! that *new* contexts can be routed to the right per-cluster GP model (Algorithm 1,
//! line 4; Figure 4). The paper uses an off-the-shelf SVM; a linear one-vs-rest SVM trained
//! with the Pegasos sub-gradient method is simple, needs few samples to generalize, and is
//! deterministic given a seed — exactly the properties the paper cites for choosing SVM.

use rand::seq::SliceRandom;
use rand::Rng;

/// A trained multi-class linear SVM.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    /// One weight vector per class, each as long as an input point.
    weights: Vec<Vec<f64>>,
    /// One bias per class.
    biases: Vec<f64>,
}

/// Training options for [`LinearSvm::train`].
#[derive(Debug, Clone, Copy)]
pub struct SvmOptions {
    /// Regularization strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Number of epochs over the training set.
    pub epochs: usize,
}

impl Default for SvmOptions {
    fn default() -> Self {
        SvmOptions {
            lambda: 1e-3,
            epochs: 60,
        }
    }
}

impl LinearSvm {
    /// Trains a one-vs-rest linear SVM on `(points, labels)`.
    ///
    /// Labels must be in `0..n_classes`; `n_classes` is inferred as `max(label) + 1`.
    /// Returns `None` when the training set is empty.
    pub fn train<R: Rng>(
        points: &[Vec<f64>],
        labels: &[usize],
        options: &SvmOptions,
        rng: &mut R,
    ) -> Option<Self> {
        if points.is_empty() || points.len() != labels.len() {
            return None;
        }
        let dim = points[0].len();
        let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        let mut weights = vec![vec![0.0; dim]; n_classes];
        let mut biases = vec![0.0; n_classes];

        let mut order: Vec<usize> = (0..points.len()).collect();
        let mut t: usize = 1;
        for _ in 0..options.epochs {
            order.shuffle(rng);
            for &i in &order {
                let eta = 1.0 / (options.lambda * t as f64);
                for class in 0..n_classes {
                    let y = if labels[i] == class { 1.0 } else { -1.0 };
                    let margin = y * (dot(&weights[class], &points[i]) + biases[class]);
                    // Sub-gradient step of the hinge loss + L2 regularizer.
                    for d in 0..dim {
                        let mut grad = options.lambda * weights[class][d];
                        if margin < 1.0 {
                            grad -= y * points[i][d];
                        }
                        weights[class][d] -= eta * grad;
                    }
                    if margin < 1.0 {
                        biases[class] += eta * y;
                    }
                }
                t += 1;
            }
        }

        Some(LinearSvm { weights, biases })
    }

    /// Rebuilds a trained model from exported parameters (see [`LinearSvm::weights`] and
    /// [`LinearSvm::biases`]). Returns `None` when the parameter shapes are inconsistent.
    /// Used by snapshot/restore: a restored model predicts identically to the exported one.
    pub fn from_parts(weights: Vec<Vec<f64>>, biases: Vec<f64>) -> Option<Self> {
        if weights.is_empty() || weights.len() != biases.len() {
            return None;
        }
        let dim = weights[0].len();
        if weights.iter().any(|w| w.len() != dim) {
            return None;
        }
        Some(LinearSvm { weights, biases })
    }

    /// Per-class weight vectors (for snapshot/restore).
    pub fn weights(&self) -> &[Vec<f64>] {
        &self.weights
    }

    /// Per-class biases (for snapshot/restore).
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// Per-class decision scores for a point.
    pub fn decision_scores(&self, x: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(self.biases.iter())
            .map(|(w, b)| dot(w, x) + b)
            .collect()
    }

    /// Predicts the class with the largest decision score.
    pub fn predict(&self, x: &[f64]) -> usize {
        let scores = self.decision_scores(x);
        linalg::vecops::argmax(&scores).unwrap_or(0)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    linalg::vecops::dot(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Share of `points` the boundary routes to their label.
    fn accuracy(svm: &LinearSvm, points: &[Vec<f64>], labels: &[usize]) -> f64 {
        let correct = points
            .iter()
            .zip(labels)
            .filter(|(x, &l)| svm.predict(x) == l)
            .count();
        correct as f64 / points.len() as f64
    }

    fn grid(center: (f64, f64), n: usize, spread: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let angle = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![
                    center.0 + spread * angle.cos(),
                    center.1 + spread * angle.sin(),
                ]
            })
            .collect()
    }

    #[test]
    fn separable_two_class_problem_is_learned() {
        let mut points = grid((0.0, 0.0), 20, 0.4);
        points.extend(grid((4.0, 4.0), 20, 0.4));
        let labels: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let svm = LinearSvm::train(&points, &labels, &SvmOptions::default(), &mut rng).unwrap();
        assert!(accuracy(&svm, &points, &labels) >= 0.95);
        assert_eq!(svm.predict(&[0.1, -0.1]), 0);
        assert_eq!(svm.predict(&[4.2, 3.9]), 1);
    }

    #[test]
    fn three_class_problem_routes_new_points_correctly() {
        let mut points = grid((0.0, 0.0), 15, 0.3);
        points.extend(grid((5.0, 0.0), 15, 0.3));
        points.extend(grid((0.0, 5.0), 15, 0.3));
        let labels: Vec<usize> = (0..45).map(|i| i / 15).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let svm = LinearSvm::train(&points, &labels, &SvmOptions::default(), &mut rng).unwrap();
        assert_eq!(svm.weights.len(), 3);
        assert!(accuracy(&svm, &points, &labels) >= 0.9);
        assert_eq!(svm.predict(&[5.1, 0.2]), 1);
        assert_eq!(svm.predict(&[-0.2, 5.3]), 2);
    }

    #[test]
    fn empty_training_set_returns_none() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(LinearSvm::train(&[], &[], &SvmOptions::default(), &mut rng).is_none());
    }

    #[test]
    fn single_class_always_predicts_that_class() {
        let points = grid((1.0, 1.0), 10, 0.2);
        let labels = vec![0usize; 10];
        let mut rng = StdRng::seed_from_u64(5);
        let svm = LinearSvm::train(&points, &labels, &SvmOptions::default(), &mut rng).unwrap();
        assert_eq!(svm.weights.len(), 1);
        assert_eq!(svm.predict(&[100.0, -30.0]), 0);
    }

    #[test]
    fn decision_scores_have_one_entry_per_class() {
        let mut points = grid((0.0, 0.0), 8, 0.3);
        points.extend(grid((3.0, 3.0), 8, 0.3));
        let labels: Vec<usize> = (0..16).map(|i| usize::from(i >= 8)).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let svm = LinearSvm::train(&points, &labels, &SvmOptions::default(), &mut rng).unwrap();
        assert_eq!(svm.decision_scores(&[1.0, 1.0]).len(), 2);
    }
}
