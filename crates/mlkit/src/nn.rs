//! A tiny fully-connected neural network with the Adam optimizer.
//!
//! Used by the CDBTune-style DDPG baseline (actor and critic networks) and by the
//! QTune-lite baseline (internal-metric predictor). The implementation favours clarity over
//! speed: dense layers, tanh/ReLU/identity activations, mean-squared-error loss, and Adam.

use rand::Rng;

/// Activation function applied element-wise after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent (used for actor outputs bounded to [-1, 1]).
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// No activation.
    Identity,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Identity => x,
        }
    }

    fn derivative(self, activated: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - activated * activated,
            Activation::Relu => {
                if activated > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

#[derive(Debug, Clone)]
struct Layer {
    /// weights[out][in]
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
    activation: Activation,
    // Adam state.
    m_w: Vec<Vec<f64>>,
    v_w: Vec<Vec<f64>>,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
}

impl Layer {
    fn new<R: Rng>(n_in: usize, n_out: usize, activation: Activation, rng: &mut R) -> Self {
        let scale = (2.0 / (n_in + n_out) as f64).sqrt();
        let weights: Vec<Vec<f64>> = (0..n_out)
            .map(|_| (0..n_in).map(|_| rng.gen_range(-scale..scale)).collect())
            .collect();
        Layer {
            m_w: vec![vec![0.0; n_in]; n_out],
            v_w: vec![vec![0.0; n_in]; n_out],
            m_b: vec![0.0; n_out],
            v_b: vec![0.0; n_out],
            biases: vec![0.0; n_out],
            weights,
            activation,
        }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(self.biases.iter())
            .map(|(w, b)| self.activation.apply(linalg::vecops::dot(w, input) + b))
            .collect()
    }
}

/// A multi-layer perceptron trained with Adam on mean squared error.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    learning_rate: f64,
    adam_t: usize,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes (e.g. `[4, 32, 32, 2]`) and activations
    /// (one per layer transition, so `sizes.len() - 1` entries).
    pub fn new<R: Rng>(
        sizes: &[usize],
        activations: &[Activation],
        learning_rate: f64,
        rng: &mut R,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least an input and output layer");
        assert_eq!(
            activations.len(),
            sizes.len() - 1,
            "one activation per layer transition"
        );
        let layers = sizes
            .windows(2)
            .zip(activations.iter())
            .map(|(w, &a)| Layer::new(w[0], w[1], a, rng))
            .collect();
        Mlp {
            layers,
            learning_rate,
            adam_t: 0,
        }
    }

    /// Forward pass.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut x = input.to_vec();
        for layer in &self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// One Adam step on a minibatch, minimizing mean squared error against `targets`.
    /// Returns the pre-update loss.
    pub fn train_batch(&mut self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        assert_eq!(inputs.len(), targets.len());
        if inputs.is_empty() {
            return 0.0;
        }
        self.adam_t += 1;
        let batch = inputs.len() as f64;

        // Accumulate gradients over the batch.
        let mut grad_w: Vec<Vec<Vec<f64>>> = self
            .layers
            .iter()
            .map(|l| vec![vec![0.0; l.weights[0].len()]; l.weights.len()])
            .collect();
        let mut grad_b: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; l.biases.len()])
            .collect();
        let mut total_loss = 0.0;

        for (input, target) in inputs.iter().zip(targets.iter()) {
            // Forward pass, recording activations.
            let mut activations = vec![input.clone()];
            for layer in &self.layers {
                let next = layer.forward(activations.last().expect("non-empty"));
                activations.push(next);
            }
            let output = activations.last().expect("non-empty");
            let mut delta: Vec<f64> = output
                .iter()
                .zip(target.iter())
                .map(|(o, t)| {
                    total_loss += (o - t) * (o - t);
                    2.0 * (o - t) / batch
                })
                .collect();

            // Backward pass.
            for (li, layer) in self.layers.iter().enumerate().rev() {
                let activated = &activations[li + 1];
                let prev = &activations[li];
                // delta through the activation.
                let delta_pre: Vec<f64> = delta
                    .iter()
                    .zip(activated.iter())
                    .map(|(d, a)| d * layer.activation.derivative(*a))
                    .collect();
                for (o, dp) in delta_pre.iter().enumerate() {
                    grad_b[li][o] += dp;
                    for (i, p) in prev.iter().enumerate() {
                        grad_w[li][o][i] += dp * p;
                    }
                }
                // Propagate to the previous layer.
                if li > 0 {
                    let n_in = prev.len();
                    let mut next_delta = vec![0.0; n_in];
                    for (o, dp) in delta_pre.iter().enumerate() {
                        for (i, nd) in next_delta.iter_mut().enumerate() {
                            *nd += dp * layer.weights[o][i];
                        }
                    }
                    delta = next_delta;
                }
            }
        }

        // Adam update.
        const BETA1: f64 = 0.9;
        const BETA2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        let t = self.adam_t as i32;
        let lr = self.learning_rate;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for o in 0..layer.weights.len() {
                #[allow(clippy::needless_range_loop)] // four parallel arrays share the index
                for i in 0..layer.weights[o].len() {
                    let g = grad_w[li][o][i];
                    layer.m_w[o][i] = BETA1 * layer.m_w[o][i] + (1.0 - BETA1) * g;
                    layer.v_w[o][i] = BETA2 * layer.v_w[o][i] + (1.0 - BETA2) * g * g;
                    let m_hat = layer.m_w[o][i] / (1.0 - BETA1.powi(t));
                    let v_hat = layer.v_w[o][i] / (1.0 - BETA2.powi(t));
                    layer.weights[o][i] -= lr * m_hat / (v_hat.sqrt() + EPS);
                }
                let g = grad_b[li][o];
                layer.m_b[o] = BETA1 * layer.m_b[o] + (1.0 - BETA1) * g;
                layer.v_b[o] = BETA2 * layer.v_b[o] + (1.0 - BETA2) * g * g;
                let m_hat = layer.m_b[o] / (1.0 - BETA1.powi(t));
                let v_hat = layer.v_b[o] / (1.0 - BETA2.powi(t));
                layer.biases[o] -= lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }

        total_loss / batch
    }

    /// Soft update `self ← τ·source + (1-τ)·self`, used for DDPG target networks.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        for (dst, src) in self.layers.iter_mut().zip(source.layers.iter()) {
            for (dw, sw) in dst.weights.iter_mut().zip(src.weights.iter()) {
                for (d, s) in dw.iter_mut().zip(sw.iter()) {
                    *d = tau * s + (1.0 - tau) * *d;
                }
            }
            for (d, s) in dst.biases.iter_mut().zip(src.biases.iter()) {
                *d = tau * s + (1.0 - tau) * *d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_pass_has_correct_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(
            &[3, 8, 2],
            &[Activation::Relu, Activation::Identity],
            1e-3,
            &mut rng,
        );
        assert_eq!(net.layers[0].weights[0].len(), 3);
        assert_eq!(net.layers[1].weights.len(), 2);
        let out = net.forward(&[0.1, -0.2, 0.3]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tanh_output_is_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Mlp::new(
            &[2, 16, 4],
            &[Activation::Relu, Activation::Tanh],
            1e-3,
            &mut rng,
        );
        let out = net.forward(&[100.0, -100.0]);
        assert!(out.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn learns_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Mlp::new(
            &[2, 16, 1],
            &[Activation::Tanh, Activation::Identity],
            5e-3,
            &mut rng,
        );
        let inputs: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![(i % 8) as f64 / 8.0, (i / 8) as f64 / 8.0])
            .collect();
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| vec![2.0 * x[0] - x[1] + 0.5])
            .collect();
        let initial = net.train_batch(&inputs, &targets);
        let mut last = initial;
        for _ in 0..400 {
            last = net.train_batch(&inputs, &targets);
        }
        assert!(
            last < initial * 0.1,
            "loss did not decrease: {initial} -> {last}"
        );
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(
            &[2, 12, 1],
            &[Activation::Tanh, Activation::Identity],
            1e-2,
            &mut rng,
        );
        let inputs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let targets = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        for _ in 0..2000 {
            net.train_batch(&inputs, &targets);
        }
        for (x, t) in inputs.iter().zip(targets.iter()) {
            let y = net.forward(x)[0];
            assert!((y - t[0]).abs() < 0.3, "xor({x:?}) = {y}");
        }
    }

    #[test]
    fn soft_update_moves_weights_toward_source() {
        let mut rng = StdRng::seed_from_u64(4);
        let source = Mlp::new(
            &[2, 4, 1],
            &[Activation::Relu, Activation::Identity],
            1e-3,
            &mut rng,
        );
        let mut target = Mlp::new(
            &[2, 4, 1],
            &[Activation::Relu, Activation::Identity],
            1e-3,
            &mut rng,
        );
        let x = [0.3, 0.7];
        let before = (target.forward(&x)[0] - source.forward(&x)[0]).abs();
        target.soft_update_from(&source, 1.0); // full copy
        let after = (target.forward(&x)[0] - source.forward(&x)[0]).abs();
        assert!(after < 1e-12);
        assert!(before >= after);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Mlp::new(
            &[2, 4, 1],
            &[Activation::Relu, Activation::Identity],
            1e-3,
            &mut rng,
        );
        assert_eq!(net.train_batch(&[], &[]), 0.0);
    }
}
