//! CDBTune-style DDPG baseline: deep deterministic policy gradient over internal metrics.
//!
//! The agent observes the DBMS internal metrics as its state, outputs a (normalized)
//! configuration as its action, and receives the performance change as its reward. The
//! network sizes are scaled down from CDBTune's (the simulator episodes are short), but the
//! structure — actor, critic, target networks, replay buffer, Ornstein-Uhlenbeck-ish
//! exploration noise — follows the original. The qualitative behaviour the paper reports is
//! preserved: DDPG needs many samples, explores aggressively and therefore applies many
//! below-default (unsafe) configurations when used online.

use crate::{Tuner, TuningInput};
use mlkit::nn::{Activation, Mlp};
use onlinetune::IterationDiagnostics;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::{Configuration, InternalMetrics, KnobCatalogue};

/// Options of the DDPG baseline.
#[derive(Debug, Clone, Copy)]
pub struct DdpgOptions {
    /// Replay-buffer capacity.
    pub buffer_capacity: usize,
    /// Minibatch size per update.
    pub batch_size: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// Soft-update rate τ for the target networks.
    pub tau: f64,
    /// Initial exploration-noise standard deviation (in action space).
    pub exploration_noise: f64,
    /// Multiplicative decay of the exploration noise per step.
    pub noise_decay: f64,
    /// Gradient steps per observation.
    pub updates_per_step: usize,
}

impl Default for DdpgOptions {
    fn default() -> Self {
        DdpgOptions {
            buffer_capacity: 2000,
            batch_size: 16,
            gamma: 0.95,
            tau: 0.01,
            exploration_noise: 0.4,
            noise_decay: 0.992,
            updates_per_step: 2,
        }
    }
}

struct Transition {
    state: Vec<f64>,
    action: Vec<f64>,
    reward: f64,
    next_state: Vec<f64>,
}

/// The DDPG tuner.
pub struct DdpgTuner {
    catalogue: KnobCatalogue,
    options: DdpgOptions,
    actor: Mlp,
    critic: Mlp,
    target_critic: Mlp,
    buffer: Vec<Transition>,
    last_state: Option<Vec<f64>>,
    last_action: Option<Vec<f64>>,
    last_performance: Option<f64>,
    noise: f64,
    rng: StdRng,
}

impl DdpgTuner {
    /// Creates the tuner.
    pub fn new(catalogue: KnobCatalogue, options: DdpgOptions, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let state_dim = InternalMetrics::NAMES.len();
        let action_dim = catalogue.len();
        let actor = Mlp::new(
            &[state_dim, 48, 48, action_dim],
            &[Activation::Relu, Activation::Relu, Activation::Tanh],
            1e-3,
            &mut rng,
        );
        let critic = Mlp::new(
            &[state_dim + action_dim, 48, 48, 1],
            &[Activation::Relu, Activation::Relu, Activation::Identity],
            1e-3,
            &mut rng,
        );
        let target_critic = critic.clone();
        DdpgTuner {
            noise: options.exploration_noise,
            catalogue,
            options,
            actor,
            critic,
            target_critic,
            buffer: Vec::new(),
            last_state: None,
            last_action: None,
            last_performance: None,
            rng,
        }
    }

    fn normalize_state(metrics: Option<&InternalMetrics>) -> Vec<f64> {
        let raw = metrics.map(|m| m.to_vec()).unwrap_or_else(|| vec![0.0; 16]);
        // Squash unbounded counters into [0, 1] so the network inputs are well-scaled.
        raw.iter()
            .map(|v| (v / (1.0 + v.abs())).clamp(-1.0, 1.0))
            .collect()
    }

    fn action_to_unit(action: &[f64]) -> Vec<f64> {
        action
            .iter()
            .map(|a| ((a + 1.0) / 2.0).clamp(0.0, 1.0))
            .collect()
    }

    fn train(&mut self) {
        if self.buffer.len() < self.options.batch_size {
            return;
        }
        for _ in 0..self.options.updates_per_step {
            // Sample a minibatch.
            let mut critic_inputs = Vec::with_capacity(self.options.batch_size);
            let mut critic_targets = Vec::with_capacity(self.options.batch_size);
            for _ in 0..self.options.batch_size {
                let idx = self.rng.gen_range(0..self.buffer.len());
                let t = &self.buffer[idx];
                // Target Q value: r + γ · Q_target(s', μ(s')).
                let next_action = self.actor.forward(&t.next_state);
                let mut next_in = t.next_state.clone();
                next_in.extend(next_action);
                let q_next = self.target_critic.forward(&next_in)[0];
                let target = t.reward + self.options.gamma * q_next;
                let mut cin = t.state.clone();
                cin.extend(t.action.iter().copied());
                critic_inputs.push(cin);
                critic_targets.push(vec![target]);
            }
            self.critic.train_batch(&critic_inputs, &critic_targets);

            // Actor update (approximate deterministic policy gradient): nudge the actor's
            // output toward actions the critic scores higher, estimated by a small random
            // perturbation search (keeps the implementation free of cross-network autograd).
            let mut actor_inputs = Vec::new();
            let mut actor_targets = Vec::new();
            for _ in 0..self.options.batch_size {
                let idx = self.rng.gen_range(0..self.buffer.len());
                let t = &self.buffer[idx];
                let current = self.actor.forward(&t.state);
                let mut best = current.clone();
                let mut cin = t.state.clone();
                cin.extend(current.iter().copied());
                let mut best_q = self.critic.forward(&cin)[0];
                for _ in 0..4 {
                    let perturbed: Vec<f64> = current
                        .iter()
                        .map(|a| (a + self.rng.gen_range(-0.2..0.2)).clamp(-1.0, 1.0))
                        .collect();
                    let mut pin = t.state.clone();
                    pin.extend(perturbed.iter().copied());
                    let q = self.critic.forward(&pin)[0];
                    if q > best_q {
                        best_q = q;
                        best = perturbed;
                    }
                }
                actor_inputs.push(t.state.clone());
                actor_targets.push(best);
            }
            self.actor.train_batch(&actor_inputs, &actor_targets);
            self.target_critic
                .soft_update_from(&self.critic, self.options.tau);
        }
    }
}

impl Tuner for DdpgTuner {
    fn name(&self) -> &str {
        "DDPG"
    }

    fn suggest(
        &mut self,
        input: &TuningInput<'_>,
    ) -> (Configuration, Option<IterationDiagnostics>) {
        let state = Self::normalize_state(input.metrics);
        let mut action = self.actor.forward(&state);
        for a in action.iter_mut() {
            *a = (*a + self.rng.gen_range(-self.noise..self.noise)).clamp(-1.0, 1.0);
        }
        self.noise = (self.noise * self.options.noise_decay).max(0.02);
        let unit = Self::action_to_unit(&action);
        self.last_state = Some(state);
        self.last_action = Some(action);
        (Configuration::from_normalized(&self.catalogue, &unit), None)
    }

    fn observe(
        &mut self,
        _input: &TuningInput<'_>,
        config: &Configuration,
        performance: f64,
        metrics: &InternalMetrics,
        _safe: bool,
    ) {
        let next_state = Self::normalize_state(Some(metrics));
        // CDBTune-style reward: relative performance change versus the previous interval.
        let reward = match self.last_performance {
            Some(prev) if prev.abs() > 1e-9 => ((performance - prev) / prev.abs()).clamp(-5.0, 5.0),
            _ => 0.0,
        };
        let state = self
            .last_state
            .clone()
            .unwrap_or_else(|| vec![0.0; InternalMetrics::NAMES.len()]);
        let action = self.last_action.clone().unwrap_or_else(|| {
            config
                .normalized(&self.catalogue)
                .iter()
                .map(|u| u * 2.0 - 1.0)
                .collect()
        });
        self.buffer.push(Transition {
            state,
            action,
            reward,
            next_state,
        });
        if self.buffer.len() > self.options.buffer_capacity {
            self.buffer.remove(0);
        }
        self.last_performance = Some(performance);
        self.train();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input_with(metrics: Option<&InternalMetrics>) -> TuningInput<'_> {
        TuningInput {
            context: &[],
            metrics,
            safety_threshold: 0.0,
            clients: 32,
        }
    }

    #[test]
    fn actions_are_valid_configurations() {
        let cat = KnobCatalogue::mysql57();
        let mut agent = DdpgTuner::new(cat.clone(), DdpgOptions::default(), 1);
        let metrics = InternalMetrics::zeroed();
        let cfg = agent.suggest(&input_with(Some(&metrics))).0;
        for (v, k) in cfg.values().iter().zip(cat.knobs()) {
            assert!(*v >= k.min() && *v <= k.max(), "{}", k.name);
        }
    }

    #[test]
    fn exploration_noise_decays_over_time() {
        let cat = KnobCatalogue::mysql57();
        let mut agent = DdpgTuner::new(cat, DdpgOptions::default(), 2);
        let initial = agent.noise;
        let metrics = InternalMetrics::zeroed();
        for _ in 0..50 {
            let cfg = agent.suggest(&input_with(Some(&metrics))).0;
            agent.observe(&input_with(Some(&metrics)), &cfg, 100.0, &metrics, true);
        }
        assert!(agent.noise < initial);
    }

    #[test]
    fn early_exploration_produces_diverse_configurations() {
        let cat = KnobCatalogue::mysql57();
        let mut agent = DdpgTuner::new(cat.clone(), DdpgOptions::default(), 3);
        let metrics = InternalMetrics::zeroed();
        let a = agent
            .suggest(&input_with(Some(&metrics)))
            .0
            .normalized(&cat);
        let b = agent
            .suggest(&input_with(Some(&metrics)))
            .0
            .normalized(&cat);
        assert!(linalg::vecops::euclidean_distance(&a, &b) > 0.1);
    }

    #[test]
    fn replay_buffer_is_bounded() {
        let cat = KnobCatalogue::mysql57();
        let options = DdpgOptions {
            buffer_capacity: 10,
            batch_size: 4,
            updates_per_step: 1,
            ..Default::default()
        };
        let mut agent = DdpgTuner::new(cat, options, 4);
        let metrics = InternalMetrics::zeroed();
        for i in 0..30 {
            let cfg = agent.suggest(&input_with(Some(&metrics))).0;
            agent.observe(
                &input_with(Some(&metrics)),
                &cfg,
                100.0 + i as f64,
                &metrics,
                true,
            );
        }
        assert!(agent.buffer.len() <= 10);
    }
}
