//! The shared knowledge base: cross-tenant transfer of safe configurations and
//! observations.
//!
//! Tenants on the same hardware class running the same workload family face closely
//! related tuning problems. The knowledge base pools what their sessions learn —
//! configurations observed to be safe, and `(context, config, performance)` observations —
//! and hands a bounded sample to newly admitted tenants. This generalizes the paper's
//! cold-start fallback (which trusts only configurations near the initial default) to
//! "configurations the *fleet* has already proven safe on this kind of instance".
//!
//! Pools hold shared rows ([`gp::rows`]): an entry bit-identical to what a tenant's
//! repository holds is that repository's row, and a warm start hands the pool's rows on.

use gp::rows::{RowInterner, SharedConfig, SharedObservation};
use simdb::HardwareSpec;

use crate::tenant::WorkloadFamily;

/// The coordinate a pool is keyed by.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PoolKey {
    /// Hardware class label, e.g. `"8c-16g"` (see [`PoolKey::hardware_class`]).
    pub hardware_class: String,
    /// Workload family.
    pub family: WorkloadFamily,
}

impl PoolKey {
    /// Builds the key for a tenant's hardware and workload family.
    pub fn for_tenant(hardware: &HardwareSpec, family: WorkloadFamily) -> Self {
        PoolKey {
            hardware_class: Self::hardware_class(hardware),
            family,
        }
    }

    /// Coarse hardware-class label: vCPU count and RAM rounded to whole GiB. Instances in
    /// the same class are considered close enough to share knowledge.
    pub fn hardware_class(hardware: &HardwareSpec) -> String {
        format!("{}c-{}g", hardware.vcpus, hardware.ram_gib.round() as i64)
    }
}

/// Size bounds of the knowledge base.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct KnowledgeBaseOptions {
    /// Safe configurations retained per pool (oldest evicted first).
    pub max_safe_per_pool: usize,
    /// Observations retained per pool (oldest evicted first).
    pub max_observations_per_pool: usize,
    /// Safe configurations handed to a warm-started tenant.
    pub warm_start_safe: usize,
    /// Observations handed to a warm-started tenant.
    pub warm_start_observations: usize,
}

impl Default for KnowledgeBaseOptions {
    fn default() -> Self {
        KnowledgeBaseOptions {
            max_safe_per_pool: 512,
            max_observations_per_pool: 256,
            warm_start_safe: 32,
            warm_start_observations: 24,
        }
    }
}

/// One pool of knowledge for a (hardware class, workload family) coordinate.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct KnowledgePool {
    /// Normalized configurations observed to be safe, newest (last confirmed) last.
    pub safe_configs: Vec<SharedConfig>,
    /// Transferred observations, newest last.
    pub observations: Vec<SharedObservation>,
    /// Number of contribution merges this pool received.
    pub contributions: usize,
    /// Safe configurations evicted (oldest-first) to enforce the pool bound.
    pub evicted_safe: usize,
    /// Observations evicted (oldest-first) to enforce the pool bound.
    pub evicted_observations: usize,
}

/// Aggregate statistics of the knowledge base across all pools (reported on
/// [`crate::service::FleetReport`] so operators can see transfer and eviction pressure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KnowledgeTotals {
    /// Number of pools.
    pub pools: usize,
    /// Safe configurations currently retained across all pools.
    pub safe_configs: usize,
    /// Observations currently retained across all pools.
    pub observations: usize,
    /// Contribution merges received across all pools.
    pub contributions: usize,
    /// Safe configurations evicted (oldest-first) across all pools.
    pub evicted_safe: usize,
    /// Observations evicted (oldest-first) across all pools.
    pub evicted_observations: usize,
}

/// What a newly admitted tenant receives from the knowledge base.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Known-safe normalized configurations.
    pub safe_configs: Vec<SharedConfig>,
    /// Observations to absorb into the tenant's models.
    pub observations: Vec<SharedObservation>,
}

impl WarmStart {
    /// Whether the warm start carries anything.
    pub fn is_empty(&self) -> bool {
        self.safe_configs.is_empty() && self.observations.is_empty()
    }
}

/// The fleet-wide knowledge base.
///
/// Pools are kept in insertion order in a `Vec`, which makes iteration (and therefore
/// serialization and any floating-point accumulation downstream) deterministic.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KnowledgeBase {
    options: KnowledgeBaseOptions,
    pools: Vec<(PoolKey, KnowledgePool)>,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new(options: KnowledgeBaseOptions) -> Self {
        KnowledgeBase {
            options,
            pools: Vec::new(),
        }
    }

    /// Number of pools.
    pub fn n_pools(&self) -> usize {
        self.pools.len()
    }

    /// Aggregate statistics across all pools (deterministic: pools iterate in insertion
    /// order and every field is an integer sum).
    pub fn totals(&self) -> KnowledgeTotals {
        let mut totals = KnowledgeTotals {
            pools: self.pools.len(),
            ..Default::default()
        };
        for (_, pool) in &self.pools {
            totals.safe_configs += pool.safe_configs.len();
            totals.observations += pool.observations.len();
            totals.contributions += pool.contributions;
            totals.evicted_safe += pool.evicted_safe;
            totals.evicted_observations += pool.evicted_observations;
        }
        totals
    }

    /// Read access to a pool.
    pub fn pool(&self, key: &PoolKey) -> Option<&KnowledgePool> {
        self.pools.iter().find(|(k, _)| k == key).map(|(_, p)| p)
    }

    /// All pools with their keys, in insertion order (the fuzzer's leakage property
    /// audits every pool against the coordinates tenants legitimately occupied).
    pub fn pools(&self) -> impl Iterator<Item = (&PoolKey, &KnowledgePool)> {
        self.pools.iter().map(|(k, p)| (k, p))
    }

    fn pool_mut(&mut self, key: &PoolKey) -> &mut KnowledgePool {
        if let Some(idx) = self.pools.iter().position(|(k, _)| k == key) {
            return &mut self.pools[idx].1;
        }
        self.pools.push((key.clone(), KnowledgePool::default()));
        &mut self.pools.last_mut().expect("just pushed").1
    }

    /// Merges a session's contribution into the pool for `key`. The entries keep their
    /// rows.
    pub fn contribute(
        &mut self,
        key: &PoolKey,
        safe_configs: Vec<SharedConfig>,
        observations: Vec<SharedObservation>,
    ) {
        if safe_configs.is_empty() && observations.is_empty() {
            return;
        }
        let (max_safe, max_obs) = (
            self.options.max_safe_per_pool,
            self.options.max_observations_per_pool,
        );
        let pool = self.pool_mut(key);
        for cfg in safe_configs {
            // A re-confirmed configuration refreshes its recency instead of keeping its
            // original slot: "oldest evicted first" means oldest *last confirmation*, and
            // the warm-start tail ("most recent safe configs") must include configurations
            // the fleet keeps re-proving safe. Without this, a long-lived config aged
            // toward eviction no matter how often tenants re-confirmed it.
            if let Some(pos) = pool.safe_configs.iter().position(|c| c == &cfg) {
                let refreshed = pool.safe_configs.remove(pos);
                pool.safe_configs.push(refreshed);
            } else {
                pool.safe_configs.push(cfg);
            }
        }
        if pool.safe_configs.len() > max_safe {
            let excess = pool.safe_configs.len() - max_safe;
            pool.safe_configs.drain(0..excess);
            pool.evicted_safe += excess;
        }
        pool.observations.extend(observations);
        if pool.observations.len() > max_obs {
            let excess = pool.observations.len() - max_obs;
            pool.observations.drain(0..excess);
            pool.evicted_observations += excess;
        }
        pool.contributions += 1;
    }

    /// Produces the warm-start payload for a new tenant on `key`'s coordinate: the most
    /// recent safe configurations and observations, bounded by the options. Returns an
    /// empty payload when no knowledge exists yet.
    pub fn warm_start(&self, key: &PoolKey) -> WarmStart {
        let Some(pool) = self.pool(key) else {
            return WarmStart::default();
        };
        let take_tail = |n: usize, len: usize| len.saturating_sub(n);
        WarmStart {
            safe_configs: pool.safe_configs
                [take_tail(self.options.warm_start_safe, pool.safe_configs.len())..]
                .to_vec(),
            observations: pool.observations[take_tail(
                self.options.warm_start_observations,
                pool.observations.len(),
            )..]
                .to_vec(),
        }
    }

    /// Maps every pool entry onto the row `rows` holds for its values. A restore calls
    /// this once its tenants are rebuilt, so the base shares their rows again.
    pub fn intern(&mut self, rows: &mut RowInterner) {
        for (_, pool) in &mut self.pools {
            for config in &mut pool.safe_configs {
                *config = rows.share_config(config);
            }
            for obs in &mut pool.observations {
                *obs = rows.share(obs);
            }
        }
    }
}

impl Default for KnowledgeBase {
    fn default() -> Self {
        KnowledgeBase::new(KnowledgeBaseOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(configs: &[SharedConfig]) -> Vec<Vec<f64>> {
        configs.iter().map(|c| c.to_vec()).collect()
    }

    /// One-knob configurations, one per value.
    fn configs(values: &[f64]) -> Vec<SharedConfig> {
        values.iter().map(|v| SharedConfig::new(&[*v])).collect()
    }

    fn obs(v: f64) -> SharedObservation {
        SharedObservation::new(&[v], &[v], v)
    }

    fn key() -> PoolKey {
        PoolKey::for_tenant(&HardwareSpec::default(), WorkloadFamily::Ycsb)
    }

    #[test]
    fn hardware_class_is_coarse() {
        let hw = HardwareSpec::default();
        assert_eq!(PoolKey::hardware_class(&hw), "8c-16g");
        let mut close = hw;
        close.disk_iops += 500.0; // same class despite different disk
        assert_eq!(PoolKey::hardware_class(&close), "8c-16g");
        let mut other = hw;
        other.vcpus = 16;
        assert_ne!(PoolKey::hardware_class(&other), "8c-16g");
    }

    #[test]
    fn contribute_then_warm_start_roundtrips() {
        let mut kb = KnowledgeBase::default();
        assert!(kb.warm_start(&key()).is_empty());
        kb.contribute(&key(), configs(&[0.5, 0.6]), vec![obs(1.0), obs(2.0)]);
        let ws = kb.warm_start(&key());
        assert_eq!(ws.safe_configs.len(), 2);
        assert_eq!(ws.observations.len(), 2);
        // A different family sees nothing.
        let other = PoolKey::for_tenant(&HardwareSpec::default(), WorkloadFamily::Job);
        assert!(kb.warm_start(&other).is_empty());
    }

    #[test]
    fn pools_are_bounded_and_deduplicated() {
        let mut kb = KnowledgeBase::new(KnowledgeBaseOptions {
            max_safe_per_pool: 4,
            max_observations_per_pool: 3,
            warm_start_safe: 10,
            warm_start_observations: 10,
        });
        for i in 0..10 {
            kb.contribute(&key(), configs(&[i as f64, i as f64]), vec![obs(i as f64)]);
        }
        let pool = kb.pool(&key()).unwrap();
        assert_eq!(pool.safe_configs.len(), 4, "dedup + cap");
        assert_eq!(pool.observations.len(), 3);
        // Newest entries survive.
        assert_eq!(pool.safe_configs.last().unwrap()[0], 9.0);
        assert_eq!(pool.contributions, 10);
    }

    #[test]
    fn eviction_is_oldest_first_and_observable() {
        let mut kb = KnowledgeBase::new(KnowledgeBaseOptions {
            max_safe_per_pool: 3,
            max_observations_per_pool: 2,
            ..Default::default()
        });
        for i in 0..5 {
            kb.contribute(&key(), configs(&[i as f64]), vec![obs(i as f64)]);
        }
        let pool = kb.pool(&key()).unwrap();
        // Exactly the bound survives, and it is the newest entries in insertion order —
        // the oldest were evicted first.
        assert_eq!(
            values(&pool.safe_configs),
            vec![vec![2.0], vec![3.0], vec![4.0]]
        );
        assert_eq!(
            pool.observations
                .iter()
                .map(|o| o.performance)
                .collect::<Vec<_>>(),
            vec![3.0, 4.0]
        );
        assert_eq!(pool.evicted_safe, 2);
        assert_eq!(pool.evicted_observations, 3);
        assert_eq!(pool.contributions, 5);
    }

    #[test]
    fn oversized_single_contribution_is_bounded_too() {
        let mut kb = KnowledgeBase::new(KnowledgeBaseOptions {
            max_safe_per_pool: 2,
            max_observations_per_pool: 2,
            ..Default::default()
        });
        kb.contribute(
            &key(),
            (0..6).map(|i| SharedConfig::new(&[i as f64])).collect(),
            (0..6).map(|i| obs(i as f64)).collect(),
        );
        let pool = kb.pool(&key()).unwrap();
        assert_eq!(values(&pool.safe_configs), vec![vec![4.0], vec![5.0]]);
        assert_eq!(pool.observations.len(), 2);
        assert_eq!(pool.evicted_safe, 4);
        assert_eq!(pool.evicted_observations, 4);
    }

    #[test]
    fn reconfirmed_safe_config_refreshes_recency_and_survives_eviction() {
        let mut kb = KnowledgeBase::new(KnowledgeBaseOptions {
            max_safe_per_pool: 3,
            ..Default::default()
        });
        kb.contribute(&key(), configs(&[1.0, 2.0, 3.0]), Vec::new());
        // Re-confirm the oldest config: it moves to the newest slot (no duplicate)...
        kb.contribute(&key(), configs(&[1.0]), Vec::new());
        assert_eq!(
            values(&kb.pool(&key()).unwrap().safe_configs),
            vec![vec![2.0], vec![3.0], vec![1.0]]
        );
        // ...so the next eviction removes the *least recently confirmed* config instead.
        kb.contribute(&key(), configs(&[4.0]), Vec::new());
        let pool = kb.pool(&key()).unwrap();
        assert_eq!(
            values(&pool.safe_configs),
            vec![vec![3.0], vec![1.0], vec![4.0]]
        );
        assert_eq!(pool.evicted_safe, 1);
        // And the warm-start tail reflects confirmation recency.
        let mut kb2 = KnowledgeBase::new(KnowledgeBaseOptions {
            warm_start_safe: 1,
            ..Default::default()
        });
        kb2.contribute(&key(), configs(&[7.0, 8.0]), Vec::new());
        kb2.contribute(&key(), configs(&[7.0]), Vec::new());
        assert_eq!(
            values(&kb2.warm_start(&key()).safe_configs),
            vec![vec![7.0]]
        );
    }

    #[test]
    fn totals_aggregate_across_pools() {
        let mut kb = KnowledgeBase::new(KnowledgeBaseOptions {
            max_safe_per_pool: 2,
            max_observations_per_pool: 2,
            ..Default::default()
        });
        assert_eq!(kb.totals(), KnowledgeTotals::default());
        let other = PoolKey::for_tenant(&HardwareSpec::default(), WorkloadFamily::Job);
        for i in 0..4 {
            kb.contribute(&key(), configs(&[i as f64]), vec![obs(i as f64)]);
        }
        kb.contribute(&other, configs(&[9.0]), Vec::new());
        let totals = kb.totals();
        assert_eq!(totals.pools, 2);
        assert_eq!(totals.safe_configs, 3); // 2 capped + 1 in the other pool
        assert_eq!(totals.observations, 2);
        assert_eq!(totals.contributions, 5);
        assert_eq!(totals.evicted_safe, 2);
        assert_eq!(totals.evicted_observations, 2);
    }

    #[test]
    fn warm_start_takes_most_recent_tail() {
        let mut kb = KnowledgeBase::new(KnowledgeBaseOptions {
            warm_start_safe: 2,
            warm_start_observations: 1,
            ..Default::default()
        });
        kb.contribute(&key(), configs(&[1.0, 2.0, 3.0]), vec![obs(1.0), obs(2.0)]);
        let ws = kb.warm_start(&key());
        assert_eq!(values(&ws.safe_configs), vec![vec![2.0], vec![3.0]]);
        assert_eq!(ws.observations.len(), 1);
        assert_eq!(ws.observations[0].performance, 2.0);
    }
}
