//! White-box knowledge: MysqlTuner-style heuristic rules with conflict-driven relaxation
//! (§6.2.2).
//!
//! Domain heuristics can reject obviously bad configurations (memory overcommit, strangled
//! concurrency) that a young GP model cannot yet recognize — but heuristics do not learn,
//! and an over-eager rule can fence off the true optimum. OnlineTune therefore tracks, per
//! rule, how often the black-box recommendation *conflicts* with the rule; after enough
//! conflicts the rule is ignored for one recommendation, and if the controversial
//! configuration turns out to be safe often enough, the rule is *relaxed* (its threshold is
//! loosened).

use simdb::{Configuration, HardwareSpec, InternalMetrics, KnobCatalogue};

const MIB: f64 = 1024.0 * 1024.0;

/// Conflicts before a rule is ignored for one recommendation.
pub const CONFLICT_THRESHOLD: usize = 3;

/// Safe outcomes of controversial configurations before a rule is relaxed.
pub const RELAX_THRESHOLD: usize = 3;

/// Environmental information a rule may consult.
pub struct RuleContext<'a> {
    /// The knob catalogue the configuration is expressed over.
    pub catalogue: &'a KnobCatalogue,
    /// Hardware of the target instance.
    pub hardware: &'a HardwareSpec,
    /// Number of client connections the workload uses.
    pub clients: usize,
    /// Most recent internal metrics, when available.
    pub metrics: Option<&'a InternalMetrics>,
}

impl<'a> RuleContext<'a> {
    /// Reads a knob from the configuration, falling back to the full-catalogue DBA default
    /// when the knob is not part of the tuned subset.
    pub fn knob(&self, config: &Configuration, name: &str) -> f64 {
        if let Some(v) = config.get(self.catalogue, name) {
            return v;
        }
        let full = KnobCatalogue::mysql57();
        let idx = full.index_of(name).expect("known knob");
        full.knob(idx).dba_default
    }
}

/// A single white-box heuristic.
pub trait WhiteBoxRule: Send + Sync {
    /// Stable rule name used in diagnostics.
    fn name(&self) -> &'static str;

    /// Returns `true` when the configuration violates the rule at the given relaxation
    /// level (level 0 = strictest; each level loosens the threshold).
    fn violates(&self, config: &Configuration, ctx: &RuleContext<'_>, relax_level: u32) -> bool;
}

/// Rule 1: the sum of all memory consumers must fit in the instance's usable RAM.
pub struct MemoryBudgetRule;

impl WhiteBoxRule for MemoryBudgetRule {
    fn name(&self) -> &'static str {
        "memory_budget"
    }

    fn violates(&self, config: &Configuration, ctx: &RuleContext<'_>, relax_level: u32) -> bool {
        let per_conn = ctx.knob(config, "sort_buffer_size")
            + ctx.knob(config, "join_buffer_size")
            + ctx.knob(config, "read_buffer_size")
            + ctx.knob(config, "read_rnd_buffer_size")
            + ctx.knob(config, "binlog_cache_size");
        let active = (ctx.clients as f64).min(ctx.knob(config, "max_connections")) * 0.5;
        let tmp = ctx
            .knob(config, "tmp_table_size")
            .min(ctx.knob(config, "max_heap_table_size"));
        let total = ctx.knob(config, "innodb_buffer_pool_size")
            + ctx.knob(config, "key_buffer_size")
            + ctx.knob(config, "query_cache_size")
            + ctx.knob(config, "innodb_log_buffer_size")
            + 300.0 * MIB
            + per_conn * active
            + tmp * active * 0.4;
        let budget = ctx.hardware.usable_ram_bytes() * (1.0 + 0.04 * relax_level as f64);
        total > budget
    }
}

/// Rule 2: `innodb_thread_concurrency` must be 0 (unlimited) or at least half the vCPUs —
/// the paper's running example of a non-ordinal knob that the GP mishandles (§7.3.2).
pub struct ThreadConcurrencyRule;

impl WhiteBoxRule for ThreadConcurrencyRule {
    fn name(&self) -> &'static str {
        "thread_concurrency"
    }

    fn violates(&self, config: &Configuration, ctx: &RuleContext<'_>, relax_level: u32) -> bool {
        let tc = ctx.knob(config, "innodb_thread_concurrency");
        if tc < 0.5 {
            return false; // 0 = unlimited
        }
        let floor = (ctx.hardware.vcpus as f64 / 2.0 - relax_level as f64).max(1.0);
        tc < floor
    }
}

/// Rule 3: the buffer pool should not shrink below a fraction of RAM on a dedicated
/// instance (MysqlTuner's InnoDB advice). Relaxation lowers the fraction.
pub struct BufferPoolMinimumRule;

impl WhiteBoxRule for BufferPoolMinimumRule {
    fn name(&self) -> &'static str {
        "buffer_pool_minimum"
    }

    fn violates(&self, config: &Configuration, ctx: &RuleContext<'_>, relax_level: u32) -> bool {
        let fraction = (0.20 - 0.05 * relax_level as f64).max(0.02);
        ctx.knob(config, "innodb_buffer_pool_size") < ctx.hardware.usable_ram_bytes() * fraction
    }
}

/// Rule 4: per-connection sort/join buffers beyond 64 MiB are rarely useful and are a
/// memory-blowup hazard with many connections.
pub struct PerConnectionBufferRule;

impl WhiteBoxRule for PerConnectionBufferRule {
    fn name(&self) -> &'static str {
        "per_connection_buffers"
    }

    fn violates(&self, config: &Configuration, ctx: &RuleContext<'_>, relax_level: u32) -> bool {
        let cap = 64.0 * MIB * 2f64.powi(relax_level as i32);
        ctx.knob(config, "sort_buffer_size") > cap || ctx.knob(config, "join_buffer_size") > cap
    }
}

/// Rule 5: `max_connections` must accommodate the application's connection count.
pub struct MaxConnectionsRule;

impl WhiteBoxRule for MaxConnectionsRule {
    fn name(&self) -> &'static str {
        "max_connections"
    }

    fn violates(&self, config: &Configuration, ctx: &RuleContext<'_>, relax_level: u32) -> bool {
        let needed = ctx.clients as f64 / (1.0 + relax_level as f64 * 0.5);
        ctx.knob(config, "max_connections") < needed
    }
}

/// Rule 6: the query cache should stay off (or small) when the workload writes — it is a
/// well-known scalability trap in MySQL 5.7.
pub struct QueryCacheRule;

impl WhiteBoxRule for QueryCacheRule {
    fn name(&self) -> &'static str {
        "query_cache"
    }

    fn violates(&self, config: &Configuration, ctx: &RuleContext<'_>, relax_level: u32) -> bool {
        let writes = ctx.metrics.map(|m| m.writes_per_sec > 1.0).unwrap_or(true);
        let cache_on = ctx.knob(config, "query_cache_type") >= 0.5;
        let size_cap = 32.0 * MIB * (1 + relax_level) as f64;
        writes && cache_on && ctx.knob(config, "query_cache_size") > size_cap
    }
}

/// Rule 7: redo log must not be tiny when the workload writes (checkpoint storms).
pub struct RedoLogRule;

impl WhiteBoxRule for RedoLogRule {
    fn name(&self) -> &'static str {
        "redo_log_size"
    }

    fn violates(&self, config: &Configuration, ctx: &RuleContext<'_>, relax_level: u32) -> bool {
        let write_heavy = ctx
            .metrics
            .map(|m| m.writes_per_sec > 500.0)
            .unwrap_or(false);
        let floor = (256.0 - 64.0 * relax_level as f64).max(48.0) * MIB;
        write_heavy && ctx.knob(config, "innodb_log_file_size") < floor
    }
}

/// Rule 8: keep `innodb_max_dirty_pages_pct` out of the pathological low range.
pub struct DirtyPagesRule;

impl WhiteBoxRule for DirtyPagesRule {
    fn name(&self) -> &'static str {
        "dirty_pages_pct"
    }

    fn violates(&self, config: &Configuration, ctx: &RuleContext<'_>, relax_level: u32) -> bool {
        let floor = (10.0 - 3.0 * relax_level as f64).max(1.0);
        ctx.knob(config, "innodb_max_dirty_pages_pct") < floor
    }
}

/// Serializable snapshot of one rule's conflict/relaxation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RuleStateSnapshot {
    /// Conflicts counted toward the ignore threshold.
    pub conflicts: usize,
    /// Safe controversial outcomes counted toward relaxation.
    pub conflict_safe: usize,
    /// Current relaxation level (0 = strict).
    pub relax_level: u32,
}

/// Per-rule bookkeeping for the relaxation mechanism.
#[derive(Debug, Clone, Default)]
struct RuleState {
    conflicts: usize,
    conflict_safe: usize,
    relax_level: u32,
}

/// The white-box assistant: a set of rules plus the conflict/relaxation state machine,
/// with the thresholds [`CONFLICT_THRESHOLD`] and [`RELAX_THRESHOLD`].
pub struct RuleEngine {
    rules: Vec<Box<dyn WhiteBoxRule>>,
    states: Vec<RuleState>,
}

impl RuleEngine {
    /// Creates the engine with the standard MysqlTuner-inspired rule set.
    pub fn with_default_rules() -> Self {
        Self::new(vec![
            Box::new(MemoryBudgetRule),
            Box::new(ThreadConcurrencyRule),
            Box::new(BufferPoolMinimumRule),
            Box::new(PerConnectionBufferRule),
            Box::new(MaxConnectionsRule),
            Box::new(QueryCacheRule),
            Box::new(RedoLogRule),
            Box::new(DirtyPagesRule),
        ])
    }

    /// Creates an engine from an explicit rule set.
    pub fn new(rules: Vec<Box<dyn WhiteBoxRule>>) -> Self {
        let states = rules.iter().map(|_| RuleState::default()).collect();
        RuleEngine { rules, states }
    }

    /// Names of all rules.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Exports the per-rule conflict/relaxation state for snapshots.
    pub fn export_states(&self) -> Vec<RuleStateSnapshot> {
        self.states
            .iter()
            .map(|st| RuleStateSnapshot {
                conflicts: st.conflicts,
                conflict_safe: st.conflict_safe,
                relax_level: st.relax_level,
            })
            .collect()
    }

    /// Restores per-rule state exported by [`RuleEngine::export_states`]. Extra entries are
    /// ignored and missing entries leave the default state, so the call is safe when the
    /// rule set evolved between snapshot and restore.
    pub fn restore_states(&mut self, states: &[RuleStateSnapshot]) {
        for (st, snap) in self.states.iter_mut().zip(states.iter()) {
            st.conflicts = snap.conflicts;
            st.conflict_safe = snap.conflict_safe;
            st.relax_level = snap.relax_level;
        }
    }

    /// Indices of the rules the configuration violates at their current relaxation level.
    pub fn violations(&self, config: &Configuration, ctx: &RuleContext<'_>) -> Vec<usize> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(i, rule)| rule.violates(config, ctx, self.states[*i].relax_level))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether the configuration passes all rules.
    pub fn passes(&self, config: &Configuration, ctx: &RuleContext<'_>) -> bool {
        self.violations(config, ctx).is_empty()
    }

    /// Records that the black box wanted a configuration rejected *solely* by `rule`
    /// (a decision conflict). Returns `true` when the conflict counter has reached the
    /// threshold, meaning the rule should be ignored for this recommendation (the paper
    /// allows at most one rule to be ignored per recommendation).
    pub fn note_conflict(&mut self, rule: usize) -> bool {
        let state = &mut self.states[rule];
        state.conflicts += 1;
        if state.conflicts >= CONFLICT_THRESHOLD {
            state.conflicts = 0;
            true
        } else {
            false
        }
    }

    /// Records the evaluated outcome of a controversial configuration that was applied while
    /// ignoring `rule`. Safe outcomes accumulate toward relaxation; an unsafe outcome resets
    /// the progress (the rule was right).
    pub fn note_override_outcome(&mut self, rule: usize, was_safe: bool) {
        let state = &mut self.states[rule];
        if was_safe {
            state.conflict_safe += 1;
            if state.conflict_safe >= RELAX_THRESHOLD {
                state.conflict_safe = 0;
                state.relax_level += 1;
            }
        } else {
            state.conflict_safe = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn full_setup() -> (KnobCatalogue, HardwareSpec) {
        (KnobCatalogue::mysql57(), HardwareSpec::default())
    }

    fn ctx<'a>(cat: &'a KnobCatalogue, hw: &'a HardwareSpec) -> RuleContext<'a> {
        RuleContext {
            catalogue: cat,
            hardware: hw,
            clients: 32,
            metrics: None,
        }
    }

    #[test]
    fn dba_default_passes_all_rules() {
        let (cat, hw) = full_setup();
        let engine = RuleEngine::with_default_rules();
        let config = Configuration::dba_default(&cat);
        assert!(
            engine.passes(&config, &ctx(&cat, &hw)),
            "{:?}",
            engine
                .violations(&config, &ctx(&cat, &hw))
                .iter()
                .map(|&i| engine.rule_names()[i])
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn memory_overcommit_is_rejected() {
        let (cat, hw) = full_setup();
        let engine = RuleEngine::with_default_rules();
        let mut config = Configuration::dba_default(&cat);
        config.set(&cat, "innodb_buffer_pool_size", 15.0 * GIB);
        config.set(&cat, "sort_buffer_size", 256.0 * MIB);
        config.set(&cat, "join_buffer_size", 256.0 * MIB);
        let violations = engine.violations(&config, &ctx(&cat, &hw));
        let names: Vec<_> = violations.iter().map(|&i| engine.rule_names()[i]).collect();
        assert!(names.contains(&"memory_budget"), "{names:?}");
        assert!(names.contains(&"per_connection_buffers"));
    }

    #[test]
    fn strangling_thread_concurrency_is_rejected_but_zero_is_fine() {
        let (cat, hw) = full_setup();
        let engine = RuleEngine::with_default_rules();
        let mut config = Configuration::dba_default(&cat);
        config.set(&cat, "innodb_thread_concurrency", 1.0);
        assert!(!engine.passes(&config, &ctx(&cat, &hw)));
        config.set(&cat, "innodb_thread_concurrency", 0.0);
        assert!(engine.passes(&config, &ctx(&cat, &hw)));
        config.set(&cat, "innodb_thread_concurrency", 32.0);
        assert!(engine.passes(&config, &ctx(&cat, &hw)));
    }

    #[test]
    fn mysql_default_violates_the_buffer_pool_minimum() {
        let (cat, hw) = full_setup();
        let engine = RuleEngine::with_default_rules();
        let config = Configuration::vendor_default(&cat);
        let names: Vec<_> = engine
            .violations(&config, &ctx(&cat, &hw))
            .iter()
            .map(|&i| engine.rule_names()[i])
            .collect();
        assert!(names.contains(&"buffer_pool_minimum"));
    }

    #[test]
    fn conflict_counter_triggers_ignore_after_threshold() {
        let mut engine = RuleEngine::with_default_rules();
        assert!(!engine.note_conflict(0));
        assert!(!engine.note_conflict(0));
        assert!(engine.note_conflict(0));
        // Counter resets after an ignore.
        assert!(!engine.note_conflict(0));
    }

    #[test]
    fn repeated_safe_overrides_relax_the_rule() {
        let (cat, hw) = full_setup();
        let mut engine = RuleEngine::with_default_rules();
        let rule_idx = engine
            .rule_names()
            .iter()
            .position(|n| *n == "buffer_pool_minimum")
            .unwrap();
        // A pool a bit below 20% of usable RAM violates at level 0 but passes at level 1.
        let mut config = Configuration::dba_default(&cat);
        config.set(
            &cat,
            "innodb_buffer_pool_size",
            0.17 * hw.usable_ram_bytes(),
        );
        assert!(!engine.passes(&config, &ctx(&cat, &hw)));
        for _ in 0..3 {
            engine.note_override_outcome(rule_idx, true);
        }
        assert_eq!(engine.states[rule_idx].relax_level, 1);
        assert!(engine.passes(&config, &ctx(&cat, &hw)));
    }

    #[test]
    fn unsafe_override_resets_relaxation_progress() {
        let mut engine = RuleEngine::with_default_rules();
        engine.note_override_outcome(2, true);
        engine.note_override_outcome(2, true);
        engine.note_override_outcome(2, false);
        engine.note_override_outcome(2, true);
        engine.note_override_outcome(2, true);
        assert_eq!(engine.states[2].relax_level, 0);
        engine.note_override_outcome(2, true);
        assert_eq!(engine.states[2].relax_level, 1);
    }

    #[test]
    fn query_cache_rule_considers_write_activity() {
        let (cat, hw) = full_setup();
        let engine = RuleEngine::with_default_rules();
        let mut config = Configuration::dba_default(&cat);
        config.set(&cat, "query_cache_type", 1.0);
        config.set(&cat, "query_cache_size", 200.0 * MIB);
        // Without metrics we assume writes may happen → violation.
        assert!(!engine.passes(&config, &ctx(&cat, &hw)));
        // With metrics showing a read-only workload the rule stands down.
        let mut metrics = InternalMetrics::zeroed();
        metrics.writes_per_sec = 0.0;
        let ro_ctx = RuleContext {
            catalogue: &cat,
            hardware: &hw,
            clients: 32,
            metrics: Some(&metrics),
        };
        assert!(engine.passes(&config, &ro_ctx));
    }

    #[test]
    fn redo_log_rule_requires_write_evidence() {
        let (cat, hw) = full_setup();
        let engine = RuleEngine::with_default_rules();
        let mut config = Configuration::dba_default(&cat);
        config.set(&cat, "innodb_log_file_size", 48.0 * MIB);
        // No metrics → not write heavy → rule does not fire.
        assert!(engine.passes(&config, &ctx(&cat, &hw)));
        let mut metrics = InternalMetrics::zeroed();
        metrics.writes_per_sec = 5000.0;
        let heavy_ctx = RuleContext {
            catalogue: &cat,
            hardware: &hw,
            clients: 32,
            metrics: Some(&metrics),
        };
        assert!(!engine.passes(&config, &heavy_ctx));
    }

    #[test]
    fn subset_catalogue_uses_dba_fallbacks() {
        let hw = HardwareSpec::default();
        let full = KnobCatalogue::mysql57();
        let sub = full.subset(&["sort_buffer_size"]);
        let engine = RuleEngine::with_default_rules();
        let config = Configuration::from_values(&sub, vec![2.0 * MIB]);
        let sub_ctx = RuleContext {
            catalogue: &sub,
            hardware: &hw,
            clients: 32,
            metrics: None,
        };
        assert!(engine.passes(&config, &sub_ctx));
    }
}
