//! MysqlTuner baseline: static white-box heuristics applied directly.
//!
//! The real MysqlTuner script inspects `SHOW GLOBAL STATUS` / `SHOW VARIABLES` and prints
//! suggested variable ranges. As a *tuner* baseline (and as OnlineTune's white-box
//! assistant's origin), this module applies the same style of heuristics to the simulated
//! instance's internal metrics: grow the buffer pool while the hit ratio is poor, grow
//! sort/temp areas while spills happen, relax flushing when checkpoint stalls dominate,
//! and always keep the total memory inside the physical budget. Because the rules never
//! learn from feedback, the baseline converges to a decent but sub-optimal configuration —
//! the behaviour reported in §7.1.1 ("relies on heuristic rules and traps in local
//! optimum").

use crate::{Tuner, TuningInput};
use onlinetune::IterationDiagnostics;
use simdb::{Configuration, HardwareSpec, InternalMetrics, KnobCatalogue};

const MIB: f64 = 1024.0 * 1024.0;

/// The MysqlTuner-style heuristic tuner.
pub struct MysqlTunerBaseline {
    catalogue: KnobCatalogue,
    hardware: HardwareSpec,
    current: Configuration,
}

impl MysqlTunerBaseline {
    /// Creates the tuner starting from a given configuration (the paper starts baselines
    /// from the DBA default's observation for fairness).
    pub fn starting_from(
        catalogue: KnobCatalogue,
        hardware: HardwareSpec,
        config: Configuration,
    ) -> Self {
        MysqlTunerBaseline {
            catalogue,
            hardware,
            current: config,
        }
    }

    fn knob(&self, name: &str) -> f64 {
        self.current.get(&self.catalogue, name).unwrap_or_else(|| {
            let full = KnobCatalogue::mysql57();
            let idx = full.index_of(name).expect("known knob");
            full.knob(idx).dba_default
        })
    }

    fn set(&mut self, name: &str, value: f64) {
        let _ = self.current.set(&self.catalogue, name, value);
    }

    fn apply_heuristics(&mut self, metrics: &InternalMetrics, clients: usize) {
        let usable = self.hardware.usable_ram_bytes();

        // 1. Buffer pool: grow by 25 % while the hit ratio is below 99 %, up to 70 % of RAM.
        if metrics.buffer_pool_hit_ratio < 0.99 {
            let bp = self.knob("innodb_buffer_pool_size");
            self.set("innodb_buffer_pool_size", (bp * 1.25).min(usable * 0.70));
        }

        // 2. Sort / temp areas: grow while spills are observed, within per-connection limits.
        if metrics.sort_merge_spill_ratio > 0.05 {
            let sb = self.knob("sort_buffer_size");
            self.set("sort_buffer_size", (sb * 2.0).min(64.0 * MIB));
        }
        if metrics.tmp_disk_table_ratio > 0.05 {
            let tmp = self.knob("tmp_table_size");
            self.set("tmp_table_size", (tmp * 2.0).min(512.0 * MIB));
            self.set("max_heap_table_size", (tmp * 2.0).min(512.0 * MIB));
        }
        if metrics.joins_without_index_ratio > 0.1 {
            let jb = self.knob("join_buffer_size");
            self.set("join_buffer_size", (jb * 2.0).min(64.0 * MIB));
        }

        // 3. Redo / flushing: widen the log and the IO budget under checkpoint pressure.
        if metrics.checkpoint_stall_ratio > 0.02 {
            let log = self.knob("innodb_log_file_size");
            self.set("innodb_log_file_size", (log * 2.0).min(4096.0 * MIB));
            let cap = self.knob("innodb_io_capacity");
            self.set("innodb_io_capacity", (cap * 2.0).min(20000.0));
        }
        if metrics.log_waits_per_sec > 1.0 {
            let lb = self.knob("innodb_log_buffer_size");
            self.set("innodb_log_buffer_size", (lb * 2.0).min(256.0 * MIB));
        }

        // 4. Connections / threads.
        if metrics.threads_created > 0.0 {
            self.set("thread_cache_size", (clients as f64).min(1000.0));
        }
        if self.knob("max_connections") < clients as f64 {
            self.set("max_connections", (clients as f64 * 1.5).min(10000.0));
        }
        self.set("innodb_thread_concurrency", 0.0);
        // MysqlTuner advises disabling the query cache on write workloads.
        if metrics.writes_per_sec > 1.0 {
            self.set("query_cache_type", 0.0);
            self.set("query_cache_size", 0.0);
        }

        // 5. Keep the total memory inside the budget: shrink the buffer pool if the
        // per-connection areas grew too much.
        let per_conn = self.knob("sort_buffer_size")
            + self.knob("join_buffer_size")
            + self.knob("read_buffer_size")
            + self.knob("read_rnd_buffer_size")
            + self.knob("binlog_cache_size");
        let active = (clients as f64).min(self.knob("max_connections")) * 0.5;
        let session = per_conn * active
            + self
                .knob("tmp_table_size")
                .min(self.knob("max_heap_table_size"))
                * active
                * 0.4;
        let global_other = self.knob("key_buffer_size")
            + self.knob("query_cache_size")
            + self.knob("innodb_log_buffer_size")
            + 300.0 * MIB;
        let max_bp = (usable - session - global_other).max(256.0 * MIB);
        if self.knob("innodb_buffer_pool_size") > max_bp {
            self.set("innodb_buffer_pool_size", max_bp);
        }
    }
}

impl Tuner for MysqlTunerBaseline {
    fn name(&self) -> &str {
        "MysqlTuner"
    }

    fn suggest(
        &mut self,
        input: &TuningInput<'_>,
    ) -> (Configuration, Option<IterationDiagnostics>) {
        if let Some(metrics) = input.metrics {
            self.apply_heuristics(metrics, input.clients);
        }
        (self.current.clone(), None)
    }

    fn observe(
        &mut self,
        _input: &TuningInput<'_>,
        config: &Configuration,
        _performance: f64,
        _metrics: &InternalMetrics,
        _safe: bool,
    ) {
        // The heuristics are stateless beyond the current configuration; keep what was
        // actually applied as the starting point of the next round of advice.
        self.current = config.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with(hit: f64, spill: f64) -> InternalMetrics {
        let mut m = InternalMetrics::zeroed();
        m.buffer_pool_hit_ratio = hit;
        m.sort_merge_spill_ratio = spill;
        m.writes_per_sec = 100.0;
        m
    }

    /// The tuner on the full catalogue, starting from the vendor default.
    fn from_vendor_default(cat: &KnobCatalogue, hw: HardwareSpec) -> MysqlTunerBaseline {
        MysqlTunerBaseline::starting_from(cat.clone(), hw, Configuration::vendor_default(cat))
    }

    fn input_with(metrics: &InternalMetrics) -> TuningInput<'_> {
        TuningInput {
            context: &[],
            metrics: Some(metrics),
            safety_threshold: 0.0,
            clients: 32,
        }
    }

    #[test]
    fn poor_hit_ratio_grows_the_buffer_pool() {
        let cat = KnobCatalogue::mysql57();
        let mut t = from_vendor_default(&cat, HardwareSpec::default());
        let before = t.current.get(&cat, "innodb_buffer_pool_size").unwrap();
        let metrics = metrics_with(0.5, 0.0);
        let cfg = t.suggest(&input_with(&metrics)).0;
        assert!(cfg.get(&cat, "innodb_buffer_pool_size").unwrap() > before);
    }

    #[test]
    fn repeated_advice_converges_and_respects_the_memory_budget() {
        let cat = KnobCatalogue::mysql57();
        let hw = HardwareSpec::default();
        let mut t = from_vendor_default(&cat, hw);
        let metrics = metrics_with(0.9, 0.3);
        let mut last = t.suggest(&input_with(&metrics)).0;
        for _ in 0..30 {
            t.observe(&input_with(&metrics), &last, 100.0, &metrics, true);
            last = t.suggest(&input_with(&metrics)).0;
            let bp = last.get(&cat, "innodb_buffer_pool_size").unwrap();
            assert!(
                bp <= hw.usable_ram_bytes() * 0.75,
                "buffer pool {bp} exceeds budget"
            );
        }
        // After many rounds the advice stabilizes (local optimum behaviour).
        t.observe(&input_with(&metrics), &last, 100.0, &metrics, true);
        let next = t.suggest(&input_with(&metrics)).0;
        assert_eq!(last, next);
    }

    #[test]
    fn spills_grow_sort_and_tmp_areas() {
        let cat = KnobCatalogue::mysql57();
        let mut t = from_vendor_default(&cat, HardwareSpec::default());
        let mut m = metrics_with(0.999, 0.5);
        m.tmp_disk_table_ratio = 0.5;
        m.joins_without_index_ratio = 0.4;
        let before_sort = t.current.get(&cat, "sort_buffer_size").unwrap();
        let cfg = t.suggest(&input_with(&m)).0;
        assert!(cfg.get(&cat, "sort_buffer_size").unwrap() > before_sort);
        assert!(cfg.get(&cat, "tmp_table_size").unwrap() > 16.0 * MIB);
        assert!(cfg.get(&cat, "join_buffer_size").unwrap() > 256.0 * 1024.0);
    }

    #[test]
    fn write_workload_disables_the_query_cache_and_unlimits_concurrency() {
        let cat = KnobCatalogue::mysql57();
        let mut t = from_vendor_default(&cat, HardwareSpec::default());
        let metrics = metrics_with(0.99, 0.0);
        let cfg = t.suggest(&input_with(&metrics)).0;
        assert_eq!(cfg.get(&cat, "query_cache_size").unwrap(), 0.0);
        assert_eq!(cfg.get(&cat, "innodb_thread_concurrency").unwrap(), 0.0);
    }

    #[test]
    fn without_metrics_the_current_configuration_is_kept() {
        let cat = KnobCatalogue::mysql57();
        let mut t = from_vendor_default(&cat, HardwareSpec::default());
        let input = TuningInput {
            context: &[],
            metrics: None,
            safety_threshold: 0.0,
            clients: 32,
        };
        assert_eq!(t.suggest(&input).0, Configuration::vendor_default(&cat));
    }
}
