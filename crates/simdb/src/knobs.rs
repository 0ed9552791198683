//! The knob catalogue: 40 dynamic MySQL-5.7-style configuration knobs.
//!
//! The paper tunes "40 dynamic configuration knobs ... chosen based on their importance by
//! DBAs" without restarting the database. This module defines an equivalent catalogue with
//! the vendor (MySQL) default and the DBA default for each knob. Knob values are carried as
//! `f64` (bytes, counts, microseconds, enum indices, booleans as 0/1); [`KnobDef`] knows how
//! to normalize a value into `[0, 1]` (log-scaled for knobs that span orders of magnitude)
//! and how to clamp/round arbitrary values back into the legal domain.

use serde::{Deserialize, Serialize};

/// How a knob's numeric domain is interpreted.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum KnobKind {
    /// Integer-valued knob in `[min, max]`.
    Integer {
        /// Minimum legal value.
        min: f64,
        /// Maximum legal value.
        max: f64,
    },
    /// Real-valued knob in `[min, max]`.
    Float {
        /// Minimum legal value.
        min: f64,
        /// Maximum legal value.
        max: f64,
    },
    /// Enumerated knob; the value is the index into `choices`.
    Enum {
        /// Human-readable names of the choices.
        choices: Vec<&'static str>,
    },
    /// Boolean knob (0 = off, 1 = on).
    Bool,
}

/// Whether the knob is normalized on a linear or logarithmic axis.
///
/// Memory sizes spanning `128 KiB … 15 GiB` must be explored on a log axis or the surrogate
/// model wastes almost all of its resolution on the top decade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KnobScale {
    /// Normalize linearly between min and max.
    Linear,
    /// Normalize the logarithm of the value between the logs of min and max.
    Log,
}

/// Definition of a single configuration knob.
#[derive(Debug, Clone, Serialize)]
pub struct KnobDef {
    /// MySQL-style knob name.
    pub name: &'static str,
    /// Domain of the knob.
    pub kind: KnobKind,
    /// Normalization axis.
    pub scale: KnobScale,
    /// Vendor (MySQL) default value.
    pub default: f64,
    /// Value an experienced DBA would set on the reference 8 vCPU / 16 GB instance.
    pub dba_default: f64,
    /// One-line description of what the knob does in the simulator's performance model.
    pub description: &'static str,
}

impl KnobDef {
    /// Lower bound of the knob's numeric domain (0 for bool, 0 for enums).
    pub fn min(&self) -> f64 {
        match &self.kind {
            KnobKind::Integer { min, .. } | KnobKind::Float { min, .. } => *min,
            KnobKind::Enum { .. } | KnobKind::Bool => 0.0,
        }
    }

    /// Upper bound of the knob's numeric domain (1 for bool, `choices-1` for enums).
    pub fn max(&self) -> f64 {
        match &self.kind {
            KnobKind::Integer { max, .. } | KnobKind::Float { max, .. } => *max,
            KnobKind::Enum { choices } => (choices.len() - 1) as f64,
            KnobKind::Bool => 1.0,
        }
    }

    /// Clamps (and for integer/enum/bool knobs, rounds) a raw value into the legal domain.
    pub fn sanitize(&self, value: f64) -> f64 {
        let v = value.clamp(self.min(), self.max());
        match &self.kind {
            KnobKind::Float { .. } => v,
            _ => v.round(),
        }
    }

    /// Normalizes a legal value into `[0, 1]`.
    pub fn normalize(&self, value: f64) -> f64 {
        let v = value.clamp(self.min(), self.max());
        let (lo, hi) = (self.min(), self.max());
        if (hi - lo).abs() < 1e-12 {
            return 0.5;
        }
        match self.scale {
            KnobScale::Linear => (v - lo) / (hi - lo),
            KnobScale::Log => {
                let shift = if lo <= 0.0 { 1.0 - lo } else { 0.0 };
                ((v + shift).ln() - (lo + shift).ln()) / ((hi + shift).ln() - (lo + shift).ln())
            }
        }
    }

    /// Maps a `[0, 1]` value back into the knob's domain (inverse of [`KnobDef::normalize`]).
    pub fn denormalize(&self, unit: f64) -> f64 {
        let u = unit.clamp(0.0, 1.0);
        let (lo, hi) = (self.min(), self.max());
        let raw = match self.scale {
            KnobScale::Linear => lo + u * (hi - lo),
            KnobScale::Log => {
                let shift = if lo <= 0.0 { 1.0 - lo } else { 0.0 };
                ((lo + shift).ln() + u * ((hi + shift).ln() - (lo + shift).ln())).exp() - shift
            }
        };
        self.sanitize(raw)
    }
}

/// The full catalogue of tunable knobs, in a fixed order that configuration vectors follow.
#[derive(Debug, Clone)]
pub struct KnobCatalogue {
    knobs: Vec<KnobDef>,
}

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
const MIB: f64 = 1024.0 * 1024.0;
const KIB: f64 = 1024.0;

impl Default for KnobCatalogue {
    fn default() -> Self {
        Self::mysql57()
    }
}

impl KnobCatalogue {
    /// The 40-knob MySQL 5.7 catalogue used throughout the reproduction.
    pub fn mysql57() -> Self {
        use KnobKind::*;
        use KnobScale::*;
        let knobs = vec![
            KnobDef {
                name: "innodb_buffer_pool_size",
                kind: Integer {
                    min: 128.0 * MIB,
                    max: 15.0 * GIB,
                },
                scale: Log,
                default: 128.0 * MIB,
                dba_default: 13.0 * GIB,
                description: "Main data/index cache; dominates read IO avoidance",
            },
            KnobDef {
                name: "innodb_log_file_size",
                kind: Integer {
                    min: 48.0 * MIB,
                    max: 4.0 * GIB,
                },
                scale: Log,
                default: 48.0 * MIB,
                dba_default: 1.0 * GIB,
                description:
                    "Redo log size; small values force frequent checkpoint stalls under writes",
            },
            KnobDef {
                name: "innodb_log_buffer_size",
                kind: Integer {
                    min: 1.0 * MIB,
                    max: 256.0 * MIB,
                },
                scale: Log,
                default: 16.0 * MIB,
                dba_default: 64.0 * MIB,
                description:
                    "Redo log staging buffer; small values cause log waits for large transactions",
            },
            KnobDef {
                name: "innodb_flush_log_at_trx_commit",
                kind: Enum {
                    choices: vec!["0", "1", "2"],
                },
                scale: Linear,
                default: 1.0,
                dba_default: 1.0,
                description:
                    "Commit durability: 1 = fsync every commit (slow, safe), 0/2 = relaxed",
            },
            KnobDef {
                name: "innodb_flush_method",
                kind: Enum {
                    choices: vec!["fsync", "O_DIRECT", "O_DSYNC"],
                },
                scale: Linear,
                default: 0.0,
                dba_default: 1.0,
                description: "O_DIRECT avoids double buffering through the OS page cache",
            },
            KnobDef {
                name: "innodb_io_capacity",
                kind: Integer {
                    min: 100.0,
                    max: 20000.0,
                },
                scale: Log,
                default: 200.0,
                dba_default: 4000.0,
                description: "Background flush IOPS budget; too low lets dirty pages pile up",
            },
            KnobDef {
                name: "innodb_io_capacity_max",
                kind: Integer {
                    min: 200.0,
                    max: 40000.0,
                },
                scale: Log,
                default: 2000.0,
                dba_default: 8000.0,
                description: "Burst flush IOPS budget",
            },
            KnobDef {
                name: "innodb_thread_concurrency",
                kind: Integer {
                    min: 0.0,
                    max: 64.0,
                },
                scale: Linear,
                default: 0.0,
                dba_default: 0.0,
                description: "Max threads inside InnoDB; 0 means unlimited (non-ordinal!)",
            },
            KnobDef {
                name: "innodb_spin_wait_delay",
                kind: Integer {
                    min: 0.0,
                    max: 6000.0,
                },
                scale: Log,
                default: 6.0,
                dba_default: 6.0,
                description:
                    "Spin-loop delay between lock polls; extreme values waste CPU or add latency",
            },
            KnobDef {
                name: "innodb_sync_spin_loops",
                kind: Integer {
                    min: 0.0,
                    max: 1000.0,
                },
                scale: Log,
                default: 30.0,
                dba_default: 30.0,
                description: "Spin rounds before a thread sleeps on a mutex",
            },
            KnobDef {
                name: "innodb_read_io_threads",
                kind: Integer {
                    min: 1.0,
                    max: 16.0,
                },
                scale: Linear,
                default: 4.0,
                dba_default: 8.0,
                description: "Parallelism of background read IO",
            },
            KnobDef {
                name: "innodb_write_io_threads",
                kind: Integer {
                    min: 1.0,
                    max: 16.0,
                },
                scale: Linear,
                default: 4.0,
                dba_default: 8.0,
                description: "Parallelism of background write IO",
            },
            KnobDef {
                name: "innodb_purge_threads",
                kind: Integer {
                    min: 1.0,
                    max: 32.0,
                },
                scale: Linear,
                default: 4.0,
                dba_default: 4.0,
                description: "Undo purge parallelism; matters for update-heavy workloads",
            },
            KnobDef {
                name: "innodb_lru_scan_depth",
                kind: Integer {
                    min: 100.0,
                    max: 10000.0,
                },
                scale: Log,
                default: 1024.0,
                dba_default: 1024.0,
                description: "Free-page scan depth per buffer-pool instance",
            },
            KnobDef {
                name: "innodb_adaptive_hash_index",
                kind: Bool,
                scale: Linear,
                default: 1.0,
                dba_default: 1.0,
                description: "Hash index over hot B-tree pages; helps skewed point reads",
            },
            KnobDef {
                name: "innodb_change_buffer_max_size",
                kind: Integer {
                    min: 0.0,
                    max: 50.0,
                },
                scale: Linear,
                default: 25.0,
                dba_default: 25.0,
                description: "Fraction of the buffer pool reserved for the insert/change buffer",
            },
            KnobDef {
                name: "innodb_max_dirty_pages_pct",
                kind: Float {
                    min: 0.0,
                    max: 99.0,
                },
                scale: Linear,
                default: 75.0,
                dba_default: 75.0,
                description: "Dirty-page high-water mark before aggressive flushing",
            },
            KnobDef {
                name: "innodb_doublewrite",
                kind: Bool,
                scale: Linear,
                default: 1.0,
                dba_default: 1.0,
                description: "Torn-page protection; costs write bandwidth",
            },
            KnobDef {
                name: "innodb_adaptive_flushing",
                kind: Bool,
                scale: Linear,
                default: 1.0,
                dba_default: 1.0,
                description: "Adaptive redo-driven flushing",
            },
            KnobDef {
                name: "innodb_flush_neighbors",
                kind: Enum {
                    choices: vec!["0", "1", "2"],
                },
                scale: Linear,
                default: 1.0,
                dba_default: 0.0,
                description: "Flush adjacent dirty pages (useful on HDD, wasteful on SSD)",
            },
            KnobDef {
                name: "innodb_old_blocks_pct",
                kind: Integer {
                    min: 5.0,
                    max: 95.0,
                },
                scale: Linear,
                default: 37.0,
                dba_default: 37.0,
                description: "Fraction of the LRU list reserved for old blocks (scan resistance)",
            },
            KnobDef {
                name: "innodb_random_read_ahead",
                kind: Bool,
                scale: Linear,
                default: 0.0,
                dba_default: 0.0,
                description: "Random read-ahead; can pollute the buffer pool",
            },
            KnobDef {
                name: "innodb_read_ahead_threshold",
                kind: Integer {
                    min: 0.0,
                    max: 64.0,
                },
                scale: Linear,
                default: 56.0,
                dba_default: 56.0,
                description: "Sequential read-ahead trigger threshold",
            },
            KnobDef {
                name: "innodb_concurrency_tickets",
                kind: Integer {
                    min: 1.0,
                    max: 100000.0,
                },
                scale: Log,
                default: 5000.0,
                dba_default: 5000.0,
                description: "Rows a thread may traverse before re-entering the concurrency gate",
            },
            KnobDef {
                name: "sync_binlog",
                kind: Integer {
                    min: 0.0,
                    max: 1000.0,
                },
                scale: Log,
                default: 1.0,
                dba_default: 1.0,
                description: "Binlog fsync cadence; 1 = every commit",
            },
            KnobDef {
                name: "binlog_cache_size",
                kind: Integer {
                    min: 4.0 * KIB,
                    max: 64.0 * MIB,
                },
                scale: Log,
                default: 32.0 * KIB,
                dba_default: 1.0 * MIB,
                description: "Per-connection binlog staging buffer",
            },
            KnobDef {
                name: "sort_buffer_size",
                kind: Integer {
                    min: 32.0 * KIB,
                    max: 256.0 * MIB,
                },
                scale: Log,
                default: 256.0 * KIB,
                dba_default: 2.0 * MIB,
                description: "Per-connection sort area; small values spill sorts to disk",
            },
            KnobDef {
                name: "join_buffer_size",
                kind: Integer {
                    min: 128.0 * KIB,
                    max: 256.0 * MIB,
                },
                scale: Log,
                default: 256.0 * KIB,
                dba_default: 2.0 * MIB,
                description: "Per-connection buffer for index-less joins",
            },
            KnobDef {
                name: "read_buffer_size",
                kind: Integer {
                    min: 8.0 * KIB,
                    max: 64.0 * MIB,
                },
                scale: Log,
                default: 128.0 * KIB,
                dba_default: 1.0 * MIB,
                description: "Per-connection sequential scan buffer",
            },
            KnobDef {
                name: "read_rnd_buffer_size",
                kind: Integer {
                    min: 8.0 * KIB,
                    max: 64.0 * MIB,
                },
                scale: Log,
                default: 256.0 * KIB,
                dba_default: 1.0 * MIB,
                description: "Per-connection buffer for sorted reads",
            },
            KnobDef {
                name: "tmp_table_size",
                kind: Integer {
                    min: 1.0 * MIB,
                    max: 1.0 * GIB,
                },
                scale: Log,
                default: 16.0 * MIB,
                dba_default: 64.0 * MIB,
                description: "In-memory temp table limit before spilling to disk",
            },
            KnobDef {
                name: "max_heap_table_size",
                kind: Integer {
                    min: 1.0 * MIB,
                    max: 1.0 * GIB,
                },
                scale: Log,
                default: 16.0 * MIB,
                dba_default: 64.0 * MIB,
                description: "MEMORY engine table limit; min(tmp_table_size, this) governs spills",
            },
            KnobDef {
                name: "table_open_cache",
                kind: Integer {
                    min: 400.0,
                    max: 10000.0,
                },
                scale: Log,
                default: 2000.0,
                dba_default: 4000.0,
                description: "Cached table descriptors",
            },
            KnobDef {
                name: "table_open_cache_instances",
                kind: Integer {
                    min: 1.0,
                    max: 64.0,
                },
                scale: Linear,
                default: 16.0,
                dba_default: 16.0,
                description: "Partitions of the table cache (mutex contention)",
            },
            KnobDef {
                name: "thread_cache_size",
                kind: Integer {
                    min: 0.0,
                    max: 1000.0,
                },
                scale: Log,
                default: 9.0,
                dba_default: 100.0,
                description: "Cached connection handler threads",
            },
            KnobDef {
                name: "max_connections",
                kind: Integer {
                    min: 100.0,
                    max: 10000.0,
                },
                scale: Log,
                default: 151.0,
                dba_default: 2000.0,
                description: "Connection limit; combined with per-connection buffers bounds memory",
            },
            KnobDef {
                name: "query_cache_size",
                kind: Integer {
                    min: 0.0,
                    max: 256.0 * MIB,
                },
                scale: Log,
                default: 1.0 * MIB,
                dba_default: 0.0,
                description: "Query result cache (5.7); contended under writes",
            },
            KnobDef {
                name: "query_cache_type",
                kind: Enum {
                    choices: vec!["OFF", "ON", "DEMAND"],
                },
                scale: Linear,
                default: 0.0,
                dba_default: 0.0,
                description: "Whether the query cache is consulted",
            },
            KnobDef {
                name: "key_buffer_size",
                kind: Integer {
                    min: 8.0 * MIB,
                    max: 1.0 * GIB,
                },
                scale: Log,
                default: 8.0 * MIB,
                dba_default: 32.0 * MIB,
                description: "MyISAM index cache (small role for InnoDB workloads)",
            },
            KnobDef {
                name: "bulk_insert_buffer_size",
                kind: Integer {
                    min: 0.0,
                    max: 256.0 * MIB,
                },
                scale: Log,
                default: 8.0 * MIB,
                dba_default: 8.0 * MIB,
                description: "Tree cache for bulk MyISAM inserts",
            },
        ];
        KnobCatalogue { knobs }
    }

    /// Number of knobs in the catalogue.
    pub fn len(&self) -> usize {
        self.knobs.len()
    }

    /// Whether the catalogue is empty (never true for the built-in catalogue).
    pub fn is_empty(&self) -> bool {
        self.knobs.is_empty()
    }

    /// All knob definitions in vector order.
    pub fn knobs(&self) -> &[KnobDef] {
        &self.knobs
    }

    /// Knob definition by index.
    pub fn knob(&self, index: usize) -> &KnobDef {
        &self.knobs[index]
    }

    /// Finds the index of a knob by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.knobs.iter().position(|k| k.name == name)
    }

    /// A reduced catalogue containing only the named knobs (used by the YCSB case study,
    /// which tunes 5 knobs). Panics if a name is unknown.
    pub fn subset(&self, names: &[&str]) -> KnobCatalogue {
        let knobs = names
            .iter()
            .map(|n| {
                self.knobs
                    .iter()
                    .find(|k| k.name == *n)
                    .unwrap_or_else(|| panic!("unknown knob {n}"))
                    .clone()
            })
            .collect();
        KnobCatalogue { knobs }
    }

    /// The vendor-default configuration vector.
    pub fn default_values(&self) -> Vec<f64> {
        self.knobs.iter().map(|k| k.default).collect()
    }

    /// The DBA-default configuration vector.
    pub fn dba_default_values(&self) -> Vec<f64> {
        self.knobs.iter().map(|k| k.dba_default).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_forty_knobs_with_unique_names() {
        let cat = KnobCatalogue::mysql57();
        assert_eq!(cat.len(), 40);
        let mut names: Vec<&str> = cat.knobs().iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 40, "duplicate knob names");
    }

    #[test]
    fn defaults_are_within_bounds() {
        for k in KnobCatalogue::mysql57().knobs() {
            assert!(k.default >= k.min() && k.default <= k.max(), "{}", k.name);
            assert!(
                k.dba_default >= k.min() && k.dba_default <= k.max(),
                "{}",
                k.name
            );
        }
    }

    #[test]
    fn normalize_denormalize_roundtrip_at_bounds_and_defaults() {
        for k in KnobCatalogue::mysql57().knobs() {
            for v in [k.min(), k.max(), k.default, k.dba_default] {
                let n = k.normalize(v);
                assert!((0.0..=1.0).contains(&n), "{} -> {n}", k.name);
                let back = k.denormalize(n);
                // Round-tripping must stay within 1% of the span (integer rounding allowed).
                let span = (k.max() - k.min()).max(1.0);
                assert!(
                    (back - v).abs() <= span * 0.01 + 1.0,
                    "{}: {v} -> {n} -> {back}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn log_scaled_knob_gives_resolution_to_small_values() {
        let cat = KnobCatalogue::mysql57();
        let bp = cat.knob(cat.index_of("innodb_buffer_pool_size").unwrap());
        // 1 GiB is far less than half-way linearly, but well above 0.4 on the log axis.
        let n = bp.normalize(1.0 * 1024.0 * 1024.0 * 1024.0);
        assert!(
            n > 0.35,
            "log normalization should spread the low decades, got {n}"
        );
    }

    #[test]
    fn sanitize_clamps_and_rounds() {
        let cat = KnobCatalogue::mysql57();
        let tc = cat.knob(cat.index_of("innodb_thread_concurrency").unwrap());
        assert_eq!(tc.sanitize(-5.0), 0.0);
        assert_eq!(tc.sanitize(3.7), 4.0);
        assert_eq!(tc.sanitize(1e9), 64.0);
        let dirty = cat.knob(cat.index_of("innodb_max_dirty_pages_pct").unwrap());
        assert!((dirty.sanitize(42.42) - 42.42).abs() < 1e-12); // float knob keeps fractions
    }

    #[test]
    fn subset_preserves_order_and_panics_on_unknown() {
        let cat = KnobCatalogue::mysql57();
        let sub = cat.subset(&["sort_buffer_size", "innodb_buffer_pool_size"]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.knob(0).name, "sort_buffer_size");
        assert_eq!(sub.knob(1).name, "innodb_buffer_pool_size");
        let result = std::panic::catch_unwind(|| cat.subset(&["no_such_knob"]));
        assert!(result.is_err());
    }

    #[test]
    fn index_of_finds_every_knob() {
        let cat = KnobCatalogue::mysql57();
        for (i, k) in cat.knobs().iter().enumerate() {
            assert_eq!(cat.index_of(k.name), Some(i));
        }
        assert_eq!(cat.index_of("bogus"), None);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_denormalize_always_legal(u in 0.0f64..1.0, idx in 0usize..40) {
                let cat = KnobCatalogue::mysql57();
                let k = cat.knob(idx);
                let v = k.denormalize(u);
                prop_assert!(v >= k.min() - 1e-9 && v <= k.max() + 1e-9, "{}: {} out of range", k.name, v);
            }

            #[test]
            fn prop_normalize_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0, idx in 0usize..40) {
                let cat = KnobCatalogue::mysql57();
                let k = cat.knob(idx);
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                let va = k.min() + lo * (k.max() - k.min());
                let vb = k.min() + hi * (k.max() - k.min());
                prop_assert!(k.normalize(va) <= k.normalize(vb) + 1e-9);
            }
        }
    }
}
