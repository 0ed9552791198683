//! Injectable measurement faults for the simulated database.
//!
//! Real cloud measurement pipelines fail in ways a clean simulator never shows: a
//! benchmark client crashes mid-interval, a metrics scrape times out, a collector
//! returns NaN or a wildly mis-scaled score. A [`FaultPlan`] scripts those failures
//! onto a [`crate::SimDatabase`]'s measurement stream deterministically, so the
//! layers above (retry, quarantine, crash recovery) can be tested under the same
//! bit-identical replay contract as everything else.
//!
//! Two scheduling modes compose:
//!
//! - **Scripted**: "the next `count` measurements starting at interval `i` fault with
//!   kind `k`" — exact, positional, used by scenario events and unit tests.
//! - **Seeded**: "for the next `intervals` measurements, fault with probability `rate`"
//!   — drawn from a dedicated [`StdRng`] owned by the plan (never the instance's noise
//!   RNG, so injecting faults does not perturb the noise stream of non-faulted
//!   intervals). The RNG state is serialized with the plan, keeping snapshot/replay
//!   bit-identical.
//!
//! The plan itself never mutates performance: it only *decides* whether an interval
//! faults. The instance applies the effect (see `SimDatabase::run_interval`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a measurement fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FaultKind {
    /// The measurement interval fails outright (benchmark client crash): the reported
    /// outcome is a failure with zero throughput.
    Failure,
    /// The measurement times out: no usable outcome is produced (reported as a failed
    /// interval, distinguishable from [`FaultKind::Failure`] by the fault marker).
    Timeout,
    /// The collector returns NaN throughput / latencies (a corrupted scrape). The
    /// database itself keeps running; only the report is garbage.
    CorruptNan,
    /// The collector returns a wildly mis-scaled (but finite) outcome. The database
    /// itself keeps running; only the report is garbage.
    CorruptScale,
}

impl FaultKind {
    /// All fault kinds, in a stable order (used by generators and benches).
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Failure,
        FaultKind::Timeout,
        FaultKind::CorruptNan,
        FaultKind::CorruptScale,
    ];

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Failure => "failure",
            FaultKind::Timeout => "timeout",
            FaultKind::CorruptNan => "corrupt_nan",
            FaultKind::CorruptScale => "corrupt_scale",
        }
    }

    /// Whether the fault destroys the interval itself (vs corrupting only the report).
    /// Destructive faults produce a failed outcome and no data growth; corrupting
    /// faults leave the true interval intact and garble only what is reported.
    pub fn destroys_interval(self) -> bool {
        matches!(self, FaultKind::Failure | FaultKind::Timeout)
    }
}

/// An exact, positional fault burst: `remaining` measurements fault with `kind`,
/// starting at measurement index `from_interval`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScriptedFault {
    /// Measurement index (the instance's `intervals_run`) at which the burst starts.
    pub from_interval: usize,
    /// How the affected measurements fail.
    pub kind: FaultKind,
    /// Measurements still to fault in this burst.
    pub remaining: usize,
}

/// A probabilistic fault window with its own serialized RNG.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SeededFaults {
    /// How affected measurements fail.
    pub kind: FaultKind,
    /// Per-measurement fault probability in `[0, 1]`.
    pub rate: f64,
    /// Measurements left in the window (each measurement consumes one, faulted or not).
    pub remaining_intervals: usize,
    /// Dedicated RNG — one draw per measurement inside the window.
    pub rng: StdRng,
}

/// The full fault schedule of one instance: scripted bursts plus an optional seeded
/// window. Serialized inside the instance snapshot, so restore + replay reproduces the
/// exact fault positions of the original run.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Pending scripted bursts, consulted in insertion order.
    pub scripted: Vec<ScriptedFault>,
    /// Optional probabilistic window, consulted only when no scripted burst matches.
    pub seeded: Option<SeededFaults>,
    /// Total faults this plan has injected so far.
    pub injected: usize,
}

impl FaultPlan {
    /// An empty plan that never faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `count` faults of `kind` starting at measurement index `from_interval`.
    pub fn schedule(&mut self, kind: FaultKind, from_interval: usize, count: usize) {
        if count == 0 {
            return;
        }
        self.scripted.push(ScriptedFault {
            from_interval,
            kind,
            remaining: count,
        });
    }

    /// Opens a seeded probabilistic window: for the next `intervals` measurements each
    /// faults with probability `rate`, decided by a dedicated RNG seeded with `seed`.
    /// Replaces any previously open window.
    pub fn schedule_seeded(&mut self, kind: FaultKind, rate: f64, intervals: usize, seed: u64) {
        if intervals == 0 {
            self.seeded = None;
            return;
        }
        self.seeded = Some(SeededFaults {
            kind,
            rate: rate.clamp(0.0, 1.0),
            remaining_intervals: intervals,
            rng: StdRng::seed_from_u64(seed),
        });
    }

    /// Decides whether the measurement at `interval_index` faults, consuming schedule
    /// state. Scripted bursts win over the seeded window; within the scripted list the
    /// first matching burst is consumed first (insertion order — deterministic).
    pub fn next_fault(&mut self, interval_index: usize) -> Option<FaultKind> {
        for i in 0..self.scripted.len() {
            let burst = &mut self.scripted[i];
            if burst.remaining > 0 && interval_index >= burst.from_interval {
                burst.remaining -= 1;
                let kind = burst.kind;
                if burst.remaining == 0 {
                    self.scripted.remove(i);
                }
                self.injected += 1;
                return Some(kind);
            }
        }
        if let Some(window) = &mut self.seeded {
            window.remaining_intervals -= 1;
            let draw: f64 = window.rng.gen_range(0.0..1.0);
            let kind = window.kind;
            let rate = window.rate;
            if window.remaining_intervals == 0 {
                self.seeded = None;
            }
            if draw < rate {
                self.injected += 1;
                return Some(kind);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let mut plan = FaultPlan::new();
        assert!(plan.scripted.is_empty() && plan.seeded.is_none());
        for i in 0..10 {
            assert_eq!(plan.next_fault(i), None);
        }
        assert_eq!(plan.injected, 0);
    }

    #[test]
    fn scripted_burst_fires_exactly_count_times_from_start_interval() {
        let mut plan = FaultPlan::new();
        plan.schedule(FaultKind::Failure, 3, 2);
        assert_eq!(plan.next_fault(0), None);
        assert_eq!(plan.next_fault(1), None);
        assert_eq!(plan.next_fault(2), None);
        assert_eq!(plan.next_fault(3), Some(FaultKind::Failure));
        assert_eq!(plan.next_fault(4), Some(FaultKind::Failure));
        assert_eq!(plan.next_fault(5), None);
        assert!(plan.scripted.is_empty() && plan.seeded.is_none());
        assert_eq!(plan.injected, 2);
    }

    #[test]
    fn seeded_window_is_deterministic_and_closes() {
        let mut a = FaultPlan::new();
        a.schedule_seeded(FaultKind::CorruptNan, 0.5, 20, 42);
        let mut b = FaultPlan::new();
        b.schedule_seeded(FaultKind::CorruptNan, 0.5, 20, 42);
        let draws_a: Vec<Option<FaultKind>> = (0..20).map(|i| a.next_fault(i)).collect();
        let draws_b: Vec<Option<FaultKind>> = (0..20).map(|i| b.next_fault(i)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(
            draws_a.iter().any(|f| f.is_some()),
            "rate 0.5 over 20 draws"
        );
        assert!(
            draws_a.iter().any(|f| f.is_none()),
            "rate 0.5 over 20 draws"
        );
        assert!(
            a.scripted.is_empty() && a.seeded.is_none(),
            "window must close after its intervals"
        );
        assert_eq!(a.next_fault(21), None);
    }

    #[test]
    fn scripted_wins_over_seeded_and_serde_round_trips() {
        let mut plan = FaultPlan::new();
        plan.schedule_seeded(FaultKind::CorruptScale, 1.0, 10, 7);
        plan.schedule(FaultKind::Timeout, 0, 1);
        assert_eq!(plan.next_fault(0), Some(FaultKind::Timeout));
        let json = serde_json::to_string(&plan).expect("serialize");
        let mut restored: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(restored, plan);
        // Both continue with the same seeded draws.
        for i in 1..10 {
            assert_eq!(plan.next_fault(i), restored.next_fault(i));
        }
    }
}
