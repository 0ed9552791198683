//! The handle every instrumented layer holds.
//!
//! A [`TelemetryHandle`] is either **disabled** (`None` inside — every operation is one
//! branch and returns immediately, no clock read, no allocation) or **enabled** (an
//! `Arc` to a [`TelemetryCore`] holding the metrics registry, the event journal and the
//! clock). Handles are cheap to clone and `Send + Sync`, so a fleet can thread one
//! handle through sessions that migrate across worker threads.
//!
//! # The no-feedback contract
//!
//! Nothing read from a handle may flow back into tuning decisions: instrumentation
//! draws no RNG values, produces no floats the tuner consumes, and none of the
//! instrumented crates serialize telemetry state. Snapshots therefore stay bit-identical
//! with telemetry on, off, or reconfigured mid-run — property-tested in
//! `tests/fleet_service.rs` and gated in CI by `telemetry_overhead --smoke`.

use crate::clock::{Clock, MonotonicClock};
use crate::journal::{Event, EventJournal, EventKind};
use crate::metrics::{CounterId, GaugeId, Histogram, HistogramSnapshot, MetricsSnapshot, SpanId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Construction-time knobs of an enabled handle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Maximum events retained by each journal ring (fleet-level and per-tenant).
    pub journal_capacity: usize,
    /// SLO ceiling on the per-tenant unsafe rate; [`crate::TelemetryHandle`] only
    /// stores it — the fleet layer compares against it when building SLO reports.
    pub unsafe_rate_ceiling: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            journal_capacity: 1024,
            unsafe_rate_ceiling: 0.05,
        }
    }
}

/// The shared state behind an enabled handle.
pub struct TelemetryCore {
    clock: Arc<dyn Clock>,
    config: TelemetryConfig,
    counters: [AtomicU64; CounterId::COUNT],
    gauges: [AtomicU64; GaugeId::COUNT],
    histograms: [Histogram; SpanId::COUNT],
    journal: Mutex<EventJournal>,
}

impl TelemetryCore {
    fn new(clock: Arc<dyn Clock>, config: TelemetryConfig) -> Self {
        TelemetryCore {
            clock,
            config,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| Histogram::new()),
            journal: Mutex::new(EventJournal::new(config.journal_capacity)),
        }
    }
}

impl std::fmt::Debug for TelemetryCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryCore")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// A started span; closed (and recorded) by [`TelemetryHandle::end_span`]. Holds the
/// start timestamp when the handle was enabled, nothing otherwise.
#[must_use = "a span records nothing until passed to end_span"]
#[derive(Debug)]
pub struct ActiveSpan(Option<u64>);

/// A cheap, cloneable, thread-safe reference to a telemetry sink — or the no-op sink.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle(Option<Arc<TelemetryCore>>);

impl TelemetryHandle {
    /// The no-op sink: every operation is a single `None` branch.
    pub fn disabled() -> Self {
        TelemetryHandle(None)
    }

    /// An enabled handle with the default config and a wall [`MonotonicClock`].
    pub fn enabled() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()), TelemetryConfig::default())
    }

    /// An enabled handle with an explicit clock and config (tests install a
    /// [`crate::ManualClock`] here).
    pub fn with_clock(clock: Arc<dyn Clock>, config: TelemetryConfig) -> Self {
        TelemetryHandle(Some(Arc::new(TelemetryCore::new(clock, config))))
    }

    /// A fresh registry + journal sharing this handle's clock and config. Disabled
    /// handles produce disabled children. Fleet sessions each get a child so their
    /// journals can later be drained in deterministic tenant order.
    pub fn child(&self) -> TelemetryHandle {
        match &self.0 {
            Some(core) => TelemetryHandle(Some(Arc::new(TelemetryCore::new(
                Arc::clone(&core.clock),
                core.config,
            )))),
            None => TelemetryHandle(None),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The config of an enabled handle.
    pub fn config(&self) -> Option<TelemetryConfig> {
        self.0.as_ref().map(|c| c.config)
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(core) = &self.0 {
            if n > 0 {
                core.counters[id as usize].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Sets a gauge to `v`.
    #[inline]
    pub fn set_gauge(&self, id: GaugeId, v: f64) {
        if let Some(core) = &self.0 {
            core.gauges[id as usize].store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Starts a span (reads the clock only when enabled).
    #[inline]
    pub fn begin_span(&self) -> ActiveSpan {
        ActiveSpan(self.0.as_ref().map(|core| core.clock.now_nanos()))
    }

    /// Ends a span, recording the elapsed nanoseconds into `id`'s histogram.
    #[inline]
    pub fn end_span(&self, id: SpanId, span: ActiveSpan) {
        if let (Some(core), Some(start)) = (&self.0, span.0) {
            let now = core.clock.now_nanos();
            core.histograms[id as usize].record(now.saturating_sub(start));
        }
    }

    /// The histogram snapshot of one span (empty when disabled).
    pub fn histogram(&self, id: SpanId) -> HistogramSnapshot {
        match &self.0 {
            Some(core) => core.histograms[id as usize].snapshot(),
            None => HistogramSnapshot::empty(),
        }
    }

    /// Appends a structured event to the journal. `subject` and `detail` are only
    /// copied when the handle is enabled; call sites formatting an expensive detail
    /// string should guard on [`TelemetryHandle::is_enabled`].
    pub fn event(&self, kind: EventKind, subject: &str, detail: &str) {
        if let Some(core) = &self.0 {
            let mut journal = core.journal.lock().unwrap();
            journal.push(Event {
                kind,
                subject: subject.to_string(),
                detail: detail.to_string(),
            });
        }
    }

    /// A copy of the retained journal events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        match &self.0 {
            Some(core) => core.journal.lock().unwrap().events().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Events dropped to journal overflow.
    pub fn events_dropped(&self) -> u64 {
        match &self.0 {
            Some(core) => core.journal.lock().unwrap().dropped(),
            None => 0,
        }
    }

    /// Moves this handle's counters, histograms and journal into `target`, leaving this
    /// handle's registry empty (gauges are copied, not cleared — they are last-value).
    /// No-op unless both handles are enabled. The fleet calls this per session, in
    /// tenant order, after the round barrier — making the merged journal order
    /// deterministic under any worker count.
    pub fn drain_into(&self, target: &TelemetryHandle) {
        let (Some(src), Some(dst)) = (&self.0, &target.0) else {
            return;
        };
        if Arc::ptr_eq(src, dst) {
            return;
        }
        for (s, d) in src.counters.iter().zip(dst.counters.iter()) {
            let moved = s.swap(0, Ordering::Relaxed);
            if moved > 0 {
                d.fetch_add(moved, Ordering::Relaxed);
            }
        }
        for (s, d) in src.gauges.iter().zip(dst.gauges.iter()) {
            let bits = s.load(Ordering::Relaxed);
            if f64::from_bits(bits) != 0.0 {
                d.store(bits, Ordering::Relaxed);
            }
        }
        for (s, d) in src.histograms.iter().zip(dst.histograms.iter()) {
            s.drain_into(d);
        }
        let mut src_journal = src.journal.lock().unwrap();
        let mut dst_journal = dst.journal.lock().unwrap();
        src_journal.drain_into(&mut dst_journal);
    }

    /// A point-in-time copy of every counter, gauge and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.0 {
            Some(core) => {
                let mut counters = [0u64; CounterId::COUNT];
                for (slot, c) in counters.iter_mut().zip(core.counters.iter()) {
                    *slot = c.load(Ordering::Relaxed);
                }
                let mut gauges = [0f64; GaugeId::COUNT];
                for (slot, g) in gauges.iter_mut().zip(core.gauges.iter()) {
                    *slot = f64::from_bits(g.load(Ordering::Relaxed));
                }
                let histograms = std::array::from_fn(|i| core.histograms[i].snapshot());
                MetricsSnapshot::from_parts(counters, gauges, histograms)
            }
            None => MetricsSnapshot::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = TelemetryHandle::disabled();
        t.incr(CounterId::Iterations);
        t.set_gauge(GaugeId::Tenants, 4.0);
        let span = t.begin_span();
        t.end_span(SpanId::Iteration, span);
        t.event(EventKind::Admission, "a", "");
        assert!(!t.is_enabled());
        assert_eq!(t.snapshot().counter(CounterId::Iterations), 0);
        assert_eq!(t.snapshot(), MetricsSnapshot::empty());
        assert!(t.events().is_empty());
    }

    #[test]
    fn spans_measure_exactly_under_a_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let t = TelemetryHandle::with_clock(clock.clone(), TelemetryConfig::default());
        let span = t.begin_span();
        clock.advance(2_500_000); // 2.5 ms
        t.end_span(SpanId::Iteration, span);
        let h = t.histogram(SpanId::Iteration);
        assert_eq!(h.count, 1);
        assert_eq!(h.sum_nanos, 2_500_000);
        assert_eq!(h.min_nanos, 2_500_000);
    }

    #[test]
    fn child_shares_the_clock_but_not_the_registry() {
        let clock = Arc::new(ManualClock::new());
        let parent = TelemetryHandle::with_clock(clock.clone(), TelemetryConfig::default());
        let child = parent.child();
        child.incr(CounterId::Iterations);
        assert_eq!(parent.snapshot().counter(CounterId::Iterations), 0);
        assert_eq!(child.snapshot().counter(CounterId::Iterations), 1);
        clock.advance(1_000);
        let span = child.begin_span();
        t_end(&child, span);
        assert_eq!(child.histogram(SpanId::Suggest).count, 1);
    }

    fn t_end(t: &TelemetryHandle, span: ActiveSpan) {
        t.end_span(SpanId::Suggest, span);
    }

    #[test]
    fn drain_moves_counters_events_and_histograms() {
        let parent = TelemetryHandle::enabled();
        let child = parent.child();
        child.add(CounterId::Iterations, 3);
        let span = child.begin_span();
        child.end_span(SpanId::Iteration, span);
        child.event(EventKind::Recluster, "t1", "models 1 -> 2");
        child.drain_into(&parent);
        assert_eq!(child.snapshot().counter(CounterId::Iterations), 0);
        assert_eq!(parent.snapshot().counter(CounterId::Iterations), 3);
        assert_eq!(parent.histogram(SpanId::Iteration).count, 1);
        let events = parent.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Recluster);
        assert!(child.events().is_empty());
    }

    #[test]
    fn drain_between_disabled_handles_is_a_no_op() {
        let enabled = TelemetryHandle::enabled();
        enabled.incr(CounterId::Iterations);
        enabled.drain_into(&TelemetryHandle::disabled());
        assert_eq!(enabled.snapshot().counter(CounterId::Iterations), 1);
        TelemetryHandle::disabled().drain_into(&enabled);
        assert_eq!(enabled.snapshot().counter(CounterId::Iterations), 1);
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TelemetryHandle>();
    }
}
