//! Deterministic, zero-dependency observability for the OnlineTune reproduction.
//!
//! The paper tunes *live* production databases; an operator of this reproduction needs
//! the same visibility — unsafe recommendations, GP refit fallbacks, jitter escalations,
//! re-clusterings, knowledge-base churn — without ever perturbing the repo's
//! bit-identical replay contract. This crate provides the three pieces:
//!
//! * a **metrics registry** ([`MetricsSnapshot`], [`CounterId`], [`GaugeId`],
//!   [`SpanId`]) of counters, gauges and fixed-bucket histograms whose quantiles are a
//!   pure function of integer bucket counts (no floating accumulation order
//!   dependence);
//! * **span timers** behind a pluggable [`Clock`] ([`MonotonicClock`] for wall time,
//!   [`ManualClock`] for deterministic timing tests);
//! * a bounded ring-buffer [`EventJournal`] of structured [`Event`]s.
//!
//! Everything hangs off a [`TelemetryHandle`]: cloneable, `Send + Sync`, and either
//! enabled (an `Arc` to the shared registry) or the **no-op sink** — a single `None`
//! branch per call, so instrumentation compiles to near-nothing when disabled.
//!
//! ```
//! use telemetry::{CounterId, EventKind, SpanId, TelemetryHandle};
//!
//! let t = TelemetryHandle::enabled();
//! t.incr(CounterId::Iterations);
//! let span = t.begin_span();
//! // ... do the work being measured ...
//! t.end_span(SpanId::Iteration, span);
//! t.event(EventKind::Recluster, "tenant-a", "models 1 -> 2");
//!
//! let snap = t.snapshot();
//! assert_eq!(snap.counter(CounterId::Iterations), 1);
//! assert_eq!(snap.histogram(SpanId::Iteration).count, 1);
//! assert!(snap.to_json().contains("\"iterations\":1"));
//! assert_eq!(t.events().len(), 1);
//! ```
//!
//! # Determinism and the no-feedback contract
//!
//! Instrumentation is read-only with respect to model state: it draws no RNG values and
//! produces nothing the tuner consumes, and no instrumented crate serializes telemetry
//! state — so `canonical_snapshot_json` bytes and replay are bit-identical with
//! telemetry on, off, or reconfigured mid-run (property-tested in the fleet crate, gated
//! in CI).
//! Within telemetry itself, histogram quantiles and merged fleet aggregates depend only
//! on integer counts, never on recording or merge order.

pub mod clock;
pub mod handle;
pub mod journal;
pub mod metrics;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use handle::{ActiveSpan, TelemetryConfig, TelemetryHandle};
pub use journal::{Event, EventJournal, EventKind};
pub use metrics::{
    CounterId, GaugeId, Histogram, HistogramSnapshot, MetricsSnapshot, SpanId, BUCKETS,
    BUCKET_BOUNDS_NANOS,
};
