//! A bounded ring-buffer journal of structured events.
//!
//! The journal answers "what just happened to this fleet?" — admissions, drifts,
//! safety rejections, GP refit fallbacks, re-clusterings — without unbounded memory:
//! when the ring is full the oldest event is dropped and a drop counter increments, so
//! the journal's memory footprint is a constant chosen at construction.
//!
//! Ordering is deterministic by construction at the fleet level: each tenant session
//! journals into its own ring, and the fleet drains those rings in tenant order after
//! the round barrier (the same discipline the knowledge base uses for contribution
//! merging), so the merged stream does not depend on worker interleaving.

use std::collections::VecDeque;

/// What kind of thing happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A tenant joined the fleet.
    Admission,
    /// A tenant left the fleet.
    Removal,
    /// A tenant migrated to a new hardware class.
    Migration,
    /// A workload drift was applied.
    DriftApplied,
    /// An instance was resized in place.
    Resize,
    /// A data-volume scale event.
    DataScaled,
    /// The context clustering was re-learned.
    Recluster,
    /// Candidates were rejected by the safety assessment.
    SafetyRejection,
    /// The safety set was empty; the tuner re-applied the incumbent.
    SafetyFallback,
    /// An incremental observe fell back to a full refit.
    ObserveFallback,
    /// A factorization needed jitter escalation.
    JitterEscalation,
    /// A hyper-parameter re-optimization finished.
    HyperoptRestart,
    /// An admission warm-started from the knowledge base.
    WarmStartHit,
    /// An admission found no knowledge to warm-start from.
    WarmStartMiss,
    /// A knowledge pool evicted entries to stay within its budget.
    KbEviction,
    /// Observations were evicted by a model's observation budget.
    BudgetEviction,
    /// A fleet snapshot was serialized.
    SnapshotTaken,
    /// A fleet was restored from a snapshot.
    Restored,
    /// A measurement attempt failed, timed out or returned a corrupted score.
    MeasurementFault,
    /// A session scheduled a deterministic retry backoff after a faulted measurement.
    BackoffStarted,
    /// A session exhausted its retry budget and entered quarantine.
    TenantQuarantined,
    /// A quarantined session passed probation and was readmitted.
    TenantReadmitted,
    /// A fleet was recovered from a snapshot plus WAL replay after a simulated crash.
    WalRecovered,
    /// The serving front end shed a queued request under backpressure.
    RequestShed,
    /// Admission control rejected a tenant (budget or live-tenant ceiling).
    AdmissionDenied,
    /// A queued request's round deadline expired before dispatch.
    DeadlineMissed,
    /// A tenant's degradation tier changed (downgrade under pressure or recovery).
    TierChanged,
}

impl EventKind {
    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admission => "admission",
            EventKind::Removal => "removal",
            EventKind::Migration => "migration",
            EventKind::DriftApplied => "drift_applied",
            EventKind::Resize => "resize",
            EventKind::DataScaled => "data_scaled",
            EventKind::Recluster => "recluster",
            EventKind::SafetyRejection => "safety_rejection",
            EventKind::SafetyFallback => "safety_fallback",
            EventKind::ObserveFallback => "observe_fallback",
            EventKind::JitterEscalation => "jitter_escalation",
            EventKind::HyperoptRestart => "hyperopt_restart",
            EventKind::WarmStartHit => "warm_start_hit",
            EventKind::WarmStartMiss => "warm_start_miss",
            EventKind::KbEviction => "kb_eviction",
            EventKind::BudgetEviction => "budget_eviction",
            EventKind::SnapshotTaken => "snapshot_taken",
            EventKind::Restored => "restored",
            EventKind::MeasurementFault => "measurement_fault",
            EventKind::BackoffStarted => "backoff_started",
            EventKind::TenantQuarantined => "tenant_quarantined",
            EventKind::TenantReadmitted => "tenant_readmitted",
            EventKind::WalRecovered => "wal_recovered",
            EventKind::RequestShed => "request_shed",
            EventKind::AdmissionDenied => "admission_denied",
            EventKind::DeadlineMissed => "deadline_missed",
            EventKind::TierChanged => "tier_changed",
        }
    }
}

/// One structured journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Who it happened to (tenant name, model id, pool key — whatever identifies the
    /// subject; empty for fleet-global events).
    pub subject: String,
    /// Free-form details (counts, sizes, likelihoods).
    pub detail: String,
}

impl Event {
    fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"subject\":{},\"detail\":{}}}",
            self.kind.name(),
            json_string(&self.subject),
            json_string(&self.detail),
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A bounded FIFO of [`Event`]s; the oldest entry is dropped (and counted) on overflow.
#[derive(Debug)]
pub struct EventJournal {
    ring: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl EventJournal {
    /// A journal holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EventJournal {
            ring: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: Event) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    /// Events dropped to overflow since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Moves all retained events (and the drop count) into `target`, oldest first,
    /// leaving this journal empty.
    pub fn drain_into(&mut self, target: &mut EventJournal) {
        for event in self.ring.drain(..) {
            target.push(event);
        }
        target.dropped += self.dropped;
        self.dropped = 0;
    }

    /// Serializes the journal as a deterministic JSON array (plus the drop count).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"dropped\":");
        out.push_str(&self.dropped.to_string());
        out.push_str(",\"events\":[");
        for (i, event) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, subject: &str) -> Event {
        Event {
            kind,
            subject: subject.to_string(),
            detail: String::new(),
        }
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let mut j = EventJournal::new(2);
        j.push(ev(EventKind::Admission, "a"));
        j.push(ev(EventKind::Admission, "b"));
        j.push(ev(EventKind::Admission, "c"));
        assert_eq!(j.ring.len(), 2);
        assert_eq!(j.dropped(), 1);
        let subjects: Vec<&str> = j.events().map(|e| e.subject.as_str()).collect();
        assert_eq!(subjects, vec!["b", "c"]);
    }

    #[test]
    fn drain_preserves_order_and_drop_counts() {
        let mut a = EventJournal::new(8);
        a.push(ev(EventKind::Recluster, "t1"));
        a.push(ev(EventKind::SafetyFallback, "t1"));
        let mut b = EventJournal::new(8);
        b.push(ev(EventKind::Admission, "t0"));
        a.drain_into(&mut b);
        assert!(a.ring.is_empty());
        let kinds: Vec<EventKind> = b.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Admission,
                EventKind::Recluster,
                EventKind::SafetyFallback
            ]
        );
    }

    #[test]
    fn journal_json_escapes_and_lists_in_order() {
        let mut j = EventJournal::new(4);
        j.push(Event {
            kind: EventKind::DriftApplied,
            subject: "t\"1".into(),
            detail: "line1\nline2".into(),
        });
        let json = j.to_json();
        assert!(json.contains("\"kind\":\"drift_applied\""));
        assert!(json.contains("t\\\"1"));
        assert!(json.contains("line1\\nline2"));
        assert!(json.starts_with("{\"dropped\":0"));
    }
}
