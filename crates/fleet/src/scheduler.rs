//! Session scheduling: round-robin fairness plus regret-driven priority.
//!
//! Each service round, every active tenant receives `base_slots` iterations — the
//! round-robin component, which guarantees no tenant starves regardless of how the
//! priority signal behaves. On top of that, the tenants whose tuners currently show the
//! highest *recent regret* (they are losing the most against their default configuration,
//! i.e. tuning attention is worth the most there) receive `bonus_slots` extra iterations.
//! The execution order rotates by a cursor so that, over rounds, every tenant is first
//! equally often — with a parallel executor this mainly removes any systematic bias in
//! which tenants contribute to the knowledge base first within a round.

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct SchedulerOptions {
    /// Iterations every tenant receives per round (fairness floor; must be ≥ 1).
    pub base_slots: usize,
    /// Extra iterations granted to each prioritized tenant.
    pub bonus_slots: usize,
    /// Fraction of tenants prioritized per round (rounded up when non-zero).
    pub bonus_fraction: f64,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            base_slots: 1,
            bonus_slots: 2,
            bonus_fraction: 0.25,
        }
    }
}

/// How the scheduler should treat a tenant this round, derived from the session's
/// fault-handling state (see `tenant::SessionHealth`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthClass {
    /// Full participation: fairness floor plus regret bonus.
    #[default]
    Active,
    /// Sitting out a retry backoff: zero slots this round.
    Suspended,
    /// Quarantined with a probe due: exactly one slot, no bonus.
    Probe,
    /// Quarantined between probes: zero slots.
    Dormant,
}

/// Per-tenant signals the scheduler consumes.
#[derive(Debug, Clone, Copy)]
pub struct TenantStatus {
    /// Mean regret over the tenant's recent iterations.
    pub recent_regret: f64,
    /// Iterations the tenant has performed in total.
    pub iterations: usize,
    /// Fault-handling class for this round.
    pub health: HealthClass,
}

/// The slot assignment of one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    /// `slots[i]` = iterations tenant `i` runs this round (aligned with the status slice).
    pub slots: Vec<usize>,
    /// Execution order of tenant indices (rotated round-robin).
    pub order: Vec<usize>,
}

impl RoundPlan {
    /// Total iterations planned for the round.
    pub fn total_slots(&self) -> usize {
        self.slots.iter().sum()
    }

    /// Publishes the plan's shape to a telemetry sink (tenant count and granted slots as
    /// gauges). Observability only: never feeds back into scheduling.
    pub fn publish(&self, telemetry: &telemetry::TelemetryHandle) {
        telemetry.set_gauge(telemetry::GaugeId::Tenants, self.slots.len() as f64);
        telemetry.set_gauge(telemetry::GaugeId::GrantedSlots, self.total_slots() as f64);
    }
}

/// The fleet's session scheduler.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SessionScheduler {
    options: SchedulerOptions,
    /// Round-robin rotation cursor.
    cursor: usize,
    /// Total slots ever granted per tenant (grows with the tenant list).
    granted: Vec<usize>,
}

impl SessionScheduler {
    /// Creates a scheduler.
    pub fn new(options: SchedulerOptions) -> Self {
        assert!(
            options.base_slots >= 1,
            "base_slots must be >= 1 (fairness floor)"
        );
        SessionScheduler {
            options,
            cursor: 0,
            granted: Vec::new(),
        }
    }

    /// Total slots granted to each tenant so far (index-aligned with the tenant list).
    pub fn granted(&self) -> &[usize] {
        &self.granted
    }

    /// Removes the tenant at `index` (a churn event), keeping the grant totals aligned
    /// with the shrunken tenant list. The rotation cursor is shifted so the tenants that
    /// would have led the next round still do — the adjustment is a pure function of the
    /// scheduler state, so churn stays deterministic.
    pub fn remove(&mut self, index: usize) {
        if index < self.granted.len() {
            self.granted.remove(index);
        }
        if self.cursor > index {
            self.cursor -= 1;
        }
        let n = self.granted.len();
        if n == 0 {
            self.cursor = 0;
        } else {
            self.cursor %= n;
        }
    }

    /// Plans the next round for the given tenant statuses.
    ///
    /// Deterministic: ties in the priority ranking break by tenant index.
    pub fn plan_round(&mut self, statuses: &[TenantStatus]) -> RoundPlan {
        let n = statuses.len();
        self.granted.resize(n.max(self.granted.len()), 0);
        if n == 0 {
            return RoundPlan {
                slots: Vec::new(),
                order: Vec::new(),
            };
        }

        // Fairness floor for active tenants; suspended/dormant tenants sit out the
        // round entirely and a due probe gets exactly one slot. The floor (and the
        // bonus below) deliberately ignores unhealthy tenants: deprioritizing a
        // quarantined session must never shrink what its healthy peers receive.
        let mut slots: Vec<usize> = statuses
            .iter()
            .map(|st| match st.health {
                HealthClass::Active => self.options.base_slots,
                HealthClass::Probe => 1,
                HealthClass::Suspended | HealthClass::Dormant => 0,
            })
            .collect();

        // Priority: the top share of *active* tenants by recent regret get bonus slots.
        let active: Vec<usize> = (0..n)
            .filter(|&i| statuses[i].health == HealthClass::Active)
            .collect();
        if self.options.bonus_slots > 0 && self.options.bonus_fraction > 0.0 && !active.is_empty() {
            let k = ((active.len() as f64 * self.options.bonus_fraction).ceil() as usize)
                .clamp(1, active.len());
            let mut ranked = active;
            ranked.sort_by(|&a, &b| {
                statuses[b]
                    .recent_regret
                    .partial_cmp(&statuses[a].recent_regret)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for &idx in ranked.iter().take(k) {
                // Only boost tenants that actually show regret; a fleet at its optimum
                // falls back to pure round-robin.
                if statuses[idx].recent_regret > 0.0 || statuses[idx].iterations == 0 {
                    slots[idx] += self.options.bonus_slots;
                }
            }
        }

        // Rotated execution order.
        let start = self.cursor % n;
        let order: Vec<usize> = (0..n).map(|i| (start + i) % n).collect();
        self.cursor = (self.cursor + 1) % n.max(1);

        for (g, s) in self.granted.iter_mut().zip(slots.iter()) {
            *g += *s;
        }
        RoundPlan { slots, order }
    }
}

impl Default for SessionScheduler {
    fn default() -> Self {
        SessionScheduler::new(SchedulerOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(r: f64) -> TenantStatus {
        TenantStatus {
            recent_regret: r,
            iterations: 10,
            health: HealthClass::Active,
        }
    }

    fn unhealthy(r: f64, health: HealthClass) -> TenantStatus {
        TenantStatus {
            recent_regret: r,
            iterations: 10,
            health,
        }
    }

    #[test]
    fn every_tenant_gets_the_fairness_floor() {
        let mut s = SessionScheduler::default();
        let statuses = vec![status(0.0), status(100.0), status(5.0), status(0.0)];
        for _ in 0..10 {
            let plan = s.plan_round(&statuses);
            assert!(plan.slots.iter().all(|&sl| sl >= 1), "{:?}", plan.slots);
        }
    }

    #[test]
    fn high_regret_tenants_get_bonus_slots() {
        let mut s = SessionScheduler::new(SchedulerOptions {
            base_slots: 1,
            bonus_slots: 3,
            bonus_fraction: 0.25,
        });
        let statuses = vec![status(0.1), status(50.0), status(0.2), status(0.3)];
        let plan = s.plan_round(&statuses);
        assert_eq!(plan.slots[1], 4, "highest-regret tenant is boosted");
        assert!(plan
            .slots
            .iter()
            .enumerate()
            .all(|(i, &sl)| i == 1 || sl == 1));
    }

    #[test]
    fn zero_regret_fleet_degenerates_to_round_robin() {
        let mut s = SessionScheduler::default();
        let statuses = vec![status(0.0); 5];
        let plan = s.plan_round(&statuses);
        assert!(plan.slots.iter().all(|&sl| sl == 1), "{:?}", plan.slots);
    }

    #[test]
    fn order_rotates_across_rounds() {
        let mut s = SessionScheduler::default();
        let statuses = vec![status(0.0); 3];
        let p1 = s.plan_round(&statuses);
        let p2 = s.plan_round(&statuses);
        assert_eq!(p1.order, vec![0, 1, 2]);
        assert_eq!(p2.order, vec![1, 2, 0]);
    }

    #[test]
    fn granted_totals_track_assignments() {
        let mut s = SessionScheduler::default();
        let statuses = vec![status(10.0), status(0.0)];
        let mut expected = [0usize; 2];
        for _ in 0..4 {
            let plan = s.plan_round(&statuses);
            for (e, sl) in expected.iter_mut().zip(plan.slots.iter()) {
                *e += sl;
            }
        }
        assert_eq!(s.granted(), &expected);
    }

    #[test]
    fn remove_keeps_grant_totals_aligned_and_cursor_in_range() {
        let mut s = SessionScheduler::default();
        let statuses = vec![status(1.0), status(2.0), status(3.0)];
        s.plan_round(&statuses);
        s.plan_round(&statuses); // cursor now 2
        let before = s.granted().to_vec();
        s.remove(0);
        assert_eq!(s.granted(), &before[1..]);
        // Cursor pointed at index 2; after removing index 0 it must track the same
        // tenant, now at index 1.
        let plan = s.plan_round(&statuses[1..]);
        assert_eq!(plan.order[0], 1);
        // Removing the remaining tenants never leaves the cursor out of range.
        s.remove(1);
        s.remove(0);
        assert_eq!(s.granted().len(), 0);
        let plan = s.plan_round(&[]);
        assert_eq!(plan.total_slots(), 0);
    }

    #[test]
    fn suspended_and_dormant_tenants_get_zero_slots_and_probes_exactly_one() {
        let mut s = SessionScheduler::new(SchedulerOptions {
            base_slots: 2,
            bonus_slots: 3,
            bonus_fraction: 1.0,
        });
        let statuses = vec![
            unhealthy(100.0, HealthClass::Suspended),
            unhealthy(100.0, HealthClass::Dormant),
            unhealthy(100.0, HealthClass::Probe),
            status(0.5),
        ];
        let plan = s.plan_round(&statuses);
        assert_eq!(plan.slots[0], 0, "suspended sits out");
        assert_eq!(plan.slots[1], 0, "dormant sits out");
        assert_eq!(
            plan.slots[2], 1,
            "a due probe gets exactly one slot, no bonus"
        );
        assert!(plan.slots[3] >= 2, "active tenants keep the full floor");
    }

    #[test]
    fn bonus_ranking_ignores_unhealthy_tenants() {
        // The highest-regret tenant is quarantined; the bonus must flow to the best
        // *active* tenant instead of being burned on an unschedulable one.
        let mut s = SessionScheduler::new(SchedulerOptions {
            base_slots: 1,
            bonus_slots: 3,
            bonus_fraction: 0.25,
        });
        let statuses = vec![
            unhealthy(500.0, HealthClass::Dormant),
            status(1.0),
            status(50.0),
            status(2.0),
        ];
        let plan = s.plan_round(&statuses);
        assert_eq!(plan.slots[0], 0);
        assert_eq!(plan.slots[2], 4, "bonus goes to the best active tenant");
    }

    #[test]
    fn empty_fleet_plans_nothing() {
        let mut s = SessionScheduler::default();
        let plan = s.plan_round(&[]);
        assert_eq!(plan.total_slots(), 0);
    }
}
