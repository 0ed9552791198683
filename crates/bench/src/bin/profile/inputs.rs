//! The seeded inputs of the three workloads: tenant specs, the drift/churn scenario
//! and the serving traffic.
//!
//! They are generated here, not by `fleet::fuzz`, so that a change to the fuzzer cannot
//! move the benchmark's workload. Every seed gives the same shape (tenant count, rounds,
//! event and request counts); only the draws differ, so a claim can be re-checked on a
//! seed that was not used while the claim was written.

use fleet::scenario::{Scenario, ScenarioEvent};
use fleet::serve::{Request, TrafficScript};
use fleet::tenant::{TenantSpec, WorkloadDrift, WorkloadFamily};
use simdb::HardwareSpec;

/// The benchmark's workloads. Names are stable: later changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop: 4 tenants (ycsb, tpcc, twitter, job), measurement noise on, no
    /// events, `FleetService` only.
    SteadyMixed,
    /// Closed loop: 16 tenants, one drift every 5 rounds, two tenants replaced every
    /// 10 rounds.
    DriftChurn,
    /// `FleetServer` with the default serving options: 6 tenants, a round-counted open
    /// loop of requests with two storms, and four crash/recover kill points.
    ServeDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SteadyMixed,
        Workload::DriftChurn,
        Workload::ServeDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyMixed => "steady_mixed",
            Workload::DriftChurn => "drift_churn",
            Workload::ServeDurable => "serve_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds of one full pass. `--smoke` runs a tenth of them.
    pub fn rounds(self) -> usize {
        match self {
            Workload::SteadyMixed => 250,
            Workload::DriftChurn => 120,
            Workload::ServeDurable => 80,
        }
    }

    /// Wall seconds of one pass, checks included, on the reference machine (2 cores)
    /// at its usual speed. A run makes about `--seconds / pass_seconds` passes, one per
    /// seed (two with `--trace`), so it takes about `--seconds`.
    pub fn pass_seconds(self) -> f64 {
        match self {
            Workload::SteadyMixed => 3.9,
            Workload::DriftChurn => 3.9,
            Workload::ServeDurable => 4.4,
        }
    }
}

/// A run's `j`-th seed: `seed` itself first, then fresh draws, so a run averages over
/// several draws of the workload.
pub fn pass_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        seed
    } else {
        SplitMix::new(seed ^ (j as u64).rotate_left(32)).next_u64()
    }
}

/// SplitMix64, owned by the benchmark so that the workload draws cannot move when a
/// shared random-number implementation changes.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// Everything one pass of a workload consumes.
pub struct Inputs {
    /// Tenants admitted during set-up, in admission order.
    pub tenants: Vec<TenantSpec>,
    /// Environment events (empty except for `drift_churn`).
    pub scenario: Scenario,
    /// Serving requests (empty except for `serve_durable`).
    pub traffic: TrafficScript,
    /// Rounds at whose start the server is crashed and recovered (`serve_durable`).
    pub kill_rounds: Vec<usize>,
}

/// The steady fleet's tenant families (one tenant each).
const STEADY_FAMILIES: [WorkloadFamily; 4] = [
    WorkloadFamily::Ycsb,
    WorkloadFamily::Tpcc,
    WorkloadFamily::Twitter,
    WorkloadFamily::Job,
];

const DRIFT_TENANTS: usize = 16;
const SERVE_TENANTS: usize = 6;

fn tenant(index: usize, family: WorkloadFamily, rng: &mut SplitMix) -> TenantSpec {
    TenantSpec::named(format!("t{index:03}"), family, rng.next_u64())
}

/// Generates the inputs of `workload` for `seed` at `rounds` rounds.
pub fn generate(workload: Workload, seed: u64, rounds: usize) -> Inputs {
    let mut rng = SplitMix::new(seed ^ 0x0B5E_55ED_F1EE_7000);
    let mut inputs = Inputs {
        tenants: Vec::new(),
        scenario: Scenario::new(workload.name()),
        traffic: TrafficScript::new(workload.name()),
        kill_rounds: Vec::new(),
    };
    match workload {
        Workload::SteadyMixed => {
            for (i, family) in STEADY_FAMILIES.into_iter().enumerate() {
                inputs.tenants.push(tenant(i, family, &mut rng));
            }
        }
        Workload::DriftChurn => {
            let families = WorkloadFamily::ALL;
            for i in 0..DRIFT_TENANTS {
                inputs
                    .tenants
                    .push(tenant(i, families[i % families.len()], &mut rng));
            }
            inputs.scenario = drift_churn_scenario(&mut rng, rounds);
        }
        Workload::ServeDurable => {
            for i in 0..SERVE_TENANTS {
                let family = WorkloadFamily::ALL[i % WorkloadFamily::ALL.len()];
                inputs.tenants.push(tenant(i, family, &mut rng));
            }
            let names: Vec<String> = inputs.tenants.iter().map(|t| t.name.clone()).collect();
            inputs.traffic = serve_traffic(&mut rng, &names, rounds);
            // Fixed fractions of the horizon; the second and fourth land inside the
            // storms, so recovery is checked with degraded tiers and a full queue.
            let mut kills: Vec<usize> = [
                3 * rounds / 25,
                6 * rounds / 25,
                rounds / 2,
                37 * rounds / 50,
            ]
            .into_iter()
            .map(|r| r.clamp(1, rounds.saturating_sub(1).max(1)))
            .collect();
            kills.dedup();
            inputs.kill_rounds = kills;
        }
    }
    inputs
}

/// One drift every 5 rounds, cycling through six kinds; every 10 rounds the two oldest
/// tenants leave and two new ones join, so tenants live about 80 rounds.
fn drift_churn_scenario(rng: &mut SplitMix, rounds: usize) -> Scenario {
    let families = WorkloadFamily::ALL;
    let mut scenario = Scenario::new("drift_churn");
    let mut live: std::collections::VecDeque<String> =
        (0..DRIFT_TENANTS).map(|i| format!("t{i:03}")).collect();
    let mut next = DRIFT_TENANTS;
    for round in 1..rounds {
        if round % 10 == 0 {
            for _ in 0..2 {
                let gone = live.pop_front().expect("the fleet never empties");
                scenario = scenario.at(round, ScenarioEvent::Remove { tenant: gone });
            }
            for _ in 0..2 {
                let spec = tenant(next, families[next % families.len()], rng);
                live.push_back(spec.name.clone());
                scenario = scenario.at(round, ScenarioEvent::Admit { spec });
                next += 1;
            }
        }
        if round % 5 == 0 {
            let target = live[rng.below(live.len())].clone();
            let event = match (round / 5 - 1) % 6 {
                0 => drift(
                    target,
                    WorkloadDrift::FamilySwitch {
                        at: rng.below(4),
                        to: families[rng.below(families.len())],
                    },
                ),
                1 => drift(
                    target,
                    WorkloadDrift::PeriodicFamilies {
                        period: 10 + rng.below(20),
                        other: families[rng.below(families.len())],
                    },
                ),
                2 => drift(
                    target,
                    WorkloadDrift::FlashCrowd {
                        at: rng.below(3),
                        peak: rng.range(1.5, 4.0),
                        half_life: 5 + rng.below(15),
                    },
                ),
                3 => drift(
                    target,
                    WorkloadDrift::Diurnal {
                        period: 20 + rng.below(40),
                        amplitude: rng.range(0.2, 0.6),
                        anchor: 0,
                    },
                ),
                4 => drift(
                    target,
                    WorkloadDrift::SkewGrowth {
                        start: 0,
                        over: 10 + rng.below(30),
                        to_skew: rng.range(0.5, 0.95),
                        data_factor: rng.range(1.2, 2.5),
                    },
                ),
                _ => ScenarioEvent::Resize {
                    tenant: target,
                    hardware: HardwareSpec::default().scaled([0.5, 2.0, 4.0][rng.below(3)]),
                },
            };
            scenario = scenario.at(round, event);
        }
    }
    scenario
}

fn drift(tenant: String, drift: WorkloadDrift) -> ScenarioEvent {
    ScenarioEvent::Drift { tenant, drift }
}

/// Round-counted open loop: 2 `Suggest` every round, plus a storm of 10 `Suggest` and
/// 10 `TelemetryRead` per round in two windows (from 20% and 70% of the horizon, 7.5%
/// of it long, at least 4 rounds) that overflows the default 16-slot queue.
fn serve_traffic(rng: &mut SplitMix, tenants: &[String], rounds: usize) -> TrafficScript {
    let storm_len = (rounds * 3 / 40).max(4);
    let storms = [rounds / 5, 7 * rounds / 10];
    let in_storm = |r: usize| storms.iter().any(|&s| r >= s && r < s + storm_len);
    let mut script = TrafficScript::new("serve_durable");
    let mut suggest = |script: TrafficScript, round: usize| {
        let tenant = tenants[rng.below(tenants.len())].clone();
        script.at(round, Request::Suggest { tenant })
    };
    for round in 0..rounds {
        for _ in 0..2 {
            script = suggest(script, round);
        }
        if in_storm(round) {
            for _ in 0..10 {
                script = script.at(round, Request::TelemetryRead);
                script = suggest(script, round);
            }
        }
    }
    script
}
