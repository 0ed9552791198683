//! Property tests of tenant drift stacks: a `WorkloadDrift` stack on a `TenantSpec` must
//! build a pure generator (same iteration → same output, across independently built
//! generators), survive a serde round trip (the snapshot/restore contract rides on the
//! spec's drift list), and anchor shifting must commute — both algebraically on
//! [`WorkloadDrift`] values and observably on the stack's running family and on each
//! drift's load curve. A pinned table holds the bits every family produces under a fixed
//! set of stacks, so a rewrite of how drifts compose cannot move a workload.

use fleet::tenant::{TenantSpec, WorkloadDrift, WorkloadFamily};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::{QueryClass, WorkloadSpec};
use workloads::Objective;

/// Samples one drift of any of the six kinds from a seeded stream.
fn sample_drift(rng: &mut StdRng, allow_periodic: bool) -> WorkloadDrift {
    let kinds = if allow_periodic { 6 } else { 5 };
    match rng.gen_range(0..kinds) {
        0 => WorkloadDrift::RateRamp {
            start: rng.gen_range(0..8usize),
            over: rng.gen_range(0..6usize),
            from_scale: rng.gen_range(0.5..1.5),
            to_scale: rng.gen_range(0.5..2.5),
        },
        1 => WorkloadDrift::FamilySwitch {
            at: rng.gen_range(0..8usize),
            to: WorkloadFamily::ALL[rng.gen_range(0..WorkloadFamily::ALL.len())],
        },
        2 => WorkloadDrift::Diurnal {
            period: rng.gen_range(2..10usize),
            amplitude: rng.gen_range(0.05..0.9),
            anchor: rng.gen_range(0..6usize),
        },
        3 => WorkloadDrift::FlashCrowd {
            at: rng.gen_range(0..8usize),
            peak: rng.gen_range(1.2..4.0),
            half_life: rng.gen_range(1..5usize),
        },
        4 => WorkloadDrift::SkewGrowth {
            start: rng.gen_range(0..6usize),
            over: rng.gen_range(0..8usize),
            to_skew: rng.gen_range(0.0..1.0),
            data_factor: rng.gen_range(0.5..3.0),
        },
        _ => WorkloadDrift::PeriodicFamilies {
            period: rng.gen_range(2..6usize),
            other: WorkloadFamily::ALL[rng.gen_range(0..WorkloadFamily::ALL.len())],
        },
    }
}

/// The fixed drift stacks whose generators' bits are pinned: every kind alone, a switch
/// under and over a periodic alternation, two switches, load drifts before and after a
/// switch, and out-of-range parameters (each in a stack where its clamp shows: zero
/// periods and half-lives, amplitude 1.5, peak below 1, skew outside [0, 1], data
/// factors below 0.01, a ramp to zero load).
fn pinned_stacks() -> Vec<(&'static str, Vec<WorkloadDrift>)> {
    use WorkloadDrift::*;
    use WorkloadFamily::*;
    let ramp = RateRamp {
        start: 10,
        over: 20,
        from_scale: 1.0,
        to_scale: 2.0,
    };
    let diurnal = Diurnal {
        period: 24,
        amplitude: 0.5,
        anchor: 5,
    };
    let flash = FlashCrowd {
        at: 20,
        peak: 4.0,
        half_life: 8,
    };
    let skew = SkewGrowth {
        start: 10,
        over: 40,
        to_skew: 0.9,
        data_factor: 3.0,
    };
    let periodic = PeriodicFamilies {
        period: 20,
        other: Job,
    };
    vec![
        ("none", vec![]),
        ("ramp", vec![ramp.clone()]),
        ("switch", vec![FamilySwitch { at: 30, to: Job }]),
        (
            "periodic",
            vec![PeriodicFamilies {
                period: 15,
                other: Tpcc,
            }],
        ),
        ("diurnal", vec![diurnal.clone()]),
        ("flash", vec![flash.clone()]),
        ("skew", vec![skew.clone()]),
        (
            "switch under periodic",
            vec![
                FamilySwitch {
                    at: 25,
                    to: Twitter,
                },
                periodic.clone(),
            ],
        ),
        (
            "switch over periodic",
            vec![periodic, FamilySwitch { at: 50, to: Ycsb }],
        ),
        (
            "two switches",
            vec![
                FamilySwitch { at: 20, to: Cycle },
                ramp.clone(),
                FamilySwitch { at: 60, to: Tpcc },
            ],
        ),
        (
            "load around a switch",
            vec![
                diurnal,
                ramp,
                FamilySwitch {
                    at: 40,
                    to: RealWorld,
                },
                flash,
                skew,
            ],
        ),
        (
            "clamped load",
            vec![
                Diurnal {
                    period: 12,
                    amplitude: 1.5,
                    anchor: 3,
                },
                FlashCrowd {
                    at: 10,
                    peak: 0.5,
                    half_life: 4,
                },
                FlashCrowd {
                    at: 30,
                    peak: 3.0,
                    half_life: 0,
                },
            ],
        ),
        (
            "clamped data",
            vec![
                SkewGrowth {
                    start: 5,
                    over: 20,
                    to_skew: 1.7,
                    data_factor: 0.001,
                },
                SkewGrowth {
                    start: 30,
                    over: 10,
                    to_skew: -0.4,
                    data_factor: -2.0,
                },
            ],
        ),
        (
            "zero periods",
            vec![
                Diurnal {
                    period: 0,
                    amplitude: 0.5,
                    anchor: 0,
                },
                PeriodicFamilies {
                    period: 0,
                    other: Cycle,
                },
            ],
        ),
        (
            "zero ramp",
            vec![RateRamp {
                start: 3,
                over: 0,
                from_scale: 0.0,
                to_scale: 0.0,
            }],
        ),
    ]
}

/// Digests per stack of [`pinned_stacks`], one per base family in [`WorkloadFamily::ALL`]
/// order (tenant seed 41). They were recorded when every drift was its own wrapper
/// generator around the workload beneath it; applying a stack in one generator must
/// reproduce every bit.
#[rustfmt::skip]
const PINNED: &[(&str, [u64; 6])] = &[
    ("none", [0x3df14ee9da1c8fa1, 0x1cff4171d9a983dd, 0xfa7210e9b299ddf5, 0x222b6d5bc78ec428, 0xea07ab2da6ba102e, 0x5618b1a922e6ffb1]),
    ("ramp", [0xc9b978fc1ab191e9, 0x0a0ca498e835a415, 0xc67bc75f2fb6c9eb, 0xf6288e2da75e60a6, 0x023e42209b5a8b8a, 0x2c6f6d5a1e0a4f86]),
    ("switch", [0x90125cc0ee383500, 0x04ab0925fddf658c, 0xd8cdd433a0d97541, 0x6c47e40e1310aae5, 0x9f21f66761c11bfd, 0x589545f5e41def89]),
    ("periodic", [0x2338927173aaa2b1, 0x03428c9b8f1443d5, 0x6786233d1fe2e265, 0xaae3c984abed64b4, 0xba0bf507c5ca6003, 0xc986e376ab7a5b95]),
    ("diurnal", [0x82aec07e6457b304, 0xdeed62f407fd363b, 0x11c5a240426dab51, 0x68d61ac57a20d401, 0x9a3bfb320d259c88, 0x9375113ddef59425]),
    ("flash", [0xd0608770f48d45fa, 0x83eebe95fc5df954, 0x31e7a363ea1877e5, 0xc3e734310ac74d90, 0xe0ec982501fa2a47, 0x91df6f8cb10db883]),
    ("skew", [0x3c5516e38cc3bb10, 0x227748b263507d79, 0xd1ae983be7e79b15, 0x85aa0415c5920f08, 0x5e4a46fb69d2f55e, 0x0bb8f5cdb9dc4a47]),
    ("switch under periodic", [0x8c9fb604666e3e27, 0x546f94f3a9fda22e, 0x96a597af5efc17c9, 0x8f928284e54b86b4, 0xb190dcf1382fcd61, 0x9294afeb909c8722]),
    ("switch over periodic", [0xdd67334b44ab99ef, 0x523f65a1154dc2f5, 0x6f2573c8451b153f, 0xa111737a568945db, 0x9c3b6fc18ec15aba, 0x0fdab30c7f9eb28c]),
    ("two switches", [0x8a46f474ee90de6b, 0x1d7cb5f70ef299e6, 0x15d5aff279eac933, 0xc03e0bd3223852c4, 0xcd73bb1b3eeacf3d, 0x28fa36d4bd70ed8d]),
    ("load around a switch", [0xb753edecce6d3c5f, 0x8b99f02f64a82bb1, 0x538519582bdcfab0, 0x26b269edc75d707a, 0x41126ab8d1df65c6, 0xa9e99803772360cd]),
    ("clamped load", [0xfac6907266ca80a6, 0x38695b7fe5e85911, 0x8461af78ea5615b2, 0xc8e7be03e0a2aeb9, 0xdd4d831c3373a652, 0x333e199b9f4c6e5f]),
    ("clamped data", [0x79285c35f72157d4, 0xaa21d7b25ae5c78c, 0x4171c6bb1db77569, 0x2836038011a729e2, 0xac62deefd9b02993, 0x92bdeb92192dbe1f]),
    ("zero periods", [0x7d1da225170dca7e, 0xdf1a7e1c50106eb2, 0x7c32e06b445eb220, 0x200e647771071aac, 0x4a1a0611ba8075b5, 0x00e3c6c04426c2b8]),
    ("zero ramp", [0x10d56378307e326f, 0x784e289fde631c0d, 0x282de0fd73b239bb, 0x9e1edfa02f68bdcc, 0x6cdbaccf0de94356, 0x66d75ab90eac7e50]),
];

/// FNV-1a-64 of everything a tenant's generator produces over iterations `0..80`: every
/// `spec_at` field's bits, the `sample_queries` text and `objective_at`, then the
/// static `objective` and `initial_data_size_gib`.
fn generator_digest(spec: &TenantSpec) -> u64 {
    fn objective_byte(objective: Objective) -> u8 {
        match objective {
            Objective::Throughput => 0,
            Objective::P99Latency => 1,
            Objective::ExecutionTime => 2,
        }
    }
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for byte in bytes {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    let generator = spec.build_generator();
    for iteration in 0..80 {
        let s = generator.spec_at(iteration);
        eat(s.name.as_bytes());
        for class in QueryClass::ALL {
            eat(&s.mix.weight(class).to_bits().to_le_bytes());
        }
        match s.arrival_rate_qps {
            None => eat(&[0]),
            Some(qps) => {
                eat(&[1]);
                eat(&qps.to_bits().to_le_bytes());
            }
        }
        eat(&(s.clients as u64).to_le_bytes());
        for value in [
            s.data_size_gib,
            s.skew,
            s.avg_rows_per_read,
            s.avg_join_tables,
            s.avg_selectivity,
            s.index_coverage,
        ] {
            eat(&value.to_bits().to_le_bytes());
        }
        for query in generator.sample_queries(iteration, 3) {
            eat(query.as_bytes());
            eat(&[0xff]);
        }
        eat(&[objective_byte(generator.objective_at(iteration))]);
    }
    eat(&[objective_byte(generator.objective())]);
    eat(&generator.initial_data_size_gib().to_bits().to_le_bytes());
    hash
}

/// Every family under every pinned stack reproduces its recorded bits, so a rewrite of
/// how drifts compose cannot move a single workload the fleet runs.
#[test]
fn drifted_workloads_keep_their_recorded_bits() {
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for (name, stack) in pinned_stacks() {
        let digests = WorkloadFamily::ALL.map(|family| {
            let mut spec = TenantSpec::named("bits", family, 41);
            spec.drift = stack.clone();
            generator_digest(&spec)
        });
        let row = digests.map(|d| format!("{d:#018x}")).join(", ");
        table.push_str(&format!("    (\"{name}\", [{row}]),\n"));
        match PINNED.iter().find(|(pinned, _)| *pinned == name) {
            Some((_, pinned)) if *pinned == digests => {}
            _ => mismatches.push(name),
        }
    }
    assert!(
        mismatches.is_empty() && PINNED.len() == pinned_stacks().len(),
        "stacks {mismatches:?} moved; digests now:\n{table}"
    );
}

/// A tenant spec carrying a randomly composed drift stack.
fn spec_with_stack(seed: u64, depth: usize, allow_periodic: bool) -> TenantSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let family = WorkloadFamily::ALL[rng.gen_range(0..WorkloadFamily::ALL.len())];
    let mut spec = TenantSpec::named("p", family, seed);
    for _ in 0..depth {
        let drift = sample_drift(&mut rng, allow_periodic);
        spec.drift.push(drift);
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Purity: two independently built generators from the same composed spec agree on
    /// every observable at every iteration — a drifted workload is a pure function of
    /// the iteration index with no hidden mutable state.
    #[test]
    fn prop_composed_stacks_are_pure(seed in 0u64..10_000, depth in 0usize..5) {
        let spec = spec_with_stack(seed, depth, true);
        let a = spec.build_generator();
        let b = spec.build_generator();
        prop_assert_eq!(a.name(), b.name());
        prop_assert_eq!(
            a.initial_data_size_gib().to_bits(),
            b.initial_data_size_gib().to_bits()
        );
        // Deliberately out of order: a pure generator has no path dependence either.
        for iteration in [5usize, 0, 11, 3, 11, 0] {
            prop_assert_eq!(
                a.spec_at(iteration),
                b.spec_at(iteration),
                "spec_at({}) diverged",
                iteration
            );
            prop_assert_eq!(
                a.sample_queries(iteration, 4),
                b.sample_queries(iteration, 4),
                "sample_queries({}) diverged",
                iteration
            );
        }
    }

    /// Serde round trip: a spec's drift stack survives JSON — and the generator rebuilt
    /// from the deserialized spec reproduces the original spec stream exactly (this is
    /// what lets a snapshot-restored session continue bit-identically).
    #[test]
    fn prop_drift_stacks_round_trip_through_serde(seed in 0u64..10_000, depth in 1usize..5) {
        let spec = spec_with_stack(seed, depth, true);
        let json = serde_json::to_string(&spec).unwrap();
        let restored: TenantSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&restored, &spec);
        let original = spec.build_generator();
        let rebuilt = restored.build_generator();
        for iteration in 0..10 {
            prop_assert_eq!(original.spec_at(iteration), rebuilt.spec_at(iteration));
        }
    }

    /// Anchor shifting is additive: shifting twice equals shifting once by the sum, for
    /// every drift kind.
    #[test]
    fn prop_anchor_shift_is_additive(seed in 0u64..10_000, a in 0usize..50, b in 0usize..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        for allow_periodic in [true, false] {
            let drift = sample_drift(&mut rng, allow_periodic);
            prop_assert_eq!(
                drift.clone().anchored_at(a).anchored_at(b),
                drift.anchored_at(a + b)
            );
        }
    }

    /// Anchor shifting commutes with composition on the effective-family axis: shifting
    /// every drift in a (periodic-free) stack by `offset` translates `family_at` by
    /// exactly `offset`. `PeriodicFamilies` is excluded — it is anchored to iteration 0
    /// by design and unchanged by `anchored_at`.
    #[test]
    fn prop_shifted_stack_translates_family_at(
        seed in 0u64..10_000,
        depth in 1usize..5,
        offset in 0usize..30,
    ) {
        let spec = spec_with_stack(seed, depth, false);
        let mut shifted = spec.clone();
        shifted.drift = shifted
            .drift
            .into_iter()
            .map(|d| d.anchored_at(offset))
            .collect();
        for iteration in 0..20 {
            prop_assert_eq!(
                shifted.family_at(iteration + offset),
                spec.family_at(iteration),
                "family_at({} + {}) != family_at({})",
                iteration,
                offset,
                iteration
            );
        }
    }

    /// Anchor shifting commutes with composition on the load-curve axis: each anchored
    /// load or data drift, shifted by `offset` and applied at `iteration + offset`,
    /// reshapes a spec bit-identically to the unshifted drift at `iteration` (the curves
    /// are functions of the anchor-relative position only).
    #[test]
    fn prop_shifted_scale_curves_are_translations(seed in 0u64..10_000, offset in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let period = rng.gen_range(2..10usize);
        let amplitude = rng.gen_range(0.05..0.9);
        let anchor = rng.gen_range(0..6usize);
        let at = rng.gen_range(0..8usize);
        let peak = rng.gen_range(1.2..4.0);
        let half_life = rng.gen_range(1..5usize);
        let start = rng.gen_range(0..6usize);
        let over = rng.gen_range(0..8usize);
        let drifts = [
            WorkloadDrift::Diurnal { period, amplitude, anchor },
            WorkloadDrift::FlashCrowd { at, peak, half_life },
            WorkloadDrift::SkewGrowth { start, over, to_skew: 0.8, data_factor: 2.0 },
            WorkloadDrift::RateRamp { start, over, from_scale: 1.0, to_scale: 2.0 },
        ];
        // Every field a load or data drift moves, as bits.
        let reshaped = |drift: &WorkloadDrift, iteration: usize| {
            let mut spec = WorkloadSpec::synthetic_oltp();
            spec.arrival_rate_qps = Some(1000.0);
            drift.apply(iteration, &mut spec);
            (
                spec.clients,
                spec.arrival_rate_qps.map(f64::to_bits),
                spec.skew.to_bits(),
                spec.data_size_gib.to_bits(),
            )
        };
        for drift in drifts {
            let shifted = drift.clone().anchored_at(offset);
            for iteration in 0..25 {
                prop_assert_eq!(
                    reshaped(&shifted, iteration + offset),
                    reshaped(&drift, iteration),
                    "{:?} shifted by {}",
                    drift,
                    offset
                );
            }
        }
    }
}
