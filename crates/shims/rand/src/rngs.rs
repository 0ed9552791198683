//! Concrete generators: [`StdRng`] (xoshiro256**) and [`mock::StepRng`].

use crate::{RngCore, SeedableRng};

/// Deterministic xoshiro256** generator standing in for `rand::rngs::StdRng`.
///
/// The 256-bit state is exposed through [`StdRng::state`] / [`StdRng::from_state`]
/// so tuning sessions can be snapshotted and resumed bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StdRng {
    /// The raw 256-bit state (for snapshots).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a snapshotted state.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be non-zero");
        StdRng { s }
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Snapshots carry the state as four `0x`-prefixed hex strings: a `u64` above 2^53 would
/// not survive a JSON number.
impl serde::Serialize for StdRng {
    fn serialize(&self, out: &mut serde::Serializer) {
        out.seq(&self.s.map(|w| format!("{w:#x}")));
    }
}

impl serde::Deserialize for StdRng {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let words: [String; 4] = serde::Deserialize::deserialize(de)?;
        let mut s = [0u64; 4];
        for (slot, text) in s.iter_mut().zip(&words) {
            *slot = u64::from_str_radix(text.trim_start_matches("0x"), 16)
                .map_err(|e| de.error(format_args!("StdRng: bad state word: {e}")))?;
        }
        if s == [0; 4] {
            return Err(de.error("StdRng: xoshiro state must be non-zero"));
        }
        Ok(StdRng::from_state(s))
    }
}

/// Mock generators mirroring `rand::rngs::mock`.
pub mod mock {
    use crate::RngCore;

    /// Arithmetic-sequence generator for tests (`rand::rngs::mock::StepRng`).
    #[derive(Debug, Clone)]
    pub struct StepRng {
        v: u64,
        step: u64,
    }

    impl StepRng {
        /// Starts at `initial`, increments by `step` per draw.
        pub fn new(initial: u64, step: u64) -> Self {
            StepRng { v: initial, step }
        }
    }

    impl RngCore for StepRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.v;
            self.v = self.v.wrapping_add(self.step);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn state_roundtrip_resumes_identically() {
        let mut a = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            a.next_u64();
        }
        let mut b = StdRng::from_state(a.state());
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn json_state_roundtrips_and_a_zero_state_is_an_error() {
        use serde::{Deserialize, Serialize};
        let read = |text: &str| StdRng::deserialize(&mut serde::Deserializer::new(text));
        let a = StdRng::seed_from_u64(7);
        let mut out = serde::Serializer::compact();
        a.serialize(&mut out);
        let text = out.into_string();
        assert!(text.starts_with("[\"0x"), "{text}");
        assert_eq!(read(&text).unwrap(), a);
        for bad in [
            r#"["0x0","0x0","0x0","0x0"]"#,
            r#"["0x1","0x2","0x3"]"#,
            r#"["0x1","0x2","0x3","0x4","0x5"]"#,
            r#"["0x1","0x2","0x3","zz"]"#,
        ] {
            assert!(read(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x: f64 = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&x));
            let n: usize = rng.gen_range(0..7);
            assert!(n < 7);
            let i: i64 = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn gen_bool_frequency_tracks_p() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }
}
