//! Deterministic random-number plumbing.
//!
//! Every stochastic component of a simulation (workload sampling, LB
//! randomness, RED marking, ...) derives its own stream from one root seed
//! via `substream`, so adding a new consumer never perturbs the draws seen
//! by existing ones — a property the regression tests rely on.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The simulator-wide RNG type. `SmallRng` (xoshiro) is fast and has more
/// than enough quality for queueing workloads.
pub type SimRng = SmallRng;

/// SplitMix64 finalizer — used to decorrelate derived seeds.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent named substream from a root seed.
///
/// `label` identifies the consumer (e.g. `b"workload"`, `b"letflow"`); the
/// same (seed, label, index) always yields the same stream.
pub fn substream(root_seed: u64, label: &[u8], index: u64) -> SimRng {
    let mut h = splitmix64(root_seed);
    for &b in label {
        h = splitmix64(h ^ b as u64);
    }
    h = splitmix64(h ^ index);
    SimRng::seed_from_u64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn draw(rng: &mut SimRng) -> Vec<u64> {
        (0..8).map(|_| rng.gen()).collect()
    }

    #[test]
    fn substreams_are_reproducible() {
        let mut a = substream(42, b"workload", 0);
        let mut b = substream(42, b"workload", 0);
        assert_eq!(draw(&mut a), draw(&mut b));
    }

    #[test]
    fn substreams_differ_by_label_and_index() {
        let base = draw(&mut substream(42, b"workload", 0));
        assert_ne!(base, draw(&mut substream(42, b"workload", 1)));
        assert_ne!(base, draw(&mut substream(42, b"letflow", 0)));
        assert_ne!(base, draw(&mut substream(43, b"workload", 0)));
    }
}
