//! Poisson flow-arrival generation at a target offered load.
//!
//! Paper §4: "flows are generated between random pairs of end-hosts
//! according to Poisson processes. The traffic load is varying from 20% to
//! 70%" (of the network-core capacity). The flow arrival rate that realizes
//! a load `ρ` against a core capacity `C` bits/s with mean flow size `S̄`
//! bytes is `λ = ρ·C / (8·S̄)` flows per second.

use crate::cdf::SizeCdf;
use crate::curve::LoadCurve;
use crate::spec::FlowSpec;
use rand::Rng;
use rlb_engine::{SimDuration, SimTime};

/// Host-pair sampling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairPolicy {
    /// Any distinct (src, dst) host pair.
    AnyPair,
    /// Only pairs whose hosts sit under different leaves, so every flow
    /// crosses the core (the paper's load-balancing experiments measure the
    /// multi-path core, and intra-leaf traffic never touches it).
    InterLeaf { hosts_per_leaf: u32 },
}

/// Poisson traffic generator over a fixed host population.
#[derive(Debug, Clone)]
pub struct PoissonTraffic {
    pub cdf: SizeCdf,
    pub num_hosts: u32,
    pub pair_policy: PairPolicy,
    /// Mean flow inter-arrival time.
    pub mean_interarrival: SimDuration,
}

impl PoissonTraffic {
    /// Configure for an offered load `load` (fraction of `core_bits_per_sec`).
    pub fn with_load(
        cdf: SizeCdf,
        num_hosts: u32,
        pair_policy: PairPolicy,
        load: f64,
        core_bits_per_sec: f64,
    ) -> PoissonTraffic {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0,1]: {load}");
        assert!(num_hosts >= 2);
        let lambda = load * core_bits_per_sec / (8.0 * cdf.mean_bytes()); // flows/sec
        let mean_interarrival = SimDuration((1e12 / lambda).round().max(1.0) as u64);
        PoissonTraffic {
            cdf,
            num_hosts,
            pair_policy,
            mean_interarrival,
        }
    }

    fn sample_pair<R: Rng>(&self, rng: &mut R) -> (u32, u32) {
        loop {
            let src = rng.gen_range(0..self.num_hosts);
            let dst = rng.gen_range(0..self.num_hosts);
            let ok = match self.pair_policy {
                PairPolicy::AnyPair => src != dst,
                PairPolicy::InterLeaf { hosts_per_leaf } => {
                    src / hosts_per_leaf != dst / hosts_per_leaf
                }
            };
            if ok {
                return (src, dst);
            }
        }
    }

    /// Generate all flows arriving in `[0, horizon)`.
    pub fn generate<R: Rng>(&self, horizon: SimTime, rng: &mut R) -> Vec<FlowSpec> {
        self.generate_modulated(horizon, &LoadCurve::flat(), rng)
    }

    /// Like [`Self::generate`], with the arrival intensity modulated by a
    /// piecewise-constant [`LoadCurve`]: inside a segment at `m` permille,
    /// inter-arrival gaps stretch by `1000/m` (so `m = 2000` doubles the
    /// offered load, `m = 500` halves it). The segment is sampled at the
    /// previous arrival's instant — exact for gaps that don't straddle a
    /// segment boundary, and a one-gap approximation when they do. With a
    /// flat curve the gap math multiplies by exactly 1.0, so this emits the
    /// same flow sequence as the unmodulated generator, bit for bit.
    pub fn generate_modulated<R: Rng>(
        &self,
        horizon: SimTime,
        curve: &LoadCurve,
        rng: &mut R,
    ) -> Vec<FlowSpec> {
        let mut flows = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            // Exponential inter-arrival via inverse transform.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let base = (-u.ln()) * self.mean_interarrival.as_ps() as f64;
            let gap = base * (1000.0 / curve.permille_at(t).max(1) as f64);
            t += SimDuration(gap.round().max(1.0) as u64);
            if t >= horizon {
                break;
            }
            let (src, dst) = self.sample_pair(rng);
            let size = self.cdf.sample(rng);
            flows.push(FlowSpec::new(t, src, dst, size));
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn gen(load: f64, horizon_ms: u64, seed: u64) -> (PoissonTraffic, Vec<FlowSpec>) {
        let tr = PoissonTraffic::with_load(
            SizeCdf::web_search(),
            32,
            PairPolicy::InterLeaf { hosts_per_leaf: 8 },
            load,
            4.0 * 40e9, // 4 uplinks at 40G
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let flows = tr.generate(SimTime::from_ms(horizon_ms), &mut rng);
        (tr, flows)
    }

    #[test]
    fn offered_load_matches_target() {
        let (_, flows) = gen(0.5, 200, 3);
        let bytes: u64 = flows.iter().map(|f| f.size_bytes).sum();
        let offered_bps = bytes as f64 * 8.0 / 0.2;
        let target = 0.5 * 4.0 * 40e9;
        let rel = (offered_bps - target).abs() / target;
        assert!(
            rel < 0.15,
            "offered {offered_bps:.3e} vs target {target:.3e}"
        );
    }

    #[test]
    fn arrivals_sorted_and_within_horizon() {
        let (_, flows) = gen(0.3, 50, 5);
        assert!(!flows.is_empty());
        for w in flows.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert!(flows.last().unwrap().start < SimTime::from_ms(50));
    }

    #[test]
    fn flat_curve_modulation_is_the_identity() {
        let (tr, flows) = gen(0.4, 50, 11);
        let mut rng = SmallRng::seed_from_u64(11);
        let modulated = tr.generate_modulated(SimTime::from_ms(50), &LoadCurve::flat(), &mut rng);
        assert_eq!(flows, modulated);
    }

    #[test]
    fn load_curve_scales_arrival_density_per_segment() {
        let tr = PoissonTraffic::with_load(
            SizeCdf::web_search(),
            32,
            PairPolicy::InterLeaf { hosts_per_leaf: 8 },
            0.4,
            4.0 * 40e9,
        );
        // Half load for the first 100 ms, triple load after.
        let curve =
            LoadCurve::new(vec![(SimTime::ZERO, 500), (SimTime::from_ms(100), 3000)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(21);
        let flows = tr.generate_modulated(SimTime::from_ms(200), &curve, &mut rng);
        let early = flows
            .iter()
            .filter(|f| f.start < SimTime::from_ms(100))
            .count();
        let late = flows.len() - early;
        // 6× intensity ratio; allow generous sampling noise.
        assert!(
            late > early * 3,
            "expected the 3000-permille half to dominate: {early} early vs {late} late"
        );
    }

    #[test]
    fn inter_leaf_policy_never_picks_same_leaf() {
        let (_, flows) = gen(0.4, 50, 9);
        for f in &flows {
            assert_ne!(f.src_host / 8, f.dst_host / 8, "intra-leaf pair generated");
        }
    }

    #[test]
    fn any_pair_policy_allows_same_leaf_but_not_self() {
        let tr =
            PoissonTraffic::with_load(SizeCdf::web_server(), 4, PairPolicy::AnyPair, 0.3, 40e9);
        let mut rng = SmallRng::seed_from_u64(1);
        let flows = tr.generate(SimTime::from_ms(20), &mut rng);
        assert!(flows.iter().all(|f| f.src_host != f.dst_host));
    }

    #[test]
    fn higher_load_means_more_flows() {
        let (_, lo) = gen(0.2, 100, 42);
        let (_, hi) = gen(0.7, 100, 42);
        assert!(hi.len() > lo.len() * 2);
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn zero_load_rejected() {
        PoissonTraffic::with_load(SizeCdf::web_server(), 4, PairPolicy::AnyPair, 0.0, 40e9);
    }
}
