//! # rlb-workloads — datacenter traffic generation
//!
//! The traffic the paper evaluates on:
//!
//! * [`SizeCdf`] / [`Workload`] — empirical flow-size distributions for the
//!   four production workloads (Web Server, Cache Follower, Web Search,
//!   Data Mining) with inverse-transform sampling.
//! * [`PoissonTraffic`] — Poisson arrivals between random host pairs at a
//!   target fraction of core capacity (§4 methodology).
//! * [`incast`] — partition-aggregate request generation (§4.3).
//! * [`BurstConfig`] — the continuous-burst + congested-flow scenario of
//!   Fig. 2 used in the motivation experiments (§2.2).
//! * [`patterns`] — permutation and all-to-all shuffle stress patterns.

pub mod burst;
pub mod cdf;
pub mod curve;
pub mod incast;
pub mod patterns;
pub mod poisson;
pub mod spec;

pub use burst::{congested_flow, BurstConfig};
pub use cdf::{SizeCdf, Workload};
pub use curve::LoadCurve;
pub use incast::IncastConfig;
pub use patterns::{all_to_all, permutation};
pub use poisson::{PairPolicy, PoissonTraffic};
pub use spec::FlowSpec;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rlb_engine::{SimDuration, SimTime};

    proptest! {
        /// Sampled sizes always fall inside the CDF's support.
        #[test]
        fn samples_within_support(seed in any::<u64>(), wl_idx in 0usize..4) {
            let cdf = Workload::ALL[wl_idx].cdf();
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..64 {
                let s = cdf.sample(&mut rng);
                prop_assert!(s >= 1);
                prop_assert!(s <= cdf.max_bytes());
            }
        }

        /// Quantile is the (approximate) inverse of the CDF: monotone and
        /// spanning the support.
        #[test]
        fn quantile_monotone(u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
            let cdf = SizeCdf::data_mining();
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            prop_assert!(cdf.quantile(lo) <= cdf.quantile(hi));
        }

        /// Incast groups always have exactly `degree` distinct responders
        /// aimed at one client, none sharing the client's leaf.
        #[test]
        fn incast_invariants(degree in 2u32..20, seed in any::<u64>()) {
            let cfg = IncastConfig {
                degree,
                total_response_bytes: 4_000_000,
                requests: 3,
                request_interval: SimDuration::from_ms(1),
                num_hosts: 96,
                hosts_per_leaf: 8,
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            let flows = incast::generate(&cfg, &mut rng);
            prop_assert_eq!(flows.len() as u32, 3 * degree);
            for g in 0..3u64 {
                let group: Vec<_> = flows.iter().filter(|f| f.group == g).collect();
                let dst = group[0].dst_host;
                let mut srcs: Vec<u32> = group.iter().map(|f| f.src_host).collect();
                srcs.sort();
                srcs.dedup();
                prop_assert_eq!(srcs.len() as u32, degree);
                prop_assert!(group.iter().all(|f| f.dst_host == dst));
                prop_assert!(group.iter().all(|f| f.src_host / 8 != dst / 8));
            }
        }

        /// Poisson generation is deterministic for a fixed seed.
        #[test]
        fn poisson_deterministic(seed in any::<u64>()) {
            let tr = PoissonTraffic::with_load(
                SizeCdf::web_server(), 16,
                PairPolicy::InterLeaf { hosts_per_leaf: 4 }, 0.4, 160e9);
            let a = tr.generate(SimTime::from_ms(5), &mut SmallRng::seed_from_u64(seed));
            let b = tr.generate(SimTime::from_ms(5), &mut SmallRng::seed_from_u64(seed));
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.start, y.start);
                prop_assert_eq!(x.size_bytes, y.size_bytes);
                prop_assert_eq!((x.src_host, x.dst_host), (y.src_host, y.dst_host));
            }
        }
    }
}
