//! # rlb-lb — datacenter load-balancing schemes
//!
//! The four schemes the paper integrates RLB with (§2.1.3), plus an ECMP
//! baseline, all implementing [`LoadBalancer`] over an abstract per-uplink
//! snapshot ([`PathInfo`]):
//!
//! | Scheme | Granularity | Signal |
//! |---|---|---|
//! | [`Ecmp`] | flow | hash only |
//! | [`Presto`] | 64 KB flowcell | round-robin |
//! | [`LetFlow`] | flowlet | randomness + flowlet gaps |
//! | [`Hermes`] | flow w/ cautious rerouting | end-to-end ECN + RTT |
//! | [`Drill`] | packet | local queue lengths (power of two choices) |
//!
//! None of them can see hop-by-hop PFC state — that blindness is what
//! `rlb-core` repairs.

// Library code must justify every panic site: bare unwrap() is denied here
// (tests are exempt). Enforced alongside `cargo xtask lint`'s lib-unwrap rule.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod api;
pub mod drill;
pub mod ecmp;
pub mod hermes;
pub mod letflow;
pub mod presto;

pub use api::{Ctx, LoadBalancer, PathIdx, PathInfo, Scheme};
pub use drill::Drill;
pub use ecmp::Ecmp;
pub use hermes::{Hermes, HermesConfig};
pub use letflow::LetFlow;
pub use presto::Presto;

/// One-line import for scheme implementors and simulators:
/// `use rlb_lb::prelude::*;` brings in the trait, the decision context,
/// every concrete scheme, and the [`build`] constructor.
pub mod prelude {
    pub use crate::api::{Ctx, LoadBalancer, PathIdx, PathInfo, Scheme};
    pub use crate::{build, Drill, Ecmp, Hermes, HermesConfig, LetFlow, Presto};
}

use rlb_engine::SimRng;

/// Construct a scheme by id with its paper-default parameters.
pub fn build(scheme: Scheme, mtu_bytes: u64, rng: SimRng) -> Box<dyn LoadBalancer> {
    match scheme {
        Scheme::Ecmp => Box::new(Ecmp),
        Scheme::Presto => Box::new(Presto::new(mtu_bytes)),
        Scheme::LetFlow => Box::new(LetFlow::new(rng)),
        Scheme::Hermes => Box::new(Hermes::new(rng)),
        Scheme::Drill => Box::new(Drill::new(rng)),
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rlb_engine::substream;

    fn arbitrary_paths(n: usize, seed: u64) -> Vec<PathInfo> {
        use rand::Rng;
        let mut rng = substream(seed, b"paths", 0);
        (0..n)
            .map(|_| PathInfo {
                queue_bytes: rng.gen_range(0..1_000_000),
                paused: rng.gen_bool(0.2),
                warned: rng.gen_bool(0.2),
                rtt_ns: rng.gen_range(5_000.0..200_000.0),
                ecn_fraction: rng.gen_range(0.0..1.0),
                link_rate_bps: 40e9,
            })
            .collect()
    }

    proptest! {
        /// Every scheme returns an in-range path for arbitrary snapshots,
        /// flows and sequence numbers.
        #[test]
        fn selection_always_in_range(
            n in 1usize..40,
            seed in any::<u64>(),
            flow in any::<u64>(),
            seq in 0u32..100_000,
        ) {
            let paths = arbitrary_paths(n, seed);
            let ctx = Ctx {
                now_ps: seq as u64 * 1_000_000,
                flow_id: flow,
                dst_leaf: 0,
                seq,
                pkt_bytes: 1000,
                paths: &paths,
            };
            for scheme in Scheme::ALL {
                let mut lb = build(scheme, 1000, substream(seed, b"lb", scheme as u64));
                let p = lb.select(&ctx);
                prop_assert!(p < n, "{} returned {p} of {n}", lb.name());
            }
        }

        /// Presto path is a pure function of (flow, seq): same inputs, same
        /// path, regardless of interleaving with other flows.
        #[test]
        fn presto_is_deterministic_per_cell(
            flow in any::<u64>(),
            seq in 0u32..10_000,
            noise in proptest::collection::vec((any::<u64>(), 0u32..10_000), 0..30),
        ) {
            let paths = vec![PathInfo::default(); 12];
            let mk_ctx = |f: u64, s: u32| Ctx {
                now_ps: 0, flow_id: f, dst_leaf: 0, seq: s, pkt_bytes: 1000, paths: &paths,
            };
            let mut lb = Presto::new(1000);
            let first = lb.select(&mk_ctx(flow, seq));
            for (f, s) in noise {
                lb.select(&mk_ctx(f, s));
            }
            prop_assert_eq!(lb.select(&mk_ctx(flow, seq)), first);
        }

        /// LetFlow within-gap stability: consecutive packets of one flow
        /// with sub-timeout gaps never change path.
        #[test]
        fn letflow_no_switch_within_gap(
            seed in any::<u64>(),
            gaps in proptest::collection::vec(0u64..49_999_999, 1..50),
        ) {
            let paths = vec![PathInfo::default(); 16];
            let mut lb = LetFlow::new(substream(seed, b"lf", 0));
            let mut now = 0u64;
            let mk_ctx = |t: u64| Ctx {
                now_ps: t, flow_id: 5, dst_leaf: 0, seq: 0, pkt_bytes: 1000, paths: &paths,
            };
            let first = lb.select(&mk_ctx(now));
            for g in gaps {
                now += g; // all gaps below the 50 µs default timeout
                prop_assert_eq!(lb.select(&mk_ctx(now)), first);
            }
        }
    }
}
