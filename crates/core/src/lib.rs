//! # rlb-core — Reordering-robust Load Balancing (the paper's contribution)
//!
//! RLB is a building block that sits *under* an existing load-balancing
//! scheme and makes its decisions safe against hop-by-hop PFC pausing:
//!
//! * [`PfcPredictor`] — predicts PFC triggering from the derivative of the
//!   ingress queue length (§3.2.1);
//! * [`threshold`] — the conservative warning-threshold range
//!   `[⌊d·C⌋, ⌊Q_PFC − d·C·(n−1)⌋)` (§3.2.3);
//! * [`Cnm`] / [`WarningTable`] / [`ContributorTable`] — the warning
//!   message, its upstream bookkeeping, and hop-by-hop relay targeting;
//! * [`algorithm1`] — the rerouting rule (§3.2.2): on a warning, either
//!   reroute to a comparable-delay safe path or recirculate and re-decide,
//!   so earlier-sent packets are never overtaken.
//!
//! All logic here is pure (no clocks, no queues, no per-flow state);
//! `rlb-net` wires it into the simulated switches, and its control plane
//! runs the per-packet decision under any load-balancing scheme.

// Library code must justify every panic site: bare unwrap() is denied here
// (tests are exempt). Enforced alongside `cargo xtask lint`'s lib-unwrap rule.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod predictor;
pub mod reroute;
pub mod threshold;
pub mod warning;

pub use config::{RlbConfig, SuboptimalPolicy};
pub use predictor::{PfcPredictor, Prediction};
pub use reroute::{algorithm1, Decision, DecisionReason};
pub use threshold::{conservative_qth, d_times_c_bytes, qth_range};
pub use warning::{Cnm, ContributorTable, WarningTable};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rlb_lb::{Ctx, PathInfo};

    fn mk_ctx(paths: &[PathInfo]) -> Ctx<'_> {
        Ctx {
            now_ps: 0,
            flow_id: 1,
            dst_leaf: 0,
            seq: 0,
            pkt_bytes: 1000,
            paths,
        }
    }

    fn arb_path() -> impl Strategy<Value = PathInfo> {
        (any::<bool>(), 1_000.0f64..1_000_000.0, 0u64..10_000_000).prop_map(
            |(warned, rtt_ns, queue_bytes)| PathInfo {
                warned,
                rtt_ns,
                queue_bytes,
                ..PathInfo::default()
            },
        )
    }

    proptest! {
        /// Algorithm 1 never forwards onto a warned path while any unwarned
        /// path exists — the paper's core safety property.
        #[test]
        fn never_forwards_onto_warned_path_when_alternative_exists(
            paths in proptest::collection::vec(arb_path(), 1..30),
            initial_raw in 0usize..30,
            recircs in 0u32..20,
            enable_recirc in any::<bool>(),
        ) {
            let initial = initial_raw % paths.len();
            let cfg = RlbConfig {
                enable_recirculation: enable_recirc,
                ..RlbConfig::default()
            };
            let (d, _) = algorithm1(initial, &mk_ctx(&paths), &cfg, recircs);
            if let Decision::Forward(p) = d {
                prop_assert!(p < paths.len());
                let any_unwarned = paths.iter().any(|x| !x.warned);
                if any_unwarned {
                    prop_assert!(!paths[p].warned,
                        "forwarded onto warned path {p} though unwarned paths existed");
                }
            }
        }

        /// The decision process always terminates with a Forward once the
        /// recirculation budget is spent — no endless loop (§3.2.2).
        #[test]
        fn terminates_after_budget(
            paths in proptest::collection::vec(arb_path(), 1..30),
            initial_raw in 0usize..30,
        ) {
            let initial = initial_raw % paths.len();
            let cfg = RlbConfig::default();
            let (d, _) = algorithm1(initial, &mk_ctx(&paths), &cfg, cfg.max_recirculations);
            prop_assert!(matches!(d, Decision::Forward(_)));
        }

        /// With no warnings anywhere, RLB is a no-op: it forwards exactly
        /// the inner scheme's choice (preserves the original LB behaviour).
        #[test]
        fn transparent_without_warnings(
            n in 1usize..30,
            initial_raw in 0usize..30,
            rtts in proptest::collection::vec(1_000.0f64..100_000.0, 30),
        ) {
            let paths: Vec<PathInfo> = (0..n)
                .map(|i| PathInfo { rtt_ns: rtts[i], ..PathInfo::default() })
                .collect();
            let initial = initial_raw % n;
            let (d, r) = algorithm1(initial, &mk_ctx(&paths), &RlbConfig::default(), 0);
            prop_assert_eq!(d, Decision::Forward(initial));
            prop_assert_eq!(r, DecisionReason::UnwarnedInitial);
        }

        /// Predictor: a queue that stays below Qth never warns; a queue
        /// pinned at/above Q_PFC always warns.
        #[test]
        fn predictor_gates(
            qth in 1_000u64..100_000,
            samples in proptest::collection::vec(0u64..u32::MAX as u64, 2..50),
        ) {
            let q_pfc = 256_000u64;
            let qth = qth.min(q_pfc);
            let mut p = PfcPredictor::new(qth, q_pfc, 4_000_000);
            for (i, &s) in samples.iter().enumerate() {
                let q_low = s % qth;
                prop_assert_eq!(p.on_sample(i as u64 * 2_000_000, q_low), Prediction::Clear);
            }
            let mut p2 = PfcPredictor::new(qth, q_pfc, 4_000_000);
            for i in 0..5u64 {
                prop_assert_eq!(p2.on_sample(i * 2_000_000, q_pfc + i), Prediction::Warn);
            }
        }

        /// Warning table: a warning is visible strictly before its expiry
        /// and invisible at/after it, at both granularities.
        #[test]
        fn warning_expiry_semantics(
            uplink in 0usize..8,
            dst in 0usize..8,
            until in 1u64..1_000_000,
        ) {
            let mut w = WarningTable::new(8, 8);
            w.warn_path(uplink, dst, until);
            prop_assert!(w.is_warned(uplink, dst, until - 1));
            prop_assert!(!w.is_warned(uplink, dst, until));
            let mut w2 = WarningTable::new(8, 8);
            w2.warn_uplink(uplink, until);
            prop_assert!(w2.is_warned(uplink, dst, until - 1));
            prop_assert!(!w2.is_warned(uplink, dst, until));
        }
    }
}
