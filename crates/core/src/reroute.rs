//! The rerouting module (§3.2.2, Algorithm 1): reroute or recirculate on a
//! PFC warning, preserving packet order.
//!
//! [`algorithm1`] is pure. The per-packet decision around it (the inner
//! scheme's `select`, the sticky reroute override, then this rule) is
//! `LeafState::decide` in `rlb-net`'s control plane (`sim/control.rs`).

use crate::config::RlbConfig;
use rlb_lb::{Ctx, PathIdx};
use serde::Serialize;

/// RLB's verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Forward on this path now.
    Forward(PathIdx),
    /// Send the packet around the egress→ingress loop; it re-decides after
    /// `t_rc` with fresh warning state.
    Recirculate,
}

/// Why the decision came out the way it did (diagnostics / counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DecisionReason {
    /// Initial path carried no warning.
    UnwarnedInitial,
    /// Warned, but a nearby suboptimal path existed: rerouted (Alg. 1 l.8).
    Rerouted,
    /// Warned and the best alternative was much slower: recirculated
    /// (Alg. 1 l.6).
    RecirculatedGap,
    /// Every path warned: recirculate and hope a warning lifts.
    RecirculatedAllWarned,
    /// Recirculation budget exhausted or disabled: forced out on the best
    /// available path ("recirculation will stop to avoid the endless loop").
    ForcedOut,
}

/// Algorithm 1, "Rerouting without Packet Reordering".
///
/// * `initial` — the path the inner load balancer picked (line 2);
/// * `recircs_so_far` — how many times this packet has already looped.
///
/// Line-by-line correspondence:
/// * l.3 `if receiving p.hPFC` — `ctx.paths[p].warned`;
/// * l.4 select suboptimal `ps` — an unwarned alternative not faster than
///   `p`, ranked by `cfg.suboptimal_policy`; failing that, the slowest
///   faster one;
/// * l.5 `(ps.tRTT − p.tRTT) > trc` → recirculate (l.6);
/// * l.8 otherwise replace `p` with `ps` and re-check — `ps` is unwarned,
///   so the loop exits with `Forward(ps)`;
/// * termination: when the recirculation budget is spent, the packet is
///   forced out on `ps` (on `p` when every path is warned) rather than
///   looping forever.
pub fn algorithm1(
    initial: PathIdx,
    ctx: &Ctx<'_>,
    cfg: &RlbConfig,
    recircs_so_far: u32,
) -> (Decision, DecisionReason) {
    let paths = ctx.paths;
    debug_assert!(initial < paths.len());

    if !paths[initial].warned {
        return (Decision::Forward(initial), DecisionReason::UnwarnedInitial);
    }

    let budget_left = cfg.enable_recirculation && recircs_so_far < cfg.max_recirculations;

    // Line 4: the suboptimal path — the best alternative with no PFC
    // warning. "Best" here must respect ordering: a rerouted packet's
    // predecessors are queued on (or past) the warned path `p`, so the
    // safe alternative is the unwarned path whose delay is *closest to
    // p's from above* — fast enough to beat the pending pause, slow
    // enough not to overtake the packets already sent on `p`. Only if
    // every unwarned path is faster than `p` do we take the slowest of
    // them (least overtaking risk).
    let rtt_p = paths[initial].rtt_ns;
    let candidates = paths
        .iter()
        .enumerate()
        .filter(|&(i, q)| i != initial && !q.warned);
    let mut best_above: Option<(usize, f64, u64)> = None; // rtt >= rtt_p: min rtt
    let mut best_below: Option<(usize, f64, u64)> = None; // rtt < rtt_p: max rtt
    for (i, q) in candidates {
        if q.rtt_ns >= rtt_p {
            // Queue depth first (default policy): local queues react
            // instantly when many flows reroute at once, dispersing the
            // herd; the RTT estimate lags by an EWMA and would funnel
            // everyone onto one path. The RttFirst ablation keeps the
            // literal Algorithm 1 line-4 ordering.
            let better = match best_above {
                None => true,
                Some((_, r, qb)) => match cfg.suboptimal_policy {
                    crate::config::SuboptimalPolicy::QueueFirst => {
                        (q.queue_bytes, q.rtt_ns) < (qb, r)
                    }
                    crate::config::SuboptimalPolicy::RttFirst => {
                        (q.rtt_ns, q.queue_bytes) < (r, qb)
                    }
                },
            };
            if better {
                best_above = Some((i, q.rtt_ns, q.queue_bytes));
            }
        } else {
            let better = match best_below {
                None => true,
                Some((_, r, qb)) => match q.rtt_ns.partial_cmp(&r) {
                    Some(std::cmp::Ordering::Greater) => true,
                    Some(std::cmp::Ordering::Equal) => q.queue_bytes < qb,
                    _ => false,
                },
            };
            if better {
                best_below = Some((i, q.rtt_ns, q.queue_bytes));
            }
        }
    }
    let suboptimal = best_above.or(best_below).map(|(i, _, _)| i);

    match suboptimal {
        Some(ps) => {
            let gap_ns = paths[ps].rtt_ns - paths[initial].rtt_ns;
            let t_rc_ns = cfg.t_rc_ps as f64 / 1e3;
            if gap_ns > t_rc_ns {
                // Line 5–6: the alternative is much slower — waiting out the
                // (likely transient) pause on the fast path wins.
                if budget_left {
                    (Decision::Recirculate, DecisionReason::RecirculatedGap)
                } else {
                    (Decision::Forward(ps), DecisionReason::ForcedOut)
                }
            } else {
                // Line 8: comparable delay — take the safe path now.
                (Decision::Forward(ps), DecisionReason::Rerouted)
            }
        }
        None => {
            // Every visible path is warned: the warning carries no routing
            // information (there is nothing safer to wait for), so keep the
            // inner scheme's choice. Recirculating here would only add
            // latency — Algorithm 1's recirculation is justified by a fast
            // path being *selectively* endangered, not by fabric-wide
            // congestion. One recirculation is still allowed when the
            // packet has never looped, giving a just-raised warning the
            // chance to expire (cheap insurance against boundary cases).
            if budget_left && recircs_so_far == 0 && cfg.recirculate_when_all_warned {
                (Decision::Recirculate, DecisionReason::RecirculatedAllWarned)
            } else {
                (Decision::Forward(initial), DecisionReason::ForcedOut)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_lb::PathInfo;

    fn mk_paths(specs: &[(bool, f64, u64)]) -> Vec<PathInfo> {
        specs
            .iter()
            .map(|&(warned, rtt_ns, queue)| PathInfo {
                warned,
                rtt_ns,
                queue_bytes: queue,
                ..PathInfo::default()
            })
            .collect()
    }

    fn ctx<'a>(paths: &'a [PathInfo]) -> Ctx<'a> {
        Ctx {
            now_ps: 0,
            flow_id: 1,
            dst_leaf: 0,
            seq: 0,
            pkt_bytes: 1000,
            paths,
        }
    }

    fn cfg() -> RlbConfig {
        RlbConfig {
            t_rc_ps: 1_000_000, // 1 µs
            ..RlbConfig::default()
        }
    }

    #[test]
    fn unwarned_initial_path_is_kept() {
        let paths = mk_paths(&[(false, 10_000.0, 0), (false, 10_000.0, 0)]);
        let (d, r) = algorithm1(0, &ctx(&paths), &cfg(), 0);
        assert_eq!(d, Decision::Forward(0));
        assert_eq!(r, DecisionReason::UnwarnedInitial);
    }

    #[test]
    fn small_delay_gap_reroutes_to_suboptimal() {
        // Initial path warned; alternative only 0.5 µs slower < t_rc=1 µs.
        let paths = mk_paths(&[(true, 10_000.0, 0), (false, 10_500.0, 0)]);
        let (d, r) = algorithm1(0, &ctx(&paths), &cfg(), 0);
        assert_eq!(d, Decision::Forward(1));
        assert_eq!(r, DecisionReason::Rerouted);
    }

    #[test]
    fn large_delay_gap_recirculates() {
        // Alternative 5 µs slower > t_rc=1 µs: wait on the fast path.
        let paths = mk_paths(&[(true, 10_000.0, 0), (false, 15_000.0, 0)]);
        let (d, r) = algorithm1(0, &ctx(&paths), &cfg(), 0);
        assert_eq!(d, Decision::Recirculate);
        assert_eq!(r, DecisionReason::RecirculatedGap);
    }

    #[test]
    fn suboptimal_prefers_unwarned_not_faster_with_shortest_queue() {
        let paths = mk_paths(&[
            (true, 10_000.0, 0),   // initial, warned
            (false, 10_400.0, 50), // slower-than-p, queue 50
            (false, 10_400.0, 10), // slower-than-p, queue 10
            (false, 10_800.0, 0),  // empty queue → queue-first wins
            (true, 10_100.0, 0),   // warned — excluded despite best rtt
        ]);
        let (d, _) = algorithm1(0, &ctx(&paths), &cfg(), 0);
        // Queue-first among rtt ≥ rtt_p: path 3 has the shortest queue,
        // and its 0.8 µs delay gap stays below t_rc so it is a reroute.
        assert_eq!(d, Decision::Forward(3));
    }

    #[test]
    fn suboptimal_never_overtakes_when_slower_choice_exists() {
        // A faster unwarned path exists, but rerouting onto it would let
        // this packet overtake its predecessors queued on the warned path.
        let paths = mk_paths(&[
            (true, 20_000.0, 0),  // initial, warned
            (false, 5_000.0, 0),  // much faster — overtaking risk
            (false, 20_500.0, 0), // slightly slower — safe
        ]);
        let (d, r) = algorithm1(0, &ctx(&paths), &cfg(), 0);
        assert_eq!(d, Decision::Forward(2));
        assert_eq!(r, DecisionReason::Rerouted);
    }

    #[test]
    fn all_unwarned_faster_takes_closest_below() {
        let paths = mk_paths(&[
            (true, 50_000.0, 0),  // initial, warned, slowest
            (false, 5_000.0, 0),  // far faster
            (false, 40_000.0, 0), // closest below → least overtaking risk
        ]);
        let (d, r) = algorithm1(0, &ctx(&paths), &cfg(), 0);
        assert_eq!(d, Decision::Forward(2));
        assert_eq!(r, DecisionReason::Rerouted);
    }

    #[test]
    fn all_paths_warned_keeps_inner_choice() {
        // A blanket warning carries no routing signal: forward on the
        // inner scheme's pick immediately (default config).
        let paths = mk_paths(&[(true, 10_000.0, 500), (true, 10_000.0, 100)]);
        let c = cfg();
        let (d, r) = algorithm1(0, &ctx(&paths), &c, 0);
        assert_eq!(d, Decision::Forward(0));
        assert_eq!(r, DecisionReason::ForcedOut);
        // With the opt-in knob, one recirculation is allowed for a
        // never-looped packet, then it is forced out.
        let mut c2 = cfg();
        c2.recirculate_when_all_warned = true;
        let (d2, r2) = algorithm1(0, &ctx(&paths), &c2, 0);
        assert_eq!(d2, Decision::Recirculate);
        assert_eq!(r2, DecisionReason::RecirculatedAllWarned);
        let (d3, r3) = algorithm1(0, &ctx(&paths), &c2, 1);
        assert_eq!(d3, Decision::Forward(0));
        assert_eq!(r3, DecisionReason::ForcedOut);
    }

    #[test]
    fn recirculation_disabled_forces_reroute_even_on_large_gap() {
        // Fig. 9's "RLB w/o Recir." ablation.
        let paths = mk_paths(&[(true, 10_000.0, 0), (false, 50_000.0, 0)]);
        let mut c = cfg();
        c.enable_recirculation = false;
        let (d, r) = algorithm1(0, &ctx(&paths), &c, 0);
        assert_eq!(d, Decision::Forward(1));
        assert_eq!(r, DecisionReason::ForcedOut);
    }

    #[test]
    fn budget_exhaustion_with_large_gap_takes_suboptimal() {
        let paths = mk_paths(&[(true, 10_000.0, 0), (false, 50_000.0, 0)]);
        let c = cfg();
        let (d, r) = algorithm1(0, &ctx(&paths), &c, c.max_recirculations);
        assert_eq!(d, Decision::Forward(1));
        assert_eq!(r, DecisionReason::ForcedOut);
    }
}
