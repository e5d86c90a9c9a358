//! Three tables over the Fig. 2 motivation dumbbell that are not paper
//! figures: every row is DRILL on the same traffic under one design
//! choice, reported for the measured background flows.
//!
//! * `sanity` — no PFC / PFC / PFC+RLB. If the middle row doesn't hurt or
//!   the last row doesn't heal, something is broken.
//! * `ablations` — the implementation choices DESIGN.md documents on top
//!   of the paper's Algorithm 1: per-flow reroute stickiness, queue-first
//!   vs. RTT-first suboptimal-path selection, recirculation budget (2 vs.
//!   the default 8), warning lifetime (3Δt vs. the default 10Δt),
//!   recirculating when every path is warned.
//! * `irn_compare` — the paper's §5 discussion made runnable: PFC +
//!   go-back-N (the lossless baseline), the same with RLB (the paper's
//!   contribution), no PFC + go-back-N (naive lossy), no PFC + IRN
//!   selective repeat (the abandon-PFC school). Go-back-N needs PFC
//!   (lossy + GBN retransmits heavily); RLB fixes PFC's reordering; IRN
//!   instead tolerates the loss that removing PFC admits.

use super::common::{metrics_of, pick};
use super::table::{self, f0, ms, text, Col, Sweep};
use super::{Figure, FigureReport};
use crate::json::Json;
use crate::runner::{Job, JobOutcome};
use crate::Scale;
use rlb_core::{RlbConfig, SuboptimalPolicy};
use rlb_engine::SimTime;
use rlb_lb::Scheme;
use rlb_net::scenario::{MotivationConfig, Scenario};
use rlb_net::TransportMode::{self, GoBackN, SelectiveRepeat};

/// The dumbbell these tables (and fig10's Qth sweep) run.
pub fn config(scale: Scale) -> MotivationConfig {
    MotivationConfig {
        n_paths: 40,
        n_background: pick(scale, 24, 100),
        background_load: pick(scale, 0.2, 0.3),
        congested_flow_bytes: 30_000_000,
        horizon: SimTime::from_ms(pick(scale, 3, 10)),
        ..MotivationConfig::default()
    }
}

/// One row — DRILL on the dumbbell under one design choice: its name, PFC
/// on or off, the NICs' transport, and RLB's config (`None` = vanilla).
type Case = (&'static str, bool, TransportMode, Option<RlbConfig>);

/// The default RLB with one knob turned.
fn rlb(turn: impl FnOnce(&mut RlbConfig)) -> Option<RlbConfig> {
    let mut config = RlbConfig::default();
    turn(&mut config);
    Some(config)
}

/// A background-flow mean, headed by its key.
const fn bg(key: &'static str, path: table::Path, cell: table::Cell) -> Col {
    Col::mean(key, key, path, cell)
}

const BG_AVG: Col = bg("bg_avg_fct_ms", &["background", "avg_fct_ms"], ms);
const BG_P99: Col = bg("bg_p99_fct_ms", &["background", "p99_fct_ms"], ms);
const BG_OOD: Col = bg("bg_p99_ood", &["background", "p99_ood"], f0);
const PAUSES: Col = Col::count("pauses", "pauses", &["counters", "pause_frames"]);
const RECIRC: Col = Col::count("recirc", "recirc", &["counters", "recirculations"]);

/// One table: its registry identity, its rows and its columns.
pub struct DumbbellTable {
    name: &'static str,
    description: &'static str,
    cases: fn() -> Vec<Case>,
    cols: &'static [Col],
}

pub const SANITY: DumbbellTable = DumbbellTable {
    name: "sanity",
    description:
        "Sanity: no PFC / PFC / PFC+RLB on the motivation dumbbell (DRILL, background flows)",
    cases: || {
        vec![
            ("no PFC", false, GoBackN, None),
            ("PFC, DRILL", true, GoBackN, None),
            ("PFC, DRILL+RLB", true, GoBackN, Some(RlbConfig::default())),
        ]
    },
    cols: &[
        Col::coord("variant", "variant", text),
        BG_AVG,
        BG_P99,
        BG_OOD,
        PAUSES,
        Col::count("cnm", "cnm", &["counters", "cnm_generated"]),
        RECIRC,
    ],
};

pub const ABLATIONS: DumbbellTable = DumbbellTable {
    name: "ablations",
    description: "Ablations over the Fig. 2 motivation scenario (DRILL, background flows)",
    cases: || {
        let knobs = [
            ("vanilla (no RLB)", None),
            ("RLB default", Some(RlbConfig::default())),
            (
                "RLB, no sticky reroutes",
                rlb(|c| c.sticky_reroutes = false),
            ),
            (
                "RLB, RTT-first suboptimal",
                rlb(|c| c.suboptimal_policy = SuboptimalPolicy::RttFirst),
            ),
            ("RLB, recirc budget 2", rlb(|c| c.max_recirculations = 2)),
            (
                "RLB, short warn lifetime (3dt)",
                rlb(|c| c.warn_lifetime_ps = 3 * 2_000_000),
            ),
            (
                "RLB, recirc when all warned",
                rlb(|c| c.recirculate_when_all_warned = true),
            ),
            (
                "RLB, no recirculation",
                rlb(|c| c.enable_recirculation = false),
            ),
        ];
        let lossless = |(name, rlb)| (name, true, GoBackN, rlb);
        knobs.into_iter().map(lossless).collect()
    },
    cols: &[
        Col::coord("variant", "variant", text),
        BG_AVG,
        BG_P99,
        BG_OOD,
        RECIRC,
        Col::count("reroutes", "reroutes", &["counters", "reroutes"]),
        Col::count("unwarned", "unwarned", &["counters", "forwards_unwarned"]),
    ],
};

pub const IRN_COMPARE: DumbbellTable = DumbbellTable {
    name: "irn_compare",
    description: "Lossless vs lossy design points, Fig. 2 scenario, DRILL, background flows",
    cases: || {
        vec![
            ("PFC + go-back-N", true, GoBackN, None),
            (
                "PFC + go-back-N + RLB",
                true,
                GoBackN,
                Some(RlbConfig::default()),
            ),
            ("lossy + go-back-N", false, GoBackN, None),
            ("lossy + IRN", false, SelectiveRepeat, None),
        ]
    },
    cols: &[
        Col::coord("variant", "design point", text),
        BG_AVG,
        BG_P99,
        BG_OOD,
        PAUSES,
        Col::count("drops", "drops", &["counters", "buffer_drops"]),
        Col::count("retx_pkts", "retx_pkts", &["retx_pkts"]),
    ],
};

impl Figure for DumbbellTable {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn cols(&self) -> &'static [Col] {
        self.cols
    }

    fn jobs(&self, scale: Scale, seeds: &[u64], shards: u16) -> Vec<Job> {
        let sweep = Sweep {
            fig: self.name(),
            shards,
        };
        let mut jobs = Vec::new();
        for case in (self.cases)() {
            for &offset in seeds {
                let mut mc = config(scale);
                mc.seed += offset;
                jobs.push(sweep.job(
                    case.0.to_string(),
                    Vec::new(),
                    mc.seed,
                    (case.clone(), mc),
                    move |((name, pfc, transport, rlb), mc)| {
                        let mut sc = Scenario::motivation(mc, Scheme::Drill, rlb.clone());
                        sc.cfg.switch.pfc_enabled = *pfc;
                        sc.cfg.transport.mode = *transport;
                        let res = sc.run_with_shards(shards);
                        // The retransmission count is in no standard block;
                        // it rides in as an extra measured after the run.
                        let retx: u64 = res.records.iter().map(|r| r.retransmitted_packets()).sum();
                        metrics_of(name, &res, vec![("retx_pkts", Json::U64(retx))])
                    },
                ));
            }
        }
        jobs
    }

    fn reduce(&self, outcomes: &[JobOutcome]) -> FigureReport {
        table::report(self.description, outcomes, self.cols)
    }
}
