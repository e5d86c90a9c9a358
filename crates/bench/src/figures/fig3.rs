//! Fig. 3 — how PFC cripples the four load-balancing schemes.
//!
//! The motivation dumbbell (Fig. 2): Web-Search background f1..fn between
//! the two leaves, continuous line-rate 64 KB bursts plus a long congested
//! flow fc (restricted to 5 paths) aimed at one victim receiver. Each
//! scheme runs with PFC enabled and disabled; the figure reports, for the
//! *background* flows: (a) PFC pause rate, (b) 99th-percentile OOD,
//! (c) average FCT, (d) 99th-percentile FCT.

use super::common::{pick, Variant};
use super::table::{self, f0, ms, text, Col, Sweep};
use super::{Figure, FigureReport};
use crate::json::Json;
use crate::runner::{Job, JobOutcome};
use crate::Scale;
use rlb_engine::SimTime;
use rlb_net::scenario::{MotivationConfig, Scenario};

const COLS: [Col; 6] = [
    Col::coord("scheme", "scheme", text),
    Col::coord("pfc", "pfc", text),
    Col::mean(
        "pause_rate_per_sec",
        "pause_rate/s",
        &["pause_rate_per_sec"],
        f0,
    ),
    Col::mean("p99_ood", "p99_ood_pkts", &["background", "p99_ood"], f0),
    Col::mean(
        "avg_fct_ms",
        "avg_fct_ms",
        &["background", "avg_fct_ms"],
        ms,
    ),
    Col::mean(
        "p99_fct_ms",
        "p99_fct_ms",
        &["background", "p99_fct_ms"],
        ms,
    ),
];

pub fn config(scale: Scale) -> MotivationConfig {
    MotivationConfig {
        n_paths: 40,
        n_background: pick(scale, 24, 100),
        n_burst_senders: 2,
        n_burst_senders_dst: pick(scale, 2, 3),
        flows_per_burst: 40,
        bursts: 2,
        affected_paths: 5,
        congested_flow_bytes: pick(scale, 30_000_000, 250_000_000),
        background_load: pick(scale, 0.2, 0.3),
        horizon: SimTime::from_ms(pick(scale, 3, 10)),
        seed: 1,
    }
}

pub struct Fig3;

impl Figure for Fig3 {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn description(&self) -> &'static str {
        "LB schemes with vs. without PFC (motivation dumbbell, background flows)"
    }

    fn cols(&self) -> &'static [Col] {
        &COLS
    }

    fn jobs(&self, scale: Scale, seeds: &[u64], shards: u16) -> Vec<Job> {
        let sweep = Sweep {
            fig: self.name(),
            shards,
        };
        let mut jobs = Vec::new();
        for &scheme in &rlb_lb::Scheme::PAPER_SET {
            for pfc in [true, false] {
                for &offset in seeds {
                    let mut mc = config(scale);
                    mc.seed += offset;
                    let v = Variant::vanilla(scheme);
                    jobs.push(sweep.point(
                        format!("{} pfc={}", v.label(), if pfc { "on" } else { "off" }),
                        v.label(),
                        vec![
                            ("scheme", Json::Str(scheme.name().to_string())),
                            ("pfc", Json::Bool(pfc)),
                        ],
                        mc.seed,
                        (v, mc),
                        move |(v, mc)| {
                            let mut sc = Scenario::motivation(mc, v.scheme, None);
                            sc.cfg.switch.pfc_enabled = pfc;
                            sc
                        },
                    ));
                }
            }
        }
        jobs
    }

    fn reduce(&self, outcomes: &[JobOutcome]) -> FigureReport {
        table::report(
            "Fig. 3 — LB schemes with vs. without PFC (motivation dumbbell, background flows)",
            outcomes,
            &COLS,
        )
    }
}
