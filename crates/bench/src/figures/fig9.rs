//! Fig. 9 — the recirculation ablation: Presto+RLB and Hermes+RLB with
//! recirculation enabled vs. disabled ("RLB w/o Recir."), 99th-percentile
//! FCT at 40/60/80 % load, Web Server and Data Mining workloads.

use super::common::{pick, Variant};
use super::table::{self, ms, text, Col, Sweep};
use super::{Figure, FigureReport};
use crate::json::Json;
use crate::runner::{Job, JobOutcome};
use crate::Scale;
use rlb_core::RlbConfig;
use rlb_engine::SimTime;
use rlb_lb::Scheme;
use rlb_net::scenario::{Scenario, SteadyStateConfig};
use rlb_net::TopoConfig;
use rlb_workloads::Workload;

const COLS: [Col; 5] = [
    Col::coord("workload", "workload", text),
    Col::coord("variant", "scheme", text),
    Col::coord("load", "load", |v| format!("{:.0}%", table::num(v) * 100.0)),
    Col::mean("p99_fct_ms", "p99_fct_ms", &["all", "p99_fct_ms"], ms),
    Col::count(
        "recirculations",
        "recirculations",
        &["counters", "recirculations"],
    ),
];

pub const LOADS: [f64; 3] = [0.4, 0.6, 0.8];
pub const WORKLOADS: [Workload; 2] = [Workload::WebServer, Workload::DataMining];

pub struct Fig9;

impl Figure for Fig9 {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn description(&self) -> &'static str {
        "Recirculation ablation: RLB vs. RLB w/o Recir., p99 FCT by load"
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
        for workload in WORKLOADS {
            for scheme in [Scheme::Presto, Scheme::Hermes] {
                for recirc in [false, true] {
                    for &load in &LOADS {
                        for &offset in seeds {
                            let rlb = RlbConfig {
                                enable_recirculation: recirc,
                                ..RlbConfig::default()
                            };
                            let variant = format!(
                                "{}+RLB{}",
                                scheme.name(),
                                if recirc { "" } else { " w/o Recir." }
                            );
                            let sc = SteadyStateConfig {
                                topo: pick(scale, TopoConfig::default(), TopoConfig::paper_scale()),
                                workload,
                                load,
                                horizon: SimTime::from_ms(pick(scale, 16, 30)),
                                seed: 23 + offset,
                            };
                            jobs.push(sweep.point(
                                format!("{} {variant} load={load:.1}", workload.name()),
                                variant,
                                vec![
                                    ("workload", Json::Str(workload.name().to_string())),
                                    ("load", Json::F64(load)),
                                ],
                                sc.seed,
                                (
                                    Variant {
                                        scheme,
                                        rlb: Some(rlb),
                                    },
                                    sc,
                                ),
                                |(v, sc)| Scenario::steady_state(sc, v.scheme, v.rlb.clone()),
                            ));
                        }
                    }
                }
            }
        }
        jobs
    }

    fn reduce(&self, outcomes: &[JobOutcome]) -> FigureReport {
        table::report(
            "Fig. 9 — effectiveness of packet recirculation (99p FCT)",
            outcomes,
            &COLS,
        )
    }
}
