//! The six named workloads. Each is a closed loop of one simulation at a
//! time, PFC on (lossless), inputs generated from `--seed` alone; the
//! simulator receives only the generated scenario. `why` records what
//! each workload loads that the others do not (mirrored in
//! `BENCHMARK.json` and `README.md`).

use rlb_core::RlbConfig;
use rlb_engine::SimTime;
use rlb_lb::Scheme;
use rlb_net::spec::{TopoSpec, WorkloadEntry};
use rlb_net::{MotivationConfig, ScenarioSpec};
use rlb_workloads::Workload as Cdf;

/// Where a workload's input comes from.
#[derive(Debug, Clone)]
pub enum Input {
    /// Leaf–spine steady state, expressed as a scenario spec so set-up
    /// runs the user-reachable path: spec text → parse → build.
    Spec(ScenarioSpec),
    /// The Fig. 2 motivation dumbbell (no spec grammar for it): built by
    /// `Scenario::motivation`.
    Motivation {
        mc: MotivationConfig,
        scheme: Scheme,
        rlb: Option<RlbConfig>,
    },
    /// `rlb-bench` fig6 at Quick scale, one seed replicate, through the
    /// cached runner; the payload is the figure's seed offset.
    Fig6 { seed_offset: u64 },
}

pub struct Workload {
    pub input: Input,
    /// Shard count handed to `Scenario::run_with_shards` (1 = sequential
    /// `Simulation::run`).
    pub shards: u16,
    /// Result digests pinned at seeds 1 and 2 (`model.digest_match`).
    pub pinned: [u64; 2],
}

impl Workload {
    /// The inner scheme — what the `lb.select_ns` kernel builds. fig6 runs
    /// all four paper schemes; DRILL stands in for them.
    pub fn scheme(&self) -> Scheme {
        match &self.input {
            Input::Spec(spec) => spec.scheme,
            Input::Motivation { scheme, .. } => *scheme,
            Input::Fig6 { .. } => Scheme::Drill,
        }
    }

    /// Whether the scheme is RLB-enhanced. Without RLB `core` must stay
    /// untouched: no CNM, no reroute, no recirculation (checked per run).
    /// fig6 runs every scheme both ways.
    pub fn rlb(&self) -> bool {
        match &self.input {
            Input::Spec(spec) => spec.rlb,
            Input::Motivation { rlb, .. } => rlb.is_some(),
            Input::Fig6 { .. } => true,
        }
    }

    /// Candidate uplinks per LB decision — sizes the `lb`/`core` kernels.
    pub fn n_paths(&self) -> usize {
        match &self.input {
            Input::Spec(spec) => spec.topo.n_spines as usize,
            Input::Motivation { mc, .. } => mc.n_paths as usize,
            Input::Fig6 { .. } => 4,
        }
    }
}

pub const NAMES: [&str; 6] = [
    "steady_websearch",
    "steady_websearch_sharded",
    "pfc_storm",
    "mice_ecmp",
    "paper_fabric",
    "fig6_pipeline",
];

/// A one-CDF Poisson steady state on an `(leaves, spines, hosts/leaf)`
/// fabric; the scheme and RLB flag are the caller's to set.
fn leaf_spine(
    name: &str,
    seed: u64,
    fabric: (u32, u32, u32),
    horizon_ms: u64,
    cdf: Cdf,
    load_permille: u32,
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        seed,
        horizon: SimTime::from_ms(horizon_ms),
        topo: TopoSpec {
            n_leaves: fabric.0,
            n_spines: fabric.1,
            hosts_per_leaf: fabric.2,
            ..TopoSpec::default()
        },
        workloads: vec![WorkloadEntry {
            kind: cdf,
            load_permille,
        }],
        ..ScenarioSpec::default()
    }
}

/// Build the named workload for `seed`; `None` for an unknown name.
pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
    // The sharded workload reuses this verbatim — same spec name, so the
    // same canonical text: a byte-identical input.
    let websearch = ScenarioSpec {
        scheme: Scheme::Drill,
        rlb: true,
        ..leaf_spine("steady_websearch", seed, (4, 4, 8), 20, Cdf::WebSearch, 600)
    };
    Some(match name {
        "steady_websearch" => Workload {
            input: Input::Spec(websearch),
            shards: 1,
            pinned: [0x35ce_530e_0db2_4d18, 0x1ca0_5d48_f001_8236],
        },
        "steady_websearch_sharded" => Workload {
            input: Input::Spec(websearch),
            shards: 2,
            pinned: [0x35ce_530e_0db2_4d18, 0x1ca0_5d48_f001_8236],
        },
        "pfc_storm" => Workload {
            input: Input::Motivation {
                mc: MotivationConfig {
                    n_paths: 40,
                    n_background: 32,
                    bursts: 6,
                    affected_paths: 5,
                    congested_flow_bytes: 120_000_000,
                    horizon: SimTime::from_ms(12),
                    seed,
                    ..MotivationConfig::default()
                },
                scheme: Scheme::Hermes,
                rlb: Some(RlbConfig::default()),
            },
            shards: 1,
            pinned: [0x8f29_2936_7c71_562e, 0x9857_d5a9_0749_020f],
        },
        "mice_ecmp" => Workload {
            input: Input::Spec(ScenarioSpec {
                scheme: Scheme::Ecmp,
                rlb: false,
                ..leaf_spine("mice_ecmp", seed, (4, 4, 8), 20, Cdf::WebServer, 500)
            }),
            shards: 1,
            pinned: [0x6b6d_a640_0dde_e8fb, 0x0c86_55c8_3162_cec4],
        },
        "paper_fabric" => Workload {
            input: Input::Spec(ScenarioSpec {
                scheme: Scheme::Hermes,
                rlb: true,
                ..leaf_spine("paper_fabric", seed, (12, 12, 24), 2, Cdf::WebSearch, 600)
            }),
            shards: 1,
            pinned: [0xfbf5_07e9_4719_2161, 0x0974_4a3d_17e1_e85c],
        },
        "fig6_pipeline" => Workload {
            input: Input::Fig6 { seed_offset: seed },
            shards: 1,
            pinned: [0x5287_f821_b270_5be7, 0xea88_246f_d40f_371b],
        },
        _ => return None,
    })
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use rlb_bench::figures::fig6::Fig6;
    use rlb_bench::{Figure, Scale};
    use rlb_net::Scenario;

    /// The named workload with its arrival horizon cut to 300 µs (and the
    /// dumbbell's bursts and congested flow cut to fit the hard stop that
    /// follows from it), so the builders and the whole measuring pipeline
    /// run in milliseconds.
    pub fn tiny(name: &str, seed: u64) -> Workload {
        let mut w = by_name(name, seed).expect("known workload");
        match &mut w.input {
            Input::Spec(spec) => spec.horizon = SimTime::from_us(300),
            Input::Motivation { mc, .. } => {
                mc.horizon = SimTime::from_us(300);
                mc.congested_flow_bytes = 500_000;
                mc.bursts = 1;
                mc.flows_per_burst = 4;
            }
            Input::Fig6 { .. } => {}
        }
        w
    }

    fn build(w: &Workload) -> Scenario {
        match &w.input {
            Input::Spec(spec) => {
                let parsed =
                    ScenarioSpec::parse(&spec.to_spec_text()).expect("canonical text parses");
                assert_eq!(&parsed, spec, "spec text round-trips");
                parsed.build().expect("spec builds")
            }
            Input::Motivation { mc, scheme, rlb } => Scenario::motivation(mc, *scheme, rlb.clone()),
            Input::Fig6 { .. } => panic!("fig6 builds its scenarios inside its jobs"),
        }
    }

    #[test]
    fn every_builder_makes_the_scenario_its_row_promises() {
        // (name, scheme, RLB, spines, hosts, shards)
        let rows = [
            ("steady_websearch", Scheme::Drill, true, 4, 32, 1),
            ("steady_websearch_sharded", Scheme::Drill, true, 4, 32, 2),
            ("pfc_storm", Scheme::Hermes, true, 40, 70, 1),
            ("mice_ecmp", Scheme::Ecmp, false, 4, 32, 1),
            ("paper_fabric", Scheme::Hermes, true, 12, 288, 1),
        ];
        for (name, scheme, rlb, spines, hosts, shards) in rows {
            let w = tiny(name, 1);
            let sc = build(&w);
            assert!(!sc.flows.is_empty(), "{name}: no flows");
            assert_eq!(sc.cfg.scheme, scheme, "{name}");
            assert_eq!(w.scheme(), scheme, "{name}: kernel scheme");
            assert_eq!(sc.cfg.rlb.is_some(), rlb, "{name}");
            assert!(sc.cfg.switch.pfc_enabled, "{name}: lossless");
            assert_eq!(sc.cfg.topo.n_spines, spines, "{name}");
            assert_eq!(w.n_paths(), spines as usize, "{name}: kernel path count");
            assert_eq!(sc.cfg.topo.n_hosts(), hosts, "{name}");
            assert_eq!(w.shards, shards, "{name}");
            assert_eq!(sc.cfg.seed, 1, "{name}");
        }
    }

    #[test]
    fn sharded_input_is_byte_identical_to_the_sequential_one() {
        let text = |name| match by_name(name, 5).expect("known").input {
            Input::Spec(spec) => spec.to_spec_text(),
            _ => panic!("spec workload"),
        };
        assert_eq!(text("steady_websearch"), text("steady_websearch_sharded"));
    }

    #[test]
    fn the_seed_changes_the_input_and_nothing_else_does() {
        let flows = |seed| build(&tiny("steady_websearch", seed)).flows;
        let starts = |seed| flows(seed).iter().map(|f| f.start).collect::<Vec<_>>();
        assert_eq!(starts(3), starts(3));
        assert_ne!(starts(3), starts(4));
    }

    #[test]
    fn fig6_expands_to_eight_jobs_on_the_offset_seed() {
        let Input::Fig6 { seed_offset } = by_name("fig6_pipeline", 2).expect("known").input else {
            panic!("fig6 input");
        };
        let jobs = Fig6.jobs(Scale::Quick, &[seed_offset], 1);
        assert_eq!(jobs.len(), 8);
        assert!(jobs.iter().all(|j| j.seed == 7 + 2));
    }

    #[test]
    fn names_resolve_and_strangers_do_not() {
        for name in NAMES {
            assert!(by_name(name, 1).is_some(), "{name}");
        }
        assert!(by_name("nope", 1).is_none());
    }
}
