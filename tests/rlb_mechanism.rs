//! Integration tests for RLB's mechanism chain and its headline effect:
//! prediction → CNM → upstream warning → reroute/recirculate → less
//! reordering for the innocent traffic.

use rlb::core::RlbConfig;
use rlb::engine::SimTime;
use rlb::lb::Scheme;
use rlb::metrics::FctSummary;
use rlb::net::scenario::{MotivationConfig, Scenario, BACKGROUND_GROUP};
use rlb::net::RunResult;

fn small_motivation(seed: u64) -> MotivationConfig {
    MotivationConfig {
        n_paths: 12,
        n_background: 12,
        n_burst_senders: 2,
        n_burst_senders_dst: 2,
        flows_per_burst: 40,
        bursts: 3,
        affected_paths: 4,
        congested_flow_bytes: 20_000_000,
        background_load: 0.25,
        horizon: SimTime::from_ms(2),
        seed,
    }
}

fn background_summary(res: &RunResult) -> FctSummary {
    let bg: Vec<_> = res
        .records
        .iter()
        .zip(res.groups.iter())
        .filter(|(_, g)| **g == BACKGROUND_GROUP)
        .map(|(r, _)| r.clone())
        .collect();
    assert!(!bg.is_empty());
    FctSummary::from_records(&bg)
}

/// The full warning pipeline fires in the motivation scenario: the victim
/// leaf predicts, CNMs relay through the spines, the source leaf records
/// warnings and RLB changes decisions.
#[test]
fn warning_pipeline_fires_end_to_end() {
    let res = Scenario::motivation(
        &small_motivation(1),
        Scheme::Drill,
        Some(RlbConfig::default()),
    )
    .run();
    assert!(res.counters.pause_frames > 0, "bursts must trigger PFC");
    assert!(res.counters.cnm_generated > 0, "predictor must warn");
    assert!(res.counters.cnm_relayed > 0, "spines must relay CNMs");
    assert!(
        res.counters.reroutes + res.counters.recirculations > 0,
        "RLB must act on warnings"
    );
}

/// The paper's headline: RLB cuts the background flows' out-of-order
/// degree and tail FCT in the PFC-storm scenario. Averaged over seeds to
/// be robust against single-run noise.
#[test]
fn rlb_reduces_background_ood_and_tail_fct() {
    let mut vanilla_ood = 0.0;
    let mut rlb_ood = 0.0;
    let mut vanilla_p99 = 0.0;
    let mut rlb_p99 = 0.0;
    let seeds = [1u64, 2, 3];
    for &seed in &seeds {
        let mc = small_motivation(seed);
        let v = background_summary(&Scenario::motivation(&mc, Scheme::Drill, None).run());
        let r = background_summary(
            &Scenario::motivation(&mc, Scheme::Drill, Some(RlbConfig::default())).run(),
        );
        vanilla_ood += v.p99_ood;
        rlb_ood += r.p99_ood;
        vanilla_p99 += v.p99_fct_ms;
        rlb_p99 += r.p99_fct_ms;
    }
    let n = seeds.len() as f64;
    assert!(
        rlb_ood / n < vanilla_ood / n,
        "RLB must cut p99 OOD: vanilla {:.0} vs RLB {:.0}",
        vanilla_ood / n,
        rlb_ood / n
    );
    assert!(
        rlb_p99 < vanilla_p99 * 1.02,
        "RLB must not inflate tail FCT: vanilla {:.3} vs RLB {:.3}",
        vanilla_p99 / n,
        rlb_p99 / n
    );
}

/// PFC is the reordering culprit: disabling it in the same scenario slashes
/// the background OOD (Fig. 3's contrast), for every scheme.
#[test]
fn pfc_inflates_out_of_order_degree() {
    for scheme in [Scheme::Presto, Scheme::Drill] {
        let mc = small_motivation(7);
        let mut on = Scenario::motivation(&mc, scheme, None);
        on.cfg.switch.pfc_enabled = true;
        let mut off = Scenario::motivation(&mc, scheme, None);
        off.cfg.switch.pfc_enabled = false;
        let s_on = background_summary(&on.run());
        let s_off = background_summary(&off.run());
        assert!(
            s_on.p99_ood > s_off.p99_ood,
            "{scheme:?}: PFC-on OOD {:.0} must exceed PFC-off {:.0}",
            s_on.p99_ood,
            s_off.p99_ood
        );
    }
}

/// The Fig. 4(a) trend: more affected paths ⇒ more background reordering.
#[test]
fn reordering_grows_with_affected_paths() {
    let ooo_at = |k: u32| {
        let mut mc = small_motivation(11);
        mc.affected_paths = k;
        background_summary(&Scenario::motivation(&mc, Scheme::Drill, None).run()).ooo_ratio
    };
    let few = ooo_at(2);
    let many = ooo_at(10);
    assert!(
        many > few,
        "OOO must grow with affected paths: {few:.4} (2 paths) vs {many:.4} (10 paths)"
    );
}

/// Recirculated packets never exceed the configured budget per packet and
/// the ablation flag really disables recirculation.
#[test]
fn recirculation_budget_and_ablation() {
    let mc = small_motivation(13);
    let no_recirc = RlbConfig {
        enable_recirculation: false,
        ..RlbConfig::default()
    };
    let res = Scenario::motivation(&mc, Scheme::Presto, Some(no_recirc)).run();
    assert_eq!(
        res.counters.recirculations, 0,
        "ablation must disable recirculation"
    );

    let res2 = Scenario::motivation(&mc, Scheme::Presto, Some(RlbConfig::default())).run();
    // Budget: total recirculations bounded by packets x max_recirculations.
    let sent: u64 = res2.records.iter().map(|r| r.packets_sent).sum();
    assert!(res2.counters.recirculations <= sent * RlbConfig::default().max_recirculations as u64);
}

/// Path-restricted flows (the Fig. 4a control) never leave their allowed
/// spines, verified packet-by-packet with the flow tracer — even under
/// DRILL's per-packet spraying and with RLB rerouting enabled.
#[test]
fn path_limit_confines_flows_to_allowed_spines() {
    use rlb::net::{SimConfig, Simulation, TopoConfig, TraceEvent};
    use rlb::workloads::FlowSpec;
    let cfg = SimConfig {
        topo: TopoConfig {
            n_leaves: 2,
            n_spines: 8,
            hosts_per_leaf: 4,
            ..TopoConfig::default()
        },
        scheme: Scheme::Drill,
        rlb: Some(RlbConfig::default()),
        hard_stop: SimTime::from_ms(100),
        trace_flows: vec![0],
        ..SimConfig::default()
    };
    let flows = vec![
        FlowSpec::new(SimTime::ZERO, 0, 4, 500_000).with_path_limit(3),
        // Competing traffic to create congestion and RLB activity.
        FlowSpec::new(SimTime::ZERO, 1, 4, 500_000),
        FlowSpec::new(SimTime::ZERO, 2, 4, 500_000),
    ];
    let res = Simulation::new(cfg, flows).run();
    assert!(res.records.iter().all(|r| r.completed()));
    let entries = res.traces.get(0).expect("flow 0 traced");
    let mut routed = 0;
    for e in entries {
        if let TraceEvent::Routed { path } = e.event {
            assert!(path < 3, "restricted flow escaped onto spine {path}");
            routed += 1;
        }
    }
    assert!(routed >= 500, "flow 0's packets must be routed: {routed}");
}

/// RLB leaves an uncongested fabric alone: without pauses there are no
/// warnings and the enhanced scheme behaves exactly like the vanilla one.
#[test]
fn rlb_is_transparent_without_congestion() {
    use rlb::net::{SimConfig, Simulation, TopoConfig};
    use rlb::workloads::FlowSpec;
    let mk = |rlb: Option<RlbConfig>| {
        let cfg = SimConfig {
            topo: TopoConfig {
                n_leaves: 2,
                n_spines: 4,
                hosts_per_leaf: 2,
                ..TopoConfig::default()
            },
            scheme: Scheme::Presto,
            rlb,
            hard_stop: SimTime::from_ms(50),
            ..SimConfig::default()
        };
        // One gentle flow: no congestion anywhere.
        let flows = vec![FlowSpec::new(SimTime::ZERO, 0, 2, 200_000)];
        Simulation::new(cfg, flows).run()
    };
    let vanilla = mk(None);
    let enhanced = mk(Some(RlbConfig::default()));
    assert_eq!(enhanced.counters.cnm_generated, 0);
    assert_eq!(enhanced.counters.recirculations, 0);
    assert_eq!(
        vanilla.records[0].finish_ps, enhanced.records[0].finish_ps,
        "identical FCT when RLB never intervenes"
    );
}
