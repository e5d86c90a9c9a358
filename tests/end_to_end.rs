//! End-to-end invariants across the whole stack: engine + transport +
//! switches + load balancing + RLB, exercised through real simulations.

use rlb::core::RlbConfig;
use rlb::engine::SimTime;
use rlb::lb::Scheme;
use rlb::net::scenario::{Scenario, SteadyStateConfig};
use rlb::net::{SimConfig, Simulation, TopoConfig};
use rlb::workloads::FlowSpec;

fn small_cfg(scheme: Scheme, rlb: Option<RlbConfig>) -> SimConfig {
    SimConfig {
        topo: TopoConfig {
            n_leaves: 3,
            n_spines: 3,
            hosts_per_leaf: 4,
            ..TopoConfig::default()
        },
        scheme,
        rlb,
        hard_stop: SimTime::from_ms(100),
        ..SimConfig::default()
    }
}

/// With PFC enabled the fabric must be lossless: zero buffer drops, every
/// flow completes, and every byte is accounted for.
#[test]
fn pfc_fabric_is_lossless_under_incast_pressure() {
    for scheme in [
        Scheme::Presto,
        Scheme::LetFlow,
        Scheme::Hermes,
        Scheme::Drill,
    ] {
        let victim = 4u32;
        let flows: Vec<FlowSpec> = [0u32, 1, 2, 3, 8, 9, 10, 11]
            .iter()
            .map(|&s| FlowSpec::new(SimTime::ZERO, s, victim, 400_000))
            .collect();
        let res = Simulation::new(small_cfg(scheme, None), flows).run();
        assert_eq!(
            res.counters.buffer_drops, 0,
            "{scheme:?}: PFC must prevent drops"
        );
        assert!(
            res.records.iter().all(|r| r.completed()),
            "{scheme:?}: all flows must complete"
        );
        assert!(
            res.counters.pause_frames > 0,
            "{scheme:?}: incast must pause"
        );
        // PAUSE/RESUME pairing: every pause eventually resumed (or at most
        // the in-flight tail at simulation end).
        assert!(
            res.counters.resume_frames + 16 >= res.counters.pause_frames,
            "{scheme:?}: resumes {} vs pauses {}",
            res.counters.resume_frames,
            res.counters.pause_frames
        );
    }
}

/// The RLB-enhanced fabric preserves losslessness and completion, and its
/// recirculations never exceed the per-packet budget times packet count.
#[test]
fn rlb_fabric_preserves_losslessness() {
    let victim = 4u32;
    let flows: Vec<FlowSpec> = [0u32, 1, 2, 3, 8, 9, 10, 11]
        .iter()
        .map(|&s| FlowSpec::new(SimTime::ZERO, s, victim, 400_000))
        .collect();
    let rlb = RlbConfig::default();
    let max_recirc = rlb.max_recirculations as u64;
    let res = Simulation::new(small_cfg(Scheme::Drill, Some(rlb)), flows).run();
    assert_eq!(res.counters.buffer_drops, 0);
    assert!(res.records.iter().all(|r| r.completed()));
    let total_sent: u64 = res.records.iter().map(|r| r.packets_sent).sum();
    assert!(
        res.counters.recirculations <= total_sent * max_recirc,
        "recirculation budget violated: {} recircs for {} packets",
        res.counters.recirculations,
        total_sent
    );
}

/// Go-back-N correctness end to end: even when the fabric reorders
/// heavily (DRILL per-packet spraying under congestion), every flow's
/// bytes are delivered and acknowledged exactly once, in order.
#[test]
fn go_back_n_delivers_under_heavy_reordering() {
    let sc = Scenario::steady_state(
        &SteadyStateConfig {
            topo: TopoConfig {
                n_leaves: 2,
                n_spines: 4,
                hosts_per_leaf: 4,
                ..TopoConfig::default()
            },
            load: 0.7,
            horizon: SimTime::from_ms(3),
            seed: 5,
            ..SteadyStateConfig::default()
        },
        Scheme::Drill,
        None,
    );
    let res = sc.run();
    let s = res.summary();
    assert_eq!(s.flows_completed, s.flows_total, "all flows complete");
    assert!(
        s.total_ooo_packets > 0,
        "the scenario must actually reorder"
    );
    // Retransmissions happened (go-back-N rewinds) yet everything landed.
    assert!(s.total_naks > 0, "NAKs must flow under reordering");
    for r in &res.records {
        assert!(
            r.packets_sent >= r.total_packets as u64,
            "flow {} sent fewer packets than its size requires",
            r.flow_id
        );
    }
}

/// Same seed ⇒ bit-identical run, different seed ⇒ different run.
#[test]
fn determinism_and_seed_sensitivity() {
    let run = |seed: u64| {
        let sc = Scenario::steady_state(
            &SteadyStateConfig {
                horizon: SimTime::from_us(800),
                load: 0.5,
                seed,
                ..SteadyStateConfig::default()
            },
            Scheme::LetFlow,
            Some(RlbConfig::default()),
        );
        let res = sc.run();
        (
            res.events_processed,
            res.counters.pause_frames,
            res.records.iter().map(|r| r.finish_ps).collect::<Vec<_>>(),
        )
    };
    let a = run(1);
    let b = run(1);
    let c = run(2);
    assert_eq!(a, b, "same seed must replay identically");
    assert_ne!(a.2, c.2, "different seeds must differ");
}

/// IRN mode: selective repeat survives a lossy fabric with far fewer
/// retransmissions than go-back-N, and everything still completes.
#[test]
fn irn_outperforms_gbn_on_lossy_fabric() {
    use rlb::net::TransportMode;
    let victim = 4u32;
    let run = |mode: TransportMode| {
        let flows: Vec<FlowSpec> = (0..4u32)
            .map(|s| FlowSpec::new(SimTime::ZERO, s, victim, 1_500_000))
            .collect();
        let mut cfg = small_cfg(Scheme::Drill, None);
        cfg.switch.pfc_enabled = false;
        cfg.switch.buffer_bytes = 300_000; // force drops
        cfg.transport.mode = mode;
        Simulation::new(cfg, flows).run()
    };
    let gbn = run(TransportMode::GoBackN);
    let irn = run(TransportMode::SelectiveRepeat);
    assert!(gbn.records.iter().all(|r| r.completed()));
    assert!(irn.records.iter().all(|r| r.completed()));
    let retx = |res: &rlb::net::RunResult| -> u64 {
        res.records.iter().map(|r| r.retransmitted_packets()).sum()
    };
    assert!(
        retx(&irn) < retx(&gbn),
        "selective repeat must retransmit less: IRN {} vs GBN {}",
        retx(&irn),
        retx(&gbn)
    );
}

/// Without PFC the same incast pressure is allowed to drop (lossy mode),
/// and go-back-N still recovers every flow.
#[test]
fn lossy_mode_drops_but_recovers() {
    let victim = 4u32;
    let flows: Vec<FlowSpec> = (0..4u32)
        .map(|s| FlowSpec::new(SimTime::ZERO, s, victim, 2_000_000))
        .collect();
    let mut cfg = small_cfg(Scheme::Drill, None);
    cfg.switch.pfc_enabled = false;
    cfg.switch.buffer_bytes = 300_000; // tiny buffer to force drops
    let res = Simulation::new(cfg, flows).run();
    assert!(res.counters.pause_frames == 0, "no PFC in lossy mode");
    assert!(
        res.records.iter().all(|r| r.completed()),
        "GBN must recover"
    );
}

/// ECN marking reaches receivers and produces CNPs that slow senders:
/// a 2:1 incast must not leave rates at line rate.
#[test]
fn dcqcn_reacts_to_congestion() {
    let flows = vec![
        FlowSpec::new(SimTime::ZERO, 0, 4, 3_000_000),
        FlowSpec::new(SimTime::ZERO, 1, 4, 3_000_000),
    ];
    let res = Simulation::new(small_cfg(Scheme::Ecmp, None), flows).run();
    assert!(
        res.counters.ecn_marks > 0,
        "persistent 2:1 overload must mark"
    );
    assert!(res.records.iter().all(|r| r.completed()));
    // Perfect fair sharing would finish both 3MB flows over a 40G link in
    // ~1.25ms; require completion in the right ballpark (not line-rate 0.6ms,
    // not pathological).
    let worst = res
        .records
        .iter()
        .map(|r| r.fct_ps().unwrap())
        .max()
        .unwrap();
    let worst_ms = worst as f64 / 1e9;
    assert!(
        worst_ms > 1.0,
        "two 3MB flows through one 40G link can't beat 1.2ms: {worst_ms}"
    );
    assert!(
        worst_ms < 20.0,
        "DCQCN shouldn't strand the incast: {worst_ms}"
    );
}
