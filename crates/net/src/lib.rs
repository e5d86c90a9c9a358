//! # rlb-net — packet-level lossless-Ethernet datacenter simulator
//!
//! The substrate the paper evaluated on NS-3, rebuilt from scratch:
//!
//! * [`topology`] — leaf–spine fabrics with optional link-rate asymmetry;
//! * [`switch`] — shared-memory switches with per-ingress PFC counters,
//!   PAUSE/RESUME, strict-priority control class, RED/ECN marking, packet
//!   recirculation and the RLB predictor hooks;
//! * [`host`] — RoCE-style NICs: per-flow DCQCN pacing, go-back-N;
//! * [`sim`] — the event loop wiring it all together with real one-hop
//!   latencies for every signal (PAUSE frames, CNMs, ACKs);
//! * [`scenario`] — the paper's experimental setups (Fig. 2 motivation
//!   dumbbell, §4.1 symmetric, §4.2 asymmetric, §4.3 incast) plus the
//!   failure-sweep scenario the paper never ran;
//! * [`fault`] — the declarative fault timeline (link/switch failures and
//!   recoveries, rate degradation, load scaling) executed as ordinary
//!   wheel events;
//! * [`spec`] — on-disk scenario specs: a deterministic TOML-subset
//!   reader/writer with span-carrying parse errors.
//!
//! ```
//! use rlb_net::{Scenario, SteadyStateConfig};
//! use rlb_lb::Scheme;
//! use rlb_core::RlbConfig;
//! use rlb_engine::SimTime;
//!
//! let mut sc = SteadyStateConfig::default();
//! sc.horizon = SimTime::from_us(300); // keep the doctest fast
//! let result = Scenario::steady_state(&sc, Scheme::Drill, Some(RlbConfig::default())).run();
//! assert_eq!(result.counters.buffer_drops, 0); // lossless
//! ```

// Library code must justify every panic site: bare unwrap() is denied here
// (tests are exempt). Enforced alongside `cargo xtask lint`'s lib-unwrap rule.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

#[cfg(feature = "audit")]
pub mod audit;
pub mod config;
pub mod fault;
pub mod host;
pub mod monitor;
pub mod packet;
pub mod scenario;
mod shard;
pub mod sim;
pub mod spec;
pub mod switch;
pub mod topology;
pub mod trace;

pub use config::{EcnConfig, SimConfig, SwitchConfig, TopoConfig, TransportConfig};
pub use fault::{flap, Fault, TimedFault};
pub use host::TransportMode;
pub use monitor::{FabricSample, FabricTimeSeries, MonitorConfig};
pub use packet::{Packet, PacketKind};
pub use scenario::{
    asymmetric_topo, FailSweepConfig, IncastScenarioConfig, MotivationConfig, Scenario,
    SteadyStateConfig,
};
pub use shard::{BarrierBroken, WindowBarrier};
pub use sim::{RunResult, Simulation};
pub use spec::{ScenarioSpec, SpecError};
pub use topology::{Node, Topology};
pub use trace::{FlowTraces, TraceEntry, TraceEvent};

/// SplitMix64 — shared stable hash for flow→path decisions.
#[inline]
pub fn hash_u64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
// Tests assert exact values that are exactly representable in binary floating
// point; the workspace-level float_cmp deny targets simulator arithmetic.
#[allow(clippy::float_cmp)]
mod smoke {
    use super::*;
    use rlb_engine::SimTime;
    use rlb_lb::Scheme;
    use rlb_workloads::FlowSpec;

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            topo: TopoConfig {
                n_leaves: 2,
                n_spines: 2,
                hosts_per_leaf: 2,
                ..TopoConfig::default()
            },
            scheme: Scheme::Ecmp,
            hard_stop: SimTime::from_ms(50),
            ..SimConfig::default()
        }
    }

    #[test]
    fn single_flow_completes_with_sane_fct() {
        // 100 KB from host 0 (leaf 0) to host 2 (leaf 1).
        let flows = vec![FlowSpec::new(SimTime::ZERO, 0, 2, 100_000)];
        let res = Simulation::new(tiny_cfg(), flows).run();
        assert_eq!(res.records.len(), 1);
        let r = &res.records[0];
        assert!(r.completed(), "flow did not complete");
        // Lower bound: 100 packets × 209.6 ns serialization ≈ 21 µs, plus
        // ~8.8 µs one-way latency and the ACK path back.
        let fct_us = r.fct_ps().unwrap() as f64 / 1e6;
        assert!(fct_us > 20.0, "FCT impossibly low: {fct_us} µs");
        assert!(fct_us < 200.0, "FCT absurdly high: {fct_us} µs");
        assert_eq!(r.ooo_packets, 0, "single flow on ECMP cannot reorder");
        assert_eq!(res.counters.buffer_drops, 0);
    }

    #[test]
    fn bidirectional_flows_complete() {
        let flows = vec![
            FlowSpec::new(SimTime::ZERO, 0, 2, 50_000),
            FlowSpec::new(SimTime::ZERO, 2, 0, 50_000),
            FlowSpec::new(SimTime::from_us(10), 1, 3, 20_000),
        ];
        let res = Simulation::new(tiny_cfg(), flows).run();
        assert!(res.records.iter().all(|r| r.completed()));
    }

    #[test]
    fn intra_leaf_flow_never_touches_core() {
        // host 0 → host 1, same leaf.
        let flows = vec![FlowSpec::new(SimTime::ZERO, 0, 1, 10_000)];
        let res = Simulation::new(tiny_cfg(), flows).run();
        assert!(res.records[0].completed());
        // Data hops: only the single leaf switch forwards the 10 packets
        // (plus control frames do not count as switch data packets).
        assert_eq!(res.counters.switch_packets, 10);
    }

    #[test]
    fn cnm_chain_reaches_source_leaf_and_changes_decisions() {
        // Core-side incast: 6 senders across leaf 0 and leaf 2 hammer one
        // host on leaf 1 through the spines. The victim leaf's uplink
        // ingress counters must climb, its predictor must emit CNMs, the
        // spines must relay them to the contributing source leaves, and
        // RLB must react with reroutes and/or recirculations.
        let cfg = SimConfig {
            topo: TopoConfig {
                n_leaves: 3,
                n_spines: 3,
                hosts_per_leaf: 4,
                ..TopoConfig::default()
            },
            scheme: Scheme::Drill,
            // Under this core-side incast the warnings are fabric-wide —
            // almost every decision sees *all* paths warned, so the default
            // all-warned policy (forward anyway) leaves reroute counts at
            // the mercy of tie-order. Allow the one all-warned
            // recirculation so a warned decision observably reacts.
            rlb: Some(rlb_core::RlbConfig {
                recirculate_when_all_warned: true,
                ..rlb_core::RlbConfig::default()
            }),
            hard_stop: SimTime::from_ms(100),
            ..SimConfig::default()
        };
        let victim = 4; // first host of leaf 1
        let senders = [0u32, 1, 2, 3, 8, 9];
        let flows: Vec<FlowSpec> = senders
            .iter()
            .map(|&s| FlowSpec::new(SimTime::ZERO, s, victim, 600_000))
            .collect();
        let res = Simulation::new(cfg, flows).run();
        assert!(
            res.records.iter().all(|r| r.completed()),
            "incast must finish"
        );
        assert!(res.counters.pause_frames > 0, "incast must trigger PFC");
        assert!(res.counters.cnm_generated > 0, "predictor must warn");
        assert!(
            res.counters.cnm_relayed > 0,
            "spines must relay CNMs to the source leaves (got {} generated)",
            res.counters.cnm_generated
        );
        assert!(
            res.counters.reroutes + res.counters.recirculations > 0,
            "warnings must change RLB decisions (reroutes={}, recirc={})",
            res.counters.reroutes,
            res.counters.recirculations
        );
    }

    #[test]
    fn tracer_records_flow_lifecycle() {
        let mut cfg = tiny_cfg();
        cfg.trace_flows = vec![0];
        let flows = vec![
            FlowSpec::new(SimTime::ZERO, 0, 2, 10_000),
            FlowSpec::new(SimTime::ZERO, 1, 3, 10_000), // untraced
        ];
        let res = Simulation::new(cfg, flows).run();
        use trace::TraceEvent;
        let sent = res.traces.count(0, |e| matches!(e, TraceEvent::Sent));
        let routed = res
            .traces
            .count(0, |e| matches!(e, TraceEvent::Routed { .. }));
        let delivered = res.traces.count(0, |e| matches!(e, TraceEvent::Delivered));
        assert_eq!(sent, 10, "10 packets sent");
        assert_eq!(routed, 10, "each routed once at the source leaf");
        assert_eq!(delivered, 10, "all delivered in order");
        assert!(res.traces.get(1).is_none(), "flow 1 untraced");
        // Chronological order within the trace.
        let entries = res.traces.get(0).unwrap();
        for w in entries.windows(2) {
            assert!(w[0].t_ps <= w[1].t_ps);
        }
    }

    #[test]
    fn monitor_collects_timeseries() {
        let mut cfg = tiny_cfg();
        cfg.monitor = Some(monitor::MonitorConfig {
            interval: rlb_engine::SimDuration::from_us(5),
        });
        let flows = vec![FlowSpec::new(SimTime::ZERO, 0, 2, 100_000)];
        let res = Simulation::new(cfg, flows).run();
        assert!(!res.timeseries.is_empty(), "monitor must sample");
        // Samples are time-ordered and spaced by the interval.
        for w in res.timeseries.samples.windows(2) {
            assert_eq!(w[1].t_ps - w[0].t_ps, 5_000_000);
        }
        // A single 100KB flow definitely buffers something at some point.
        assert!(res.timeseries.peak_buffered_bytes() > 0);
        assert_eq!(
            res.timeseries.paused_fraction(),
            0.0,
            "one flow never pauses"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let sc = Scenario::steady_state(
                &SteadyStateConfig {
                    horizon: SimTime::from_us(500),
                    load: 0.5,
                    seed: 99,
                    ..SteadyStateConfig::default()
                },
                Scheme::Drill,
                Some(rlb_core::RlbConfig::default()),
            );
            sc.run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.counters.pause_frames, b.counters.pause_frames);
        let fa: Vec<_> = a.records.iter().map(|r| r.finish_ps).collect();
        let fb: Vec<_> = b.records.iter().map(|r| r.finish_ps).collect();
        assert_eq!(fa, fb);
    }
}
