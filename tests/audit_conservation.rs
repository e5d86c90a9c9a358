//! Property-based exercise of the runtime invariant auditor (the `audit`
//! cargo feature): random incast and burst workloads run with a tight
//! audit interval, so the packet-conservation, PFC-pairing and buffer
//! occupancy checks fire thousands of times per case. Any leak panics
//! inside the simulator with a full ledger report; the properties here
//! only need the runs to finish.
//!
//! Build with `cargo test --features audit` (CI does; a default build
//! compiles this file to nothing).
#![cfg(feature = "audit")]

use proptest::prelude::*;
use rlb::core::RlbConfig;
use rlb::engine::{SimDuration, SimTime};
use rlb::lb::Scheme;
use rlb::net::scenario::{FailSweepConfig, IncastScenarioConfig, MotivationConfig, Scenario};

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Ecmp),
        Just(Scheme::Presto),
        Just(Scheme::LetFlow),
        Just(Scheme::Hermes),
        Just(Scheme::Drill),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, // full simulations with a 256-event audit cadence
        .. ProptestConfig::default()
    })]

    /// Random incast fan-ins conserve packets under every scheme: the
    /// auditor cross-checks edge counters against switch buffers and the
    /// event queue every 256 events and again at drain.
    #[test]
    fn incast_conserves_packets(
        scheme in any_scheme(),
        use_rlb in any::<bool>(),
        seed in 0u64..10_000,
        degree in 4u32..20,
        requests in 1u32..4,
        response_kb in 50u64..2_000,
    ) {
        let mut sc = Scenario::incast(
            &IncastScenarioConfig {
                degree,
                requests,
                total_response_bytes: response_kb * 1024,
                request_interval: SimDuration::from_ms(1),
                seed,
                ..IncastScenarioConfig::default()
            },
            scheme,
            use_rlb.then(RlbConfig::default),
        );
        sc.cfg.audit_every_events = 256;
        let res = sc.run();
        prop_assert!(res.events_processed > 0);
    }

    /// The PFC-storm motivation scenario (pauses, CNMs, reroutes and
    /// recirculation all active) passes the same audit, including the
    /// pause/resume pairing ledger at drain.
    #[test]
    fn pfc_storm_conserves_packets(
        seed in 0u64..10_000,
        bursts in 1u32..4,
        flows_per_burst in 10u32..60,
        affected in 2u32..8,
    ) {
        let mut sc = Scenario::motivation(
            &MotivationConfig {
                n_paths: 12,
                n_background: 8,
                flows_per_burst,
                bursts,
                affected_paths: affected,
                congested_flow_bytes: 10_000_000,
                background_load: 0.2,
                horizon: SimTime::from_ms(2),
                seed,
                ..MotivationConfig::default()
            },
            Scheme::Drill,
            Some(RlbConfig::default()),
        );
        sc.cfg.audit_every_events = 256;
        let res = sc.run();
        prop_assert!(res.counters.pause_frames > 0, "storm must trigger PFC");
    }

    /// Fault injection must not leak packets: downed links freeze their
    /// queues instead of dropping, so conservation holds through every
    /// outage and recovery. Random failure counts, seeds and schemes, with
    /// the auditor cross-checking every 256 events.
    #[test]
    fn faulted_runs_conserve_packets(
        scheme in any_scheme(),
        use_rlb in any::<bool>(),
        seed in 0u64..10_000,
        n_failures in 1u32..5,
    ) {
        let mut sc = Scenario::fail_sweep(
            &FailSweepConfig {
                n_failures,
                load: 0.4,
                horizon: SimTime::from_us(400),
                fail_at: SimTime::from_us(50),
                fail_stagger: SimDuration::from_us(30),
                fail_duration: SimDuration::from_us(150),
                seed,
                ..FailSweepConfig::default()
            },
            scheme,
            use_rlb.then(RlbConfig::default),
        );
        sc.cfg.audit_every_events = 256;
        let res = sc.run();
        prop_assert_eq!(
            res.counters.faults_applied,
            u64::from(2 * n_failures),
            "every outage and recovery must fire"
        );
        prop_assert_eq!(res.counters.buffer_drops, 0, "lossless under faults");
    }
}
