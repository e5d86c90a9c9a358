//! Determinism regression: the simulator is a pure function of its config
//! and seed. Two runs of the same scenario must agree bit-for-bit on every
//! observable — FCT list, per-port PFC pause counts, counters, event count.
//!
//! This is the property `cargo xtask lint` guards statically (no wall
//! clock, no unseeded RNG, no hash-order iteration); here we check it
//! dynamically on a scenario that exercises PFC, CNMs and recirculation.

use rlb::core::RlbConfig;
use rlb::engine::{SimDuration, SimTime};
use rlb::lb::Scheme;
use rlb::metrics::Num;
use rlb::net::scenario::{FailSweepConfig, IncastScenarioConfig, MotivationConfig, Scenario};
use rlb::net::RunResult;

/// ((is_spine, switch_idx), port) — the key of `RunResult::pfc_pauses_by_port`.
type PortKey = ((bool, u32), u16);

/// A digest of everything externally observable about a run. Exact integer
/// comparisons only: picosecond timestamps and counts, no floats.
#[derive(Debug, PartialEq)]
struct Digest {
    fcts_ps: Vec<(u64, Option<u64>)>,
    pfc_pauses_by_port: Vec<(PortKey, u64)>,
    /// Every fabric counter the record declares, by name.
    counters: Vec<(&'static str, Num)>,
    events_processed: u64,
    end_ps: u64,
}

impl Digest {
    fn counter(&self, name: &str) -> u64 {
        match self.counters.iter().find(|c| c.0 == name) {
            Some(&(_, Num::U64(n))) => n,
            other => panic!("fabric counter `{name}` is {other:?}"),
        }
    }
}

fn digest(res: &RunResult) -> Digest {
    Digest {
        fcts_ps: res
            .records
            .iter()
            .map(|r| (r.start_ps, r.finish_ps))
            .collect(),
        pfc_pauses_by_port: res
            .pfc_pauses_by_port
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect(),
        counters: res.counters.fields(),
        events_processed: res.events_processed,
        end_ps: res.end_time.as_ps(),
    }
}

fn pfc_heavy_scenario(seed: u64) -> MotivationConfig {
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

/// Same seed ⇒ byte-identical run, through the full RLB pipeline (PFC
/// storms, CNM relaying, reroutes and recirculation all active).
#[test]
fn identical_seeds_produce_identical_runs() {
    let mk = || {
        Scenario::motivation(
            &pfc_heavy_scenario(42),
            Scheme::Drill,
            Some(RlbConfig::default()),
        )
    };
    let a = digest(&mk().run());
    let b = digest(&mk().run());
    assert!(a.counter("pause_frames") > 0, "scenario must exercise PFC");
    assert!(
        !a.pfc_pauses_by_port.is_empty(),
        "per-port pause ledger must be populated"
    );
    assert_eq!(a, b, "same config + seed must reproduce bit-for-bit");
}

/// Same property through RLB wrapping a *stateful flowlet* scheme: LetFlow
/// keeps a per-flow table (now a `FlowTable`) and draws from its RNG only
/// on flowlet boundaries, and the RLB override table rides on top — so this
/// covers the dense flow-state tables on a path where flowlet timeouts,
/// reroutes and per-flow overrides all churn them.
#[test]
fn identical_seeds_identical_runs_rlb_letflow() {
    let mk = || {
        Scenario::motivation(
            &pfc_heavy_scenario(7),
            Scheme::LetFlow,
            Some(RlbConfig::default()),
        )
    };
    let a = digest(&mk().run());
    let b = digest(&mk().run());
    assert!(a.counter("pause_frames") > 0, "scenario must exercise PFC");
    assert!(
        a.counter("recirculations") > 0 || a.counter("cnm_generated") > 0,
        "RLB machinery must be active"
    );
    assert_eq!(a, b, "RLB+LetFlow must reproduce bit-for-bit");
}

/// The per-port ledger and the aggregate counter are two views of the same
/// events and must always agree.
#[test]
fn per_port_pauses_sum_to_aggregate_counter() {
    let res = Scenario::motivation(
        &pfc_heavy_scenario(5),
        Scheme::Drill,
        Some(RlbConfig::default()),
    )
    .run();
    let sum: u64 = res.pfc_pauses_by_port.values().sum();
    assert_eq!(sum, res.counters.pause_frames);
}

/// Different seeds must actually change the run — guards against the seed
/// being silently ignored somewhere in the pipeline.
#[test]
fn different_seeds_diverge() {
    let run = |seed| {
        digest(
            &Scenario::incast(
                &IncastScenarioConfig {
                    degree: 12,
                    requests: 2,
                    total_response_bytes: 1_000_000,
                    seed,
                    ..IncastScenarioConfig::default()
                },
                Scheme::Drill,
                Some(RlbConfig::default()),
            )
            .run(),
        )
    };
    assert_ne!(run(1), run(2), "seed must influence the workload");
}

/// Fault injection rides the same event wheel as everything else, so a
/// faulted run — staggered link outages with recovery, mid-run — must
/// reproduce bit-for-bit too, and the faults must verifiably fire.
#[test]
fn faulted_runs_reproduce_bit_for_bit() {
    let mk = || {
        let fc = FailSweepConfig {
            n_failures: 3,
            load: 0.4,
            horizon: SimTime::from_us(400),
            fail_at: SimTime::from_us(50),
            fail_stagger: SimDuration::from_us(30),
            fail_duration: SimDuration::from_us(150),
            seed: 13,
            ..FailSweepConfig::default()
        };
        Scenario::fail_sweep(&fc, Scheme::LetFlow, Some(RlbConfig::default()))
    };
    let a = digest(&mk().run());
    let b = digest(&mk().run());
    assert_eq!(
        a.counter("faults_applied"),
        6,
        "3 downs + 3 recoveries must fire"
    );
    assert_eq!(a, b, "faulted run must reproduce bit-for-bit");
}
