//! Shuffle stress test: an all-to-all transfer (the reduce phase of a
//! MapReduce-style job) across the fabric under each load-balancing
//! scheme, with and without RLB. Permutation traffic is shown as the
//! contention-free reference point.
//!
//! ```sh
//! cargo run --release --example shuffle_stress
//! ```

use rlb::core::RlbConfig;
use rlb::engine::substream;
use rlb::engine::{SimDuration, SimTime};
use rlb::lb::Scheme;
use rlb::metrics::{ms, pct, Table};
use rlb::net::{SimConfig, Simulation, TopoConfig};
use rlb::workloads::{all_to_all, permutation};

fn topo() -> TopoConfig {
    TopoConfig {
        n_leaves: 4,
        n_spines: 4,
        hosts_per_leaf: 4,
        ..TopoConfig::default()
    }
}

fn run(
    label: &str,
    flows: Vec<rlb::workloads::FlowSpec>,
    scheme: Scheme,
    rlb: Option<RlbConfig>,
    table: &mut Table,
) {
    let cfg = SimConfig {
        topo: topo(),
        scheme,
        rlb,
        hard_stop: SimTime::from_ms(200),
        ..SimConfig::default()
    };
    let res = Simulation::new(cfg, flows).run();
    let s = res.summary();
    table.row(vec![
        label.to_string(),
        format!("{}/{}", s.flows_completed, s.flows_total),
        ms(s.avg_fct_ms),
        ms(s.p99_fct_ms),
        pct(s.ooo_ratio),
        res.counters.pause_frames.to_string(),
    ]);
}

fn main() {
    let t = topo();
    let mut table = Table::new(vec!["case", "flows", "avg_ms", "p99_ms", "ooo", "pauses"]);

    // Contention-free permutation: the fabric's best case.
    let mut rng = substream(11, b"shuffle-example", 0);
    let perm = permutation(
        t.n_hosts(),
        t.hosts_per_leaf,
        2_000_000,
        SimTime::ZERO,
        &mut rng,
    );
    run(
        "permutation, DRILL",
        perm.clone(),
        Scheme::Drill,
        None,
        &mut table,
    );

    // Synchronized all-to-all: every host sends 500 KB to all 12 remote
    // hosts at t=0 — maximum fan-in everywhere.
    let shuffle = all_to_all(
        t.n_hosts(),
        t.hosts_per_leaf,
        500_000,
        SimTime::ZERO,
        SimDuration::ZERO,
    );
    for scheme in Scheme::PAPER_SET {
        run(
            &format!("shuffle, {}", scheme.name()),
            shuffle.clone(),
            scheme,
            None,
            &mut table,
        );
        run(
            &format!("shuffle, {}+RLB", scheme.name()),
            shuffle.clone(),
            scheme,
            Some(RlbConfig::default()),
            &mut table,
        );
    }

    println!("All-to-all shuffle on a 4x4x4 fabric (16 hosts, 192 flows)\n");
    println!("{}", table.render());
}
