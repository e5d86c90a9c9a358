//! Asymmetric fabric (§4.2): degrade 20% of leaf–spine links from 40 to
//! 10 Gbps and compare Hermes vs. Hermes+RLB across loads — asymmetry is
//! where congestion-aware rerouting (and its reordering risk) matters most.
//!
//! ```sh
//! cargo run --release --example asymmetric_fabric
//! ```

use rlb::core::RlbConfig;
use rlb::engine::SimTime;
use rlb::lb::Scheme;
use rlb::metrics::{ms, Table};
use rlb::net::scenario::{asymmetric_topo, Scenario, SteadyStateConfig};
use rlb::net::TopoConfig;
use rlb::workloads::Workload;

fn main() {
    let topo = asymmetric_topo(&TopoConfig::default(), 0.2, 99);
    println!(
        "Asymmetric 4x4 leaf-spine: {} of 16 leaf-spine links degraded to 10G: {:?}\n",
        topo.degraded_links.len(),
        topo.degraded_links
    );

    let mut table = Table::new(vec!["load", "scheme", "avg_fct_ms", "p99_fct_ms"]);
    for load in [0.3, 0.5, 0.7] {
        for (label, rlb) in [("Hermes", None), ("Hermes+RLB", Some(RlbConfig::default()))] {
            let cfg = SteadyStateConfig {
                topo: topo.clone(),
                workload: Workload::CacheFollower,
                load,
                horizon: SimTime::from_ms(5),
                seed: 77,
            };
            let res = Scenario::steady_state(&cfg, Scheme::Hermes, rlb).run();
            let s = res.summary();
            table.row(vec![
                format!("{:.0}%", load * 100.0),
                label.to_string(),
                ms(s.avg_fct_ms),
                ms(s.p99_fct_ms),
            ]);
        }
    }
    println!("Cache Follower workload:\n\n{}", table.render());
}
