//! Partition-aggregate incast (§4.3): a client fetches a 4MB response
//! from N servers simultaneously; measure incast completion time and
//! reordering as the fan-in grows, with and without RLB under Presto.
//!
//! ```sh
//! cargo run --release --example incast_fanin
//! ```

use rlb::core::RlbConfig;
use rlb::lb::Scheme;
use rlb::metrics::{mean, ms, pct, Table};
use rlb::net::{IncastScenarioConfig, Scenario};

fn main() {
    let mut table = Table::new(vec![
        "degree",
        "scheme",
        "incast_completion_ms",
        "ooo_packets",
        "pause_frames",
    ]);

    for degree in [8u32, 16, 24] {
        for (label, rlb) in [("Presto", None), ("Presto+RLB", Some(RlbConfig::default()))] {
            let cfg = IncastScenarioConfig {
                degree,
                requests: 6,
                seed: 3,
                ..IncastScenarioConfig::default()
            };
            let res = Scenario::incast(&cfg, Scheme::Presto, rlb).run();
            let groups = res.group_completion_ms();
            let times: Vec<f64> = groups.iter().map(|(_, t)| *t).collect();
            let ict = mean(&times);
            table.row(vec![
                degree.to_string(),
                label.to_string(),
                ms(ict),
                pct(res.summary().ooo_ratio),
                res.counters.pause_frames.to_string(),
            ]);
        }
    }

    println!("Incast: N servers -> 1 client, 4MB total response, 20% background\n");
    println!("{}", table.render());
}
