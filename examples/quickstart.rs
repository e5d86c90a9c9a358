//! Quickstart: the paper in one table. Run the Fig. 2 scenario — parallel
//! paths, line-rate bursts plus a congested flow pausing five of them —
//! and compare DRILL with and without the RLB building block, measured on
//! the innocent background flows.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rlb::core::RlbConfig;
use rlb::engine::SimTime;
use rlb::lb::Scheme;
use rlb::metrics::{ms, pct, FctSummary, Table};
use rlb::net::scenario::{MotivationConfig, Scenario, BACKGROUND_GROUP};

fn main() {
    let scenario = MotivationConfig {
        n_paths: 40,
        n_background: 24,
        background_load: 0.2,
        congested_flow_bytes: 30_000_000,
        horizon: SimTime::from_ms(3),
        ..MotivationConfig::default()
    };

    let mut table = Table::new(vec![
        "scheme",
        "bg_flows",
        "avg_fct_ms",
        "p99_fct_ms",
        "p99_ood_pkts",
        "ooo_packets",
        "pause_frames",
        "rlb_actions",
    ]);

    for (label, rlb) in [("DRILL", None), ("DRILL+RLB", Some(RlbConfig::default()))] {
        let res = Scenario::motivation(&scenario, Scheme::Drill, rlb).run();
        // Measure the background flows f1..fn, as the paper does — the
        // traffic that is *not* responsible for the congestion.
        let bg: Vec<_> = res
            .records
            .iter()
            .zip(res.groups.iter())
            .filter(|(_, g)| **g == BACKGROUND_GROUP)
            .map(|(r, _)| r.clone())
            .collect();
        let s = FctSummary::from_records(&bg);
        assert_eq!(
            res.counters.buffer_drops, 0,
            "lossless fabric must not drop"
        );
        table.row(vec![
            label.to_string(),
            format!("{}/{}", s.flows_completed, s.flows_total),
            ms(s.avg_fct_ms),
            ms(s.p99_fct_ms),
            format!("{:.0}", s.p99_ood),
            pct(s.ooo_ratio),
            res.counters.pause_frames.to_string(),
            (res.counters.reroutes + res.counters.recirculations).to_string(),
        ]);
    }

    println!("Fig. 2 scenario: 2 leaves x 40 spines, 40G links, PFC + DCQCN,");
    println!("64KB line-rate bursts + 30MB congested flow on 5 paths.\n");
    println!("{}", table.render());
    println!("RLB predicts the PFC pauses and steers the background flows away");
    println!("before they are blocked — cutting their out-of-order degree and");
    println!("tail FCT. Re-running reproduces these numbers bit-for-bit.");
}
