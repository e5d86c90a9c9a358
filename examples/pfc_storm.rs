//! The paper's Fig. 2 scenario as a runnable demo: a dumbbell fabric where
//! bursty traffic and a long congested flow pause a subset of the parallel
//! paths, wrecking the innocent background flows — and RLB rescuing them.
//!
//! ```sh
//! cargo run --release --example pfc_storm
//! ```

use rlb::core::RlbConfig;
use rlb::engine::SimTime;
use rlb::lb::Scheme;
use rlb::metrics::{ms, FctSummary, Table};
use rlb::net::scenario::{MotivationConfig, Scenario, BACKGROUND_GROUP};

fn main() {
    let mc = MotivationConfig {
        n_paths: 40,
        n_background: 24,
        background_load: 0.2,
        congested_flow_bytes: 30_000_000,
        horizon: SimTime::from_ms(3),
        ..MotivationConfig::default()
    };

    println!("Fig. 2 dumbbell: 2 leaves x 40 spines, 5 affected paths,");
    println!("line-rate 64KB bursts + 30MB congested flow onto one victim.\n");

    let mut table = Table::new(vec![
        "variant",
        "avg_fct_ms",
        "p99_fct_ms",
        "p99_ood",
        "pause_frames",
        "cnm_warnings",
        "recirculations",
    ]);

    for (label, pfc, rlb) in [
        ("no PFC (lossy)", false, None),
        ("PFC, DRILL", true, None),
        ("PFC, DRILL+RLB", true, Some(RlbConfig::default())),
    ] {
        let mut sc = Scenario::motivation(&mc, Scheme::Drill, rlb);
        sc.cfg.switch.pfc_enabled = pfc;
        let res = sc.run();
        // Measure the innocent background flows only, as the paper does.
        let bg: Vec<_> = res
            .records
            .iter()
            .zip(res.groups.iter())
            .filter(|(_, g)| **g == BACKGROUND_GROUP)
            .map(|(r, _)| r.clone())
            .collect();
        let s = FctSummary::from_records(&bg);
        table.row(vec![
            label.to_string(),
            ms(s.avg_fct_ms),
            ms(s.p99_fct_ms),
            format!("{:.0}", s.p99_ood),
            res.counters.pause_frames.to_string(),
            res.counters.cnm_generated.to_string(),
            res.counters.recirculations.to_string(),
        ]);
    }

    println!("{}", table.render());
    println!("Reading: PFC protects the bursty traffic from loss but pauses");
    println!("the background flows' paths; RLB's predicted-PFC warnings steer");
    println!("them away before the pause lands.");
}
