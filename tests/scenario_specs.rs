//! Every committed scenario spec under `specs/` must parse, round-trip
//! through the canonical writer, and build into a runnable scenario.
//!
//! CI runs this test as the "spec files stay valid" gate: if a grammar
//! change breaks an on-disk example, it fails here with the parser's
//! caret-frame diagnostic in the assertion message.

use rlb::net::ScenarioSpec;

fn committed_specs() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("specs/ directory exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "toml") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable spec file");
            out.push((name, text));
        }
    }
    out.sort();
    out
}

#[test]
fn every_committed_spec_parses_and_builds() {
    let specs = committed_specs();
    assert!(
        !specs.is_empty(),
        "specs/ must hold at least one example spec"
    );
    for (name, text) in &specs {
        let spec = ScenarioSpec::parse(text)
            .unwrap_or_else(|e| panic!("specs/{name} failed to parse:\n{e}"));
        let scenario = spec
            .build()
            .unwrap_or_else(|e| panic!("specs/{name} failed to build: {e}"));
        assert!(
            !scenario.flows.is_empty(),
            "specs/{name} generated no flows"
        );
    }
}

#[test]
fn every_committed_spec_round_trips() {
    for (name, text) in committed_specs() {
        let spec = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("specs/{name} failed to parse:\n{e}"));
        let canonical = spec.to_spec_text();
        let back = ScenarioSpec::parse(&canonical)
            .unwrap_or_else(|e| panic!("specs/{name} canonical text failed to re-parse:\n{e}"));
        assert_eq!(spec, back, "specs/{name} does not round-trip");
        assert_eq!(
            canonical,
            back.to_spec_text(),
            "specs/{name} canonical text is not a fixed point"
        );
    }
}

#[test]
fn incast_spec_generates_the_burst_train() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/incast_storm.toml");
    let text = std::fs::read_to_string(path).expect("specs/incast_storm.toml exists");
    let spec = ScenarioSpec::parse(&text).expect("incast_storm parses");
    let ic = spec
        .incast
        .expect("incast_storm declares an [incast] section");
    assert_eq!((ic.degree, ic.requests), (15, 8));
    let scenario = spec.build().expect("incast_storm builds");
    // 8 requests × 15 responders land on top of the background mix.
    assert!(
        scenario.flows.len() >= (ic.degree * ic.requests) as usize,
        "expected at least {} flows, got {}",
        ic.degree * ic.requests,
        scenario.flows.len()
    );
    // Every request's responses converge on a single client host.
    let per_responder = ic.total_response_bytes / ic.degree as u64;
    let first_burst: Vec<_> = scenario
        .flows
        .iter()
        .filter(|f| f.start.as_ps() == 0 && f.size_bytes == per_responder)
        .collect();
    assert_eq!(first_burst.len(), ic.degree as usize);
    let client = first_burst[0].dst_host;
    assert!(first_burst.iter().all(|f| f.dst_host == client));
}

#[test]
fn faulted_specs_apply_their_timelines() {
    // The worked example from EXPERIMENTS.md: two staggered outages with
    // recovery — four fault events must actually fire.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs/link_outage.toml");
    let text = std::fs::read_to_string(path).expect("specs/link_outage.toml exists");
    let spec = ScenarioSpec::parse(&text).expect("link_outage parses");
    let res = spec.build().expect("link_outage builds").run();
    assert_eq!(res.counters.faults_applied, 4, "2 downs + 2 recoveries");
    assert_eq!(res.counters.buffer_drops, 0, "lossless even under faults");
}
