//! On-disk scenario specs: a hand-rolled TOML-subset reader and writer.
//!
//! The vendored serde is a no-op stub, so — like `bench/src/json.rs` — this
//! module parses its format by hand, deterministically, with byte-exact
//! round-trips ([`ScenarioSpec::to_spec_text`] emits the canonical form that
//! [`ScenarioSpec::parse`] reads back to an equal value).
//!
//! The grammar is the TOML subset the scenario model needs, nothing more:
//!
//! ```text
//! # comment (full line)
//! [section]            # [scenario] | [topology]
//! [[table]]            # [[workload]] | [[fault]] | [[load]]
//! key = value          # value: integer (with _ separators), bool, "string"
//! ```
//!
//! Every quantity is an integer: times in picoseconds (`*_ps`, the
//! simulator's native clock), rates in bits/sec, loads and multipliers in
//! permille (parts-per-thousand). No floats means no precision loss between
//! a spec and its re-serialization.
//!
//! Errors carry a line/column span and render a rustc-style caret frame
//! (pinned by snapshot tests), so a typo in a 60-line spec points at the
//! offending token, not at "invalid config".
//!
//! Three layers: this file holds the types a spec is made of and
//! [`ScenarioSpec::build`]; `grammar.rs` is the table of every section, key
//! and fault kind ([`SPEC_REFERENCE`]) — the one place that says what the
//! format is; `text.rs` is the tokenizer plus one reader loop and one
//! writer loop over that table.

mod grammar;
mod text;

pub use grammar::{render_spec_reference, KeyDoc, SectionDoc, SPEC_REFERENCE};
pub use text::SpecError;

use crate::config::{SimConfig, TopoConfig};
use crate::fault::{self, TimedFault};
use crate::scenario::{inter_leaf_poisson, Scenario};
use rlb_core::RlbConfig;
use rlb_engine::{substream, SimDuration, SimTime};
use rlb_lb::Scheme;
use rlb_workloads::{incast, IncastConfig, LoadCurve, Workload};
use serde::Serialize;

/// One traffic component: Poisson arrivals of a named workload CDF at an
/// offered load (permille of the healthy core capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WorkloadEntry {
    pub kind: Workload,
    pub load_permille: u32,
}

impl Default for WorkloadEntry {
    fn default() -> Self {
        WorkloadEntry {
            kind: Workload::WebSearch,
            load_permille: 500,
        }
    }
}

/// One `[[fault]]` table: either a single timed fault or a flap pattern
/// that expands into down/up pairs at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultEntry {
    At(TimedFault),
    Flap {
        at: SimTime,
        leaf: u32,
        spine: u32,
        down: SimDuration,
        up: SimDuration,
        cycles: u32,
    },
}

/// Topology dimensions a spec may set; defaults mirror
/// [`TopoConfig::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TopoSpec {
    pub n_leaves: u32,
    pub n_spines: u32,
    pub hosts_per_leaf: u32,
    pub link_rate_bps: u64,
    pub host_link_rate_bps: u64,
    pub link_delay_ps: u64,
}

impl Default for TopoSpec {
    fn default() -> Self {
        let t = TopoConfig::default();
        TopoSpec {
            n_leaves: t.n_leaves,
            n_spines: t.n_spines,
            hosts_per_leaf: t.hosts_per_leaf,
            link_rate_bps: t.link_rate_bps,
            host_link_rate_bps: t.host_link_rate_bps,
            link_delay_ps: t.link_delay_ps,
        }
    }
}

/// Optional `[incast]` section: a §4.3 fan-in burst layered over the
/// workload mix (which then plays the role of background traffic).
/// Defaults mirror [`crate::scenario::IncastScenarioConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct IncastSpec {
    /// Responding servers per request (the fan-in degree).
    pub degree: u32,
    /// Total bytes across all responders for one request (the burst size).
    pub total_response_bytes: u64,
    /// Number of incast requests issued.
    pub requests: u32,
    /// Gap between successive requests.
    pub request_interval: SimDuration,
}

impl Default for IncastSpec {
    fn default() -> Self {
        IncastSpec {
            degree: 15,
            total_response_bytes: 4_000_000,
            requests: 8,
            request_interval: SimDuration::from_ms(1),
        }
    }
}

/// A declarative scenario: topology + workload mix + fault timeline +
/// load curve. Parsed from spec text, buildable into a [`Scenario`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScenarioSpec {
    /// Display / job label ("scenario" if empty).
    pub name: String,
    pub scheme: Scheme,
    /// Wrap the scheme in RLB (predictor + Algorithm 1, default params).
    pub rlb: bool,
    pub seed: u64,
    /// Flow-arrival horizon (the run's hard stop is 25× this).
    pub horizon: SimTime,
    pub topo: TopoSpec,
    /// Optional incast overlay; the workload mix becomes the background.
    pub incast: Option<IncastSpec>,
    /// Traffic mix: every entry generates independently and the flows merge.
    pub workloads: Vec<WorkloadEntry>,
    pub faults: Vec<FaultEntry>,
    /// Offered-load curve points `(from, permille)` applied to every
    /// workload entry.
    pub load_points: Vec<(SimTime, u32)>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: String::new(),
            scheme: Scheme::Drill,
            rlb: false,
            seed: 1,
            horizon: SimTime::from_ms(4),
            topo: TopoSpec::default(),
            incast: None,
            workloads: vec![WorkloadEntry::default()],
            faults: Vec::new(),
            load_points: Vec::new(),
        }
    }
}

impl ScenarioSpec {
    /// Job/display label.
    pub fn label(&self) -> String {
        if self.name.is_empty() {
            "scenario".to_string()
        } else {
            self.name.clone()
        }
    }

    /// Emit the canonical spec text: `parse(to_spec_text(s)) == s` exactly.
    pub fn to_spec_text(&self) -> String {
        text::write(self)
    }

    /// Parse spec text (see the module docs for the grammar).
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        text::read(text)
    }

    /// Build the runnable scenario: expand flaps, sort the timeline, apply
    /// the load curve to every workload component, and validate the result.
    /// Semantic errors (no span — the spec was well-formed) come back as
    /// plain strings.
    pub fn build(&self) -> Result<Scenario, String> {
        let topo = TopoConfig {
            n_leaves: self.topo.n_leaves,
            n_spines: self.topo.n_spines,
            hosts_per_leaf: self.topo.hosts_per_leaf,
            link_rate_bps: self.topo.link_rate_bps,
            host_link_rate_bps: self.topo.host_link_rate_bps,
            link_delay_ps: self.topo.link_delay_ps,
            ..TopoConfig::default()
        };
        // Before any workload is generated for it: an oversized fabric is a
        // diagnostic here, not minutes of flow generation first.
        topo.validate()?;
        if self.horizon == SimTime::ZERO {
            return Err("[scenario] `horizon_ps` is 0, so no flow can arrive".to_string());
        }
        let curve = LoadCurve::new(self.load_points.clone())?;
        let mut flows = Vec::new();
        // Incast overlay first: same substream label as `Scenario::incast`,
        // so a spec-driven incast replays the programmatic one bit-exactly.
        if let Some(ic) = &self.incast {
            if topo.n_leaves < 2 {
                return Err("incast needs at least two leaves".to_string());
            }
            if ic.degree > topo.n_hosts() - topo.hosts_per_leaf {
                return Err(format!(
                    "incast degree {} exceeds the {} off-leaf hosts available",
                    ic.degree,
                    topo.n_hosts() - topo.hosts_per_leaf
                ));
            }
            let mut rng = substream(self.seed, b"incast", 0);
            flows.extend(incast::generate(
                &IncastConfig {
                    degree: ic.degree,
                    total_response_bytes: ic.total_response_bytes,
                    requests: ic.requests,
                    request_interval: ic.request_interval,
                    num_hosts: topo.n_hosts(),
                    hosts_per_leaf: topo.hosts_per_leaf,
                },
                &mut rng,
            ));
        }
        for (i, wl) in self.workloads.iter().enumerate() {
            if wl.load_permille == 0 {
                return Err(format!("workload {i} has zero load"));
            }
            let traffic =
                inter_leaf_poisson(&topo, wl.kind.cdf(), wl.load_permille as f64 / 1000.0);
            let mut rng = substream(self.seed, b"spec-workload", i as u64);
            flows.extend(traffic.generate_modulated(self.horizon, &curve, &mut rng));
        }
        flows.sort_by_key(|f| f.start);
        let mut faults = Vec::new();
        for entry in &self.faults {
            match *entry {
                FaultEntry::At(tf) => faults.push(tf),
                FaultEntry::Flap {
                    at,
                    leaf,
                    spine,
                    down,
                    up,
                    cycles,
                } => faults.extend(fault::flap(leaf, spine, at, down, up, cycles)),
            }
        }
        faults.sort_by_key(|tf| tf.at);
        // The hard stop must outlast the incast burst train too, not just
        // the Poisson arrival horizon (same 30× slack as `Scenario::incast`).
        let mut hard_stop = SimTime::ZERO + self.horizon.as_duration().mul_u64(25);
        if let Some(ic) = &self.incast {
            let burst_stop = SimTime::ZERO
                + ic.request_interval
                    .mul_u64(ic.requests as u64 + 1)
                    .mul_u64(30);
            hard_stop = hard_stop.max(burst_stop);
        }
        let cfg = SimConfig {
            topo,
            scheme: self.scheme,
            rlb: self.rlb.then(RlbConfig::default),
            seed: self.seed,
            hard_stop,
            faults,
            ..SimConfig::default()
        };
        cfg.validate()?;
        Ok(Scenario::new(cfg, flows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;

    /// The grammar reference is the parser: every documented key must be
    /// accepted by its section (a rejected key would come back as an
    /// `unknown key` diagnostic), and vice versa the unknown-key hints are
    /// generated from the same tables (pinned by the snapshot tests).
    mod reference {
        use super::super::*;

        #[test]
        fn every_documented_key_parses_in_its_section() {
            for s in SPEC_REFERENCE {
                for k in s.keys {
                    // Tables need their section header; `[[fault]]`/
                    // `[[load]]` specs may fail *finalization* (missing
                    // sibling fields) but never key recognition.
                    let text = format!("{}\n{} = {}\n", s.header, k.key, k.example);
                    let text = if s.header == "[scenario]" {
                        text
                    } else {
                        format!("[scenario]\nseed = 1\n\n{text}")
                    };
                    match ScenarioSpec::parse(&text) {
                        Ok(_) => {}
                        Err(e) => assert!(
                            !e.msg.contains("unknown key"),
                            "{} key `{}` is documented but rejected: {}",
                            s.header,
                            k.key,
                            e.msg
                        ),
                    }
                }
            }
        }

        #[test]
        fn rendered_reference_names_every_section_and_key() {
            let md = render_spec_reference();
            for s in SPEC_REFERENCE {
                assert!(md.contains(s.header), "{} missing", s.header);
                for k in s.keys {
                    assert!(
                        md.contains(&format!("| `{}` |", k.key)),
                        "{} `{}` missing a table row",
                        s.header,
                        k.key
                    );
                }
            }
        }

        #[test]
        fn grammar_tables_are_well_formed() {
            for (i, s) in SPEC_REFERENCE.iter().enumerate() {
                assert!(
                    SPEC_REFERENCE[..i]
                        .iter()
                        .all(|prev| prev.header != s.header),
                    "{} is listed twice",
                    s.header
                );
                // The reader's "seen" table has one slot per key.
                assert!(
                    s.keys.len() <= text::MAX_KEYS,
                    "{} has too many keys",
                    s.header
                );
                for (j, k) in s.keys.iter().enumerate() {
                    assert!(
                        s.keys[..j].iter().all(|prev| prev.key != k.key),
                        "{} lists `{}` twice",
                        s.header,
                        k.key
                    );
                }
            }
            let fault = SPEC_REFERENCE
                .iter()
                .find(|s| s.header == "[[fault]]")
                .expect("fault section listed");
            for kind in &grammar::FAULT_KINDS {
                for need in kind.needs {
                    assert!(
                        fault.keys.iter().any(|k| k.key == *need),
                        "fault kind `{}` needs `{need}`, which is no [[fault]] key",
                        kind.name
                    );
                }
            }
        }
    }

    const EXAMPLE: &str = r#"
# A failure-sweep example.
[scenario]
name = "two-link-outage"
scheme = "drill"
rlb = true
seed = 7
horizon_ps = 2_000_000_000

[topology]
n_leaves = 4
n_spines = 4
hosts_per_leaf = 8

[[workload]]
kind = "web_search"
load_permille = 500

[[fault]]
kind = "link_down"
at_ps = 200_000_000
leaf = 0
spine = 1

[[fault]]
kind = "link_up"
at_ps = 900_000_000
leaf = 0
spine = 1

[[fault]]
kind = "flap"
at_ps = 300_000_000
leaf = 2
spine = 3
down_ps = 50_000_000
up_ps = 50_000_000
cycles = 2

[[load]]
at_ps = 1_000_000_000
permille = 1500
"#;

    #[test]
    fn parses_the_example() {
        let s = ScenarioSpec::parse(EXAMPLE).expect("example parses");
        assert_eq!(s.name, "two-link-outage");
        assert_eq!(s.scheme, Scheme::Drill);
        assert!(s.rlb);
        assert_eq!(s.seed, 7);
        assert_eq!(s.horizon, SimTime::from_ms(2));
        assert_eq!(s.topo.n_leaves, 4);
        assert_eq!(s.workloads.len(), 1);
        assert_eq!(s.workloads[0].load_permille, 500);
        assert_eq!(s.faults.len(), 3);
        assert_eq!(
            s.faults[0],
            FaultEntry::At(TimedFault::new(
                SimTime::from_us(200),
                Fault::LinkDown { leaf: 0, spine: 1 }
            ))
        );
        assert!(matches!(s.faults[2], FaultEntry::Flap { cycles: 2, .. }));
        assert_eq!(s.load_points, vec![(SimTime::from_ms(1), 1500)]);
    }

    #[test]
    fn canonical_text_round_trips() {
        let s = ScenarioSpec::parse(EXAMPLE).unwrap();
        let text = s.to_spec_text();
        let back = ScenarioSpec::parse(&text).expect("canonical text parses");
        assert_eq!(s, back);
        // And the canonical form is a fixed point.
        assert_eq!(text, back.to_spec_text());
    }

    #[test]
    fn builds_a_runnable_scenario() {
        let s = ScenarioSpec::parse(EXAMPLE).unwrap();
        let sc = s.build().expect("builds");
        assert!(sc.cfg.rlb.is_some());
        // 1 down + 1 up + flap(2 cycles → 4 entries) = 6, sorted.
        assert_eq!(sc.cfg.faults.len(), 6);
        assert!(sc.cfg.faults.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(!sc.flows.is_empty());
        sc.cfg.validate().expect("built config validates");
    }

    #[test]
    fn default_spec_builds_and_round_trips() {
        let s = ScenarioSpec::default();
        let back = ScenarioSpec::parse(&s.to_spec_text()).unwrap();
        assert_eq!(s, back);
        assert!(s.build().is_ok());
    }

    #[test]
    fn out_of_range_fault_is_a_build_error() {
        let mut s = ScenarioSpec::default();
        s.faults.push(FaultEntry::At(TimedFault::new(
            SimTime::ZERO,
            Fault::LinkDown { leaf: 99, spine: 0 },
        )));
        let e = s.build().unwrap_err();
        assert!(e.contains("leaf 99 out of range"), "{e}");
    }

    #[test]
    fn zero_horizon_is_a_build_error() {
        let s = ScenarioSpec {
            horizon: SimTime::ZERO,
            ..ScenarioSpec::default()
        };
        let e = s.build().expect_err("a zero horizon generates no flows");
        assert!(e.contains("`horizon_ps` is 0"), "{e}");
    }

    #[test]
    fn oversized_fabric_is_a_build_error() {
        let mut s = ScenarioSpec::default();
        s.topo.n_spines = 300;
        let e = s.build().expect_err("spine 255 and up cannot be named");
        assert!(e.contains("300 spines exceed the limit of 255"), "{e}");
        let mut s = ScenarioSpec::default();
        (s.topo.n_leaves, s.topo.hosts_per_leaf) = (70_000, 70_000);
        let e = s.build().expect_err("beyond the port space");
        assert!(e.contains("ports exceed the limit of 65535"), "{e}");
    }

    const INCAST_EXAMPLE: &str = r#"
[scenario]
name = "incast-storm"
scheme = "letflow"
rlb = true
seed = 3
horizon_ps = 8_000_000_000

[topology]
n_leaves = 4
n_spines = 4
hosts_per_leaf = 8

[incast]
degree = 15
total_response_bytes = 4_000_000
requests = 8
request_interval_ps = 1_000_000_000

[[workload]]
kind = "web_search"
load_permille = 200
"#;

    #[test]
    fn parses_the_incast_example() {
        let s = ScenarioSpec::parse(INCAST_EXAMPLE).expect("incast example parses");
        let ic = s.incast.expect("incast section present");
        assert_eq!(ic.degree, 15);
        assert_eq!(ic.total_response_bytes, 4_000_000);
        assert_eq!(ic.requests, 8);
        assert_eq!(ic.request_interval, SimDuration::from_ms(1));
        // Round-trips through the canonical writer.
        let back = ScenarioSpec::parse(&s.to_spec_text()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn incast_spec_matches_programmatic_scenario() {
        use crate::scenario::IncastScenarioConfig;
        let s = ScenarioSpec::parse(INCAST_EXAMPLE).unwrap();
        let sc = s.build().expect("builds");
        // The overlay's flows must replay `Scenario::incast`'s bit-exactly:
        // same substream label, same IncastConfig.
        let reference = Scenario::incast(
            &IncastScenarioConfig {
                topo: TopoConfig {
                    n_leaves: 4,
                    n_spines: 4,
                    hosts_per_leaf: 8,
                    ..TopoConfig::default()
                },
                background_load: 0.0,
                seed: 3,
                ..IncastScenarioConfig::default()
            },
            Scheme::LetFlow,
            Some(RlbConfig::default()),
        );
        for rf in &reference.flows {
            assert!(
                sc.flows.iter().any(|f| f.src_host == rf.src_host
                    && f.dst_host == rf.dst_host
                    && f.size_bytes == rf.size_bytes
                    && f.start == rf.start),
                "reference incast flow missing from spec build: {rf:?}"
            );
        }
        // Background web_search traffic rides on top.
        assert!(sc.flows.len() > reference.flows.len());
        // Hard stop covers the whole 8-request burst train.
        assert!(sc.cfg.hard_stop >= SimTime::ZERO + SimDuration::from_ms(9).mul_u64(30));
    }

    #[test]
    fn incast_degree_out_of_range_is_a_build_error() {
        let mut s = ScenarioSpec::parse(INCAST_EXAMPLE).unwrap();
        // 4 leaves × 8 hosts = 32 hosts, 24 off-leaf candidates.
        s.incast.as_mut().unwrap().degree = 25;
        let e = s.build().unwrap_err();
        assert!(e.contains("exceeds the 24 off-leaf hosts"), "{e}");
    }

    // --- snapshot tests: malformed specs must render exactly these frames ---

    fn render_err(text: &str) -> String {
        ScenarioSpec::parse(text)
            .expect_err("must fail")
            .to_string()
    }

    #[test]
    fn snapshot_unknown_fault_kind() {
        let text = "[scenario]\nseed = 1\n\n[[fault]]\nkind = \"link_donw\"\nat_ps = 5\nleaf = 0\nspine = 0\n";
        assert_eq!(
            render_err(text),
            "error: unknown fault kind `link_donw`\n \
             --> scenario spec, line 5\n  \
             |\n\
             5 | kind = \"link_donw\"\n  \
             |        ^^^^^^^^^^^ known fault kinds: link_down, link_up, link_rate, \
             spine_down, spine_up, load_scale, flap"
        );
    }

    #[test]
    fn snapshot_unknown_scheme() {
        let text = "[scenario]\nscheme = \"conga\"\n";
        assert_eq!(
            render_err(text),
            "error: unknown scheme `conga`\n \
             --> scenario spec, line 2\n  \
             |\n\
             2 | scheme = \"conga\"\n  \
             |          ^^^^^^^ known schemes: ecmp, presto, letflow, hermes, drill"
        );
    }

    #[test]
    fn snapshot_unknown_key() {
        let text = "[scenario]\nsede = 1\n";
        assert_eq!(
            render_err(text),
            "error: unknown key `sede` in [scenario]\n \
             --> scenario spec, line 2\n  \
             |\n\
             2 | sede = 1\n  \
             | ^^^^ known keys: name, scheme, rlb, seed, horizon_ps"
        );
    }

    #[test]
    fn snapshot_missing_required_field_points_at_header() {
        let text = "[scenario]\nseed = 1\n\n[[fault]]\nkind = \"link_down\"\nat_ps = 5\nleaf = 0\n";
        assert_eq!(
            render_err(text),
            "error: [[fault]] `link_down` is missing `spine`\n \
             --> scenario spec, line 4\n  \
             |\n\
             4 | [[fault]]\n  \
             | ^^^^^^^^^"
        );
    }

    #[test]
    fn snapshot_bad_value() {
        let text = "[scenario]\nseed = maybe\n";
        assert_eq!(
            render_err(text),
            "error: cannot parse value `maybe`\n \
             --> scenario spec, line 2\n  \
             |\n\
             2 | seed = maybe\n  \
             |        ^^^^^ expected an integer, true/false, or a \"quoted string\""
        );
    }

    #[test]
    fn snapshot_unknown_section() {
        let text = "[scenari]\n";
        assert_eq!(
            render_err(text),
            "error: unknown section `[scenari]`\n \
             --> scenario spec, line 1\n  \
             |\n\
             1 | [scenari]\n  \
             | ^^^^^^^^^ known sections: [scenario], [topology], [incast]"
        );
    }

    #[test]
    fn snapshot_zero_incast_degree() {
        let text = "[scenario]\nseed = 1\n\n[incast]\ndegree = 0\n";
        assert_eq!(
            render_err(text),
            "error: incast degree must be at least 1\n \
             --> scenario spec, line 5\n  \
             |\n\
             5 | degree = 0\n  \
             |          ^"
        );
    }

    #[test]
    fn snapshot_unknown_incast_key() {
        let text = "[scenario]\nseed = 1\n\n[incast]\nfanin = 4\n";
        assert_eq!(
            render_err(text),
            "error: unknown key `fanin` in [incast]\n \
             --> scenario spec, line 5\n  \
             |\n\
             5 | fanin = 4\n  \
             | ^^^^^ known keys: degree, total_response_bytes, requests, \
             request_interval_ps"
        );
    }

    #[test]
    fn snapshot_key_outside_section() {
        let text = "seed = 1\n";
        assert_eq!(
            render_err(text),
            "error: key `seed` before any section header\n \
             --> scenario spec, line 1\n  \
             |\n\
             1 | seed = 1\n  \
             | ^^^^ start with [scenario]"
        );
    }

    #[test]
    fn snapshot_section_opened_twice() {
        // The second header used to reset the first section to its defaults.
        let text = "[incast]\ndegree = 31\nrequests = 3\n[incast]\n";
        assert_eq!(
            render_err(text),
            "error: section `[incast]` opened twice\n \
             --> scenario spec, line 4\n  \
             |\n\
             4 | [incast]\n  \
             | ^^^^^^^^ first opened on line 1"
        );
    }

    #[test]
    fn snapshot_key_given_twice() {
        // The second value used to win silently.
        let text = "[scenario]\nseed = 1\nseed = 2";
        assert_eq!(
            render_err(text),
            "error: key `seed` given twice in [scenario]\n \
             --> scenario spec, line 3\n  \
             |\n\
             3 | seed = 2\n  \
             | ^^^^ first given on line 2"
        );
    }

    #[test]
    fn snapshot_key_given_twice_in_one_table() {
        let text = "[[fault]]\nkind = \"spine_up\"\nat_ps = 1\nspine = 0\n\n\
                    [[fault]]\nkind = \"spine_up\"\nat_ps = 5\nat_ps = 9\nspine = 0\n";
        assert_eq!(
            render_err(text),
            "error: key `at_ps` given twice in [[fault]]\n \
             --> scenario spec, line 9\n  \
             |\n\
             9 | at_ps = 9\n  \
             | ^^^^^ first given on line 8"
        );
    }

    mod roundtrip {
        use super::*;
        use proptest::prelude::*;

        fn arb_name() -> BoxedStrategy<String> {
            prop_oneof![
                Just(String::new()),
                Just("outage".to_string()),
                Just("fail-sweep-x4".to_string()),
                Just("ramp_2".to_string()),
            ]
            .boxed()
        }

        fn arb_scheme() -> BoxedStrategy<Scheme> {
            prop_oneof![
                Just(Scheme::Ecmp),
                Just(Scheme::Presto),
                Just(Scheme::LetFlow),
                Just(Scheme::Hermes),
                Just(Scheme::Drill),
            ]
            .boxed()
        }

        fn arb_workload() -> BoxedStrategy<WorkloadEntry> {
            (0usize..4, 1u32..3000)
                .prop_map(|(i, load_permille)| WorkloadEntry {
                    kind: Workload::ALL[i],
                    load_permille,
                })
                .boxed()
        }

        fn arb_fault() -> BoxedStrategy<FaultEntry> {
            let at = 0u64..10_000_000_000_000u64;
            prop_oneof![
                (at.clone(), 0u32..16, 0u32..16).prop_map(|(t, leaf, spine)| FaultEntry::At(
                    TimedFault::new(SimTime(t), Fault::LinkDown { leaf, spine })
                )),
                (at.clone(), 0u32..16, 0u32..16).prop_map(|(t, leaf, spine)| FaultEntry::At(
                    TimedFault::new(SimTime(t), Fault::LinkUp { leaf, spine })
                )),
                (at.clone(), 0u32..16, 0u32..16, 1u64..100_000_000_000).prop_map(
                    |(t, leaf, spine, rate_bps)| FaultEntry::At(TimedFault::new(
                        SimTime(t),
                        Fault::LinkRate {
                            leaf,
                            spine,
                            rate_bps
                        }
                    ))
                ),
                (at.clone(), 0u32..16).prop_map(|(t, spine)| FaultEntry::At(TimedFault::new(
                    SimTime(t),
                    Fault::SpineDown { spine }
                ))),
                (at.clone(), 0u32..16).prop_map(|(t, spine)| FaultEntry::At(TimedFault::new(
                    SimTime(t),
                    Fault::SpineUp { spine }
                ))),
                (at.clone(), 1u32..5000).prop_map(|(t, permille)| FaultEntry::At(TimedFault::new(
                    SimTime(t),
                    Fault::LoadScale { permille }
                ))),
                (
                    at,
                    (0u32..16, 0u32..16),
                    (1u64..1_000_000_000, 1u64..1_000_000_000),
                    1u32..6
                )
                    .prop_map(|(t, (leaf, spine), (down, up), cycles)| {
                        FaultEntry::Flap {
                            at: SimTime(t),
                            leaf,
                            spine,
                            down: SimDuration(down),
                            up: SimDuration(up),
                            cycles,
                        }
                    }),
            ]
            .boxed()
        }

        fn arb_incast() -> BoxedStrategy<Option<IncastSpec>> {
            prop_oneof![
                Just(None),
                (
                    1u32..64,
                    1u64..100_000_000,
                    1u32..32,
                    1u64..10_000_000_000u64
                )
                    .prop_map(
                        |(degree, total_response_bytes, requests, interval)| Some(IncastSpec {
                            degree,
                            total_response_bytes,
                            requests,
                            request_interval: SimDuration(interval),
                        })
                    ),
            ]
            .boxed()
        }

        fn arb_spec() -> BoxedStrategy<ScenarioSpec> {
            (
                (
                    arb_name(),
                    arb_scheme(),
                    any::<bool>(),
                    any::<u64>(),
                    1u64..10_000_000_000_000,
                ),
                (2u32..8, 2u32..8, 1u32..16),
                arb_incast(),
                proptest::collection::vec(arb_workload(), 0..3),
                proptest::collection::vec(arb_fault(), 0..5),
                proptest::collection::vec((0u64..10_000_000_000_000u64, 1u32..4000), 0..4),
            )
                .prop_map(
                    |(
                        (name, scheme, rlb, seed, horizon),
                        (nl, ns, hpl),
                        incast,
                        mut workloads,
                        faults,
                        loads,
                    )| {
                        if workloads.is_empty() {
                            // parse() restores the default mix for empty
                            // spec files, so canonical equality needs ≥1.
                            workloads.push(WorkloadEntry::default());
                        }
                        ScenarioSpec {
                            name,
                            scheme,
                            rlb,
                            seed,
                            horizon: SimTime(horizon),
                            topo: TopoSpec {
                                n_leaves: nl,
                                n_spines: ns,
                                hosts_per_leaf: hpl,
                                ..TopoSpec::default()
                            },
                            incast,
                            workloads,
                            faults,
                            load_points: loads.into_iter().map(|(t, p)| (SimTime(t), p)).collect(),
                        }
                    },
                )
                .boxed()
        }

        proptest! {
            /// Spec → canonical text → spec is the identity, for arbitrary
            /// well-formed specs (including unsorted fault timelines and
            /// out-of-range topology indices — syntax round-trips even when
            /// `build()` would reject the semantics).
            #[test]
            fn arbitrary_specs_round_trip(spec in arb_spec()) {
                let text = spec.to_spec_text();
                let back = ScenarioSpec::parse(&text)
                    .expect("canonical text must re-parse");
                prop_assert_eq!(&spec, &back);
                prop_assert_eq!(text, back.to_spec_text());
            }
        }

        /// What a damaged spec file is made of: the grammar's punctuation,
        /// digits, letters of its keys, white space and one multi-byte
        /// character.
        const ALPHABET: [char; 20] = [
            '[', ']', '=', '"', '#', '_', '0', '1', '9', 'a', 'e', 'k', 'l', 'p', 's', 't', ' ',
            ' ', '\n', 'é',
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// Spec files are hostile input: a few random insertions,
            /// deletions and replacements away from a canonical text (half of
            /// them at the start of a line, where `#` and `[` change what the
            /// whole line is), `parse` never panics, an error points inside
            /// the text and renders, and what still parses round-trips.
            #[test]
            fn damaged_specs_fail_with_a_diagnostic(
                spec in arb_spec(),
                edits in proptest::collection::vec(
                    (0u8..3, any::<u32>(), 0usize..ALPHABET.len(), any::<bool>()), 1..9),
            ) {
                let mut text: Vec<char> = spec.to_spec_text().chars().collect();
                for (op, at, c, line_start) in edits {
                    let mut at = at as usize % (text.len() + 1);
                    if line_start {
                        at = text[..at].iter().rposition(|c| *c == '\n').map_or(0, |nl| nl + 1);
                    }
                    match op {
                        0 => text.insert(at, ALPHABET[c]),
                        1 if at < text.len() => { text.remove(at); }
                        _ if at < text.len() => text[at] = ALPHABET[c],
                        _ => {}
                    }
                }
                let text: String = text.into_iter().collect();
                match ScenarioSpec::parse(&text) {
                    Ok(parsed) => {
                        let back = ScenarioSpec::parse(&parsed.to_spec_text())
                            .expect("canonical text must re-parse");
                        prop_assert_eq!(parsed, back);
                    }
                    Err(e) => {
                        prop_assert!(
                            (1..=text.lines().count()).contains(&e.line),
                            "line {} of {}", e.line, text.lines().count()
                        );
                        prop_assert!(e.col >= 1 && e.len >= 1, "span {}+{}", e.col, e.len);
                        prop_assert_eq!(Some(e.src_line.as_str()), text.lines().nth(e.line - 1));
                        prop_assert!(e.to_string().contains(&e.msg));
                    }
                }
            }
        }
    }

    #[test]
    fn error_spans_point_at_the_token() {
        let e = ScenarioSpec::parse("[scenario]\nscheme = \"dril\"\n").unwrap_err();
        assert_eq!((e.line, e.col, e.len), (2, 10, 6));
        let e = ScenarioSpec::parse("[scenario]\nrlb = 3\n").unwrap_err();
        assert_eq!((e.line, e.col, e.len), (2, 7, 1));
        assert_eq!(e.msg, "expected true or false");
    }
}
