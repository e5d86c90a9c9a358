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

use crate::config::{SimConfig, TopoConfig};
use crate::fault::{self, Fault, TimedFault};
use crate::scenario::Scenario;
use rlb_core::RlbConfig;
use rlb_engine::{substream, SimDuration, SimTime};
use rlb_lb::Scheme;
use rlb_workloads::{incast, IncastConfig, LoadCurve, PairPolicy, PoissonTraffic, Workload};
use serde::Serialize;

/// A parse error with the span it points at. `Display` renders a caret
/// frame; keep the fields public so tools can re-render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Length of the underline (at least 1).
    pub len: usize,
    pub msg: String,
    /// The full source line, for the frame.
    pub src_line: String,
    /// Optional hint printed under the carets.
    pub help: Option<String>,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "error: {}", self.msg)?;
        let num = self.line.to_string();
        let pad = " ".repeat(num.len());
        writeln!(f, "{pad}--> scenario spec, line {num}")?;
        writeln!(f, "{pad} |")?;
        writeln!(f, "{num} | {}", self.src_line)?;
        let carets = "^".repeat(self.len.max(1));
        write!(f, "{pad} | {}{carets}", " ".repeat(self.col.saturating_sub(1)))?;
        if let Some(h) = &self.help {
            write!(f, " {h}")?;
        }
        Ok(())
    }
}

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

fn scheme_name(s: Scheme) -> &'static str {
    match s {
        Scheme::Ecmp => "ecmp",
        Scheme::Presto => "presto",
        Scheme::LetFlow => "letflow",
        Scheme::Hermes => "hermes",
        Scheme::Drill => "drill",
        Scheme::Conga => "conga",
    }
}

const SCHEME_HELP: &str = "known schemes: ecmp, presto, letflow, hermes, drill, conga";

fn scheme_from(name: &str) -> Option<Scheme> {
    Some(match name {
        "ecmp" => Scheme::Ecmp,
        "presto" => Scheme::Presto,
        "letflow" => Scheme::LetFlow,
        "hermes" => Scheme::Hermes,
        "drill" => Scheme::Drill,
        "conga" => Scheme::Conga,
        _ => return None,
    })
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::WebServer => "web_server",
        Workload::CacheFollower => "cache_follower",
        Workload::WebSearch => "web_search",
        Workload::DataMining => "data_mining",
    }
}

const WORKLOAD_HELP: &str =
    "known workloads: web_server, cache_follower, web_search, data_mining";

fn workload_from(name: &str) -> Option<Workload> {
    Some(match name {
        "web_server" => Workload::WebServer,
        "cache_follower" => Workload::CacheFollower,
        "web_search" => Workload::WebSearch,
        "data_mining" => Workload::DataMining,
        _ => return None,
    })
}

const FAULT_HELP: &str =
    "known fault kinds: link_down, link_up, link_rate, spine_down, spine_up, load_scale, flap";

/// One documented key of a spec section: the machine-readable grammar
/// reference. `cargo xtask spec-doc` renders [`SPEC_REFERENCE`] into
/// EXPERIMENTS.md, and the parser's own unknown-key diagnostics quote the
/// same tables (see [`known_keys`]) — so the rendered reference, the
/// diagnostics and the accepted grammar cannot drift apart. Unit tests
/// additionally pin every documented default to the canonical output of
/// [`ScenarioSpec::to_spec_text`] and every documented key to a parse.
pub struct KeyDoc {
    pub key: &'static str,
    /// Value shape shown in the reference ("string", "bool", integer
    /// units, or an enum listing).
    pub value: &'static str,
    /// Default rendered by the canonical writer, `_`-separated for
    /// readability (the parser accepts separators); `None` = required.
    pub default: Option<&'static str>,
    /// A valid example value (used by the documented-keys-parse test).
    pub example: &'static str,
    pub doc: &'static str,
}

/// One section (`[name]`) or repeatable table (`[[name]]`) of the grammar.
pub struct SectionDoc {
    pub header: &'static str,
    pub repeatable: bool,
    pub doc: &'static str,
    pub keys: &'static [KeyDoc],
    /// Extra bullets rendered after the key table (per-fault-kind field
    /// requirements and similar cross-key rules).
    pub notes: &'static [&'static str],
}

/// The complete scenario-spec grammar, one entry per section. Order is
/// the canonical section order of [`ScenarioSpec::to_spec_text`].
pub const SPEC_REFERENCE: &[SectionDoc] = &[
    SectionDoc {
        header: "[scenario]",
        repeatable: false,
        doc: "Run identity: the scheme under test, optional RLB wrapping, \
              seed and flow-arrival horizon.",
        keys: &[
            KeyDoc {
                key: "name",
                value: "string",
                default: Some("\"\""),
                example: "\"outage\"",
                doc: "Display / job label (`scenario` when empty).",
            },
            KeyDoc {
                key: "scheme",
                value: "`ecmp` \\| `presto` \\| `letflow` \\| `hermes` \\| `drill` \\| `conga`",
                default: Some("\"drill\""),
                example: "\"letflow\"",
                doc: "Load-balancing scheme deployed at the leaves.",
            },
            KeyDoc {
                key: "rlb",
                value: "bool",
                default: Some("false"),
                example: "true",
                doc: "Wrap the scheme in RLB (predictor + Algorithm 1, \
                      default parameters).",
            },
            KeyDoc {
                key: "seed",
                value: "integer",
                default: Some("1"),
                example: "7",
                doc: "Master seed; `--seeds N` replicates by offsetting it.",
            },
            KeyDoc {
                key: "horizon_ps",
                value: "integer, ps",
                default: Some("4_000_000_000"),
                example: "800_000_000",
                doc: "Flow arrivals stop here (the run's hard stop is 25× \
                      this, extended to outlast any incast burst train).",
            },
        ],
        notes: &[],
    },
    SectionDoc {
        header: "[topology]",
        repeatable: false,
        doc: "Leaf–spine fabric dimensions; defaults mirror \
              `TopoConfig::default` (the Quick-scale fabric).",
        keys: &[
            KeyDoc {
                key: "n_leaves",
                value: "integer",
                default: Some("4"),
                example: "12",
                doc: "Leaf switches.",
            },
            KeyDoc {
                key: "n_spines",
                value: "integer",
                default: Some("4"),
                example: "12",
                doc: "Spine switches (= uplinks per leaf).",
            },
            KeyDoc {
                key: "hosts_per_leaf",
                value: "integer",
                default: Some("8"),
                example: "24",
                doc: "Hosts under each leaf.",
            },
            KeyDoc {
                key: "link_rate_bps",
                value: "integer, bits/s",
                default: Some("40_000_000_000"),
                example: "100_000_000_000",
                doc: "Leaf–spine link rate.",
            },
            KeyDoc {
                key: "host_link_rate_bps",
                value: "integer, bits/s",
                default: Some("40_000_000_000"),
                example: "25_000_000_000",
                doc: "Host NIC line rate.",
            },
            KeyDoc {
                key: "link_delay_ps",
                value: "integer, ps",
                default: Some("2_000_000"),
                example: "1_000_000",
                doc: "One-way propagation delay of every link.",
            },
        ],
        notes: &[],
    },
    SectionDoc {
        header: "[incast]",
        repeatable: false,
        doc: "Optional: layer a §4.3 fan-in burst train over the workload \
              mix (which then plays the role of background traffic). Flows \
              replay the programmatic `incast_scenario` bit-exactly for \
              the same seed.",
        keys: &[
            KeyDoc {
                key: "degree",
                value: "integer ≥ 1",
                default: Some("15"),
                example: "31",
                doc: "Responding servers per request (the fan-in degree).",
            },
            KeyDoc {
                key: "total_response_bytes",
                value: "integer, bytes",
                default: Some("4_000_000"),
                example: "1_000_000",
                doc: "Burst size across all responders for one request.",
            },
            KeyDoc {
                key: "requests",
                value: "integer",
                default: Some("8"),
                example: "16",
                doc: "Number of incast requests issued.",
            },
            KeyDoc {
                key: "request_interval_ps",
                value: "integer, ps",
                default: Some("1_000_000_000"),
                example: "500_000_000",
                doc: "Gap between successive requests.",
            },
        ],
        notes: &[],
    },
    SectionDoc {
        header: "[[workload]]",
        repeatable: true,
        doc: "Traffic mix: each entry generates Poisson arrivals of a \
              named workload CDF independently and the flows merge. One \
              Web-Search entry at 500‰ if no table is given.",
        keys: &[
            KeyDoc {
                key: "kind",
                value: "`web_server` \\| `cache_follower` \\| `web_search` \\| `data_mining`",
                default: Some("\"web_search\""),
                example: "\"data_mining\"",
                doc: "Flow-size CDF.",
            },
            KeyDoc {
                key: "load_permille",
                value: "integer, ‰",
                default: Some("500"),
                example: "300",
                doc: "Offered load as ‰ of the healthy core capacity; \
                      entries add up, so two 300‰ entries offer 60% load \
                      as a mix.",
            },
        ],
        notes: &[],
    },
    SectionDoc {
        header: "[[fault]]",
        repeatable: true,
        doc: "Fault timeline, any order — the builder sorts by time. \
              Downed links freeze their queues without dropping (lossless \
              fabric), so PFC backpressure does the signalling.",
        keys: &[
            KeyDoc {
                key: "kind",
                value: "`link_down` \\| `link_up` \\| `link_rate` \\| `spine_down` \\| \
                        `spine_up` \\| `load_scale` \\| `flap`",
                default: None,
                example: "\"link_down\"",
                doc: "What fails (or recovers); see the field requirements \
                      below.",
            },
            KeyDoc {
                key: "at_ps",
                value: "integer, ps",
                default: None,
                example: "100_000_000",
                doc: "When the fault fires (every kind).",
            },
            KeyDoc {
                key: "leaf",
                value: "integer",
                default: None,
                example: "0",
                doc: "Leaf end of the affected link.",
            },
            KeyDoc {
                key: "spine",
                value: "integer",
                default: None,
                example: "1",
                doc: "Spine end of the affected link (or the failed spine).",
            },
            KeyDoc {
                key: "rate_bps",
                value: "integer, bits/s",
                default: None,
                example: "10_000_000_000",
                doc: "New link rate for `link_rate`.",
            },
            KeyDoc {
                key: "permille",
                value: "integer, ‰",
                default: None,
                example: "500",
                doc: "Send-rate multiplier for `load_scale` (1000 = nominal).",
            },
            KeyDoc {
                key: "down_ps",
                value: "integer, ps",
                default: None,
                example: "50_000_000",
                doc: "Outage length per `flap` cycle.",
            },
            KeyDoc {
                key: "up_ps",
                value: "integer, ps",
                default: None,
                example: "50_000_000",
                doc: "Recovery length per `flap` cycle.",
            },
            KeyDoc {
                key: "cycles",
                value: "integer",
                default: None,
                example: "3",
                doc: "Down/up pairs a `flap` expands into.",
            },
        ],
        notes: &[
            "`link_down` / `link_up` need `at_ps`, `leaf`, `spine` — take \
             one leaf–spine link down / bring it back.",
            "`link_rate` needs `at_ps`, `leaf`, `spine`, `rate_bps` — \
             degrade (or restore) one link's rate mid-run.",
            "`spine_down` / `spine_up` need `at_ps`, `spine` — fail / \
             recover every link of one spine at once.",
            "`load_scale` needs `at_ps`, `permille` — scale every host's \
             send rate.",
            "`flap` needs `at_ps`, `leaf`, `spine`, `down_ps`, `up_ps`, \
             `cycles` — expands into that many down/up pairs.",
        ],
    },
    SectionDoc {
        header: "[[load]]",
        repeatable: true,
        doc: "A piecewise-constant offered-load multiplier applied to flow \
              inter-arrival gaps (a load *curve*, distinct from \
              `load_scale` which throttles in-flight serialization).",
        keys: &[
            KeyDoc {
                key: "at_ps",
                value: "integer, ps",
                default: None,
                example: "0",
                doc: "Point start time.",
            },
            KeyDoc {
                key: "permille",
                value: "integer, ‰",
                default: None,
                example: "800",
                doc: "Load multiplier from this point on (1000 = the \
                      workloads' nominal offered load).",
            },
        ],
        notes: &[],
    },
];

/// Comma-joined key list for `header`, quoted by the parser's unknown-key
/// diagnostics — the hints and the generated reference share one source.
fn known_keys(header: &'static str) -> String {
    SPEC_REFERENCE
        .iter()
        .find(|s| s.header == header)
        .unwrap_or_else(|| panic!("{header} missing from SPEC_REFERENCE"))
        .keys
        .iter()
        .map(|k| k.key)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Render [`SPEC_REFERENCE`] as the markdown block `cargo xtask spec-doc`
/// splices into EXPERIMENTS.md between its `spec-doc` markers.
pub fn render_spec_reference() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "Reference — every section and key the parser accepts, generated\n\
         from the parser's own key tables (`rlb_net::spec::SPEC_REFERENCE`)\n\
         by `cargo xtask spec-doc`. Edit the tables, not this block —\n\
         `cargo xtask spec-doc --check` fails CI when the two drift."
    );
    for s in SPEC_REFERENCE {
        let rep = if s.repeatable { " — repeatable" } else { "" };
        let _ = writeln!(w, "\n### `{}`{rep}\n", s.header);
        let _ = writeln!(w, "{}\n", s.doc);
        let _ = writeln!(w, "| key | value | default | meaning |");
        let _ = writeln!(w, "|---|---|---|---|");
        for k in s.keys {
            let default = match k.default {
                Some(d) => format!("`{d}`"),
                None => "required".to_string(),
            };
            let _ = writeln!(w, "| `{}` | {} | {} | {} |", k.key, k.value, default, k.doc);
        }
        if !s.notes.is_empty() {
            let _ = writeln!(w);
            for n in s.notes {
                let _ = writeln!(w, "- {n}");
            }
        }
    }
    out
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
        use std::fmt::Write;
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "# rlb-net scenario spec");
        let _ = writeln!(w, "[scenario]");
        let _ = writeln!(w, "name = \"{}\"", self.name);
        let _ = writeln!(w, "scheme = \"{}\"", scheme_name(self.scheme));
        let _ = writeln!(w, "rlb = {}", self.rlb);
        let _ = writeln!(w, "seed = {}", self.seed);
        let _ = writeln!(w, "horizon_ps = {}", self.horizon.as_ps());
        let _ = writeln!(w);
        let _ = writeln!(w, "[topology]");
        let _ = writeln!(w, "n_leaves = {}", self.topo.n_leaves);
        let _ = writeln!(w, "n_spines = {}", self.topo.n_spines);
        let _ = writeln!(w, "hosts_per_leaf = {}", self.topo.hosts_per_leaf);
        let _ = writeln!(w, "link_rate_bps = {}", self.topo.link_rate_bps);
        let _ = writeln!(w, "host_link_rate_bps = {}", self.topo.host_link_rate_bps);
        let _ = writeln!(w, "link_delay_ps = {}", self.topo.link_delay_ps);
        if let Some(ic) = &self.incast {
            let _ = writeln!(w);
            let _ = writeln!(w, "[incast]");
            let _ = writeln!(w, "degree = {}", ic.degree);
            let _ = writeln!(w, "total_response_bytes = {}", ic.total_response_bytes);
            let _ = writeln!(w, "requests = {}", ic.requests);
            let _ = writeln!(w, "request_interval_ps = {}", ic.request_interval.as_ps());
        }
        for wl in &self.workloads {
            let _ = writeln!(w);
            let _ = writeln!(w, "[[workload]]");
            let _ = writeln!(w, "kind = \"{}\"", workload_name(wl.kind));
            let _ = writeln!(w, "load_permille = {}", wl.load_permille);
        }
        for f in &self.faults {
            let _ = writeln!(w);
            let _ = writeln!(w, "[[fault]]");
            match *f {
                FaultEntry::At(tf) => {
                    let (kind, fields): (&str, Vec<(&str, u64)>) = match tf.fault {
                        Fault::LinkDown { leaf, spine } => {
                            ("link_down", vec![("leaf", leaf as u64), ("spine", spine as u64)])
                        }
                        Fault::LinkUp { leaf, spine } => {
                            ("link_up", vec![("leaf", leaf as u64), ("spine", spine as u64)])
                        }
                        Fault::LinkRate {
                            leaf,
                            spine,
                            rate_bps,
                        } => (
                            "link_rate",
                            vec![
                                ("leaf", leaf as u64),
                                ("spine", spine as u64),
                                ("rate_bps", rate_bps),
                            ],
                        ),
                        Fault::SpineDown { spine } => ("spine_down", vec![("spine", spine as u64)]),
                        Fault::SpineUp { spine } => ("spine_up", vec![("spine", spine as u64)]),
                        Fault::LoadScale { permille } => {
                            ("load_scale", vec![("permille", permille as u64)])
                        }
                    };
                    let _ = writeln!(w, "kind = \"{kind}\"");
                    let _ = writeln!(w, "at_ps = {}", tf.at.as_ps());
                    for (k, v) in fields {
                        let _ = writeln!(w, "{k} = {v}");
                    }
                }
                FaultEntry::Flap {
                    at,
                    leaf,
                    spine,
                    down,
                    up,
                    cycles,
                } => {
                    let _ = writeln!(w, "kind = \"flap\"");
                    let _ = writeln!(w, "at_ps = {}", at.as_ps());
                    let _ = writeln!(w, "leaf = {leaf}");
                    let _ = writeln!(w, "spine = {spine}");
                    let _ = writeln!(w, "down_ps = {}", down.as_ps());
                    let _ = writeln!(w, "up_ps = {}", up.as_ps());
                    let _ = writeln!(w, "cycles = {cycles}");
                }
            }
        }
        for &(at, permille) in &self.load_points {
            let _ = writeln!(w);
            let _ = writeln!(w, "[[load]]");
            let _ = writeln!(w, "at_ps = {}", at.as_ps());
            let _ = writeln!(w, "permille = {permille}");
        }
        out
    }

    /// Parse spec text (see the module docs for the grammar).
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        Parser::new(text).run()
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
        let curve = LoadCurve::new(self.load_points.clone())?;
        let mut flows = Vec::new();
        // Incast overlay first: same substream label as `incast_scenario`,
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
            let traffic = PoissonTraffic::with_load(
                wl.kind.cdf(),
                topo.n_hosts(),
                PairPolicy::InterLeaf {
                    hosts_per_leaf: topo.hosts_per_leaf,
                },
                wl.load_permille as f64 / 1000.0,
                topo.core_bits_per_sec(),
            );
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
        // the Poisson arrival horizon (same 30× slack as `incast_scenario`).
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

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// A scalar value with its source span.
#[derive(Debug, Clone, Copy)]
struct Val<'a> {
    kind: ValKind<'a>,
    col: usize,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
enum ValKind<'a> {
    Int(u64),
    Bool(bool),
    Str(&'a str),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Section {
    None,
    Scenario,
    Topology,
    Incast,
    Workload,
    Fault,
    Load,
}

/// Accumulator for one `[[fault]]` table, finalized at the next header/EOF.
#[derive(Default)]
struct FaultBuild {
    header_line: usize,
    kind: Option<String>,
    at: Option<u64>,
    leaf: Option<u32>,
    spine: Option<u32>,
    rate_bps: Option<u64>,
    permille: Option<u32>,
    down: Option<u64>,
    up: Option<u64>,
    cycles: Option<u32>,
}

#[derive(Default)]
struct LoadBuild {
    header_line: usize,
    at: Option<u64>,
    permille: Option<u32>,
}

struct Parser<'a> {
    lines: Vec<&'a str>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            lines: text.lines().collect(),
        }
    }

    fn err(
        &self,
        line: usize,
        col: usize,
        len: usize,
        msg: impl Into<String>,
        help: Option<&str>,
    ) -> SpecError {
        SpecError {
            line: line + 1,
            col,
            len,
            msg: msg.into(),
            src_line: self.lines.get(line).unwrap_or(&"").to_string(),
            help: help.map(str::to_string),
        }
    }

    fn run(self) -> Result<ScenarioSpec, SpecError> {
        let mut spec = ScenarioSpec {
            workloads: Vec::new(),
            ..ScenarioSpec::default()
        };
        let mut sect = Section::None;
        let mut fault: Option<FaultBuild> = None;
        let mut load: Option<LoadBuild> = None;

        for i in 0..self.lines.len() {
            let raw = self.lines[i];
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if trimmed.starts_with('[') {
                self.finalize_tables(&mut spec, &mut fault, &mut load)?;
                sect = self.parse_header(i, raw, trimmed, &mut spec, &mut fault, &mut load)?;
                continue;
            }
            let (key, key_col, val) = self.parse_kv(i)?;
            match sect {
                Section::None => {
                    return Err(self.err(
                        i,
                        key_col,
                        key.len(),
                        format!("key `{key}` before any section header"),
                        Some("start with [scenario]"),
                    ));
                }
                Section::Scenario => self.scenario_key(i, key, key_col, val, &mut spec)?,
                Section::Topology => self.topology_key(i, key, key_col, val, &mut spec)?,
                Section::Incast => self.incast_key(i, key, key_col, val, &mut spec)?,
                Section::Workload => {
                    let wl = spec.workloads.last_mut().expect("open workload table");
                    match key {
                        "kind" => {
                            let s = self.as_str(i, val)?;
                            wl.kind = workload_from(s).ok_or_else(|| {
                                self.err(
                                    i,
                                    val.col,
                                    val.len,
                                    format!("unknown workload `{s}`"),
                                    Some(WORKLOAD_HELP),
                                )
                            })?;
                        }
                        "load_permille" => wl.load_permille = self.as_u32(i, val)?,
                        _ => {
                            return Err(self.unknown_key(
                                i,
                                key,
                                key_col,
                                "[[workload]]",
                                &known_keys("[[workload]]"),
                            ))
                        }
                    }
                }
                Section::Fault => {
                    let fb = fault.as_mut().expect("open fault table");
                    match key {
                        "kind" => fb.kind = Some(self.as_str(i, val)?.to_string()),
                        "at_ps" => fb.at = Some(self.as_u64(i, val)?),
                        "leaf" => fb.leaf = Some(self.as_u32(i, val)?),
                        "spine" => fb.spine = Some(self.as_u32(i, val)?),
                        "rate_bps" => fb.rate_bps = Some(self.as_u64(i, val)?),
                        "permille" => fb.permille = Some(self.as_u32(i, val)?),
                        "down_ps" => fb.down = Some(self.as_u64(i, val)?),
                        "up_ps" => fb.up = Some(self.as_u64(i, val)?),
                        "cycles" => fb.cycles = Some(self.as_u32(i, val)?),
                        _ => {
                            return Err(self.unknown_key(
                                i,
                                key,
                                key_col,
                                "[[fault]]",
                                &known_keys("[[fault]]"),
                            ))
                        }
                    }
                    // Validate the kind as soon as it appears, at its span.
                    if key == "kind" {
                        let k = fb.kind.as_deref().unwrap_or("");
                        if !matches!(
                            k,
                            "link_down"
                                | "link_up"
                                | "link_rate"
                                | "spine_down"
                                | "spine_up"
                                | "load_scale"
                                | "flap"
                        ) {
                            return Err(self.err(
                                i,
                                val.col,
                                val.len,
                                format!("unknown fault kind `{k}`"),
                                Some(FAULT_HELP),
                            ));
                        }
                    }
                }
                Section::Load => {
                    let lb = load.as_mut().expect("open load table");
                    match key {
                        "at_ps" => lb.at = Some(self.as_u64(i, val)?),
                        "permille" => lb.permille = Some(self.as_u32(i, val)?),
                        _ => {
                            return Err(self.unknown_key(
                                i,
                                key,
                                key_col,
                                "[[load]]",
                                &known_keys("[[load]]"),
                            ))
                        }
                    }
                }
            }
        }
        self.finalize_tables(&mut spec, &mut fault, &mut load)?;
        if spec.workloads.is_empty() {
            spec.workloads.push(WorkloadEntry::default());
        }
        Ok(spec)
    }

    fn parse_header(
        &self,
        i: usize,
        raw: &str,
        trimmed: &str,
        spec: &mut ScenarioSpec,
        fault: &mut Option<FaultBuild>,
        load: &mut Option<LoadBuild>,
    ) -> Result<Section, SpecError> {
        let col = raw.find('[').map(|c| c + 1).unwrap_or(1);
        if let Some(name) = trimmed
            .strip_prefix("[[")
            .and_then(|r| r.strip_suffix("]]"))
        {
            return match name {
                "workload" => {
                    spec.workloads.push(WorkloadEntry::default());
                    Ok(Section::Workload)
                }
                "fault" => {
                    *fault = Some(FaultBuild {
                        header_line: i,
                        ..FaultBuild::default()
                    });
                    Ok(Section::Fault)
                }
                "load" => {
                    *load = Some(LoadBuild {
                        header_line: i,
                        ..LoadBuild::default()
                    });
                    Ok(Section::Load)
                }
                _ => Err(self.err(
                    i,
                    col,
                    trimmed.len(),
                    format!("unknown table `[[{name}]]`"),
                    Some("known tables: [[workload]], [[fault]], [[load]]"),
                )),
            };
        }
        if let Some(name) = trimmed.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            return match name {
                "scenario" => Ok(Section::Scenario),
                "topology" => Ok(Section::Topology),
                "incast" => {
                    spec.incast = Some(IncastSpec::default());
                    Ok(Section::Incast)
                }
                _ => Err(self.err(
                    i,
                    col,
                    trimmed.len(),
                    format!("unknown section `[{name}]`"),
                    Some("known sections: [scenario], [topology], [incast]"),
                )),
            };
        }
        Err(self.err(
            i,
            col,
            trimmed.len(),
            "malformed section header",
            Some("expected [section] or [[table]]"),
        ))
    }

    fn scenario_key(
        &self,
        i: usize,
        key: &str,
        key_col: usize,
        val: Val<'a>,
        spec: &mut ScenarioSpec,
    ) -> Result<(), SpecError> {
        match key {
            "name" => spec.name = self.as_str(i, val)?.to_string(),
            "scheme" => {
                let s = self.as_str(i, val)?;
                spec.scheme = scheme_from(s).ok_or_else(|| {
                    self.err(
                        i,
                        val.col,
                        val.len,
                        format!("unknown scheme `{s}`"),
                        Some(SCHEME_HELP),
                    )
                })?;
            }
            "rlb" => spec.rlb = self.as_bool(i, val)?,
            "seed" => spec.seed = self.as_u64(i, val)?,
            "horizon_ps" => spec.horizon = SimTime(self.as_u64(i, val)?),
            _ => {
                return Err(self.unknown_key(
                    i,
                    key,
                    key_col,
                    "[scenario]",
                    &known_keys("[scenario]"),
                ))
            }
        }
        Ok(())
    }

    fn topology_key(
        &self,
        i: usize,
        key: &str,
        key_col: usize,
        val: Val<'a>,
        spec: &mut ScenarioSpec,
    ) -> Result<(), SpecError> {
        match key {
            "n_leaves" => spec.topo.n_leaves = self.as_u32(i, val)?,
            "n_spines" => spec.topo.n_spines = self.as_u32(i, val)?,
            "hosts_per_leaf" => spec.topo.hosts_per_leaf = self.as_u32(i, val)?,
            "link_rate_bps" => spec.topo.link_rate_bps = self.as_u64(i, val)?,
            "host_link_rate_bps" => spec.topo.host_link_rate_bps = self.as_u64(i, val)?,
            "link_delay_ps" => spec.topo.link_delay_ps = self.as_u64(i, val)?,
            _ => {
                return Err(self.unknown_key(
                    i,
                    key,
                    key_col,
                    "[topology]",
                    &known_keys("[topology]"),
                ))
            }
        }
        Ok(())
    }

    fn incast_key(
        &self,
        i: usize,
        key: &str,
        key_col: usize,
        val: Val<'a>,
        spec: &mut ScenarioSpec,
    ) -> Result<(), SpecError> {
        let ic = spec.incast.as_mut().expect("open [incast] section");
        match key {
            "degree" => {
                let d = self.as_u32(i, val)?;
                if d == 0 {
                    return Err(self.err(
                        i,
                        val.col,
                        val.len,
                        "incast degree must be at least 1",
                        None,
                    ));
                }
                ic.degree = d;
            }
            "total_response_bytes" => ic.total_response_bytes = self.as_u64(i, val)?,
            "requests" => ic.requests = self.as_u32(i, val)?,
            "request_interval_ps" => ic.request_interval = SimDuration(self.as_u64(i, val)?),
            _ => {
                return Err(self.unknown_key(
                    i,
                    key,
                    key_col,
                    "[incast]",
                    &known_keys("[incast]"),
                ))
            }
        }
        Ok(())
    }

    /// Close any open `[[fault]]` / `[[load]]` table, checking required
    /// fields (errors point at the table's header line).
    fn finalize_tables(
        &self,
        spec: &mut ScenarioSpec,
        fault: &mut Option<FaultBuild>,
        load: &mut Option<LoadBuild>,
    ) -> Result<(), SpecError> {
        if let Some(fb) = fault.take() {
            spec.faults.push(self.finish_fault(fb)?);
        }
        if let Some(lb) = load.take() {
            let missing = match (lb.at, lb.permille) {
                (None, _) => Some("at_ps"),
                (_, None) => Some("permille"),
                _ => None,
            };
            if let Some(m) = missing {
                return Err(self.table_err(lb.header_line, format!("[[load]] is missing `{m}`")));
            }
            spec.load_points
                .push((SimTime(lb.at.expect("checked")), lb.permille.expect("checked")));
        }
        Ok(())
    }

    fn finish_fault(&self, fb: FaultBuild) -> Result<FaultEntry, SpecError> {
        let h = fb.header_line;
        let kind = fb
            .kind
            .as_deref()
            .ok_or_else(|| self.table_err(h, "[[fault]] is missing `kind`"))?;
        let at = SimTime(
            fb.at
                .ok_or_else(|| self.table_err(h, format!("[[fault]] `{kind}` is missing `at_ps`")))?,
        );
        let need = |field: Option<u32>, name: &str| {
            field.ok_or_else(|| {
                self.table_err(h, format!("[[fault]] `{kind}` is missing `{name}`"))
            })
        };
        let entry = match kind {
            "link_down" => FaultEntry::At(TimedFault::new(
                at,
                Fault::LinkDown {
                    leaf: need(fb.leaf, "leaf")?,
                    spine: need(fb.spine, "spine")?,
                },
            )),
            "link_up" => FaultEntry::At(TimedFault::new(
                at,
                Fault::LinkUp {
                    leaf: need(fb.leaf, "leaf")?,
                    spine: need(fb.spine, "spine")?,
                },
            )),
            "link_rate" => FaultEntry::At(TimedFault::new(
                at,
                Fault::LinkRate {
                    leaf: need(fb.leaf, "leaf")?,
                    spine: need(fb.spine, "spine")?,
                    rate_bps: fb.rate_bps.ok_or_else(|| {
                        self.table_err(h, "[[fault]] `link_rate` is missing `rate_bps`")
                    })?,
                },
            )),
            "spine_down" => FaultEntry::At(TimedFault::new(
                at,
                Fault::SpineDown {
                    spine: need(fb.spine, "spine")?,
                },
            )),
            "spine_up" => FaultEntry::At(TimedFault::new(
                at,
                Fault::SpineUp {
                    spine: need(fb.spine, "spine")?,
                },
            )),
            "load_scale" => FaultEntry::At(TimedFault::new(
                at,
                Fault::LoadScale {
                    permille: need(fb.permille, "permille")?,
                },
            )),
            "flap" => FaultEntry::Flap {
                at,
                leaf: need(fb.leaf, "leaf")?,
                spine: need(fb.spine, "spine")?,
                down: SimDuration(fb.down.ok_or_else(|| {
                    self.table_err(h, "[[fault]] `flap` is missing `down_ps`")
                })?),
                up: SimDuration(
                    fb.up
                        .ok_or_else(|| self.table_err(h, "[[fault]] `flap` is missing `up_ps`"))?,
                ),
                cycles: need(fb.cycles, "cycles")?,
            },
            other => unreachable!("kind `{other}` validated at parse time"),
        };
        Ok(entry)
    }

    fn table_err(&self, header_line: usize, msg: impl Into<String>) -> SpecError {
        let raw = self.lines.get(header_line).copied().unwrap_or("");
        let col = raw.find('[').map(|c| c + 1).unwrap_or(1);
        self.err(header_line, col, raw.trim().len(), msg, None)
    }

    fn unknown_key(
        &self,
        i: usize,
        key: &str,
        key_col: usize,
        section: &str,
        known: &str,
    ) -> SpecError {
        self.err(
            i,
            key_col,
            key.len(),
            format!("unknown key `{key}` in {section}"),
            Some(&format!("known keys: {known}")),
        )
    }

    /// Split `key = value`, returning the key, its 1-based column, and the
    /// parsed scalar value with its span.
    fn parse_kv(&self, i: usize) -> Result<(&'a str, usize, Val<'a>), SpecError> {
        let line: &'a str = self.lines[i];
        let eq = line.find('=').ok_or_else(|| {
            let col = line.len() - line.trim_start().len() + 1;
            self.err(
                i,
                col,
                line.trim().len(),
                "expected `key = value`",
                None,
            )
        })?;
        let key_part = &line[..eq];
        let key = key_part.trim();
        if key.is_empty() {
            return Err(self.err(i, 1, eq.max(1), "missing key before `=`", None));
        }
        let key_col = key_part.len() - key_part.trim_start().len() + 1;
        let val_off = eq + 1;
        let rest = &line[val_off..];
        let lead = rest.len() - rest.trim_start().len();
        let vcol = val_off + lead + 1; // 1-based column of the value
        let tok = rest.trim();
        if tok.is_empty() {
            return Err(self.err(i, vcol.saturating_sub(1), 1, format!("missing value for `{key}`"), None));
        }
        let kind = if let Some(inner) = tok.strip_prefix('"') {
            let Some(body) = inner.strip_suffix('"').filter(|_| tok.len() >= 2) else {
                return Err(self.err(i, vcol, tok.len(), "unterminated string", None));
            };
            if body.contains('\\') || body.contains('"') {
                return Err(self.err(
                    i,
                    vcol,
                    tok.len(),
                    "escape sequences are not supported in spec strings",
                    None,
                ));
            }
            ValKind::Str(body)
        } else if tok == "true" {
            ValKind::Bool(true)
        } else if tok == "false" {
            ValKind::Bool(false)
        } else if tok.bytes().all(|b| b.is_ascii_digit() || b == b'_') {
            let digits: String = tok.chars().filter(|c| *c != '_').collect();
            match digits.parse::<u64>() {
                Ok(n) => ValKind::Int(n),
                Err(_) => {
                    return Err(self.err(
                        i,
                        vcol,
                        tok.len(),
                        format!("integer `{tok}` does not fit in 64 bits"),
                        None,
                    ))
                }
            }
        } else {
            return Err(self.err(
                i,
                vcol,
                tok.len(),
                format!("cannot parse value `{tok}`"),
                Some("expected an integer, true/false, or a \"quoted string\""),
            ));
        };
        Ok((
            key,
            key_col,
            Val {
                kind,
                col: vcol,
                len: tok.len(),
            },
        ))
    }

    fn as_u64(&self, i: usize, v: Val<'a>) -> Result<u64, SpecError> {
        match v.kind {
            ValKind::Int(n) => Ok(n),
            _ => Err(self.err(i, v.col, v.len, "expected an integer", None)),
        }
    }

    fn as_u32(&self, i: usize, v: Val<'a>) -> Result<u32, SpecError> {
        let n = self.as_u64(i, v)?;
        u32::try_from(n).map_err(|_| {
            self.err(i, v.col, v.len, format!("{n} does not fit in 32 bits"), None)
        })
    }

    fn as_bool(&self, i: usize, v: Val<'a>) -> Result<bool, SpecError> {
        match v.kind {
            ValKind::Bool(b) => Ok(b),
            _ => Err(self.err(i, v.col, v.len, "expected true or false", None)),
        }
    }

    fn as_str(&self, i: usize, v: Val<'a>) -> Result<&'a str, SpecError> {
        match v.kind {
            ValKind::Str(s) => Ok(s),
            _ => Err(self.err(i, v.col, v.len, "expected a \"quoted string\"", None)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        fn documented_defaults_match_the_canonical_writer() {
            // The canonical text of a default spec (with the optional
            // incast section opened) must contain every documented
            // default verbatim — so a changed `Default` impl fails here
            // until the reference table is updated.
            let spec = ScenarioSpec {
                incast: Some(IncastSpec::default()),
                ..ScenarioSpec::default()
            };
            let text = spec.to_spec_text();
            for s in SPEC_REFERENCE {
                for k in s.keys {
                    if let Some(d) = k.default {
                        // `_` separators are for readability in integers
                        // only; string defaults keep theirs.
                        let canon = if d.starts_with('"') {
                            d.to_string()
                        } else {
                            d.replace('_', "")
                        };
                        let line = format!("{} = {canon}", k.key);
                        assert!(
                            text.contains(&line),
                            "{} documents `{}` defaulting to `{}`, but the \
                             canonical default spec has no line `{line}`",
                            s.header,
                            k.key,
                            d
                        );
                    }
                }
            }
        }

        #[test]
        fn fault_notes_cover_every_kind() {
            let notes = SPEC_REFERENCE
                .iter()
                .find(|s| s.header == "[[fault]]")
                .expect("fault section documented")
                .notes
                .join("\n");
            for kind in [
                "link_down", "link_up", "link_rate", "spine_down", "spine_up",
                "load_scale", "flap",
            ] {
                assert!(
                    notes.contains(kind),
                    "fault kind `{kind}` missing from the [[fault]] notes"
                );
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
    fn oversized_fabric_is_a_build_error() {
        let mut s = ScenarioSpec::default();
        s.topo.n_spines = 300;
        let e = s.build().expect_err("spine 255 and up cannot be named");
        assert!(e.contains("300 spines exceed the limit of 255"), "{e}");
        let mut s = ScenarioSpec::default();
        (s.topo.n_leaves, s.topo.hosts_per_leaf) = (70_000, 70_000);
        let e = s.build().expect_err("beyond the rank space");
        assert!(e.contains("exceed the limit of 65533"), "{e}");
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
        use crate::scenario::{incast_scenario, IncastScenarioConfig};
        let s = ScenarioSpec::parse(INCAST_EXAMPLE).unwrap();
        let sc = s.build().expect("builds");
        // The overlay's flows must replay `incast_scenario`'s bit-exactly:
        // same substream label, same IncastConfig.
        let reference = incast_scenario(
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
        ScenarioSpec::parse(text).expect_err("must fail").to_string()
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
                Just(Scheme::Conga),
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
                (at.clone(), 1u32..5000).prop_map(|(t, permille)| FaultEntry::At(
                    TimedFault::new(SimTime(t), Fault::LoadScale { permille })
                )),
                (at, (0u32..16, 0u32..16), (1u64..1_000_000_000, 1u64..1_000_000_000), 1u32..6)
                    .prop_map(|(t, (leaf, spine), (down, up), cycles)| FaultEntry::Flap {
                        at: SimTime(t),
                        leaf,
                        spine,
                        down: SimDuration(down),
                        up: SimDuration(up),
                        cycles,
                    }),
            ]
            .boxed()
        }

        fn arb_incast() -> BoxedStrategy<Option<IncastSpec>> {
            prop_oneof![
                Just(None),
                (1u32..64, 1u64..100_000_000, 1u32..32, 1u64..10_000_000_000u64).prop_map(
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
                (arb_name(), arb_scheme(), any::<bool>(), any::<u64>(), 1u64..10_000_000_000_000),
                (2u32..8, 2u32..8, 1u32..16),
                arb_incast(),
                proptest::collection::vec(arb_workload(), 0..3),
                proptest::collection::vec(arb_fault(), 0..5),
                proptest::collection::vec((0u64..10_000_000_000_000u64, 1u32..4000), 0..4),
            )
                .prop_map(
                    |((name, scheme, rlb, seed, horizon), (nl, ns, hpl), incast, mut workloads, faults, loads)| {
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
                            load_points: loads
                                .into_iter()
                                .map(|(t, p)| (SimTime(t), p))
                                .collect(),
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
