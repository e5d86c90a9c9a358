//! The spec grammar as data: one row per section, per key and per fault
//! kind.
//!
//! [`SPEC_REFERENCE`] is what the format *is*. The reader and the canonical
//! writer in `text.rs` are loops over it, the unknown-key and unknown-name
//! hints quote it, and `cargo xtask spec-doc` renders it — defaults
//! included — into EXPERIMENTS.md. A new key is one [`KeyDoc`] row naming
//! the field it lives in; a new fault kind is one `FAULT_KINDS` row.

use super::{FaultEntry, IncastSpec, ScenarioSpec, WorkloadEntry};
use crate::fault::{Fault, TimedFault};
use rlb_engine::{SimDuration, SimTime};
use rlb_lb::Scheme;
use rlb_workloads::Workload;

/// What a key's accessors reach into: the spec, and one staged instance of
/// each table a spec holds optionally or repeatedly. The reader fills the
/// staged instance key by key and the section's `store` hook moves it into
/// the spec; the writer's `stage` hook copies each instance out in turn.
pub(super) struct Doc<S> {
    pub spec: S,
    pub open: Staged,
}

#[derive(Clone, Copy, Default)]
pub(super) struct Staged {
    incast: IncastSpec,
    workload: WorkloadEntry,
    fault: FaultTable,
    load: (SimTime, u32),
}

/// A `[[fault]]` table as the text spells it: every key of the section,
/// whatever the kind.
#[derive(Clone, Copy, Default)]
struct FaultTable {
    /// Row of [`FAULT_KINDS`]; `None` until the `kind` key is read.
    kind: Option<usize>,
    at: SimTime,
    leaf: u32,
    spine: u32,
    rate_bps: u64,
    permille: u32,
    down: SimDuration,
    up: SimDuration,
    cycles: u32,
}

impl FaultTable {
    fn timed(&self, fault: Fault) -> FaultEntry {
        FaultEntry::At(TimedFault::new(self.at, fault))
    }

    /// The table `e` is written as.
    fn of(e: &FaultEntry) -> FaultTable {
        let mut t = FaultTable::default();
        match *e {
            FaultEntry::At(TimedFault { at, fault }) => {
                t.at = at;
                match fault {
                    Fault::LinkDown { leaf, spine } | Fault::LinkUp { leaf, spine } => {
                        (t.leaf, t.spine) = (leaf, spine);
                    }
                    Fault::LinkRate {
                        leaf,
                        spine,
                        rate_bps,
                    } => (t.leaf, t.spine, t.rate_bps) = (leaf, spine, rate_bps),
                    Fault::SpineDown { spine } | Fault::SpineUp { spine } => t.spine = spine,
                    Fault::LoadScale { permille } => t.permille = permille,
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
                (t.at, t.leaf, t.spine, t.down, t.up, t.cycles) =
                    (at, leaf, spine, down, up, cycles)
            }
        }
        // The kind is the row that reads the table back as `e`.
        t.kind = FAULT_KINDS.iter().position(|k| (k.entry)(&t) == *e);
        t
    }
}

/// One kind of `[[fault]]` table.
pub(super) struct FaultKind {
    pub name: &'static str,
    /// The keys a table of this kind must give, in section order. The
    /// canonical writer emits exactly these.
    pub needs: &'static [&'static str],
    /// One-line meaning, for the reference.
    pub doc: &'static str,
    /// The entry a table giving those keys stands for.
    entry: fn(&FaultTable) -> FaultEntry,
}

pub(super) static FAULT_KINDS: [FaultKind; 7] = [
    FaultKind {
        name: "link_down",
        needs: &["kind", "at_ps", "leaf", "spine"],
        doc: "take one leaf–spine link down",
        entry: |t| {
            t.timed(Fault::LinkDown {
                leaf: t.leaf,
                spine: t.spine,
            })
        },
    },
    FaultKind {
        name: "link_up",
        needs: &["kind", "at_ps", "leaf", "spine"],
        doc: "bring one leaf–spine link back",
        entry: |t| {
            t.timed(Fault::LinkUp {
                leaf: t.leaf,
                spine: t.spine,
            })
        },
    },
    FaultKind {
        name: "link_rate",
        needs: &["kind", "at_ps", "leaf", "spine", "rate_bps"],
        doc: "degrade (or restore) one link's rate mid-run",
        entry: |t| {
            t.timed(Fault::LinkRate {
                leaf: t.leaf,
                spine: t.spine,
                rate_bps: t.rate_bps,
            })
        },
    },
    FaultKind {
        name: "spine_down",
        needs: &["kind", "at_ps", "spine"],
        doc: "fail every link of one spine at once",
        entry: |t| t.timed(Fault::SpineDown { spine: t.spine }),
    },
    FaultKind {
        name: "spine_up",
        needs: &["kind", "at_ps", "spine"],
        doc: "recover every link of one spine",
        entry: |t| t.timed(Fault::SpineUp { spine: t.spine }),
    },
    FaultKind {
        name: "load_scale",
        needs: &["kind", "at_ps", "permille"],
        doc: "scale every host's send rate",
        entry: |t| {
            t.timed(Fault::LoadScale {
                permille: t.permille,
            })
        },
    },
    FaultKind {
        name: "flap",
        needs: &[
            "kind", "at_ps", "leaf", "spine", "down_ps", "up_ps", "cycles",
        ],
        doc: "expands into that many down/up pairs",
        entry: |t| FaultEntry::Flap {
            at: t.at,
            leaf: t.leaf,
            spine: t.spine,
            down: t.down,
            up: t.up,
            cycles: t.cycles,
        },
    },
];

type Get<T> = fn(&Doc<&ScenarioSpec>) -> T;
type Set<T> = fn(&mut Doc<&mut ScenarioSpec>, T);

/// Where a key's value lives and what type it has: a getter for the
/// canonical writer, a setter for the reader.
pub(super) enum Field {
    U32(Get<u32>, Set<u32>),
    /// A `u32` that must be at least 1.
    Count(Get<u32>, Set<u32>),
    U64(Get<u64>, Set<u64>),
    Bool(Get<bool>, Set<bool>),
    Str(
        for<'a> fn(&'a Doc<&'a ScenarioSpec>) -> &'a str,
        Set<String>,
    ),
    /// One of a closed list of names, held as its index: `names(i)` is the
    /// `i`-th name, `None` past the end. `what` names the list in
    /// diagnostics.
    Name {
        what: &'static str,
        names: fn(usize) -> Option<&'static str>,
        get: Get<usize>,
        set: Set<usize>,
    },
}

/// The accessor pair of a field path below [`Doc`]:
/// `field!(U64, spec.horizon.0)`.
macro_rules! field {
    (Str, $($path:tt)+) => {
        Field::Str(|d| &d.$($path)+, |d, v| d.$($path)+ = v)
    };
    ($kind:ident, $($path:tt)+) => {
        Field::$kind(|d| d.$($path)+, |d, v| d.$($path)+ = v)
    };
}

impl Field {
    /// The names of a [`Field::Name`] list, in order.
    pub(super) fn names(
        list: fn(usize) -> Option<&'static str>,
    ) -> impl Iterator<Item = &'static str> {
        (0..).map_while(list)
    }

    /// Append the value as the canonical text spells it.
    pub(super) fn write(&self, doc: &Doc<&ScenarioSpec>, out: &mut String) {
        use std::fmt::Write;
        let _ = match self {
            Field::U32(get, _) | Field::Count(get, _) => write!(out, "{}", get(doc)),
            Field::U64(get, _) => write!(out, "{}", get(doc)),
            Field::Bool(get, _) => write!(out, "{}", get(doc)),
            Field::Str(get, _) => write!(out, "\"{}\"", get(doc)),
            Field::Name { names, get, .. } => {
                write!(out, "\"{}\"", names(get(doc)).unwrap_or_default())
            }
        };
    }

    /// Value shape shown in the reference.
    fn shape(&self) -> String {
        match self {
            Field::U32(..) | Field::U64(..) => "integer".to_string(),
            Field::Count(..) => "integer ≥ 1".to_string(),
            Field::Bool(..) => "bool".to_string(),
            Field::Str(..) => "string".to_string(),
            Field::Name { names, .. } => Field::names(*names)
                .map(|n| format!("`{n}`"))
                .collect::<Vec<_>>()
                .join(" \\| "),
        }
    }
}

/// One key of a spec section.
pub struct KeyDoc {
    /// Integer keys end in their unit (`_ps`, `_bps`, `_bytes`, `permille`).
    pub key: &'static str,
    /// A valid example value.
    pub example: &'static str,
    pub doc: &'static str,
    pub(super) field: Field,
}

impl KeyDoc {
    /// The unit the key's name ends in, as the reference spells it.
    fn unit(&self) -> Option<&'static str> {
        let units = [
            ("_ps", "ps"),
            ("_bps", "bits/s"),
            ("_bytes", "bytes"),
            ("permille", "‰"),
        ];
        let unit = units.iter().find(|(suffix, _)| self.key.ends_with(suffix));
        unit.map(|(_, unit)| *unit)
    }
}

/// The keys the staged instance must give, after the variant a diagnostic
/// names the instance by (or `""`).
type Needs = fn(&Staged) -> (&'static str, &'static [&'static str]);

/// One section (`[name]`) or repeatable table (`[[name]]`) of the grammar.
pub struct SectionDoc {
    /// `[name]`, or `[[name]]` for a table a spec may repeat.
    pub header: &'static str,
    pub doc: &'static str,
    pub keys: &'static [KeyDoc],
    /// For a table with no defaults to fall back on: the keys an instance
    /// must give. The canonical writer emits exactly these.
    pub(super) needs: Option<Needs>,
    /// The kinds the table's `kind` key chooses between, listed under the
    /// key table of the reference.
    kinds: &'static [FaultKind],
    /// Writer: stage instance `n` of the section for the accessors; `false`
    /// when the spec holds no such instance.
    pub(super) stage: fn(&mut Doc<&ScenarioSpec>, usize) -> bool,
    /// Reader: the next header or the end of the text closes the table —
    /// move the staged instance into the spec.
    pub(super) store: fn(&mut Doc<&mut ScenarioSpec>),
}

impl SectionDoc {
    pub fn repeatable(&self) -> bool {
        self.header.starts_with("[[")
    }
}

/// The complete scenario-spec grammar, one entry per section. Order is
/// the canonical section order of [`ScenarioSpec::to_spec_text`].
pub const SPEC_REFERENCE: &[SectionDoc] = &[
    SectionDoc {
        header: "[scenario]",
        doc: "Run identity: the scheme under test, optional RLB wrapping, \
              seed and flow-arrival horizon.",
        keys: &[
            KeyDoc {
                key: "name",
                example: "\"outage\"",
                doc: "Display / job label (`scenario` when empty).",
                field: field!(Str, spec.name),
            },
            KeyDoc {
                key: "scheme",
                example: "\"letflow\"",
                doc: "Load-balancing scheme deployed at the leaves.",
                field: Field::Name {
                    what: "scheme",
                    names: |i| Scheme::ALL.get(i).map(|s| s.key()),
                    get: |d| d.spec.scheme as usize,
                    set: |d, i| d.spec.scheme = Scheme::ALL[i],
                },
            },
            KeyDoc {
                key: "rlb",
                example: "true",
                doc: "Wrap the scheme in RLB (predictor + Algorithm 1, \
                      default parameters).",
                field: field!(Bool, spec.rlb),
            },
            KeyDoc {
                key: "seed",
                example: "7",
                doc: "Master seed; `--seeds N` replicates by offsetting it.",
                field: field!(U64, spec.seed),
            },
            KeyDoc {
                key: "horizon_ps",
                example: "800_000_000",
                doc: "Flow arrivals stop here, so it must be positive (the \
                      run's hard stop is 25× this, extended to outlast any \
                      incast burst train).",
                field: field!(U64, spec.horizon.0),
            },
        ],
        needs: None,
        kinds: &[],
        stage: |_, n| n == 0,
        store: |_| {},
    },
    SectionDoc {
        header: "[topology]",
        doc: "Leaf–spine fabric dimensions; defaults mirror \
              `TopoConfig::default` (the Quick-scale fabric).",
        keys: &[
            KeyDoc {
                key: "n_leaves",
                example: "12",
                doc: "Leaf switches.",
                field: field!(U32, spec.topo.n_leaves),
            },
            KeyDoc {
                key: "n_spines",
                example: "12",
                doc: "Spine switches (= uplinks per leaf).",
                field: field!(U32, spec.topo.n_spines),
            },
            KeyDoc {
                key: "hosts_per_leaf",
                example: "24",
                doc: "Hosts under each leaf.",
                field: field!(U32, spec.topo.hosts_per_leaf),
            },
            KeyDoc {
                key: "link_rate_bps",
                example: "100_000_000_000",
                doc: "Leaf–spine link rate.",
                field: field!(U64, spec.topo.link_rate_bps),
            },
            KeyDoc {
                key: "host_link_rate_bps",
                example: "25_000_000_000",
                doc: "Host NIC line rate.",
                field: field!(U64, spec.topo.host_link_rate_bps),
            },
            KeyDoc {
                key: "link_delay_ps",
                example: "1_000_000",
                doc: "One-way propagation delay of every link.",
                field: field!(U64, spec.topo.link_delay_ps),
            },
        ],
        needs: None,
        kinds: &[],
        stage: |_, n| n == 0,
        store: |_| {},
    },
    SectionDoc {
        header: "[incast]",
        doc: "Optional: layer a §4.3 fan-in burst train over the workload \
              mix (which then plays the role of background traffic). Flows \
              replay the programmatic `Scenario::incast` bit-exactly for \
              the same seed.",
        keys: &[
            KeyDoc {
                key: "degree",
                example: "31",
                doc: "Responding servers per request (the fan-in degree).",
                field: field!(Count, open.incast.degree),
            },
            KeyDoc {
                key: "total_response_bytes",
                example: "1_000_000",
                doc: "Burst size across all responders for one request.",
                field: field!(U64, open.incast.total_response_bytes),
            },
            KeyDoc {
                key: "requests",
                example: "16",
                doc: "Number of incast requests issued.",
                field: field!(U32, open.incast.requests),
            },
            KeyDoc {
                key: "request_interval_ps",
                example: "500_000_000",
                doc: "Gap between successive requests.",
                field: field!(U64, open.incast.request_interval.0),
            },
        ],
        needs: None,
        kinds: &[],
        stage: |d, n| n == 0 && d.spec.incast.map(|ic| d.open.incast = ic).is_some(),
        store: |d| d.spec.incast = Some(d.open.incast),
    },
    SectionDoc {
        header: "[[workload]]",
        doc: "Traffic mix: each entry generates Poisson arrivals of a \
              named workload CDF independently and the flows merge. One \
              Web-Search entry at 500‰ if no table is given.",
        keys: &[
            KeyDoc {
                key: "kind",
                example: "\"data_mining\"",
                doc: "Flow-size CDF.",
                field: Field::Name {
                    what: "workload",
                    names: |i| Workload::ALL.get(i).map(|w| w.key()),
                    get: |d| d.open.workload.kind as usize,
                    set: |d, i| d.open.workload.kind = Workload::ALL[i],
                },
            },
            KeyDoc {
                key: "load_permille",
                example: "300",
                doc: "Offered load as ‰ of the healthy core capacity; \
                      entries add up, so two 300‰ entries offer 60% load \
                      as a mix.",
                field: field!(U32, open.workload.load_permille),
            },
        ],
        needs: None,
        kinds: &[],
        stage: |d, n| {
            let w = d.spec.workloads.get(n);
            w.map(|w| d.open.workload = *w).is_some()
        },
        store: |d| d.spec.workloads.push(d.open.workload),
    },
    SectionDoc {
        header: "[[fault]]",
        doc: "Fault timeline, any order — the builder sorts by time. \
              Downed links freeze their queues without dropping (lossless \
              fabric), so PFC backpressure does the signalling.",
        keys: &[
            KeyDoc {
                key: "kind",
                example: "\"link_down\"",
                doc: "What fails (or recovers); see the field requirements \
                      below.",
                field: Field::Name {
                    what: "fault kind",
                    names: |i| FAULT_KINDS.get(i).map(|k| k.name),
                    get: |d| d.open.fault.kind.unwrap_or(usize::MAX),
                    set: |d, i| d.open.fault.kind = Some(i),
                },
            },
            KeyDoc {
                key: "at_ps",
                example: "100_000_000",
                doc: "When the fault fires (every kind).",
                field: field!(U64, open.fault.at.0),
            },
            KeyDoc {
                key: "leaf",
                example: "0",
                doc: "Leaf end of the affected link.",
                field: field!(U32, open.fault.leaf),
            },
            KeyDoc {
                key: "spine",
                example: "1",
                doc: "Spine end of the affected link (or the failed spine).",
                field: field!(U32, open.fault.spine),
            },
            KeyDoc {
                key: "rate_bps",
                example: "10_000_000_000",
                doc: "New link rate for `link_rate`.",
                field: field!(U64, open.fault.rate_bps),
            },
            KeyDoc {
                key: "permille",
                example: "500",
                doc: "Send-rate multiplier for `load_scale` (1000 = nominal).",
                field: field!(U32, open.fault.permille),
            },
            KeyDoc {
                key: "down_ps",
                example: "50_000_000",
                doc: "Outage length per `flap` cycle; at least \
                      `link_delay_ps`.",
                field: field!(U64, open.fault.down.0),
            },
            KeyDoc {
                key: "up_ps",
                example: "50_000_000",
                doc: "Recovery length per `flap` cycle; at least \
                      `link_delay_ps` where another cycle follows.",
                field: field!(U64, open.fault.up.0),
            },
            KeyDoc {
                key: "cycles",
                example: "3",
                doc: "Down/up pairs a `flap` expands into.",
                field: field!(U32, open.fault.cycles),
            },
        ],
        needs: Some(|s| match s.fault.kind {
            Some(k) => (FAULT_KINDS[k].name, FAULT_KINDS[k].needs),
            None => ("", &["kind"]),
        }),
        kinds: &FAULT_KINDS,
        stage: |d, n| {
            let f = d.spec.faults.get(n);
            f.map(|f| d.open.fault = FaultTable::of(f)).is_some()
        },
        store: |d| {
            let t = &d.open.fault;
            let kind = t.kind.expect("the reader checked `needs`");
            d.spec.faults.push((FAULT_KINDS[kind].entry)(t));
        },
    },
    SectionDoc {
        header: "[[load]]",
        doc: "A piecewise-constant offered-load multiplier applied to flow \
              inter-arrival gaps (a load *curve*, distinct from \
              `load_scale` which throttles in-flight serialization).",
        keys: &[
            KeyDoc {
                key: "at_ps",
                example: "0",
                doc: "Point start time.",
                field: field!(U64, open.load.0 .0),
            },
            KeyDoc {
                key: "permille",
                example: "800",
                doc: "Load multiplier from this point on (1000 = the \
                      workloads' nominal offered load).",
                field: field!(U32, open.load.1),
            },
        ],
        needs: Some(|_| ("", &["at_ps", "permille"])),
        kinds: &[],
        stage: |d, n| {
            let p = d.spec.load_points.get(n);
            p.map(|p| d.open.load = *p).is_some()
        },
        store: |d| d.spec.load_points.push(d.open.load),
    },
];

/// `4000000` as `4_000_000`; anything but a run of digits comes back as is.
fn grouped(value: &str) -> String {
    if !value.bytes().all(|b| b.is_ascii_digit()) {
        return value.to_string();
    }
    let mut out = String::new();
    for (i, c) in value.chars().enumerate() {
        if i > 0 && (value.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// Render [`SPEC_REFERENCE`] as the markdown block `cargo xtask spec-doc`
/// splices into EXPERIMENTS.md between its `spec-doc` markers. The default
/// column is what the accessors read from [`ScenarioSpec::default`] (with
/// the optional `[incast]` section opened); a table the default spec holds
/// no instance of has none, and its keys read "required".
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
    let defaults = ScenarioSpec {
        incast: Some(IncastSpec::default()),
        ..ScenarioSpec::default()
    };
    let mut doc = Doc {
        spec: &defaults,
        open: Staged::default(),
    };
    for s in SPEC_REFERENCE {
        let rep = if s.repeatable() {
            " — repeatable"
        } else {
            ""
        };
        let _ = writeln!(w, "\n### `{}`{rep}\n", s.header);
        let _ = writeln!(w, "{}\n", s.doc);
        let _ = writeln!(w, "| key | value | default | meaning |");
        let _ = writeln!(w, "|---|---|---|---|");
        let has_defaults = (s.stage)(&mut doc, 0);
        for k in s.keys {
            let mut value = k.field.shape();
            if let Some(unit) = k.unit() {
                let _ = write!(value, ", {unit}");
            }
            let default = if has_defaults {
                let mut text = String::new();
                k.field.write(&doc, &mut text);
                format!("`{}`", grouped(&text))
            } else {
                "required".to_string()
            };
            let _ = writeln!(w, "| `{}` | {value} | {default} | {} |", k.key, k.doc);
        }
        if !s.kinds.is_empty() {
            let _ = writeln!(w);
        }
        for kind in s.kinds {
            let needs: Vec<String> = kind.needs[1..].iter().map(|k| format!("`{k}`")).collect();
            let _ = writeln!(
                w,
                "- `{}` needs {} — {}.",
                kind.name,
                needs.join(", "),
                kind.doc
            );
        }
    }
    out
}
