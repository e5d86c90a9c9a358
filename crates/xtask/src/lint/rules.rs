//! The rule set: each rule is a visitor over the lexed token stream.
//!
//! # Authoring a rule
//!
//! 1. Declare a unit struct and a `RuleMeta` const (name, severity,
//!    one-line summary, help text, `--explain` text with a bad/good pair).
//! 2. Implement [`LintRule::check`]: walk `cx.code` (comment-free tokens
//!    with byte spans) and call `cx.emit(first, last, &META)` on a match.
//!    Token-sequence helpers (`cx.is`, `cx.seq`) replace the substring
//!    matching of the old scanner — `"HashMap"` in a doc comment or raw
//!    string can no longer match, and spans make the diagnostics precise.
//! 3. Override [`LintRule::enabled`] if the rule is scoped to particular
//!    paths or file classes. Test-gating is **not** the rule's job: the
//!    engine drops warning-severity findings inside `#[cfg(test)]` regions
//!    and honours `// lint:allow(rule)` centrally.
//! 4. Register the rule in [`ALL_RULES`] and add a fixture test below
//!    (one positive, one negative snippet).

use super::lexer::TokenKind;
use super::{FileClass, FileCx, Severity};

/// Static description of a rule.
pub struct RuleMeta {
    pub name: &'static str,
    pub severity: Severity,
    /// One-line problem statement (diagnostic headline).
    pub summary: &'static str,
    /// The `help:` line under a finding.
    pub suggestion: &'static str,
    /// Long-form text for `--explain`, with a bad/good example.
    pub explain: &'static str,
}

/// A lint rule: a visitor over one file's token stream.
pub trait LintRule: Sync {
    fn meta(&self) -> &'static RuleMeta;

    /// Does the rule run on this file at all? Path/class scoping only —
    /// test-gating and `lint:allow` are applied by the engine.
    fn enabled(&self, file: &str, class: FileClass) -> bool {
        let _ = file;
        !matches!(class, FileClass::Bench)
    }

    fn check(&self, cx: &mut FileCx<'_>);
}

/// Every registered rule, in diagnostic order.
pub static ALL_RULES: &[&dyn LintRule] = &[
    &HashContainer,
    &WallClock,
    &UnseededRng,
    &LibUnwrap,
    &HotClone,
    &HotBtreemap,
    &FloatAccum,
    &UnstableSort,
    &TimeArith,
    &HotAlloc,
];

/// Look a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static dyn LintRule> {
    ALL_RULES.iter().copied().find(|r| r.meta().name == name)
}

// ---------------------------------------------------------------------------
// Legacy rules (ported from the line scanner)
// ---------------------------------------------------------------------------

pub struct HashContainer;
pub static HASH_CONTAINER: RuleMeta = RuleMeta {
    name: "hash-container",
    severity: Severity::Warning,
    summary: "randomized-iteration hash container in simulator code",
    suggestion: "iteration order is randomized per process; use BTreeMap/BTreeSet \
                 (or a Vec keyed by index) so replays are bit-exact",
    explain: "\
`HashMap` and `HashSet` iterate in an order randomized per process (SipHash
with a random key). Any simulator state or output derived from that order —
event emission, report rows, tie-breaking — silently breaks the bit-exact
replay guarantee.

    bad:  let mut live: HashMap<u32, Flow> = HashMap::new();
    good: let mut live: BTreeMap<u32, Flow> = BTreeMap::new();
    good: let mut live: rlb_engine::FlowTable<Flow> = FlowTable::new();",
};

impl LintRule for HashContainer {
    fn meta(&self) -> &'static RuleMeta {
        &HASH_CONTAINER
    }

    fn check(&self, cx: &mut FileCx<'_>) {
        for i in 0..cx.code.len() {
            if cx.kind(i) == Some(TokenKind::Ident) && matches!(cx.text(i), "HashMap" | "HashSet") {
                cx.emit(i, i, &HASH_CONTAINER);
            }
        }
    }
}

pub struct WallClock;
pub static WALL_CLOCK: RuleMeta = RuleMeta {
    name: "wall-clock",
    severity: Severity::Error,
    summary: "wall-clock read inside simulator code",
    suggestion: "wall-clock time must not influence a simulation; use the event \
                 clock (`EventQueue::now`), or move the timing into crates/bench",
    explain: "\
`Instant::now()` / `SystemTime::now()` leak real time into a simulated run:
anything derived from them differs between executions, so the run is no
longer replayable. Only `crates/bench` (which times and explores, and is
never replayed) may read the host clock.

    bad:  let t0 = std::time::Instant::now();
    good: let t0 = self.queue.now();           // simulation clock
    good: // lint:allow(wall-clock) progress display only, never fed back",
};

impl LintRule for WallClock {
    fn meta(&self) -> &'static RuleMeta {
        &WALL_CLOCK
    }

    fn check(&self, cx: &mut FileCx<'_>) {
        for i in 0..cx.code.len() {
            if cx.kind(i) == Some(TokenKind::Ident)
                && matches!(cx.text(i), "Instant" | "SystemTime")
                && cx.seq(i + 1, &[":", ":", "now"])
            {
                cx.emit(i, i + 3, &WALL_CLOCK);
            }
        }
    }
}

pub struct UnseededRng;
pub static UNSEEDED_RNG: RuleMeta = RuleMeta {
    name: "unseeded-rng",
    severity: Severity::Error,
    summary: "entropy not derived from the run seed",
    suggestion: "derive randomness from the run seed via `rlb_engine::substream` \
                 so every decision is replayable",
    explain: "\
`thread_rng()`, `from_entropy()` and `rand::random()` pull operating-system
entropy, so two runs with the same seed diverge. All simulator randomness
must flow from the run seed through `rlb_engine::substream`, which derives
independent, replayable streams per component.

    bad:  let mut rng = rand::thread_rng();
    good: let mut rng = substream(cfg.seed, b\"lb-leaf\", leaf as u64);",
};

impl LintRule for UnseededRng {
    fn meta(&self) -> &'static RuleMeta {
        &UNSEEDED_RNG
    }

    fn check(&self, cx: &mut FileCx<'_>) {
        for i in 0..cx.code.len() {
            if cx.kind(i) != Some(TokenKind::Ident) {
                continue;
            }
            match cx.text(i) {
                "thread_rng" | "from_entropy" => cx.emit(i, i, &UNSEEDED_RNG),
                "rand" if cx.seq(i + 1, &[":", ":", "random"]) => {
                    cx.emit(i, i + 3, &UNSEEDED_RNG);
                }
                _ => {}
            }
        }
    }
}

pub struct LibUnwrap;
pub static LIB_UNWRAP: RuleMeta = RuleMeta {
    name: "lib-unwrap",
    severity: Severity::Warning,
    summary: "bare `.unwrap()` in deterministic-core library code",
    suggestion: "return a Result, or use `.expect(\"<invariant that makes this \
                 infallible>\")` so the panic message explains itself",
    explain: "\
A bare `.unwrap()` in `crates/{engine,net,core,transport,lb}` library code
turns a violated invariant into an anonymous panic. `.expect(\"…\")` with the
invariant spelled out costs nothing and makes the eventual failure
self-diagnosing; a `Result` is better still where the caller can recover.

    bad:  let e = self.slots.get(idx).unwrap();
    good: let e = self.slots.get(idx).expect(\"idx bounded by push\");",
};

impl LintRule for LibUnwrap {
    fn meta(&self) -> &'static RuleMeta {
        &LIB_UNWRAP
    }

    fn enabled(&self, _file: &str, class: FileClass) -> bool {
        class == FileClass::CoreLib
    }

    fn check(&self, cx: &mut FileCx<'_>) {
        for i in 0..cx.code.len() {
            if cx.is(i, ".") && cx.seq(i + 1, &["unwrap", "(", ")"]) {
                cx.emit(i, i + 3, &LIB_UNWRAP);
            }
        }
    }
}

pub struct HotClone;
pub static HOT_CLONE: RuleMeta = RuleMeta {
    name: "hot-clone",
    severity: Severity::Warning,
    summary: "packet/event deep-copy in the dispatch hot path",
    suggestion: "the dispatch loop runs once per event; move the payload \
                 instead of cloning it, or hoist the copy out of the hot path",
    explain: "\
`net/src/sim/` is the per-event dispatch loop. Cloning a packet or event
there allocates and copies once per event — exactly the cost the timing
wheel and arena work removed. Scoped to receivers named `pkt`, `packet`,
`ev`, `event`.

    bad:  self.route_data(node, port, pkt.clone());
    good: self.route_data(node, port, pkt);      // move, don't copy",
};

impl LintRule for HotClone {
    fn meta(&self) -> &'static RuleMeta {
        &HOT_CLONE
    }

    fn enabled(&self, file: &str, class: FileClass) -> bool {
        !matches!(class, FileClass::Bench) && in_dispatch_loop(file)
    }

    fn check(&self, cx: &mut FileCx<'_>) {
        for i in 0..cx.code.len() {
            if cx.kind(i) == Some(TokenKind::Ident)
                && matches!(cx.text(i), "pkt" | "packet" | "ev" | "event")
                && cx.seq(i + 1, &[".", "clone", "(", ")"])
            {
                cx.emit(i, i + 4, &HOT_CLONE);
            }
        }
    }
}

pub struct HotBtreemap;
pub static HOT_BTREEMAP: RuleMeta = RuleMeta {
    name: "hot-btreemap",
    severity: Severity::Warning,
    summary: "BTreeMap on the per-packet decision path",
    suggestion: "per-flow state in lb/core is touched once per packet; use \
                 `rlb_engine::FlowTable` — same deterministic key-order \
                 iteration, dense O(1) access instead of O(log n) tree walks",
    explain: "\
Per-flow state in `crates/lb` and `crates/core` sits on the per-packet
decision path. `rlb_engine::FlowTable` provides the same deterministic
ascending-key iteration with dense O(1) access (PR 4 measured 6.5× on
churn); `BTreeMap` there is a silent performance regression.

    bad:  flows: BTreeMap<u64, FlowletState>,
    good: flows: rlb_engine::FlowTable<FlowletState>,",
};

impl LintRule for HotBtreemap {
    fn meta(&self) -> &'static RuleMeta {
        &HOT_BTREEMAP
    }

    fn enabled(&self, file: &str, class: FileClass) -> bool {
        !matches!(class, FileClass::Bench)
            && (file.starts_with("crates/lb/src") || file.starts_with("crates/core/src"))
    }

    fn check(&self, cx: &mut FileCx<'_>) {
        for i in 0..cx.code.len() {
            if cx.kind(i) == Some(TokenKind::Ident) && cx.text(i) == "BTreeMap" {
                cx.emit(i, i, &HOT_BTREEMAP);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// New rule families (inexpressible on the old line scanner)
// ---------------------------------------------------------------------------

pub struct FloatAccum;
pub static FLOAT_ACCUM: RuleMeta = RuleMeta {
    name: "float-accum",
    severity: Severity::Warning,
    summary: "order-sensitive floating-point accumulation",
    suggestion: "float addition is not associative; use \
                 `rlb_metrics::kahan_sum` (compensated, fixed-order) or sum \
                 in an explicitly sorted order",
    explain: "\
`.sum::<f64>()` and float-seeded `.fold(0.0, …)` accumulate in iterator
order with bare `+`, so the rounding error — and eventually the reported
metric — depends on element order. Any refactor that reorders the iterator
(sharded collection, FlowTable spill order, parallel merge) then changes
figures bit-for-bit. `rlb_metrics::kahan_sum` compensates the rounding so
the total is stable to ~1 ulp regardless of magnitude spread.

    bad:  let mean = xs.iter().sum::<f64>() / n;
    good: let mean = rlb_metrics::kahan_sum(xs.iter().copied()) / n;

Order-insensitive folds (`f64::max`, `f64::min`) are not flagged: the rule
matches float-literal seeds (`0.0`), not `f64::NAN`/constant seeds.",
};

impl LintRule for FloatAccum {
    fn meta(&self) -> &'static RuleMeta {
        &FLOAT_ACCUM
    }

    fn check(&self, cx: &mut FileCx<'_>) {
        for i in 0..cx.code.len() {
            if !cx.is(i, ".") {
                continue;
            }
            // `.sum::<f64>()` / `.product::<f32>()`.
            if matches!(cx.text(i + 1), "sum" | "product")
                && cx.seq(i + 2, &[":", ":", "<"])
                && matches!(cx.text(i + 5), "f32" | "f64")
            {
                cx.emit(i, i + 6, &FLOAT_ACCUM);
            }
            // `.fold(0.0, …)` — a float-literal seed means a float
            // accumulator; `f64::NAN` seeds (max/min folds) don't match.
            if cx.is(i + 1, "fold") && cx.is(i + 2, "(") && cx.kind(i + 3) == Some(TokenKind::Float)
            {
                cx.emit(i, i + 3, &FLOAT_ACCUM);
            }
        }
    }
}

pub struct UnstableSort;
pub static UNSTABLE_SORT: RuleMeta = RuleMeta {
    name: "unstable-sort",
    severity: Severity::Warning,
    summary: "sort with a float or non-total-order key",
    suggestion: "use `f64::total_cmp` (a total order, stable across std \
                 versions) instead of `partial_cmp(..).unwrap()`; for \
                 unstable sorts on float keys, total_cmp is required",
    explain: "\
Two hazards, both invisible to the type system:

* a `partial_cmp(..).unwrap()` comparator panics on NaN and is not a total
  order — `sort_by` may produce an unspecified permutation;
* `sort_unstable*` does not specify the relative order of equal keys, so
  equal-key float data can come out differently across std versions,
  breaking cross-toolchain reproducibility of figures.

    bad:  fcts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    good: fcts.sort_by(f64::total_cmp);

`sort_unstable()` on integer keys is fine (total order, and our inputs are
deduplicated or order-insensitive there); comparators naming `total_cmp`
are what the rule asks for and are never flagged.",
};

impl LintRule for UnstableSort {
    fn meta(&self) -> &'static RuleMeta {
        &UNSTABLE_SORT
    }

    fn check(&self, cx: &mut FileCx<'_>) {
        for i in 0..cx.code.len() {
            if !(cx.is(i, ".")
                && cx.kind(i + 1) == Some(TokenKind::Ident)
                && matches!(
                    cx.text(i + 1),
                    "sort_by" | "sort_by_key" | "sort_unstable_by" | "sort_unstable_by_key"
                )
                && cx.is(i + 2, "("))
            {
                continue;
            }
            // Scan the argument token span (matching parens).
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut has_partial_cmp = false;
            let mut has_total_cmp = false;
            let mut has_float = false;
            while j < cx.code.len() {
                match cx.text(j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "partial_cmp" => has_partial_cmp = true,
                    "total_cmp" => has_total_cmp = true,
                    "f32" | "f64" => has_float = true,
                    _ => {
                        if cx.kind(j) == Some(TokenKind::Float) {
                            has_float = true;
                        }
                    }
                }
                j += 1;
            }
            if has_partial_cmp || (has_float && !has_total_cmp) {
                cx.emit(i, i + 1, &UNSTABLE_SORT);
            }
        }
    }
}

pub struct TimeArith;
pub static TIME_ARITH: RuleMeta = RuleMeta {
    name: "time-arith",
    severity: Severity::Warning,
    summary: "raw picosecond arithmetic outside engine::time",
    suggestion: "wrap the value in `SimTime`/`SimDuration` (crates/engine/src/\
                 time.rs) — typed arithmetic catches unit mistakes and \
                 underflow; raw u64 math on `_ps` values does not",
    explain: "\
The simulator clocks everything in integer picoseconds, and
`engine::time` owns that invariant: `SimTime + SimDuration` type-checks,
debug-asserts underflow, and keeps conversions exact. Raw `u64` arithmetic
on `_ps`-suffixed values re-opens the unit-confusion and silent-wraparound
bugs the newtypes exist to prevent — and the sharded-PDES work (ROADMAP
item 1) will move time values across shard boundaries where a bare u64
carries no meaning.

    bad:  let until = now.as_ps() + warn_lifetime_ps;
    good: let until = now + SimDuration::from_ps(warn_lifetime_ps);",
};

/// Binary arithmetic operators of interest (single-token spellings; `+=`
/// is lexed as `+` `=` and handled as a compound assignment).
const ARITH: [&str; 5] = ["+", "-", "*", "/", "%"];

impl LintRule for TimeArith {
    fn meta(&self) -> &'static RuleMeta {
        &TIME_ARITH
    }

    fn enabled(&self, file: &str, class: FileClass) -> bool {
        class == FileClass::CoreLib && !file.ends_with("engine/src/time.rs")
    }

    fn check(&self, cx: &mut FileCx<'_>) {
        for i in 0..cx.code.len() {
            if cx.kind(i) != Some(TokenKind::Ident) {
                continue;
            }
            let name = cx.text(i);
            let is_ps = name.ends_with("_ps") || name == "as_ps";
            if !is_ps {
                continue;
            }
            // Right edge of the ps expression: skip `as_ps`'s call parens.
            let right = if name == "as_ps" && cx.seq(i + 1, &["(", ")"]) {
                i + 3
            } else {
                i + 1
            };
            // `x_ps <op> operand` or `x_ps <op>= …` (compound assignment).
            if ARITH.contains(&cx.text(right)) {
                let operand_start = matches!(
                    cx.kind(right + 1),
                    Some(TokenKind::Ident | TokenKind::Int | TokenKind::Float)
                ) || cx.is(right + 1, "(");
                let compound = cx.is(right + 1, "=");
                if operand_start || compound {
                    cx.emit(i, right, &TIME_ARITH);
                    continue;
                }
            }
            // `operand <op> chain.to.x_ps`: walk left over the field-access
            // chain, then require a binary-position operator (an expression
            // ends just before it).
            let mut left = i;
            while left >= 2 && cx.is(left - 1, ".") && cx.kind(left - 2) == Some(TokenKind::Ident) {
                left -= 2;
            }
            if left >= 2 && ARITH.contains(&cx.text(left - 1)) {
                let before = left - 2;
                let expr_end = matches!(
                    cx.kind(before),
                    Some(TokenKind::Ident | TokenKind::Int | TokenKind::Float)
                ) || cx.is(before, ")")
                    || cx.is(before, "]");
                if expr_end {
                    cx.emit(i, i, &TIME_ARITH);
                }
            }
        }
    }
}

pub struct HotAlloc;
pub static HOT_ALLOC: RuleMeta = RuleMeta {
    name: "hot-alloc",
    severity: Severity::Warning,
    summary: "heap allocation in the per-event dispatch path",
    suggestion: "dispatch runs once per event; reuse a scratch buffer, use the \
                 packet arena (ROADMAP item 4), or hoist the allocation to \
                 setup",
    explain: "\
The dispatch call graph in `net/src/sim/` (`dispatch` and the `on_*`/
`route_*`/`host_*`/… handlers it fans out to) executes once per simulated
event — tens of millions of times per run. `Box::new`, `vec![…]` and
`.to_vec()` there put an allocator round-trip on that path, undoing the
allocation-free engine design and blocking the arena/SoA refactor.
Setup code (`new`, `make_predictor`) is exempt: allocating while building
the topology is what setup is for.

    bad:  let copies = pkt.payload.to_vec();          // inside route_data
    good: self.scratch.clear();                        // reused buffer
          self.scratch.extend_from_slice(&pkt.payload);",
};

/// Function-name prefixes that form the per-event dispatch call graph in
/// `net/src/sim/` (see its `impl Simulation` blocks).
const HOT_FN_PREFIXES: [&str; 17] = [
    "dispatch",
    "on_",
    "route_",
    "host_",
    "switch_",
    "try_",
    "apply_",
    "handle_",
    "send_",
    "decide",
    "maybe_",
    "audit_",
    "nic_",
    "launch",
    "enqueue_",
    "materialize_",
    "fault_",
];

/// The simulator's event loop: the files of `net/src/sim/`.
fn in_dispatch_loop(file: &str) -> bool {
    file.contains("net/src/sim/")
}

impl LintRule for HotAlloc {
    fn meta(&self) -> &'static RuleMeta {
        &HOT_ALLOC
    }

    fn enabled(&self, file: &str, class: FileClass) -> bool {
        !matches!(class, FileClass::Bench) && in_dispatch_loop(file)
    }

    fn check(&self, cx: &mut FileCx<'_>) {
        for i in 0..cx.code.len() {
            let hot = cx
                .enclosing_fn(i)
                .is_some_and(|f| HOT_FN_PREFIXES.iter().any(|p| f.starts_with(p)));
            if !hot {
                continue;
            }
            if cx.is(i, "Box") && cx.seq(i + 1, &[":", ":", "new"]) {
                cx.emit(i, i + 3, &HOT_ALLOC);
            } else if cx.is(i, "vec") && cx.is(i + 1, "!") {
                cx.emit(i, i + 1, &HOT_ALLOC);
            } else if cx.is(i, ".") && cx.seq(i + 1, &["to_vec", "(", ")"]) {
                cx.emit(i, i + 3, &HOT_ALLOC);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fixture tests: one positive and one negative snippet per rule.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::super::{lint_source, FileClass};
    use std::collections::BTreeSet;

    /// Rule names found in `src` when scanned as `file` / `class`.
    fn found(file: &str, src: &str, class: FileClass) -> Vec<&'static str> {
        lint_source(file, src, class)
            .into_iter()
            .map(|f| f.rule.name)
            .collect()
    }

    #[test]
    fn hash_container_fixture() {
        let bad = "use std::collections::HashMap;\nstruct S { m: HashMap<u64, u64> }\n";
        assert_eq!(
            found("t.rs", bad, FileClass::Sim),
            ["hash-container", "hash-container"]
        );
        let ok = "use std::collections::BTreeMap;\nstruct S { m: BTreeMap<u64, u64> }\n";
        assert!(found("t.rs", ok, FileClass::Sim).is_empty());
    }

    #[test]
    fn wall_clock_fixture() {
        let bad = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(found("t.rs", bad, FileClass::CoreLib), ["wall-clock"]);
        let ok = "fn f(q: &EventQueue) { let t = q.now(); }\n";
        assert!(found("t.rs", ok, FileClass::CoreLib).is_empty());
        // Error severity: fires even in test code.
        let in_test = "#[cfg(test)]\nmod t { fn f() { let t = SystemTime::now(); } }\n";
        assert_eq!(found("t.rs", in_test, FileClass::CoreLib), ["wall-clock"]);
    }

    #[test]
    fn unseeded_rng_fixture() {
        let bad = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(found("t.rs", bad, FileClass::Sim), ["unseeded-rng"]);
        let bad2 = "let x: u8 = rand::random();\n";
        assert_eq!(found("t.rs", bad2, FileClass::Test), ["unseeded-rng"]);
        let ok = "let mut rng = substream(seed, b\"flows\", 0);\n";
        assert!(found("t.rs", ok, FileClass::Sim).is_empty());
    }

    #[test]
    fn lib_unwrap_fixture() {
        let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(found("t.rs", bad, FileClass::CoreLib), ["lib-unwrap"]);
        // Only core-lib code; .expect is the sanctioned form.
        assert!(found("t.rs", bad, FileClass::Sim).is_empty());
        assert!(found("t.rs", bad, FileClass::Test).is_empty());
        let ok = "fn f(x: Option<u32>) -> u32 { x.expect(\"set in new()\") }\n";
        assert!(found("t.rs", ok, FileClass::CoreLib).is_empty());
    }

    #[test]
    fn hot_clone_fixture() {
        let sim = "crates/net/src/sim/fabric.rs";
        for bad in [
            "fn route_data(&mut self) { g(pkt.clone()); }\n",
            "fn f() { let dup = packet.clone(); }\n",
            "fn f() { self.dispatch(ev.clone()); }\n",
            "fn f() { queue.push(event.clone()); }\n",
        ] {
            assert_eq!(found(sim, bad, FileClass::CoreLib), ["hot-clone"], "{bad}");
        }
        // Word boundary comes free with tokens: my_pkt is one ident.
        for ok in [
            "fn f() { let p = prev.clone(); }\n",
            "fn f() { let m = my_pkt.clone(); }\n",
            "fn f() { let c = cfg.switch.clone(); }\n",
        ] {
            assert!(found(sim, ok, FileClass::CoreLib).is_empty(), "{ok}");
        }
        // Same code outside the event loop's files is not the hot path.
        let bad = "fn f() { g(pkt.clone()); }\n";
        assert!(found("crates/net/src/topology.rs", bad, FileClass::CoreLib).is_empty());
    }

    #[test]
    fn hot_btreemap_fixture() {
        let bad = "use std::collections::BTreeMap;\nstruct Lb { t: BTreeMap<u64, E> }\n";
        assert_eq!(
            found("crates/lb/src/letflow.rs", bad, FileClass::CoreLib),
            ["hot-btreemap", "hot-btreemap"]
        );
        assert_eq!(
            found("crates/core/src/reroute.rs", bad, FileClass::CoreLib).len(),
            2
        );
        // net and engine legitimately use BTreeMap (cold paths, reference
        // models).
        assert!(found("crates/net/src/sim/fabric.rs", bad, FileClass::CoreLib).is_empty());
        assert!(found("crates/engine/src/table.rs", bad, FileClass::CoreLib).is_empty());
    }

    #[test]
    fn float_accum_fixture() {
        let bad = "fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() / xs.len() as f64 }\n";
        assert_eq!(found("t.rs", bad, FileClass::Sim), ["float-accum"]);
        let bad2 = "let total = xs.iter().fold(0.0, |a, x| a + x);\n";
        assert_eq!(found("t.rs", bad2, FileClass::CoreLib), ["float-accum"]);
        // Integer sums and order-insensitive float folds are fine.
        let ok = "let n: u64 = xs.iter().sum();\nlet s = xs.iter().sum::<u64>();\n";
        assert!(found("t.rs", ok, FileClass::Sim).is_empty());
        let ok2 = "let hi = xs.iter().cloned().fold(f64::NAN, f64::max);\n";
        assert!(found("t.rs", ok2, FileClass::Sim).is_empty());
        // Kahan helper itself is the sanctioned form.
        let ok3 = "let m = rlb_metrics::kahan_sum(xs.iter().copied()) / n;\n";
        assert!(found("t.rs", ok3, FileClass::Sim).is_empty());
    }

    #[test]
    fn unstable_sort_fixture() {
        let bad = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert_eq!(found("t.rs", bad, FileClass::Sim), ["unstable-sort"]);
        let bad2 = "fn f(v: &mut [E]) { v.sort_unstable_by(|a, b| (a.x as f64).partial_cmp(&(b.x as f64)).expect(\"NaN\")); }\n";
        assert_eq!(found("t.rs", bad2, FileClass::CoreLib), ["unstable-sort"]);
        let bad3 = "fn f(v: &mut [E]) { v.sort_unstable_by_key(|e| e.cost_f64 as f64); }\n";
        assert_eq!(found("t.rs", bad3, FileClass::Sim), ["unstable-sort"]);
        // total_cmp is the fix; integer keys are a total order.
        let ok = "fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }\n";
        assert!(found("t.rs", ok, FileClass::Sim).is_empty());
        let ok2 = "fn f(v: &mut Vec<u64>) { v.sort_unstable(); v.sort_by_key(|x| *x); }\n";
        assert!(found("t.rs", ok2, FileClass::Sim).is_empty());
    }

    #[test]
    fn time_arith_fixture() {
        let bad = "fn f(now_ps: u64, dt_ps: u64) -> u64 { now_ps + dt_ps }\n";
        assert_eq!(
            found("crates/core/src/predictor.rs", bad, FileClass::CoreLib),
            // Both operands are ps-suffixed; each reports once.
            ["time-arith", "time-arith"]
        );
        let bad2 = "fn f(now: SimTime) -> u64 { now.as_ps() + self.cfg.warn_lifetime_ps }\n";
        assert!(!found("crates/net/src/sim/fabric.rs", bad2, FileClass::CoreLib).is_empty());
        let bad3 = "fn f(&mut self) { self.counters.paused_port_time_ps += 5; }\n";
        assert_eq!(
            found("crates/net/src/sim/fabric.rs", bad3, FileClass::CoreLib),
            ["time-arith"]
        );
        // Typed arithmetic, comparisons, and assignment are all fine.
        let ok = "fn f(now: SimTime, d: SimDuration) -> SimTime { now + d }\n\
                  fn g(a_ps: u64, b_ps: u64) -> bool { a_ps < b_ps }\n\
                  fn h(&mut self, v: u64) { self.t_ps = v; }\n";
        assert!(found("crates/net/src/sim/fabric.rs", ok, FileClass::CoreLib).is_empty());
        // engine::time owns raw ps math; other classes are out of scope.
        let raw = "fn f(a_ps: u64) -> u64 { a_ps * 2 }\n";
        assert!(found("crates/engine/src/time.rs", raw, FileClass::CoreLib).is_empty());
        assert!(found("crates/metrics/src/stats.rs", raw, FileClass::Sim).is_empty());
    }

    #[test]
    fn hot_alloc_fixture() {
        let sim = "crates/net/src/sim/fabric.rs";
        let bad =
            "impl Simulation { fn route_data(&mut self) { let c = pkt.payload.to_vec(); } }\n";
        assert_eq!(found(sim, bad, FileClass::CoreLib), ["hot-alloc"]);
        let bad2 = "impl S { fn on_host_rx(&mut self) { let b = Box::new(frame); } }\n";
        assert_eq!(found(sim, bad2, FileClass::CoreLib), ["hot-alloc"]);
        let bad3 = "impl S { fn dispatch(&mut self, ev: Event) { let v = vec![0u8; 64]; } }\n";
        assert_eq!(found(sim, bad3, FileClass::CoreLib), ["hot-alloc"]);
        // Setup allocates freely; other files are out of scope.
        let ok = "impl S { fn new(cfg: Cfg) -> S { let q = vec![VecDeque::new(); 4]; } }\n";
        assert!(found(sim, ok, FileClass::CoreLib).is_empty());
        let elsewhere = "impl S { fn dispatch(&mut self) { let v = vec![0u8; 64]; } }\n";
        assert!(found("crates/net/src/topology.rs", elsewhere, FileClass::CoreLib).is_empty());
    }

    /// Both hot-path rules follow the event loop into its plane files, and
    /// the transmit and fault handlers count as hot.
    #[test]
    fn hot_rules_cover_the_sim_planes() {
        let hosts = "crates/net/src/sim/hosts.rs";
        let bad = "impl S { fn on_host_rx(&mut self) { let v = vec![0u8; 64]; } }\n";
        assert_eq!(found(hosts, bad, FileClass::CoreLib), ["hot-alloc"]);
        let clone = "impl S { fn f(&mut self) { g(pkt.clone()); } }\n";
        assert_eq!(found(hosts, clone, FileClass::CoreLib), ["hot-clone"]);
        let fabric = "crates/net/src/sim/fabric.rs";
        for f in [
            "nic_pull",
            "launch",
            "enqueue_or_launch",
            "materialize_egress",
            "fault_set_link_down",
        ] {
            let bad = format!("impl S {{ fn {f}(&mut self) {{ let b = Box::new(1); }} }}\n");
            assert_eq!(
                found(fabric, &bad, FileClass::CoreLib),
                ["hot-alloc"],
                "{f}"
            );
        }
        // The LB decision builds its path view once per packet.
        let decide = "impl Control { fn decide(&mut self) { let v = vec![0u8; 64]; } }\n";
        assert_eq!(
            found("crates/net/src/sim/control.rs", decide, FileClass::CoreLib),
            ["hot-alloc"]
        );
        // The file the event loop once was is no longer in scope.
        assert!(found("crates/net/src/sim.rs", bad, FileClass::CoreLib).is_empty());
        let setup = "impl S { fn new_shard() -> S { let v = vec![0u8; 64]; } }\n";
        assert!(found("crates/net/src/sim/mod.rs", setup, FileClass::CoreLib).is_empty());
    }

    /// One-line triggers for the six rules the first, line-based scanner
    /// had, in the form that scanner could see.
    #[test]
    fn each_original_rule_fires_on_its_one_line_trigger() {
        let core = "\
use std::collections::HashMap;
fn f(x: Option<u32>) -> u32 {
    let t = std::time::Instant::now();
    let mut rng = rand::thread_rng();
    let s: HashSet<u8> = HashSet::new();
    x.unwrap()
}
";
        let rules: BTreeSet<_> = found("crates/engine/src/f.rs", core, FileClass::CoreLib)
            .into_iter()
            .collect();
        assert_eq!(
            rules,
            BTreeSet::from(["hash-container", "wall-clock", "unseeded-rng", "lib-unwrap"])
        );
        for (src, rule) in [
            ("struct S { m: HashMap<u64, u64> }\n", "hash-container"),
            (
                "fn f() { let t = std::time::Instant::now(); }\n",
                "wall-clock",
            ),
            (
                "fn f() { let mut rng = rand::thread_rng(); }\n",
                "unseeded-rng",
            ),
        ] {
            assert_eq!(found("t.rs", src, FileClass::Sim), [rule], "{src}");
        }
        let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(found("t.rs", unwrap, FileClass::CoreLib), ["lib-unwrap"]);
        // Path-scoped: hot-clone in the event loop only, hot-btreemap in
        // lb/ and core/ only.
        let sim = "fn route(&mut self) { self.q.push(pkt.clone()); }\n";
        let fabric = "crates/net/src/sim/fabric.rs";
        assert_eq!(found(fabric, sim, FileClass::CoreLib), ["hot-clone"]);
        assert!(found("crates/transport/src/rx.rs", sim, FileClass::CoreLib).is_empty());
        let lb = "pub struct Flowlets { table: BTreeMap<u64, Entry> }\n";
        assert_eq!(
            found("crates/lb/src/letflow.rs", lb, FileClass::CoreLib),
            ["hot-btreemap"]
        );
    }

    /// `#[cfg(test)]` and `tests/` silence warnings but not errors, and a
    /// `lint:allow` covers its own line or the next code line only.
    #[test]
    fn test_gating_and_allows() {
        let gated = "\
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn t() { let w = std::time::Instant::now(); }
}
";
        assert_eq!(
            found("crates/engine/src/g.rs", gated, FileClass::CoreLib),
            ["wall-clock"]
        );
        let after = "\
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    fn t() { let w = std::time::Instant::now(); }
}
fn after() { let m: std::collections::HashMap<u8, u8> = Default::default(); }
";
        assert_eq!(
            found("t.rs", after, FileClass::CoreLib),
            ["wall-clock", "hash-container"]
        );
        let test_file =
            "fn t() { let m: HashMap<u8, u8> = HashMap::new(); let w = Instant::now(); }\n";
        assert_eq!(
            found("tests/props.rs", test_file, FileClass::Test),
            ["wall-clock"]
        );

        let same = "let t = Instant::now(); // lint:allow(wall-clock) CLI timing\n";
        assert!(found("src/main.rs", same, FileClass::Sim).is_empty());
        let prev = "// lint:allow(wall-clock)\nlet t = Instant::now();\n";
        assert!(found("t.rs", prev, FileClass::Sim).is_empty());
        let stale = "// lint:allow(wall-clock)\nlet a = 1;\nlet t = Instant::now();\n";
        assert_eq!(found("t.rs", stale, FileClass::Sim), ["wall-clock"]);
    }

    /// Three sources the line scanner got wrong, which the lexer and the
    /// scope walker get right.
    #[test]
    fn lexer_sees_past_comments_raw_strings_and_attributes() {
        // A `"` inside a block comment does not hide the code after it.
        let src = "/* has a \" quote */ let m: HashMap<u8, u8> = HashMap::new();\n";
        assert!(found("t.rs", src, FileClass::Sim).contains(&"hash-container"));
        // A `"` inside `r#"…"#` does not end the raw string.
        let raw = "let s = r#\"say \"HashMap\" here\"#;\n";
        assert!(found("t.rs", raw, FileClass::Sim).is_empty());
        // An attribute line between the allow and the code keeps the allow.
        let attr =
            "// lint:allow(hash-container)\n#[derive(Debug)]\nstruct S { m: HashMap<u8, u8> }\n";
        assert!(found("t.rs", attr, FileClass::Sim).is_empty());
    }
}
