//! One workload, one process: build inputs from the seed, warm up, time
//! repetitions, check the outputs, and (traced pass) attribute host time
//! to layers from outside the program.

use crate::kernels;
use crate::measure::{cpu_seconds, median, now, peak_rss_mb, result_digest, secs_since, stats};
use crate::trace::{Span, Tracer};
use crate::workloads::{Input, Workload};
use rlb_bench::cli::BenchCli;
use rlb_bench::drive::build_report;
use rlb_bench::figures::common::Variant;
use rlb_bench::figures::fig6::{self, Fig6};
use rlb_bench::json::{self, Json};
use rlb_bench::runner::{fnv1a_64, run_jobs, JobOutcome, RunSummary, RunnerConfig};
use rlb_bench::{Figure, FigureReport, Scale};
use rlb_lb::Scheme;
use rlb_net::{RunResult, Scenario, ScenarioSpec, Simulation};
use rlb_workloads::{LoadCurve, PairPolicy, PoissonTraffic, SizeCdf, Workload as Cdf};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Fewest timed repetitions a run reports a median over.
const MIN_REPS: usize = 3;
/// Extra set-up executions per run (the result is dropped), so `setup_s`
/// is a median over many samples of a sub-millisecond quantity.
const SETUP_RUNS: usize = 100;

pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload hands back to `main`.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Contract metrics: end-to-end (untraced run) or per-layer (traced).
    pub values: Values,
    /// Human-readable findings that are not contract metrics: the digest,
    /// raw seconds per repetition with min/max/n, failed checks.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

/// Exact-repeat counts of one simulation (or summed over fig6's jobs):
/// everything the per-layer ledger reads from `RunResult`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub events: u64,
    pub pkt_hops: u64,
    pub flows: u64,
    pub flows_completed: u64,
    pub decisions: u64,
    pub reroutes: u64,
    pub recirculations: u64,
    pub forced_out: u64,
    pub cnm_generated: u64,
    pub pause_frames: u64,
    pub paused_port_time_ps: u64,
    pub buffer_drops: u64,
    pub ecn_marks: u64,
    pub naks: u64,
    pub packets_sent: u64,
    pub retransmitted: u64,
    pub snapshot_reuses: u64,
    pub snapshot_refreshes: u64,
    pub snapshot_rebuilds: u64,
    pub snapshot_dirty_spines: u64,
    pub arena_high_water: u64,
    pub window_advances: u64,
    pub cross_shard_messages: u64,
    pub barrier_stalls: u64,
    pub p99_fct_ms: f64,
    pub avg_fct_ms: f64,
    pub ooo_ratio: f64,
    pub end_time_ps: u64,
}

impl Counts {
    pub fn of(res: &RunResult) -> Counts {
        let s = res.summary();
        let (c, p) = (&res.counters, &res.perf);
        Counts {
            events: res.events_processed,
            pkt_hops: c.switch_packets,
            flows: s.flows_total as u64,
            flows_completed: s.flows_completed as u64,
            decisions: p.decisions,
            reroutes: c.reroutes,
            recirculations: c.recirculations,
            forced_out: c.recirculation_budget_exhausted,
            cnm_generated: c.cnm_generated,
            pause_frames: c.pause_frames,
            paused_port_time_ps: c.paused_port_time_ps,
            buffer_drops: c.buffer_drops,
            ecn_marks: c.ecn_marks,
            naks: s.total_naks,
            packets_sent: s.total_packets_sent,
            retransmitted: res.records.iter().map(|r| r.retransmitted_packets()).sum(),
            snapshot_reuses: p.snapshot_reuses,
            snapshot_refreshes: p.snapshot_refreshes,
            snapshot_rebuilds: p.snapshot_rebuilds,
            snapshot_dirty_spines: p.snapshot_dirty_queue_spines + p.snapshot_dirty_sig_spines,
            arena_high_water: p.arena_high_water,
            window_advances: p.window_advances,
            cross_shard_messages: p.cross_shard_messages,
            barrier_stalls: p.barrier_stalls,
            p99_fct_ms: s.p99_fct_ms,
            avg_fct_ms: s.avg_fct_ms,
            ooo_ratio: s.ooo_ratio,
            end_time_ps: res.end_time.as_ps(),
        }
    }

    /// Fold one fig6 job's metrics object in: counts add, the peak and the
    /// end time take the maximum, FCT statistics average over `jobs`.
    /// The job metrics carry no retransmission count, so `retransmitted`
    /// stays 0 (and `transport.retx_ratio` reads 0) on `fig6_pipeline`.
    fn add_job(&mut self, m: &Json, jobs: usize) -> Result<(), String> {
        let u = |path: &[&str]| {
            m.path(path)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("job metrics lack `{}`", path.join(".")))
        };
        let f = |path: &[&str]| {
            m.path(path)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("job metrics lack `{}`", path.join(".")))
        };
        self.events += u(&["perf", "events_processed"])?;
        self.pkt_hops += u(&["counters", "switch_packets"])?;
        self.flows += u(&["all", "flows_total"])?;
        self.flows_completed += u(&["all", "flows_completed"])?;
        self.decisions += u(&["perf", "decisions"])?;
        self.reroutes += u(&["counters", "reroutes"])?;
        self.recirculations += u(&["counters", "recirculations"])?;
        self.forced_out += u(&["counters", "recirculation_budget_exhausted"])?;
        self.cnm_generated += u(&["counters", "cnm_generated"])?;
        self.pause_frames += u(&["counters", "pause_frames"])?;
        self.paused_port_time_ps += u(&["counters", "paused_port_time_ps"])?;
        self.buffer_drops += u(&["counters", "buffer_drops"])?;
        self.ecn_marks += u(&["counters", "ecn_marks"])?;
        self.naks += u(&["all", "total_naks"])?;
        self.packets_sent += u(&["all", "total_packets_sent"])?;
        self.snapshot_reuses += u(&["perf", "snapshot_reuses"])?;
        self.snapshot_refreshes += u(&["perf", "snapshot_refreshes"])?;
        self.snapshot_rebuilds += u(&["perf", "snapshot_rebuilds"])?;
        self.snapshot_dirty_spines += u(&["perf", "snapshot_dirty_queue_spines"])?
            + u(&["perf", "snapshot_dirty_sig_spines"])?;
        self.arena_high_water = self.arena_high_water.max(u(&["perf", "arena_high_water"])?);
        self.window_advances += u(&["perf", "window_advances"])?;
        self.cross_shard_messages += u(&["perf", "cross_shard_messages"])?;
        self.barrier_stalls += u(&["perf", "barrier_stalls"])?;
        let n = jobs as f64;
        self.p99_fct_ms += f(&["all", "p99_fct_ms"])? / n;
        self.avg_fct_ms += f(&["all", "avg_fct_ms"])? / n;
        self.ooo_ratio += f(&["all", "ooo_ratio"])? / n;
        self.end_time_ps = self
            .end_time_ps
            .max((f(&["sim_seconds"])? * 1e12).round() as u64);
        Ok(())
    }
}

impl Counts {
    /// Share of LB decisions that met a warned first choice (rerouted,
    /// recirculated, or forced out once the budget was spent).
    fn warned_share(&self) -> f64 {
        ratio(
            self.reroutes + self.recirculations + self.forced_out,
            self.decisions,
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer lines that are pure functions of the counts.
fn count_metrics(v: &mut Values, c: &Counts) {
    v.insert("engine.events", c.events as f64);
    v.insert("engine.arena_high_water", c.arena_high_water as f64);
    v.insert("workloads.flows", c.flows as f64);
    v.insert("transport.naks", c.naks as f64);
    v.insert(
        "transport.retx_ratio",
        ratio(c.retransmitted, c.packets_sent),
    );
    v.insert("lb.decisions", c.decisions as f64);
    v.insert("core.cnm_generated", c.cnm_generated as f64);
    v.insert("core.reroutes", c.reroutes as f64);
    v.insert("core.recirculations", c.recirculations as f64);
    v.insert("core.warned_decision_ratio", c.warned_share());
    v.insert("net.pause_frames", c.pause_frames as f64);
    v.insert("net.paused_port_time_ps", c.paused_port_time_ps as f64);
    v.insert("net.buffer_drops", c.buffer_drops as f64);
    v.insert("net.ecn_marks", c.ecn_marks as f64);
    v.insert(
        "net.snapshot_reuse_ratio",
        ratio(c.snapshot_reuses, c.decisions),
    );
    v.insert("net.snapshot_rebuilds", c.snapshot_rebuilds as f64);
    v.insert(
        "net.snapshot_dirty_spines_per_refresh",
        ratio(c.snapshot_dirty_spines, c.snapshot_refreshes),
    );
    v.insert("net.window_advances", c.window_advances as f64);
    v.insert("net.cross_shard_messages", c.cross_shard_messages as f64);
    v.insert("net.barrier_stalls", c.barrier_stalls as f64);
    v.insert(
        "net.msgs_per_window",
        ratio(c.cross_shard_messages, c.window_advances),
    );
    v.insert("model.p99_fct_ms", c.p99_fct_ms);
    v.insert("model.avg_fct_ms", c.avg_fct_ms);
    v.insert("model.ooo_ratio", c.ooo_ratio);
    v.insert("model.flows_completed", c.flows_completed as f64);
    v.insert("model.end_time_ps", c.end_time_ps as f64);
}

/// The layer kernels, sized by this run's counts, plus the estimated
/// shares of `run_wall_s` they imply.
fn kernel_metrics(
    v: &mut Values,
    tracer: &mut Tracer,
    w: &Workload,
    cdf: &SizeCdf,
    c: &Counts,
    run_wall_s: f64,
) {
    let in_flight = c.arena_high_water.clamp(1_024, 1 << 16);
    let wheel = kernels::wheel(tracer, in_flight);
    let select = kernels::lb_select(tracer, w.scheme(), w.n_paths());
    v.insert("engine.wheel_ns_per_event", wheel);
    v.insert(
        "engine.wheel_est_share",
        wheel * c.events as f64 / (run_wall_s * 1e9),
    );
    v.insert("engine.arena_ns_per_pkt", kernels::arena(tracer, in_flight));
    v.insert(
        "engine.flowtable_ns_per_op",
        kernels::flowtable(tracer, c.flows.max(1)),
    );
    v.insert("workloads.cdf_sample_ns", kernels::cdf_sample(tracer, cdf));
    v.insert("transport.gbn_ns_per_pkt", kernels::gbn(tracer));
    v.insert("transport.dcqcn_ns_per_update", kernels::dcqcn(tracer));
    v.insert("lb.select_ns", select);
    v.insert(
        "lb.est_share",
        select * c.decisions as f64 / (run_wall_s * 1e9),
    );
    v.insert(
        "core.algorithm1_ns",
        kernels::algorithm1_decide(tracer, w.n_paths(), c.warned_share()),
    );
    v.insert(
        "core.predictor_sample_ns",
        kernels::predictor_sample(tracer),
    );
    v.insert(
        "metrics.percentile_ns_per_sample",
        kernels::percentile(tracer, c.flows),
    );
}

/// `model.digest_match` (1 = equals the digest pinned for this seed, 0 =
/// differs, -1 = no digest pinned for this seed) and `model.digest48`, the
/// digest's low 48 bits — exact in an f64, so two commits run on any one
/// seed compare their model output by one number.
fn digest_metrics(v: &mut Values, w: &Workload, seed: u64, digest: u64) {
    let matched = match seed {
        1 | 2 if w.pinned[seed as usize - 1] == digest => 1.0,
        1 | 2 => 0.0,
        _ => -1.0,
    };
    v.insert("model.digest_match", matched);
    v.insert("model.digest48", (digest & ((1 << 48) - 1)) as f64);
}

/// Host-time samples of one run, one entry per repetition (set-up has
/// the extra [`SETUP_RUNS`] samples).
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    setup: Vec<f64>,
}

impl Samples {
    /// The untraced pass repeats for `seconds` (at least [`MIN_REPS`]
    /// times). The traced pass is a fixed amount of work: one untraced
    /// repetition (the base for `trace_overhead_share`), one traced, then
    /// the kernels.
    fn wants_more(&self, trace: bool, t0: std::time::Instant, seconds: f64) -> bool {
        if trace {
            self.wall.is_empty()
        } else {
            self.wall.len() < MIN_REPS || secs_since(t0) < seconds
        }
    }

    fn push(&mut self, wall_s: f64, cpu_s: f64) {
        self.wall.push(wall_s);
        self.cpu.push(cpu_s);
    }

    /// The end-to-end metrics, normalised by the input's packet hops.
    fn end_to_end(&self, pkt_hops: u64) -> Result<Values, String> {
        let hops = pkt_hops as f64;
        let mut v = Values::new();
        v.insert("pkt_hops_per_s", hops / median(&self.wall));
        v.insert("cpu_ns_per_pkt_hop", median(&self.cpu) * 1e9 / hops);
        v.insert("peak_rss_mb", peak_rss_mb()?);
        v.insert("setup_s", median(&self.setup));
        Ok(v)
    }

    /// Raw seconds per repetition: they change with the input, so they
    /// are findings to read, not contract metrics.
    fn note(&self, digest: u64, c: &Counts) -> Result<String, String> {
        let w = stats(&self.wall).ok_or("no repetition ran")?;
        let s = stats(&self.setup).ok_or("no set-up ran")?;
        Ok(format!(
            "digest {digest:016x}; run_wall_s median {:.4} min {:.4} max {:.4} over n={} \
             (too few for a tail percentile); run_cpu_s median {:.4}; \
             setup_s min {:.3e} max {:.3e} over n={}; {} flows, {} pkt hops, {} events",
            w.median,
            w.min,
            w.max,
            w.n,
            median(&self.cpu),
            s.min,
            s.max,
            s.n,
            c.flows,
            c.pkt_hops,
            c.events,
        ))
    }
}

/// Operations attempted and failed so far, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn report(self, values: Values, spans: Vec<Span>) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.failed,
            values,
            notes: self.notes,
            spans,
        }
    }

    /// Count one repetition of `ops` operations: all of them failed when
    /// `broken` names a reason, else `bad` of them did.
    fn count(&mut self, ops: u64, broken: Option<String>, bad: u64) {
        self.attempted += ops;
        match broken {
            Some(why) => {
                self.notes
                    .push(format!("FAILED repetition ({ops} operations): {why}"));
                self.failed += ops;
            }
            None if bad > 0 => {
                self.notes.push(format!(
                    "FAILED: {bad} flows open at hard_stop or dropped on"
                ));
                self.failed += bad;
            }
            None => {}
        }
    }
}

// ---------------------------------------------------------------------
// Simulation workloads
// ---------------------------------------------------------------------

/// A simulation workload's input as the program receives it.
struct SimInput<'a> {
    w: &'a Workload,
    /// Canonical spec text — what a user's spec file holds; empty for the
    /// motivation dumbbell, which has no spec grammar.
    spec_text: String,
}

/// Host seconds of the set-up steps: spec parse, scenario build,
/// `Simulation::new`.
#[derive(Clone, Copy)]
struct SetUp {
    parse_s: f64,
    build_s: f64,
    new_s: f64,
}

impl SetUp {
    fn total_s(&self) -> f64 {
        self.parse_s + self.build_s + self.new_s
    }
}

/// What set-up leaves behind: something `run` can start on. One exists at
/// a time and moves once, so the size gap between the variants costs
/// nothing a box would save.
#[allow(clippy::large_enum_variant)]
enum Ready {
    Sequential(Simulation),
    /// The sharded driver builds its per-shard simulations inside
    /// `run_with_shards`, so there set-up ends at the scenario and
    /// `Simulation::new` is part of the timed run.
    Sharded(Scenario, u16),
}

struct Rep {
    setup: SetUp,
    wall_s: f64,
    cpu_s: f64,
    flows: u64,
    res: RunResult,
}

impl<'a> SimInput<'a> {
    fn of(w: &'a Workload) -> SimInput<'a> {
        SimInput {
            w,
            spec_text: match &w.input {
                Input::Spec(spec) => spec.to_spec_text(),
                _ => String::new(),
            },
        }
    }

    /// Set-up as a user pays it before a run can start: parse → build →
    /// `Simulation::new`. Returns the flow count too.
    fn set_up(&self, shards: u16, tracer: &mut Tracer) -> Result<(SetUp, Ready, u64), String> {
        let (sc, parse_s, build_s) = match &self.w.input {
            Input::Spec(_) => {
                let (spec, parse_s) =
                    tracer.span("net.spec_parse", |_| ScenarioSpec::parse(&self.spec_text));
                let spec = spec.map_err(|e| format!("canonical spec does not parse: {e}"))?;
                let (sc, build_s) = tracer.span("net.scenario_build", |_| spec.build());
                (sc?, parse_s, build_s)
            }
            Input::Motivation { mc, scheme, rlb } => {
                let (sc, build_s) = tracer.span("net.scenario_build", |_| {
                    Scenario::motivation(mc, *scheme, rlb.clone())
                });
                (sc, 0.0, build_s)
            }
            Input::Fig6 { .. } => return Err("fig6 is not a simulation workload".into()),
        };
        let flows = sc.flows.len() as u64;
        let (ready, new_s) = if shards > 1 {
            (Ready::Sharded(sc, shards), 0.0)
        } else {
            let (sim, new_s) = tracer.span("net.sim_new", |_| Simulation::new(sc.cfg, sc.flows));
            (Ready::Sequential(sim), new_s)
        };
        let setup = SetUp {
            parse_s,
            build_s,
            new_s,
        };
        Ok((setup, ready, flows))
    }

    /// One repetition: set up, then time the run.
    fn rep(&self, shards: u16, tracer: &mut Tracer) -> Result<Rep, String> {
        let (setup, ready, flows) = self.set_up(shards, tracer)?;
        let cpu0 = cpu_seconds()?;
        let (res, wall_s) = tracer.span("net.sim_run", |_| match ready {
            Ready::Sequential(sim) => sim.run(),
            Ready::Sharded(sc, shards) => sc.run_with_shards(shards),
        });
        Ok(Rep {
            setup,
            wall_s,
            cpu_s: cpu_seconds()? - cpu0,
            flows,
            res,
        })
    }
}

/// Check one repetition's outputs into the tally (README, "Correctness").
fn check_sim(tally: &mut Tally, w: &Workload, rep: &Rep, reference: u64) {
    let c = &rep.res.counters;
    let digest = result_digest(&rep.res);
    let core_touched = c.cnm_generated + c.reroutes + c.recirculations;
    let broken = if c.buffer_drops > 0 {
        Some(format!("buffer_drops = {} with PFC on", c.buffer_drops))
    } else if digest != reference {
        Some(format!(
            "digest {digest:016x} differs from reference {reference:016x}"
        ))
    } else if !w.rlb() && core_touched > 0 {
        Some(format!(
            "core bypass broken: {core_touched} CNMs/reroutes/recirculations"
        ))
    } else {
        None
    };
    let open = rep.res.records.iter().filter(|r| !r.completed()).count() as u64;
    tally.count(rep.flows, broken, open);
}

pub fn run_sim(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let input = SimInput::of(w);
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut set_ups = Vec::new();
    for _ in 0..SETUP_RUNS {
        set_ups.push(input.set_up(w.shards, &mut tracer)?.0);
    }

    // Untimed warm-up. It runs sequentially on every workload, so on the
    // sharded one it doubles as the digest the shards must reproduce.
    let warm = input.rep(1, &mut tracer)?;
    let reference = result_digest(&warm.res);
    check_sim(&mut tally, w, &warm, reference);
    drop(warm);

    let mut last = None;
    let t0 = now();
    while samples.wants_more(trace, t0, seconds) {
        let rep = input.rep(w.shards, &mut tracer)?;
        check_sim(&mut tally, w, &rep, reference);
        set_ups.push(rep.setup);
        samples.push(rep.wall_s, rep.cpu_s);
        // Reduce now and drop the result, so `peak_rss_mb` holds one
        // simulation at a time and not the harness's keepsakes.
        last = Some(Counts::of(&rep.res));
    }
    samples.setup = set_ups.iter().map(SetUp::total_s).collect();
    let counts = last.ok_or("no repetition ran")?;
    tally.notes.push(samples.note(reference, &counts)?);
    if !trace {
        return Ok(tally.report(samples.end_to_end(counts.pkt_hops)?, Vec::new()));
    }

    let mut values = Values::new();
    let untraced_wall_s = median(&samples.wall);
    // Sequential-vs-sharded verdict (ROADMAP item 1), both sides warmed.
    if w.shards > 1 {
        let seq = input.rep(1, &mut tracer)?;
        values.insert("net.shard_wall_ratio", seq.wall_s / untraced_wall_s);
        values.insert("net.shard_cpu_ratio", seq.cpu_s / median(&samples.cpu));
    }

    let mut tracer = Tracer::new(true);
    tracer.rep = samples.wall.len() as u32;
    let (traced, _) = tracer.span("rep", |t| input.rep(w.shards, t));
    let traced = traced?;
    check_sim(&mut tally, w, &traced, reference);
    let (_, summary_s) = tracer.span("metrics.summary", |_| {
        let records = &traced.res.records;
        std::hint::black_box((
            traced.res.summary(),
            rlb_metrics::fct_cdf(records),
            // 40G line rate, 16 µs base RTT, 48 B headers on 1000 B payloads.
            rlb_metrics::slowdown_summary(records, 40e9, 16_000_000, 1.048),
        ))
    });

    count_metrics(&mut values, &counts);
    let hops = counts.pkt_hops as f64;
    values.insert("engine.events_per_s", counts.events as f64 / traced.wall_s);
    let step = |f: fn(&SetUp) -> f64| median(&set_ups.iter().map(f).collect::<Vec<_>>());
    values.insert("net.spec_parse_us", step(|s| s.parse_s) * 1e6);
    values.insert("net.scenario_build_ms", step(|s| s.build_s) * 1e3);
    values.insert("net.sim_new_ms", step(|s| s.new_s) * 1e3);
    values.insert("net.sim_run_ms", traced.wall_s * 1e3);
    values.insert(
        "net.ns_per_event",
        traced.wall_s * 1e9 / counts.events as f64,
    );
    values.insert("net.ns_per_pkt_hop", traced.wall_s * 1e9 / hops);
    values.insert("metrics.summary_ms", summary_s * 1e3);
    digest_metrics(&mut values, w, seed, reference);
    values.insert(
        "trace_overhead_share",
        traced.wall_s / untraced_wall_s - 1.0,
    );

    let cdf = match &w.input {
        Input::Spec(spec) => {
            let writes: Vec<f64> = (0..SETUP_RUNS)
                .map(|_| tracer.span("net.spec_write", |_| spec.to_spec_text()).1)
                .collect();
            values.insert("net.spec_write_us", median(&writes) * 1e6);
            // Replay of the generation `spec.build()` runs inside
            // `net.scenario_build` (a sibling call, not a child span).
            let entry = spec.workloads[0];
            let (n, generate_s) = tracer.span("workloads.generate (replayed)", |_| {
                let topo = rlb_net::TopoConfig {
                    n_leaves: spec.topo.n_leaves,
                    n_spines: spec.topo.n_spines,
                    hosts_per_leaf: spec.topo.hosts_per_leaf,
                    ..rlb_net::TopoConfig::default()
                };
                let traffic = PoissonTraffic::with_load(
                    entry.kind.cdf(),
                    topo.n_hosts(),
                    PairPolicy::InterLeaf {
                        hosts_per_leaf: topo.hosts_per_leaf,
                    },
                    entry.load_permille as f64 / 1000.0,
                    topo.core_bits_per_sec(),
                );
                let mut rng = rlb_engine::substream(spec.seed, b"spec-workload", 0);
                traffic
                    .generate_modulated(spec.horizon, &LoadCurve::flat(), &mut rng)
                    .len() as u64
            });
            if n != counts.flows {
                return Err(format!(
                    "replayed generation made {n} flows, the run had {}",
                    counts.flows
                ));
            }
            values.insert("workloads.generate_ms", generate_s * 1e3);
            entry.kind.cdf()
        }
        // `Scenario::motivation` is flow generation and nothing else.
        _ => {
            values.insert("workloads.generate_ms", step(|s| s.build_s) * 1e3);
            Cdf::WebSearch.cdf()
        }
    };
    kernel_metrics(&mut values, &mut tracer, w, &cdf, &counts, traced.wall_s);

    Ok(tally.report(values, tracer.spans().to_vec()))
}

// ---------------------------------------------------------------------
// fig6_pipeline
// ---------------------------------------------------------------------

struct Fig6Rep {
    expand_s: f64,
    cold_s: f64,
    reduce_s: f64,
    report_s: f64,
    warm_s: f64,
    /// Timed pipeline: cold `run_jobs` + reduce + report.
    wall_s: f64,
    cpu_s: f64,
    cache_bytes: u64,
    /// Σ of the jobs' own `wall_ms`, seconds.
    jobs_wall_s: f64,
    /// The stable report text, its FNV-1a digest, and what the jobs counted.
    report: String,
    digest: u64,
    counts: Counts,
    /// Flows left open, plus all flows of a job that dropped packets.
    bad_flows: u64,
    /// Why every operation of this repetition counts as failed, if so.
    broken: Option<String>,
}

/// The stable (`--stable-json`) report text of a finished batch.
fn stable_report(reduced: FigureReport, summary: &RunSummary) -> String {
    let cli = BenchCli {
        stable_json: true,
        ..BenchCli::default()
    };
    let fig: &'static dyn Figure = &Fig6;
    build_report(&cli, &[(fig, reduced)], summary).pretty()
}

fn job_counts(outcomes: &[JobOutcome]) -> Result<(Counts, u64), String> {
    let mut c = Counts::default();
    let mut bad = 0;
    for o in outcomes {
        let before = c.clone();
        c.add_job(&o.metrics, outcomes.len())?;
        let flows = c.flows - before.flows;
        let open = flows - (c.flows_completed - before.flows_completed);
        bad += if c.buffer_drops > before.buffer_drops {
            flows
        } else {
            open
        };
    }
    Ok((c, bad))
}

/// `Figure::jobs → run_jobs → reduce → build_report → pretty` into a
/// fresh cache directory, then a warm re-run against that directory.
fn fig6_rep(
    seed_offset: u64,
    threads: usize,
    cache_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Fig6Rep, String> {
    let cfg = RunnerConfig {
        threads: Some(threads),
        cache_dir: Some(cache_dir.to_path_buf()),
        progress: false,
    };
    let io = |e: std::io::Error| format!("{}: {e}", cache_dir.display());
    let (jobs, expand_s) = tracer.span("bench.jobs_expand", |_| {
        Fig6.jobs(Scale::Quick, &[seed_offset], 1)
    });
    let cpu0 = cpu_seconds()?;
    let (cold, cold_s) = tracer.span("bench.run_jobs_cold", |_| run_jobs(jobs, &cfg));
    let cold = cold?;
    let (reduced, reduce_s) = tracer.span("bench.reduce", |_| Fig6.reduce(&cold.outcomes));
    let (report, report_s) = tracer.span("bench.report_json", |_| stable_report(reduced, &cold));
    let cpu_s = cpu_seconds()? - cpu0;

    let (warm, warm_s) = tracer.span("bench.run_jobs_warm", |_| {
        run_jobs(Fig6.jobs(Scale::Quick, &[seed_offset], 1), &cfg)
    });
    let warm = warm?;
    let broken = if warm.executed != 0 {
        Some(format!("warm re-run executed {} jobs", warm.executed))
    } else if stable_report(Fig6.reduce(&warm.outcomes), &warm) != report {
        Some("warm stable report differs from the cold one".to_string())
    } else {
        None
    };
    let mut cache_bytes = 0;
    for entry in std::fs::read_dir(cache_dir).map_err(io)? {
        cache_bytes += entry.and_then(|e| e.metadata()).map_err(io)?.len();
    }
    std::fs::remove_dir_all(cache_dir).map_err(io)?;
    let (counts, bad_flows) = job_counts(&cold.outcomes)?;
    let job_ms: Vec<f64> = cold.outcomes.iter().map(|o| o.wall_ms).collect();
    Ok(Fig6Rep {
        expand_s,
        cold_s,
        reduce_s,
        report_s,
        warm_s,
        wall_s: cold_s + reduce_s + report_s,
        cpu_s,
        cache_bytes,
        jobs_wall_s: rlb_metrics::kahan_sum(&job_ms) / 1e3,
        digest: fnv1a_64(report.as_bytes()),
        report,
        counts,
        bad_flows,
        broken,
    })
}

/// Operations of a fig6 repetition are its flows plus its jobs.
fn check_fig6(tally: &mut Tally, rep: &Fig6Rep, reference: u64) {
    let broken = rep.broken.clone().or_else(|| {
        (rep.digest != reference).then(|| {
            format!(
                "stable report {:016x} differs from {reference:016x}",
                rep.digest
            )
        })
    });
    tally.count(rep.counts.flows + 8, broken, rep.bad_flows);
}

pub fn run_fig6(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Report, String> {
    let Input::Fig6 { seed_offset } = w.input else {
        return Err("fig6 input expected".into());
    };
    let cache_dir: PathBuf = out_dir.join(format!("fig6-cache-{}", std::process::id()));
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let mut samples = Samples::default();

    // Set-up is what stands between the command and the first simulated
    // event: job expansion, then — replayed here, because each job does it
    // inside its own closure — the eight scenario builds and
    // `Simulation::new`s. Work moved into construction shows in it.
    let mut sc = fig6::config(Scale::Quick);
    sc.seed += seed_offset;
    for _ in 0..SETUP_RUNS {
        let (_, setup_s) = tracer.span("setup (replayed)", |_| {
            drop(Fig6.jobs(Scale::Quick, &[seed_offset], 1));
            for v in Variant::all_eight() {
                let built = Scenario::steady_state(&sc, v.scheme, v.rlb);
                drop(Simulation::new(built.cfg, built.flows));
            }
        });
        samples.setup.push(setup_s);
    }

    // No separate warm-up: one repetition is the whole eight-simulation
    // pipeline (~6 s), and the median over three absorbs a cold first one.
    // The first repetition's report is the reference for the later ones.
    let mut first: Option<Fig6Rep> = None;
    let t0 = now();
    while samples.wants_more(trace, t0, seconds) {
        let rep = fig6_rep(seed_offset, 1, &cache_dir, &mut tracer)?;
        check_fig6(&mut tally, &rep, first.as_ref().unwrap_or(&rep).digest);
        samples.push(rep.wall_s, rep.cpu_s);
        first.get_or_insert(rep);
    }
    let first = first.ok_or("no repetition ran")?;
    let (counts, digest) = (first.counts, first.digest);
    tally.notes.push(samples.note(digest, &counts)?);
    if !trace {
        return Ok(tally.report(samples.end_to_end(counts.pkt_hops)?, Vec::new()));
    }

    let mut tracer = Tracer::new(true);
    tracer.rep = samples.wall.len() as u32;
    let (traced, _) = tracer.span("rep", |t| fig6_rep(seed_offset, 1, &cache_dir, t));
    let traced = traced?;
    check_fig6(&mut tally, &traced, digest);
    let (parsed, parse_s) = tracer.span("bench.json_parse", |_| json::parse(&traced.report));
    parsed?;
    // One extra cold run on two worker threads; too noisy to gate.
    let (two, _) = tracer.span("rep (threads = 2)", |t| {
        fig6_rep(seed_offset, 2, &cache_dir, t)
    });
    let two = two?;
    check_fig6(&mut tally, &two, digest);

    let mut values = Values::new();
    count_metrics(&mut values, &counts);
    let hops = counts.pkt_hops as f64;
    values.insert(
        "engine.events_per_s",
        counts.events as f64 / traced.jobs_wall_s,
    );
    values.insert("net.sim_run_ms", traced.jobs_wall_s * 1e3);
    values.insert(
        "net.ns_per_event",
        traced.jobs_wall_s * 1e9 / counts.events as f64,
    );
    values.insert("net.ns_per_pkt_hop", traced.jobs_wall_s * 1e9 / hops);
    values.insert("bench.jobs_expand_ms", traced.expand_s * 1e3);
    values.insert("bench.run_jobs_cold_ms", traced.cold_s * 1e3);
    values.insert("bench.run_jobs_warm_ms", traced.warm_s * 1e3);
    values.insert("bench.reduce_ms", traced.reduce_s * 1e3);
    values.insert("bench.report_json_ms", traced.report_s * 1e3);
    values.insert("bench.json_parse_ms", parse_s * 1e3);
    values.insert("bench.cache_bytes", traced.cache_bytes as f64);
    values.insert(
        "bench.harness_overhead_share",
        (traced.wall_s - traced.jobs_wall_s) / traced.wall_s,
    );
    values.insert("bench.parallel_speedup", traced.cold_s / two.cold_s);
    digest_metrics(&mut values, w, seed, digest);
    values.insert(
        "trace_overhead_share",
        traced.wall_s / median(&samples.wall) - 1.0,
    );

    // Replay of the generation each of the eight jobs runs before its
    // simulation (a sibling call: the jobs build their own scenarios).
    let (_, generate_s) = tracer.span("workloads.generate (replayed)", |_| {
        for _ in 0..8 {
            std::hint::black_box(Scenario::steady_state(&sc, Scheme::Drill, None));
        }
    });
    values.insert("workloads.generate_ms", generate_s * 1e3);
    let cdf = sc.workload.cdf();
    kernel_metrics(
        &mut values,
        &mut tracer,
        w,
        &cdf,
        &counts,
        traced.jobs_wall_s,
    );

    Ok(tally.report(values, tracer.spans().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{metrics_json, END_TO_END, PER_LAYER};
    use crate::workloads::tests::tiny;

    /// Every simulation workload, at a 300 µs horizon, through both passes:
    /// the outputs check out and the values fill the contract tables.
    #[test]
    fn both_passes_fill_the_contract_tables_on_every_simulation_workload() {
        for name in &crate::workloads::NAMES[..5] {
            let w = tiny(name, 1);
            let plain = run_sim(&w, 1, 0.0, false).expect("untraced run");
            metrics_json(&END_TO_END, &plain.values).expect("end-to-end table");
            // At this horizon the hard stop (25 × horizon) cuts off the
            // paper fabric's largest WebSearch flows; nothing else may fail.
            let clean = |r: &Report| {
                r.notes.iter().all(|n| !n.starts_with("FAILED repetition"))
                    && (r.failed == 0 || *name == "paper_fabric")
            };
            assert!(clean(&plain), "{name}: {:?}", plain.notes);
            assert!(plain.attempted > 0 && plain.spans.is_empty(), "{name}");
            assert!(
                plain.values.values().all(|v| *v > 0.0),
                "{name}: {:?}",
                plain.values
            );

            let traced = run_sim(&w, 1, 0.0, true).expect("traced run");
            metrics_json(&PER_LAYER, &traced.values).expect("per-layer table");
            assert!(clean(&traced), "{name}: {:?}", traced.notes);
            let v = |m: &str| traced.values.get(m).copied().unwrap_or(0.0);
            assert!(
                v("engine.events") > 0.0 && v("net.sim_run_ms") > 0.0,
                "{name}"
            );
            assert!(
                v("engine.wheel_ns_per_event") > 0.0 && v("lb.select_ns") > 0.0,
                "{name}"
            );
            assert_eq!(v("net.buffer_drops"), 0.0, "{name}");
            assert_eq!(v("net.shard_wall_ratio") > 0.0, w.shards > 1, "{name}");
            assert_eq!(v("net.window_advances") > 0.0, w.shards > 1, "{name}");
            assert_eq!(v("net.spec_parse_us") > 0.0, *name != "pfc_storm", "{name}");
            if *name == "mice_ecmp" {
                assert_eq!(
                    v("core.cnm_generated") + v("core.reroutes") + v("core.recirculations"),
                    0.0
                );
            }
            let names: Vec<&str> = traced.spans.iter().map(|s| s.name.as_str()).collect();
            for expected in [
                "rep",
                "net.scenario_build",
                "net.sim_run",
                "metrics.summary",
                "kernel.engine.wheel",
            ] {
                assert!(names.contains(&expected), "{name}: no `{expected}` span");
            }
            let run = traced
                .spans
                .iter()
                .position(|s| s.name == "net.sim_run")
                .expect("span");
            assert_eq!(
                traced.spans[run].parent,
                Some(0),
                "{name}: net.sim_run nests under rep"
            );
        }
    }

    #[test]
    fn a_wrong_reference_digest_fails_every_flow_of_the_repetition() {
        let w = tiny("steady_websearch", 1);
        let rep = SimInput::of(&w)
            .rep(1, &mut Tracer::new(false))
            .expect("run");
        let mut tally = Tally::default();
        check_sim(&mut tally, &w, &rep, result_digest(&rep.res));
        assert_eq!((tally.attempted, tally.failed), (rep.flows, 0));
        check_sim(&mut tally, &w, &rep, 1);
        assert_eq!((tally.attempted, tally.failed), (2 * rep.flows, rep.flows));
        assert_eq!(tally.notes.len(), 1);
    }

    #[test]
    fn folding_a_job_metrics_object_equals_counting_the_run_directly() {
        let w = tiny("steady_websearch", 1);
        let Input::Spec(spec) = &w.input else {
            panic!("spec workload")
        };
        let direct = Counts::of(&spec.build().expect("builds").run());
        let job = rlb_bench::figures::common::run_metrics(
            "x".into(),
            spec.build().expect("builds"),
            1,
            Vec::new(),
        );
        let mut folded = Counts::default();
        folded.add_job(&job, 1).expect("every field present");
        // The job metrics carry no retransmission count, and report the end
        // time in float seconds.
        folded.retransmitted = direct.retransmitted;
        assert!(folded.end_time_ps.abs_diff(direct.end_time_ps) < 1_000);
        folded.end_time_ps = direct.end_time_ps;
        assert_eq!(folded, direct);
        assert!(direct.events > 0 && direct.pkt_hops > 0 && direct.decisions > 0);
    }
}
