//! `rlbsim` — run a custom lossless-DCN simulation from the command line.
//!
//! ```sh
//! cargo run --release --bin rlbsim -- \
//!     --scheme drill --rlb --workload web_search --load 0.6 \
//!     --leaves 4 --spines 4 --hosts 8 --horizon-ms 10 --seed 1
//! ```
//!
//! `rlbsim --help` lists the flags (all optional) and the scheme and
//! workload names, which are the ones spec files use. A flag, value or name
//! it cannot use is one `rlbsim: …` line on stderr and exit status 2.

use rlb::core::RlbConfig;
use rlb::engine::{SimDuration, SimTime};
use rlb::lb::Scheme;
use rlb::metrics::{ms, pct, Table};
use rlb::net::scenario::{asymmetric_topo, IncastScenarioConfig, SteadyStateConfig};
use rlb::net::{MonitorConfig, Scenario, TopoConfig};
use rlb::workloads::Workload;

struct Args {
    scheme: Scheme,
    rlb: bool,
    no_recirculation: bool,
    no_pfc: bool,
    workload: Workload,
    load: f64,
    leaves: u32,
    spines: u32,
    hosts: u32,
    asymmetric: Option<f64>,
    incast: Option<u32>,
    horizon_ms: u64,
    seed: u64,
    monitor: bool,
    cdf: bool,
}

fn usage() -> String {
    format!(
        "usage: rlbsim [FLAGS]
  --scheme <{schemes}>   (default drill)
  --rlb                       enable the RLB building block
  --no-recirculation          RLB without packet recirculation (Fig. 9)
  --no-pfc                    disable PFC (lossy fabric)
  --workload <{workloads}>
                              flow-size CDF            (default web_search)
  --load <0..1>               offered core load        (default 0.6)
  --leaves/--spines/--hosts   fabric shape             (default 4/4/8)
  --asymmetric <frac>         degrade this fraction of links to 10G
  --incast <degree>           run the incast scenario instead
  --horizon-ms <ms>           traffic injection window (default 10)
  --seed <n>                  RNG seed                 (default 1)
  --monitor                   collect and print a fabric time series
  --cdf                       print the FCT CDF
  -h, --help                  this text",
        schemes = Scheme::ALL.map(Scheme::key).join("|"),
        workloads = Workload::ALL.map(Workload::key).join("|"),
    )
}

/// `value` as a number, or the line that says it is not one.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read `{value}` as a number"))
}

/// The entry of `all` that `value` names. Case, `-` and `_` are not compared,
/// so `WebSearch`, `web-search` and `websearch` all name `web_search`.
fn named<T: Copy>(
    flag: &str,
    value: &str,
    all: &[T],
    key: fn(T) -> &'static str,
) -> Result<T, String> {
    let plain = |s: &str| s.to_ascii_lowercase().replace(['-', '_'], "");
    all.iter()
        .copied()
        .find(|t| plain(key(*t)) == plain(value))
        .ok_or_else(|| {
            let known: Vec<&str> = all.iter().map(|t| key(*t)).collect();
            format!(
                "{flag}: unknown name `{value}` (known: {})",
                known.join(", ")
            )
        })
}

/// `Ok(None)`: `--help` was asked for.
fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let mut a = Args {
        scheme: Scheme::Drill,
        rlb: false,
        no_recirculation: false,
        no_pfc: false,
        workload: Workload::WebSearch,
        load: 0.6,
        leaves: 4,
        spines: 4,
        hosts: 8,
        asymmetric: None,
        incast: None,
        horizon_ms: 10,
        seed: 1,
        monitor: false,
        cdf: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"));
            v.map(String::as_str)
        };
        match flag.as_str() {
            "-h" | "--help" => return Ok(None),
            "--scheme" => a.scheme = named(flag, value()?, &Scheme::ALL, Scheme::key)?,
            "--rlb" => a.rlb = true,
            "--no-recirculation" => a.no_recirculation = true,
            "--no-pfc" => a.no_pfc = true,
            "--workload" => a.workload = named(flag, value()?, &Workload::ALL, Workload::key)?,
            "--load" => a.load = number(flag, value()?)?,
            "--leaves" => a.leaves = number(flag, value()?)?,
            "--spines" => a.spines = number(flag, value()?)?,
            "--hosts" => a.hosts = number(flag, value()?)?,
            "--asymmetric" => a.asymmetric = Some(number(flag, value()?)?),
            "--incast" => a.incast = Some(number(flag, value()?)?),
            "--horizon-ms" => a.horizon_ms = number(flag, value()?)?,
            "--seed" => a.seed = number(flag, value()?)?,
            "--monitor" => a.monitor = true,
            "--cdf" => a.cdf = true,
            _ => return Err(format!("unknown flag `{flag}` (--help lists them)")),
        }
    }
    if !(a.load > 0.0 && a.load <= 1.0) {
        return Err(format!("--load: {} is outside (0, 1]", a.load));
    }
    Ok(Some(a))
}

/// Build the scenario the flags describe. The fabric is validated before any
/// workload is generated for it, as `ScenarioSpec::build` does.
fn scenario(a: &Args) -> Result<Scenario, String> {
    let mut topo = TopoConfig {
        n_leaves: a.leaves,
        n_spines: a.spines,
        hosts_per_leaf: a.hosts,
        ..TopoConfig::default()
    };
    topo.validate()?;
    if let Some(frac) = a.asymmetric {
        topo = asymmetric_topo(&topo, frac, a.seed ^ 0xA5);
    }
    let rlb = a.rlb.then(|| RlbConfig {
        enable_recirculation: !a.no_recirculation,
        ..RlbConfig::default()
    });
    let mut scenario = if let Some(degree) = a.incast {
        let off_leaf = topo.n_hosts() - topo.hosts_per_leaf;
        if !(1..=off_leaf).contains(&degree) {
            return Err(format!(
                "--incast: degree {degree} is outside 1..={off_leaf}, the hosts off the client's leaf"
            ));
        }
        Scenario::incast(
            &IncastScenarioConfig {
                topo,
                degree,
                requests: (a.horizon_ms as u32).max(1),
                request_interval: SimDuration::from_ms(1),
                background_load: a.load.min(0.4),
                seed: a.seed,
                ..IncastScenarioConfig::default()
            },
            a.scheme,
            rlb,
        )
    } else {
        Scenario::steady_state(
            &SteadyStateConfig {
                topo,
                workload: a.workload,
                load: a.load,
                horizon: SimTime::from_ms(a.horizon_ms),
                seed: a.seed,
            },
            a.scheme,
            rlb,
        )
    };
    if a.no_pfc {
        scenario.cfg.switch.pfc_enabled = false;
    }
    if a.monitor {
        scenario.cfg.monitor = Some(MonitorConfig::default());
    }
    scenario.cfg.validate()?;
    Ok(scenario)
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|args| match args {
        Some(args) => scenario(&args).map(|scenario| run(&args, scenario)),
        None => {
            println!("{}", usage());
            Ok(())
        }
    });
    match outcome {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("rlbsim: {msg}");
            std::process::ExitCode::from(2)
        }
    }
}

fn run(args: &Args, scenario: Scenario) {
    let topo = scenario.cfg.topo.clone();
    let label = scenario.cfg.label();
    // A full data frame on the wire, and the payload it carries.
    let (wire_bytes, mtu_bytes) = (
        scenario.cfg.mtu_wire_bytes(),
        scenario.cfg.transport.mtu_bytes,
    );
    println!(
        "fabric {}x{}x{} | {} | {} @ {:.0}% | seed {} | horizon {} ms | PFC {}",
        topo.n_leaves,
        topo.n_spines,
        topo.hosts_per_leaf,
        label,
        args.workload.name(),
        args.load * 100.0,
        args.seed,
        args.horizon_ms,
        if args.no_pfc { "off" } else { "on" },
    );

    // lint:allow(wall-clock) -- CLI progress timing only, never fed to the sim
    let t0 = std::time::Instant::now();
    let res = scenario.run();
    let s = res.summary();

    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec![
        "flows completed".to_string(),
        format!("{}/{}", s.flows_completed, s.flows_total),
    ]);
    t.row(vec!["avg FCT (ms)".to_string(), ms(s.avg_fct_ms)]);
    t.row(vec!["p50 FCT (ms)".to_string(), ms(s.p50_fct_ms)]);
    t.row(vec!["p99 FCT (ms)".to_string(), ms(s.p99_fct_ms)]);
    t.row(vec!["out-of-order packets".to_string(), pct(s.ooo_ratio)]);
    {
        let base_rtt_ps = 2 * topo.base_one_way_ps(wire_bytes as u64);
        let overhead = wire_bytes as f64 / mtu_bytes as f64;
        let (sd_avg, sd_p99) = rlb::metrics::slowdown_summary(
            &res.records,
            topo.host_link_rate_bps as f64,
            base_rtt_ps,
            overhead,
        );
        t.row(vec![
            "avg FCT slowdown".to_string(),
            format!("{sd_avg:.2}x"),
        ]);
        t.row(vec![
            "p99 FCT slowdown".to_string(),
            format!("{sd_p99:.2}x"),
        ]);
    }
    t.row(vec![
        "p99 OOD (pkts)".to_string(),
        format!("{:.0}", s.p99_ood),
    ]);
    t.row(vec!["NAKs".to_string(), s.total_naks.to_string()]);
    t.row(vec![
        "PFC PAUSE frames".to_string(),
        res.counters.pause_frames.to_string(),
    ]);
    t.row(vec![
        "CNM warnings".to_string(),
        res.counters.cnm_generated.to_string(),
    ]);
    t.row(vec![
        "RLB reroutes".to_string(),
        res.counters.reroutes.to_string(),
    ]);
    t.row(vec![
        "RLB recirculations".to_string(),
        res.counters.recirculations.to_string(),
    ]);
    t.row(vec![
        "buffer drops".to_string(),
        res.counters.buffer_drops.to_string(),
    ]);
    t.row(vec![
        "events processed".to_string(),
        res.events_processed.to_string(),
    ]);
    println!("\n{}", t.render());

    let icts = res.group_completion_ms();
    if !icts.is_empty() {
        let times: Vec<f64> = icts.iter().map(|(_, v)| *v).collect();
        let avg = rlb::metrics::mean(&times);
        println!(
            "incast completion time (avg over {} requests): {:.3} ms",
            icts.len(),
            avg
        );
    }

    if args.cdf {
        println!("\n# FCT CDF (ms, cumulative probability)");
        for (x, p) in rlb::metrics::downsample_cdf(&rlb::metrics::fct_cdf(&res.records), 20) {
            println!("{x:.4} {p:.3}");
        }
    }
    if args.monitor {
        println!("\n{}", res.timeseries.render());
    }
    eprintln!("wall time: {:?}", t0.elapsed());
}
