//! The repo benchmark (contract in `../BENCHMARK.json`, guide in
//! `README.md`).
//!
//! ```text
//! rlb-benchmark --out DIR --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last stdout line is the result
//! rlb-benchmark --out DIR [--seed N] [--seconds S] [--only NAME]
//!     every workload, untraced then traced, each in a child process;
//!     writes DIR/metrics.json and DIR/trace.json
//! rlb-benchmark --compare A/metrics.json B/metrics.json
//!     selfcheck: two runs of the same code must agree
//! rlb-benchmark --print-contract
//!     the BENCHMARK.json document
//! ```

mod contract;
mod kernels;
mod measure;
mod run;
mod suite;
mod trace;
mod workloads;

use rlb_bench::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub out: PathBuf,
    pub workload: Option<String>,
    pub only: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

enum Mode {
    /// One workload (`--workload`) or the whole suite.
    Run(Args),
    Compare(PathBuf, PathBuf),
    PrintContract,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut a = Args {
        out: PathBuf::from("benchmark/out"),
        workload: None,
        only: None,
        seed: 1,
        seconds: contract::RUN_SECONDS as f64,
        trace: false,
    };
    let mut mode = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-contract" {
            mode = Some(Mode::PrintContract);
            continue;
        }
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("`{flag} {v}`: not a whole number"))
        };
        match flag.as_str() {
            "--compare" => mode = Some(Mode::Compare(value()?.into(), value()?.into())),
            "--out" => a.out = value()?.into(),
            "--workload" => a.workload = Some(value()?.clone()),
            "--only" => a.only = Some(value()?.clone()),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)? as f64,
            "--trace" => a.trace = number(value()?)? != 0,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(mode.unwrap_or(Mode::Run(a)))
}

/// One line: the writer escapes newlines inside strings, so every newline
/// of the pretty form is layout and can go.
pub fn one_line(j: &Json) -> String {
    j.pretty().lines().map(str::trim_start).collect()
}

/// Run one workload in this process and print its result line.
fn run_one(name: &str, a: &Args) -> Result<(), String> {
    let w = workloads::by_name(name, a.seed).ok_or_else(|| {
        format!(
            "unknown workload `{name}`; known: {}",
            workloads::NAMES.join(", ")
        )
    })?;
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let report = match w.input {
        workloads::Input::Fig6 { .. } => run::run_fig6(&w, a.seed, a.seconds, a.trace, &a.out)?,
        _ => run::run_sim(&w, a.seed, a.seconds, a.trace)?,
    };
    let table: &[contract::Metric] = if a.trace {
        &contract::PER_LAYER
    } else {
        &contract::END_TO_END
    };
    let metrics = contract::metrics_json(table, &report.values)?;
    if a.trace {
        let path = a.out.join("trace.json");
        std::fs::write(&path, trace::to_json(name, &report.spans).pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{name} seed={} trace={}", a.seed, a.trace as u8);
    for note in &report.notes {
        println!("  {note}");
    }
    for m in table {
        let v = report.values.get(m.name).copied().unwrap_or(0.0);
        println!("  {:<40} {v:>16.6} {}", m.name, m.unit);
    }
    println!(
        "  failed_share {} / {} (model unvalidated: the repo holds no reference results)",
        report.failed, report.attempted
    );
    println!(
        "{}",
        one_line(&Json::obj([
            ("correct", Json::Bool(report.failed == 0)),
            ("attempted", Json::U64(report.attempted)),
            ("failed", Json::U64(report.failed)),
            ("metrics", metrics),
        ]))
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|mode| match mode {
        Mode::PrintContract => {
            print!("{}", contract::to_json().pretty());
            Ok(())
        }
        Mode::Compare(a, b) => suite::compare(&a, &b),
        Mode::Run(a) => match &a.workload {
            Some(name) => run_one(name, &a),
            None => suite::run_all(&a),
        },
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rlb-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
