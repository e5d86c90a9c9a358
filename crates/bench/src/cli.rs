//! The CLI of the `bench` binary: one parser, so `--paper-scale`,
//! `--seeds`, `--jobs`, `--json`, `--no-cache`, `--cache-dir`, `--shards`,
//! `--cdf` and `--stable-json` mean the same thing for every table in the
//! registry (`--figs`) and for spec files (`--scenario`).

use crate::runner;
use crate::Scale;
use std::path::PathBuf;

/// Parsed `bench` options.
#[derive(Debug, Clone)]
pub struct BenchCli {
    pub scale: Scale,
    /// Seed replicates per experiment point (`--seeds N`, default 1).
    /// Replicate `i` runs each point with the figure's base seed + `i`.
    pub seeds: u32,
    /// Worker-thread cap (`--jobs N`); default: available parallelism,
    /// divided by `--shards` when that is above 1.
    pub jobs: Option<usize>,
    /// Write a schema-versioned JSON report here (`--json PATH`).
    pub json: Option<PathBuf>,
    /// Disable the result cache (`--no-cache`).
    pub no_cache: bool,
    /// Cache directory (`--cache-dir PATH`, default `target/bench-cache`).
    pub cache_dir: PathBuf,
    /// Figure subset (`--figs fig3,fig7`); `None` = every figure.
    pub figs: Option<Vec<String>>,
    /// Run a declarative scenario spec file (`--scenario PATH`) through
    /// the cached runner instead of registry figures (never both: `parse`
    /// rejects `--scenario` alongside `--figs`).
    pub scenario: Option<PathBuf>,
    /// Dump per-variant CDK/CDF series where a figure provides them.
    pub cdf: bool,
    /// Omit wall-clock and cache fields from the JSON report so repeated
    /// runs are byte-identical (used by the determinism tests).
    pub stable_json: bool,
    /// Simulation shard count per point (`--shards N`, default 1). Every
    /// run goes through the bounded-window driver; N > 1 splits each point
    /// over N communicating shards. Output stays byte-identical, only
    /// speed changes.
    pub shards: u16,
}

impl Default for BenchCli {
    fn default() -> Self {
        BenchCli {
            scale: Scale::Quick,
            seeds: 1,
            jobs: None,
            json: None,
            no_cache: false,
            cache_dir: runner::default_cache_dir(),
            figs: None,
            scenario: None,
            cdf: false,
            stable_json: false,
            shards: 1,
        }
    }
}

impl BenchCli {
    /// The seed offsets the figure registry receives: `[0, 1, .., N-1]`.
    pub fn seed_offsets(&self) -> Vec<u64> {
        (0..self.seeds as u64).collect()
    }

    /// Runner options implied by the flags. Without `--jobs`, a sharded
    /// batch runs `cores / shards` jobs at a time: each job keeps `shards`
    /// threads busy, and the shard barrier spins on the assumption that its
    /// peers hold a core each.
    pub fn runner_config(&self, progress: bool) -> runner::RunnerConfig {
        let sharded_default = || {
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            (cores / self.shards as usize).max(1)
        };
        runner::RunnerConfig {
            threads: self
                .jobs
                .or_else(|| (self.shards > 1).then(sharded_default)),
            cache_dir: if self.no_cache {
                None
            } else {
                Some(self.cache_dir.clone())
            },
            progress,
        }
    }

    /// Parse an argument list (without the program name). Returns
    /// `Ok(None)` when `--help` was requested (help text already printed
    /// to stdout by the caller via [`help_text`]).
    pub fn parse(bin: &str, about: &str, args: &[String]) -> Result<Option<BenchCli>, String> {
        let mut cli = BenchCli::default();
        let mut it = args.iter();
        let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--help" | "-h" => {
                    println!("{}", help_text(bin, about));
                    return Ok(None);
                }
                "--paper-scale" => cli.scale = Scale::Paper,
                "--quick" => cli.scale = Scale::Quick,
                "--seeds" => {
                    let v = value("--seeds", &mut it)?;
                    cli.seeds =
                        v.parse::<u32>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--seeds expects a positive integer, got `{v}`")
                        })?;
                }
                "--jobs" => {
                    let v = value("--jobs", &mut it)?;
                    cli.jobs =
                        Some(v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--jobs expects a positive integer, got `{v}`")
                        })?);
                }
                "--json" => cli.json = Some(PathBuf::from(value("--json", &mut it)?)),
                "--no-cache" => cli.no_cache = true,
                "--cache-dir" => cli.cache_dir = PathBuf::from(value("--cache-dir", &mut it)?),
                "--figs" => {
                    let v = value("--figs", &mut it)?;
                    let names: Vec<String> = v
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if names.is_empty() {
                        return Err("--figs expects a comma-separated list, e.g. fig3,fig7".into());
                    }
                    cli.figs = Some(names);
                }
                "--scenario" => cli.scenario = Some(PathBuf::from(value("--scenario", &mut it)?)),
                "--cdf" => cli.cdf = true,
                "--stable-json" => cli.stable_json = true,
                "--shards" => {
                    let v = value("--shards", &mut it)?;
                    cli.shards =
                        v.parse::<u16>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--shards expects a positive integer, got `{v}`")
                        })?;
                }
                other => {
                    return Err(format!(
                        "unknown flag `{other}` — run `{bin} --help` for usage"
                    ))
                }
            }
        }
        if cli.scenario.is_some() && cli.figs.is_some() {
            return Err(
                "--scenario runs the spec file instead of registry figures and cannot be \
                 combined with --figs; run them as two commands"
                    .into(),
            );
        }
        Ok(Some(cli))
    }

    /// Parse `std::env::args()`; prints help/errors and exits as needed.
    pub fn parse_or_exit(bin: &str, about: &str) -> BenchCli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match BenchCli::parse(bin, about, &args) {
            Ok(Some(cli)) => cli,
            Ok(None) => std::process::exit(0),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }
}

/// The help text: the about line over the flag reference.
pub fn help_text(bin: &str, about: &str) -> String {
    // Seven names fill a line of the flag reference's text column.
    let figs: Vec<&str> = crate::figures::registry()
        .iter()
        .map(|f| f.name())
        .collect();
    let figs: Vec<String> = figs.chunks(7).map(|line| line.join(", ")).collect();
    let figs = figs.join(",\n                         ");
    format!(
        "\
{bin} — {about}

USAGE:
    cargo run --release -p rlb-bench --bin {bin} -- [FLAGS]

FLAGS:
    --paper-scale        Run at the paper's 12x12x24 fabric scale
                         (default: Quick, the CI-friendly scaled fabric)
    --quick              Force Quick scale (the default)
    --seeds N            Seed replicates per experiment point; point
                         metrics are averaged over seeds (default: 1)
    --jobs N             Cap the parallel worker threads (default: all
                         available cores, divided by --shards)
    --json PATH          Write a schema-versioned JSON report
                         (e.g. BENCH_fig3_quick.json)
    --no-cache           Ignore and do not write the result cache
    --cache-dir PATH     Result cache location
                         (default: target/bench-cache)
    --figs a,b           Run only these figures; default: every one of
                         them. Registry names:
                         {figs}
    --scenario PATH      Run a declarative scenario spec file (see
                         EXPERIMENTS.md for the format) through the cached
                         runner instead of registry figures; excludes
                         --figs
    --cdf                Also dump FCT CDF series where available (fig6)
    --stable-json        Omit wall-clock/cache fields from the JSON report
                         so repeated runs are byte-identical
    --shards N           Run each point on N simulation shards: N columns
                         of the fabric, each a leaf band with its hosts
                         plus a spine band, on N threads (default 1 = one
                         replica, nothing spawned; capped at the leaf
                         count). Output is byte-identical for every N —
                         only the perf telemetry and wall time change.
                         Pays off for one long run with a core per shard
                         (about 1.7x at N=2); with more shards than cores
                         little or nothing is gained
    -h, --help           This text

The result cache keys each point by a content hash of its full serialized
configuration; rm -rf the cache dir (or pass --no-cache) after changing
simulator code. See EXPERIMENTS.md for the regeneration workflow."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<BenchCli>, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        BenchCli::parse("bench", "test", &args)
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]).expect("ok").expect("not help");
        assert_eq!(cli.scale, Scale::Quick);
        assert_eq!(cli.seeds, 1);
        assert_eq!(cli.seed_offsets(), vec![0]);
        assert!(cli.jobs.is_none() && cli.json.is_none() && !cli.no_cache);
        assert_eq!(cli.cache_dir, runner::default_cache_dir());
        assert!(cli.figs.is_none() && !cli.cdf && !cli.stable_json);
        assert!(cli.scenario.is_none());
        assert_eq!(cli.shards, 1);
    }

    #[test]
    fn full_flag_set() {
        let cli = parse(&[
            "--paper-scale",
            "--seeds",
            "3",
            "--jobs",
            "8",
            "--json",
            "out.json",
            "--no-cache",
            "--cache-dir",
            "/tmp/c",
            "--figs",
            "fig3, fig7",
            "--cdf",
            "--stable-json",
            "--shards",
            "4",
        ])
        .expect("ok")
        .expect("not help");
        assert_eq!(cli.scale, Scale::Paper);
        assert_eq!(cli.seeds, 3);
        assert_eq!(cli.seed_offsets(), vec![0, 1, 2]);
        assert_eq!(cli.jobs, Some(8));
        assert_eq!(cli.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(cli.no_cache);
        assert_eq!(cli.cache_dir, PathBuf::from("/tmp/c"));
        assert_eq!(cli.figs, Some(vec!["fig3".to_string(), "fig7".to_string()]));
        assert!(cli.cdf && cli.stable_json);
        assert_eq!(cli.shards, 4);
        // --no-cache wins over --cache-dir in the runner config.
        assert!(cli.runner_config(false).cache_dir.is_none());

        let cli = parse(&["--scenario", "specs/outage.toml", "--seeds", "2"])
            .expect("ok")
            .expect("not help");
        assert_eq!(
            cli.scenario.as_deref(),
            Some(std::path::Path::new("specs/outage.toml"))
        );
        assert_eq!(cli.seeds, 2);
    }

    #[test]
    fn sharded_batches_default_to_cores_over_shards_jobs() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let threads = |args: &[&str]| {
            let cli = parse(args).expect("ok").expect("not help");
            cli.runner_config(false).threads
        };
        assert_eq!(threads(&[]), None);
        assert_eq!(threads(&["--shards", "1"]), None);
        assert_eq!(threads(&["--shards", "2"]), Some((cores / 2).max(1)));
        // More shards than any box has cores: one job at a time, never zero.
        assert_eq!(threads(&["--shards", "60000"]), Some(1));
        // An explicit `--jobs` is honoured as given.
        assert_eq!(threads(&["--shards", "2", "--jobs", "7"]), Some(7));
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&["--seeds"])
            .expect_err("missing")
            .contains("--seeds"));
        assert!(parse(&["--seeds", "0"])
            .expect_err("zero")
            .contains("positive"));
        assert!(parse(&["--jobs", "x"]).expect_err("nan").contains("--jobs"));
        assert!(parse(&["--scenario"])
            .expect_err("missing")
            .contains("--scenario"));
        assert!(parse(&["--bogus"])
            .expect_err("unknown")
            .contains("--bogus"));
        assert!(parse(&["--figs", ","])
            .expect_err("empty")
            .contains("--figs"));
        assert!(parse(&["--shards", "0"])
            .expect_err("zero")
            .contains("positive"));
        let both = parse(&["--figs", "fig3", "--scenario", "s.toml"]).expect_err("exclusive");
        assert!(
            both.contains("--scenario") && both.contains("--figs"),
            "{both}"
        );
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse(&["--help"]).expect("ok").is_none());
        assert!(parse(&["-h", "--bogus"]).expect("ok").is_none());
        let text = help_text("fig3", "about line");
        assert!(text.contains("fig3 — about line"));
        for flag in [
            "--paper-scale",
            "--seeds",
            "--jobs",
            "--json",
            "--no-cache",
            "--cache-dir",
            "--figs",
            "--scenario",
            "--stable-json",
            "--shards",
        ] {
            assert!(text.contains(flag), "help must document {flag}");
        }
        for fig in crate::figures::registry() {
            assert!(text.contains(fig.name()), "help must list {}", fig.name());
        }
    }
}
