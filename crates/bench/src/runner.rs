//! The parallel, cached experiment runner.
//!
//! Every experiment point — (figure, scheme-variant, sweep point, seed) —
//! is a [`Job`]: a stable content hash over the job's fully serialized
//! configuration plus a closure that executes the simulation and reduces
//! it to a JSON metrics object. A [`run_jobs`] call executes a job set in
//! parallel over [`crate::sweep::try_parallel_map`], consulting a
//! content-addressed on-disk cache (`target/bench-cache/<hash>.json` by
//! default) so warm re-runs skip every completed point, and emits live
//! progress lines (`[12/96] fig4 DRILL x=15 seed=1 ... 412ms`).
//!
//! ## Cache key scheme
//!
//! The key is FNV-1a 64 over
//! `v<CACHE_SCHEMA_VERSION>|<fig>|<label>|seed=<seed>|<spec>`, where
//! `spec` is the canonical serialization (the `Debug` rendering — field
//! names and values — of every config struct feeding the run: topology,
//! scenario, scheme, RLB parameters). Any field change therefore produces
//! a new key; renaming/adding config fields invalidates naturally. Each
//! cache file stores the full spec and is verified on read — a 64-bit
//! collision degrades to a cache miss, never to wrong data — and so is the
//! layout of its metrics object: an entry written before a counter was
//! added (or damaged on disk) is a miss too.
//!
//! Invalidation: delete the cache directory (`rm -rf target/bench-cache`)
//! or run with `--no-cache`. Simulator code changes do NOT automatically
//! invalidate entries (the key covers configuration, not binaries); wipe
//! the directory after changing simulation logic.

use crate::figures::common::metrics_complete;
use crate::json::{self, Json};
use crate::sweep;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Version of the cache-entry envelope and of the key derivation; reports
/// embed it as `schema_version` and entries refuse to load across
/// versions. The metrics layout needs no bump any more: `load_cached`
/// checks each entry against the key set `metrics_of` writes today, so one
/// stored under an older field list is a miss.
pub const CACHE_SCHEMA_VERSION: u32 = 6;

/// FNV-1a 64-bit — small, dependency-free, stable across platforms.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One experiment point, self-describing and executable.
pub struct Job {
    /// Owning figure (registry name, e.g. `"fig7"`).
    pub fig: &'static str,
    /// Point label *without* the seed — outcomes with equal labels are
    /// seed-replicates of the same point and get averaged in `reduce`.
    pub label: String,
    /// The seed this replicate runs under.
    pub seed: u64,
    /// Canonical serialized configuration (see module docs). Everything
    /// that influences the simulation result must be captured here.
    pub spec: String,
    /// The sweep coordinates `run` puts at the head of its metrics object
    /// (`figures::table::Sweep` also writes them into `spec`). A cache
    /// entry whose metrics do not lead with them is a miss.
    pub coords: Vec<(&'static str, Json)>,
    /// Executes the simulation and reduces it to a metrics object.
    pub run: Box<dyn Fn() -> Json + Send + Sync>,
}

impl Job {
    /// Stable content-addressed cache key.
    pub fn key(&self) -> u64 {
        fnv1a_64(
            format!(
                "v{}|{}|{}|seed={}|{}",
                CACHE_SCHEMA_VERSION, self.fig, self.label, self.seed, self.spec
            )
            .as_bytes(),
        )
    }

    pub fn key_hex(&self) -> String {
        format!("{:016x}", self.key())
    }
}

/// One completed (or cache-served) job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub fig: &'static str,
    pub label: String,
    pub seed: u64,
    pub key_hex: String,
    /// The job's metrics object (figure-specific fields + the standard
    /// summary blocks from [`crate::figures::common::run_metrics`]).
    pub metrics: Json,
    /// Wall-clock of the simulation itself; 0 for cache hits.
    pub wall_ms: f64,
    pub cached: bool,
}

/// Runner options.
pub struct RunnerConfig {
    /// Worker-thread cap (`--jobs N`); `None` = available parallelism.
    pub threads: Option<usize>,
    /// Cache directory; `None` disables the cache entirely (`--no-cache`).
    pub cache_dir: Option<PathBuf>,
    /// Emit live `[done/total] ...` progress lines on stderr.
    pub progress: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            threads: None,
            cache_dir: Some(default_cache_dir()),
            progress: true,
        }
    }
}

/// `target/bench-cache` next to the workspace's build artifacts.
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("target").join("bench-cache")
}

/// Aggregate result of one runner invocation.
pub struct RunSummary {
    /// Outcomes in job order.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs served from the cache.
    pub cache_hits: usize,
    /// Jobs that actually executed a simulation.
    pub executed: usize,
    /// End-to-end wall-clock of the whole batch, ms.
    pub total_wall_ms: f64,
}

/// Execute `jobs` in parallel with caching. Any panicking job aborts the
/// batch with an error naming the failing point(s); completed points are
/// still counted in the message.
pub fn run_jobs(jobs: Vec<Job>, cfg: &RunnerConfig) -> Result<RunSummary, String> {
    let total = jobs.len();
    let t0 = Instant::now();
    if let Some(dir) = &cfg.cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
    }
    let done = AtomicUsize::new(0);
    let outcomes = sweep::try_parallel_map(
        jobs,
        cfg.threads,
        |_, job: &Job| format!("{} {} seed={}", job.fig, job.label, job.seed),
        |job: Job| {
            let key_hex = job.key_hex();
            let cache_path = cfg
                .cache_dir
                .as_ref()
                .map(|d| d.join(format!("{key_hex}.json")));
            let cached_metrics = cache_path.as_deref().and_then(|p| load_cached(p, &job));
            let (metrics, wall_ms, cached) = match cached_metrics {
                Some(metrics) => (metrics, 0.0, true),
                None => {
                    let t = Instant::now();
                    let metrics = (job.run)();
                    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
                    if let Some(path) = cache_path.as_deref() {
                        store_cached(path, &job, &metrics, wall_ms);
                    }
                    (metrics, wall_ms, false)
                }
            };
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if cfg.progress {
                let status = if cached {
                    "cached".to_string()
                } else {
                    format!("{wall_ms:.0}ms")
                };
                eprintln!(
                    "[{n}/{total}] {} {} seed={} ... {status}",
                    job.fig, job.label, job.seed
                );
            }
            JobOutcome {
                fig: job.fig,
                label: job.label,
                seed: job.seed,
                key_hex,
                metrics,
                wall_ms,
                cached,
            }
        },
    )
    .map_err(|e| e.to_string())?;
    let cache_hits = outcomes.iter().filter(|o| o.cached).count();
    Ok(RunSummary {
        executed: outcomes.len() - cache_hits,
        cache_hits,
        total_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        outcomes,
    })
}

/// Read a cache entry; `None` on any mismatch (missing file, parse error,
/// version or spec mismatch, metrics not laid out as `metrics_of` lays
/// them out today) — the caller then recomputes and overwrites.
fn load_cached(path: &Path, job: &Job) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    let entry = json::parse(&text).ok()?;
    if entry.get("cache_version")?.as_u64()? != CACHE_SCHEMA_VERSION as u64 {
        return None;
    }
    // Guard against hash collisions and stale keys: the stored spec must
    // byte-match the job's.
    if entry.get("spec")?.as_str()? != job.spec
        || entry.get("fig")?.as_str()? != job.fig
        || entry.get("label")?.as_str()? != job.label
        || entry.get("seed")?.as_u64()? != job.seed
    {
        return None;
    }
    entry
        .get("metrics")
        .filter(|m| metrics_complete(m, &job.coords))
        .cloned()
}

/// Write-through via a temp file + rename so concurrent writers of the
/// same key (identical jobs in one batch) can't interleave bytes.
fn store_cached(path: &Path, job: &Job, metrics: &Json, wall_ms: f64) {
    let entry = Json::obj([
        ("cache_version", Json::U64(CACHE_SCHEMA_VERSION as u64)),
        ("fig", Json::Str(job.fig.to_string())),
        ("label", Json::Str(job.label.clone())),
        ("seed", Json::U64(job.seed)),
        ("wall_ms", Json::F64(wall_ms)),
        ("spec", Json::Str(job.spec.clone())),
        ("metrics", metrics.clone()),
    ]);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(entry.pretty().as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        // A failed cache write only costs a future re-run; don't fail the job.
        eprintln!("warning: cache write {} failed: {e}", path.display());
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Group outcomes by point label, preserving first-seen order — the
/// standard reduce step for multi-seed sweeps.
pub fn by_label<'a>(
    outcomes: impl IntoIterator<Item = &'a JobOutcome>,
) -> Vec<(&'a str, Vec<&'a JobOutcome>)> {
    let mut groups: Vec<(&str, Vec<&JobOutcome>)> = Vec::new();
    for o in outcomes {
        match groups.iter_mut().find(|(l, _)| *l == o.label) {
            Some((_, v)) => v.push(o),
            None => groups.push((o.label.as_str(), vec![o])),
        }
    }
    groups
}

/// Mean of a numeric metrics field across seed-replicates (NaN-propagating,
/// like the figures' own averaging).
pub fn mean_metric(replicates: &[&JobOutcome], path: &[&str]) -> f64 {
    if replicates.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = replicates
        .iter()
        .map(|o| {
            o.metrics
                .path(path)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("metrics missing `{}`", path.join(".")))
        })
        .sum();
    sum / replicates.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::figures::common::{canned_result, metrics_of};

    fn job(fig: &'static str, label: &str, seed: u64, spec: &str, value: u64) -> Job {
        let coords = vec![("value", Json::U64(value))];
        Job {
            fig,
            label: label.to_string(),
            seed,
            spec: spec.to_string(),
            coords: coords.clone(),
            run: Box::new(move || metrics_of("toy", &canned_result(), coords.clone())),
        }
    }

    /// `j` without the member at `path`.
    fn without(j: &Json, path: &[&str]) -> Json {
        let Json::Obj(members) = j else {
            panic!("`{}` is not in an object", path[0])
        };
        let keep = |(k, v): &(String, Json)| match path {
            [last] => (k != last).then(|| (k.clone(), v.clone())),
            [head, rest @ ..] if k == head => Some((k.clone(), without(v, rest))),
            _ => Some((k.clone(), v.clone())),
        };
        Json::Obj(members.iter().filter_map(keep).collect())
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let a = job("fig3", "DRILL pfc=on", 1, "cfg{x:1}", 1);
        let b = job("fig3", "DRILL pfc=on", 1, "cfg{x:1}", 99);
        // Same identity → same key (the closure does not participate).
        assert_eq!(a.key(), b.key());
        // Any identity field change → different key.
        assert_ne!(a.key(), job("fig4", "DRILL pfc=on", 1, "cfg{x:1}", 1).key());
        assert_ne!(
            a.key(),
            job("fig3", "DRILL pfc=off", 1, "cfg{x:1}", 1).key()
        );
        assert_ne!(a.key(), job("fig3", "DRILL pfc=on", 2, "cfg{x:1}", 1).key());
        assert_ne!(a.key(), job("fig3", "DRILL pfc=on", 1, "cfg{x:2}", 1).key());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn cache_round_trip_and_spec_guard() {
        let dir = std::env::temp_dir().join(format!("rlb-bench-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let j = job("fig3", "DRILL", 1, "spec-a", 7);
        let path = dir.join(format!("{}.json", j.key_hex()));
        let metrics = (j.run)();
        store_cached(&path, &j, &metrics, 12.5);
        // As text: NaN is stored as `null` and no two NaNs are equal.
        let loaded = load_cached(&path, &j).expect("hit");
        assert_eq!(loaded.pretty(), metrics.pretty());
        // Same file, different spec → treated as a miss.
        let j2 = job("fig3", "DRILL", 1, "spec-b", 7);
        assert_eq!(load_cached(&path, &j2), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runner_caches_between_batches() {
        let dir =
            std::env::temp_dir().join(format!("rlb-bench-runner-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunnerConfig {
            threads: Some(2),
            cache_dir: Some(dir.clone()),
            progress: false,
        };
        let mk = || vec![job("fig3", "a", 1, "s", 1), job("fig3", "b", 1, "s", 2)];
        let cold = run_jobs(mk(), &cfg).expect("cold run");
        assert_eq!((cold.executed, cold.cache_hits), (2, 0));
        let warm = run_jobs(mk(), &cfg).expect("warm run");
        assert_eq!((warm.executed, warm.cache_hits), (0, 2));
        assert_eq!(
            warm.outcomes[0].metrics.pretty(),
            cold.outcomes[0].metrics.pretty()
        );
        assert!(warm.outcomes.iter().all(|o| o.cached));
        // Outcomes stay in job order either way.
        assert_eq!(warm.outcomes[0].label, "a");
        assert_eq!(warm.outcomes[1].label, "b");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_missing_a_declared_key_is_recomputed_and_overwritten() {
        let dir = std::env::temp_dir().join(format!("rlb-bench-stale-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunnerConfig {
            threads: Some(1),
            cache_dir: Some(dir.clone()),
            progress: false,
        };
        let mk = || vec![job("fig3", "a", 1, "s", 1)];
        let path = dir.join(format!("{}.json", mk()[0].key_hex()));
        assert_eq!(run_jobs(mk(), &cfg).expect("cold run").executed, 1);
        let valid = std::fs::read_to_string(&path).expect("entry written");
        for path_in_entry in [
            &["metrics", "background", "p99_ood"][..],
            &["metrics", "perf", "snapshot_rebuilds"],
            &["metrics", "counters"],
            &["metrics", "value"],
        ] {
            let entry = json::parse(&valid).expect("valid entry");
            let damaged = without(&entry, path_in_entry).pretty();
            assert_ne!(damaged, valid);
            std::fs::write(&path, damaged).expect("rewrite entry");
            let rerun = run_jobs(mk(), &cfg).expect("damaged entry must not fail the batch");
            assert_eq!(rerun.executed, 1, "{path_in_entry:?}: served as a hit");
            let restored = std::fs::read_to_string(&path).expect("entry rewritten");
            assert_eq!(
                json::parse(&restored)
                    .expect("entry")
                    .get("metrics")
                    .map(Json::pretty),
                json::parse(&valid)
                    .expect("entry")
                    .get("metrics")
                    .map(Json::pretty),
                "{path_in_entry:?}: not overwritten"
            );
        }
        assert_eq!(run_jobs(mk(), &cfg).expect("warm run").executed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_cache_dir_disables_caching() {
        let cfg = RunnerConfig {
            threads: Some(1),
            cache_dir: None,
            progress: false,
        };
        let mk = || vec![job("fig3", "a", 1, "s", 1)];
        let first = run_jobs(mk(), &cfg).expect("run");
        let second = run_jobs(mk(), &cfg).expect("run");
        assert_eq!(first.cache_hits + second.cache_hits, 0);
        assert_eq!(second.executed, 1);
    }

    #[test]
    fn grouping_and_means() {
        let mk = |label: &str, seed, v: f64| JobOutcome {
            fig: "f",
            label: label.to_string(),
            seed,
            key_hex: String::new(),
            metrics: Json::obj([("m", Json::F64(v))]),
            wall_ms: 0.0,
            cached: false,
        };
        let outs = vec![mk("a", 1, 1.0), mk("b", 1, 10.0), mk("a", 2, 3.0)];
        let groups = by_label(&outs);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "a");
        assert!((mean_metric(&groups[0].1, &["m"]) - 2.0).abs() < 1e-12);
        assert!((mean_metric(&groups[1].1, &["m"]) - 10.0).abs() < 1e-12);
    }
}
