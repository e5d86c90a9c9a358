//! Host-side measuring tools: the one wall-clock read, `/proc` readers,
//! sample statistics, and the simulated-result digest.

use rlb_bench::runner::fnv1a_64;
use rlb_net::RunResult;
use std::time::Instant;

/// The benchmark's only host-clock read. Host time is what this crate
/// measures; it never flows into a simulation (inputs come from `--seed`).
pub fn now() -> Instant {
    Instant::now() // lint:allow(wall-clock) the benchmark times the simulator from outside
}

/// Seconds since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    now().duration_since(t0).as_secs_f64()
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI this repo builds on; there is no libc crate
/// offline to ask `sysconf`.
const USER_HZ: f64 = 100.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// clock ticks. The command name (field 2) may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("unparseable /proc/self/stat")?;
    Ok(ticks as f64 / USER_HZ)
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Median, extremes and count of a timing sample. With the 3–8
/// repetitions a run affords there is no tail percentile to report: the
/// highest percentile needs ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// `None` for an empty sample.
pub fn stats(samples: &[f64]) -> Option<Stats> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let (min, max) = (*s.first()?, *s.last()?);
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    Some(Stats {
        median,
        min,
        max,
        n,
    })
}

/// Median of a non-empty sample (0 for an empty one, which only the
/// not-applicable layer metrics produce).
pub fn median(samples: &[f64]) -> f64 {
    stats(samples).map_or(0.0, |s| s.median)
}

/// FNV-1a digest of what the model computed: every record's
/// `(start_ps, finish_ps, ooo_packets)` in order, every fabric counter,
/// the per-port PFC pause map, and the end time. `events_processed` is
/// left out on purpose — it legitimately differs under sharding.
pub fn result_digest(res: &RunResult) -> u64 {
    let mut buf: Vec<u8> = Vec::with_capacity(res.records.len() * 25 + 256);
    let mut put = |v: u64| buf.extend_from_slice(&v.to_le_bytes());
    for r in &res.records {
        put(r.start_ps);
        // Tag the option so an unfinished flow cannot alias a finish time.
        put(r.finish_ps.is_some() as u64);
        put(r.finish_ps.unwrap_or(0));
        put(r.ooo_packets);
    }
    let c = &res.counters;
    for v in [
        c.pause_frames,
        c.resume_frames,
        c.paused_port_time_ps,
        c.cnm_generated,
        c.cnm_relayed,
        c.recirculations,
        c.reroutes,
        c.forwards_unwarned,
        c.recirculation_budget_exhausted,
        c.buffer_drops,
        c.switch_packets,
        c.ecn_marks,
        c.faults_applied,
    ] {
        put(v);
    }
    for (&((is_spine, switch), port), &pauses) in &res.pfc_pauses_by_port {
        put(is_spine as u64);
        put(switch as u64);
        put(port as u64);
        put(pauses);
    }
    put(res.end_time.as_ps());
    fnv1a_64(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_engine::SimTime;
    use rlb_net::{SimConfig, Simulation, TopoConfig};
    use rlb_workloads::FlowSpec;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        // comm = "a) R (b" — spaces and parentheses inside field 2.
        let stat = "4242 (a) R (b) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    731 19 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 19));
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parser_reads_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   35216 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(35216));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 100 kB\n"), None);
    }

    #[test]
    fn proc_readers_work_on_this_host() {
        assert!(cpu_seconds().expect("stat") >= 0.0);
        assert!(peak_rss_mb().expect("status") > 0.0);
    }

    #[test]
    fn stats_on_odd_and_even_counts() {
        let odd = stats(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((odd.median, odd.min, odd.max, odd.n), (2.0, 1.0, 3.0, 3));
        let even = stats(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!(
            (even.median, even.min, even.max, even.n),
            (2.5, 1.0, 4.0, 4)
        );
        assert_eq!(stats(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }

    fn tiny_run(flows: Vec<FlowSpec>) -> RunResult {
        let cfg = SimConfig {
            topo: TopoConfig {
                n_leaves: 2,
                n_spines: 2,
                hosts_per_leaf: 2,
                ..TopoConfig::default()
            },
            hard_stop: SimTime::from_ms(50),
            ..SimConfig::default()
        };
        Simulation::new(cfg, flows).run()
    }

    #[test]
    fn digest_is_order_and_field_sensitive() {
        let flows = vec![
            FlowSpec::new(SimTime::ZERO, 0, 2, 50_000),
            FlowSpec::new(SimTime::from_us(10), 1, 3, 20_000),
        ];
        let base = tiny_run(flows.clone());
        let d = result_digest(&base);
        assert_eq!(
            d,
            result_digest(&tiny_run(flows.clone())),
            "same input, same digest"
        );

        let mut swapped = tiny_run(flows.clone());
        swapped.records.swap(0, 1);
        assert_ne!(d, result_digest(&swapped), "record order");

        let mut r = tiny_run(flows.clone());
        r.records[0].ooo_packets += 1;
        assert_ne!(d, result_digest(&r), "record field");
        let mut r = tiny_run(flows.clone());
        r.records[1].finish_ps = None;
        assert_ne!(d, result_digest(&r), "unfinished flow");
        let mut r = tiny_run(flows.clone());
        r.counters.ecn_marks += 1;
        assert_ne!(d, result_digest(&r), "fabric counter");
        let mut r = tiny_run(flows.clone());
        r.pfc_pauses_by_port.insert(((true, 0), 1), 1);
        assert_ne!(d, result_digest(&r), "pause map");
        let mut r = tiny_run(flows.clone());
        r.end_time = SimTime(r.end_time.as_ps() + 1);
        assert_ne!(d, result_digest(&r), "end time");

        // Host-side telemetry and the event count are not part of it.
        let mut r = tiny_run(flows);
        r.events_processed += 1;
        r.perf.wall_ms += 1.0;
        assert_eq!(d, result_digest(&r));
    }
}
