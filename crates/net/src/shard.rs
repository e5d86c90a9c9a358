//! The bounded-window run driver — the only one: every run, at every shard
//! count, goes through [`drive`].
//!
//! The topology is partitioned into shards by *columns* — shard `i` owns
//! leaf band `i` with its hosts and spine band `i` (see
//! `Sched::shard_for`), so every shard carries a like share of both
//! switch tiers and the leaf↔spine wires inside a column never leave it —
//! and each shard runs its own [`Simulation`] replica over the events of
//! the entities it owns. Synchronization is a conservative bounded-window
//! protocol: with every cross-shard interaction (leaf↔spine `LinkArrive`,
//! `PauseFrame`) carrying at least one link propagation delay, a window of
//! width `W = link_delay` starting at the global minimum pending time `g`
//! can be dispatched by every shard independently — nothing produced
//! inside `[g, g+W)` can affect another shard before `g+W`.
//!
//! One round per window:
//!
//! 1. every thread redundantly reads all shard statuses and computes the
//!    same decision (continue / complete / drained / hard-stop) — no
//!    coordinator thread, no communication beyond the statuses;
//! 2. each shard dispatches its local events in `[g, min(g+W, stop))` and
//!    hands its cross-shard sends over by swapping each outbox with the
//!    per-(dst, src) mailbox its receiver left drained — no allocation,
//!    no copy;
//! 3. barrier; each shard drains its mailboxes in place into its event
//!    queue and publishes a fresh status (next pending time, completions,
//!    audit cut);
//! 4. barrier; next round.
//!
//! The barrier is [`WindowBarrier`]: windows are tens of microseconds of
//! work, so a futex sleep and wake at each of the two meetings costs as
//! much as the window itself. Waiters spin briefly — the peer is usually
//! microseconds away — then poll with yields, and park only when it still
//! is not there, or at once when the box has fewer cores than shards and
//! spinning would only keep the peer off the CPU.
//!
//! 1 shard is the degenerate instance, not a separate engine: a lone
//! replica has no peer to hear from, so its window is the whole horizon,
//! the mailbox grid is empty, shard 0 runs on the caller's thread (nothing
//! is spawned), a lone arrival passes the barrier without waiting, and the
//! run is two rounds — dispatch everything, then the terminal decision.
//! `Simulation::run` is exactly that.
//!
//! Determinism is inherited, not synchronized-for: events are keyed by
//! `(sched_ps, entity rank, per-entity counter)` — identical regardless of
//! which shard executes the entity or how messages are routed — so each
//! shard's dispatch order equals the restriction of the 1-shard order to
//! its entities, and the merged result is byte-identical for every shard
//! count. Output-visible side effects that a shard applies to *shared*
//! aggregates (fabric counters, per-flow recirculations) are journaled
//! with their canonical key and folded at the round barrier; on the
//! completion round the fold is trimmed to the globally-last completion
//! key so counter totals match the 1-shard prefix exactly.
//!
//! `events_processed` is the one value that legitimately differs between
//! shard counts: global ticks are replicated per shard and the final
//! window may dispatch events past the last completion on shards that
//! cannot see it, so the figure pipeline keeps it out of stable output.

use crate::config::SimConfig;
use crate::sim::{
    all_flows_done, PerfStats, RunResult, ShardParts, ShardStatus, Simulation, WireMsg,
};
use rlb_engine::SimTime;
use rlb_metrics::{FabricCounters, LogHistogram};
use rlb_workloads::FlowSpec;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex};

/// How long a waiter polls for the round to turn before it gives up the
/// core. Windows are ~50 µs of dispatch per shard and balanced to within a
/// few tens of percent, so the peer is nearly always inside this budget
/// (roughly 100–500 µs of `spin_loop` hints, CPU dependent); a peer that is
/// not — descheduled, or dispatching a lopsided window — costs a bounded
/// burn, never a busy core for the whole wait.
const SPIN_ITERS: u32 = 1 << 13;

/// Polls with a `yield_now` between them that follow the spin budget,
/// before the waiter sleeps. They are there for one case: the kernel has
/// put both shards on the same core. A waiter that parks at once lets the
/// peer run, is woken onto that same core, and the pair goes on taking
/// turns there — each asleep whenever the other runs, so the load balancer
/// never sees two runnable threads and leaves the second core idle (seen
/// for up to 1.3 s after the workers spawn: a 1.3 s run took 2.4 s).
/// Yielding also lets the peer run, but keeps the waiter runnable, and the
/// balancer separates the two within a few ticks.
const YIELDS: u32 = 256;

/// The round barrier of the window driver: sense-reversing, spin then
/// park.
///
/// `n` threads call [`wait`](Self::wait); the call returns in all of them
/// once the last has arrived, and everything a thread wrote before its
/// call is visible to every thread after it. The last arrival flips
/// `sense`; the others watch for the flip, first polling it up to `spin`
/// times, then [`YIELDS`] more times with a yield in between, then asleep
/// on the condvar. The releaser touches the mutex and
/// the condvar only when `parked` says somebody sleeps, so a round that
/// nobody slept through is a handful of atomic operations and no system
/// call.
///
/// All atomics are `SeqCst`. The sleep/wake handshake needs it — a waiter
/// announces itself in `parked` and then re-reads `sense`, the releaser
/// flips `sense` and then reads `parked`, and one of the two must see the
/// other's write — and the rest pair as release/acquire on `sense`, which
/// `SeqCst` includes; at two meetings per window nothing is gained by
/// weakening them.
pub struct WindowBarrier {
    n: usize,
    spin: u32,
    /// Arrivals so far in the current round.
    arrived: AtomicUsize,
    /// Flipped by each round's last arrival.
    sense: AtomicBool,
    /// Waiters asleep (or committed to sleeping) on `turn`.
    parked: AtomicUsize,
    lock: Mutex<()>,
    turn: Condvar,
}

impl WindowBarrier {
    /// A barrier for `n` threads. Spins before parking only if the box has
    /// a core for each of them: with fewer, the thread being waited for
    /// needs the very core a spinner would hold.
    pub fn new(n: usize) -> WindowBarrier {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        WindowBarrier::with_spin(n, if cores >= n { SPIN_ITERS } else { 0 })
    }

    fn with_spin(n: usize, spin: u32) -> WindowBarrier {
        assert!(n >= 1, "a barrier needs at least one thread");
        WindowBarrier {
            n,
            spin,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            turn: Condvar::new(),
        }
    }

    /// Block until all `n` threads have called `wait` this round.
    pub fn wait(&self) {
        // Cannot flip under us: this round ends only after we arrive.
        let sense = self.sense.load(SeqCst);
        if self.arrived.fetch_add(1, SeqCst) + 1 == self.n {
            // Reset before the flip: whoever sees the flip may arrive for
            // the next round at once.
            self.arrived.store(0, SeqCst);
            self.sense.store(!sense, SeqCst);
            if self.parked.load(SeqCst) > 0 {
                // A sleeper holds the lock from announcing itself until
                // the condvar releases it, so taking the lock orders this
                // notify after it is really waiting.
                drop(self.lock.lock().expect("barrier lock"));
                self.turn.notify_all();
            }
            return;
        }
        for _ in 0..self.spin {
            if self.sense.load(SeqCst) != sense {
                return;
            }
            std::hint::spin_loop();
        }
        // No core to spare (`spin == 0`): nothing to wait out, sleep at once.
        if self.spin > 0 {
            for _ in 0..YIELDS {
                if self.sense.load(SeqCst) != sense {
                    return;
                }
                std::thread::yield_now();
            }
        }
        let mut guard = self.lock.lock().expect("barrier lock");
        self.parked.fetch_add(1, SeqCst);
        while self.sense.load(SeqCst) == sense {
            guard = self.turn.wait(guard).expect("barrier lock");
        }
        self.parked.fetch_sub(1, SeqCst);
    }
}

/// What each worker hands back for the merge.
#[derive(Debug, Clone, Copy)]
struct ShardOutcome {
    busy_secs: f64,
    cross_msgs: u64,
    stalls: u64,
    windows: u64,
    decision: Decision,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Decision {
    /// Dispatch the window `[g, end)`.
    Advance { end: SimTime },
    /// All flows finished; `k` is the globally-last completion `(t, key)`.
    Complete { k: (u64, u128) },
    /// Every shard's queue is empty; `end` is the last event time.
    Drained { end: SimTime },
    /// The earliest pending event lies past the horizon; the run ends at
    /// that event's time.
    HardStop { end: SimTime },
}

/// The stop policy — a pure function of the published statuses, which
/// every thread evaluates on the same snapshot and so decides identically.
fn decide(st: &[ShardStatus], n_flows: usize, hard_stop: SimTime, w_ps: u64) -> Decision {
    if all_flows_done(st.iter().map(|s| s.completed).sum(), n_flows) {
        let k = st
            .iter()
            .filter_map(|s| s.last_completion)
            .max()
            .expect("completed flows imply a completion record");
        return Decision::Complete { k };
    }
    match st.iter().filter_map(|s| s.next).min() {
        None => Decision::Drained {
            end: st.iter().map(|s| s.now).max().unwrap_or(SimTime(0)),
        },
        Some(g) if g > hard_stop => Decision::HardStop { end: g },
        Some(g) => Decision::Advance {
            // +1 so `pop_before`'s strict bound still dispatches events at
            // exactly `hard_stop`.
            end: SimTime(
                g.as_ps()
                    .saturating_add(w_ps)
                    .min(hard_stop.as_ps().saturating_add(1)),
            ),
        },
    }
}

/// What the workers of one run share.
struct Rounds {
    n_flows: usize,
    hard_stop: SimTime,
    w_ps: u64,
    statuses: Vec<Mutex<ShardStatus>>,
    /// `mailbox[dst][src]`: cross-shard sends awaiting the barrier. Each
    /// is touched by one thread at a time — `src` between the status
    /// barrier and the mailbox barrier, `dst` between the mailbox barrier
    /// and the status barrier — so the locks are never contended.
    mailbox: Vec<Vec<Mutex<Vec<WireMsg>>>>,
    barrier: WindowBarrier,
}

impl Rounds {
    fn publish(&self, me: usize, sim: &mut Simulation) {
        *self.statuses[me].lock().expect("status lock") = sim.status();
    }

    /// Snapshot of every shard's status into `snap` (the caller's buffer,
    /// reused every round). A single shard only sees its side of each
    /// flow, so packet conservation is asserted here, over the summed cuts.
    fn snapshot(&self, snap: &mut Vec<ShardStatus>) {
        snap.clear();
        snap.extend(self.statuses.iter().map(|m| *m.lock().expect("status lock")));
        #[cfg(feature = "audit")]
        {
            let mut sum = crate::audit::AuditReport::default();
            for s in snap.iter() {
                sum.absorb(&s.cut);
            }
            sum.assert_conserved();
        }
    }
}

fn worker(sim: &mut Simulation, me: usize, r: &Rounds) -> ShardOutcome {
    r.publish(me, sim);
    r.barrier.wait();

    let mut out = ShardOutcome {
        busy_secs: 0.0,
        cross_msgs: 0,
        stalls: 0,
        windows: 0,
        decision: Decision::Drained { end: SimTime(0) },
    };
    let mut snap = Vec::with_capacity(r.statuses.len());
    loop {
        r.snapshot(&mut snap);
        let decision = decide(&snap, r.n_flows, r.hard_stop, r.w_ps);
        // The journal now holds exactly the previous window's effects. On
        // every non-terminal round (and on drain/hard-stop, which dispatch
        // nothing past the end) they are all part of the 1-shard prefix;
        // on completion, trim to the globally-last completion key.
        match decision {
            Decision::Advance { end } => {
                sim.fold_journal(None);
                let t0 = std::time::Instant::now(); // lint:allow(wall-clock)
                let d = sim.dispatch_window(end);
                out.busy_secs += t0.elapsed().as_secs_f64();
                out.windows += 1;
                if d == 0 {
                    out.stalls += 1;
                }
                for (dst, dst_boxes) in r.mailbox.iter().enumerate() {
                    if dst == me {
                        continue;
                    }
                    let mut mailbox = dst_boxes[me].lock().expect("mailbox lock");
                    out.cross_msgs += sim.swap_outbox(dst as u16, &mut mailbox) as u64;
                }
                r.barrier.wait();
                for src_box in &r.mailbox[me] {
                    sim.deliver(&mut src_box.lock().expect("mailbox lock"));
                }
                r.publish(me, sim);
                r.barrier.wait();
            }
            Decision::Complete { k } => {
                sim.conclude(Some(k));
                out.decision = decision;
                break;
            }
            Decision::Drained { .. } | Decision::HardStop { .. } => {
                sim.conclude(None);
                out.decision = decision;
                break;
            }
        }
    }

    // Terminal sweep: per-shard drain checks (PFC pairing, buffer books)
    // plus one last global conservation balance over the final cuts.
    #[cfg(feature = "audit")]
    {
        r.barrier.wait(); // everyone is past the terminal decision reads
        r.statuses[me].lock().expect("status lock").cut = sim.audit_cut(true);
        r.barrier.wait();
        r.snapshot(&mut snap);
    }
    out
}

/// Shards a run is partitioned into — derived, never configured beyond the
/// caller's request: 1 when `shards <= 1`, when fabric monitoring or
/// per-flow traces are on (both read or order global state mid-run), or
/// when the link delay is zero (the protocol's lookahead); else `shards`
/// clamped to `n_leaves` (a column needs a leaf: hosts, and so flows, live
/// under leaves, and a spine-only shard would idle at every barrier).
fn shard_count(cfg: &SimConfig, shards: u16) -> u16 {
    if cfg.monitor.is_some() || !cfg.trace_flows.is_empty() || cfg.link_delay().as_ps() == 0 {
        return 1;
    }
    // At most `shards`, so it fits back into `u16` whatever the leaf count.
    (shards as u32).clamp(1, cfg.topo.n_leaves.max(1)) as u16
}

/// Run `specs` under `cfg` on (up to) `shards` shards.
pub(crate) fn run_sharded(cfg: SimConfig, specs: Vec<FlowSpec>, shards: u16) -> RunResult {
    let n = shard_count(&cfg, shards);
    let mut sims: Vec<Simulation> = (1..n)
        .map(|s| Simulation::new_shard(cfg.clone(), specs.clone(), s, n))
        .collect();
    sims.insert(0, Simulation::new_shard(cfg, specs, 0, n));
    drive(sims)
}

/// Run the replicas of one partitioned simulation (`sims[i]` built as
/// shard `i` of `sims.len()`) to the end and merge their results.
pub(crate) fn drive(mut sims: Vec<Simulation>) -> RunResult {
    let n = sims.len();
    let n_flows = sims[0].n_flows();
    let rounds = Rounds {
        n_flows,
        hard_stop: sims[0].cfg().hard_stop,
        // The lookahead: one link delay between shards; a lone shard has
        // no peer to wait for, so its window is the whole horizon.
        w_ps: if n > 1 {
            sims[0].cfg().link_delay().as_ps()
        } else {
            u64::MAX
        },
        statuses: (0..n).map(|_| Mutex::new(ShardStatus::default())).collect(),
        mailbox: (0..n)
            .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
        barrier: WindowBarrier::new(n),
    };

    // Wall-clock is recorded for the perf telemetry only; nothing in the
    // simulation reads it, so replays stay bit-exact.
    let wall_start = std::time::Instant::now(); // lint:allow(wall-clock)
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let rounds = &rounds;
        let (first, rest) = sims.split_first_mut().expect("at least one shard");
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, sim)| scope.spawn(move || worker(sim, i + 1, rounds)))
            .collect();
        // Shard 0 runs here, so a 1-shard run spawns nothing.
        let mut outcomes = vec![worker(first, 0, rounds)];
        outcomes.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked")),
        );
        outcomes
    });
    let wall = wall_start.elapsed().as_secs_f64();

    let end_time = match outcomes[0].decision {
        Decision::Complete { k } => SimTime(k.0),
        Decision::Advance { .. } => unreachable!("terminal decision"),
        Decision::Drained { end } | Decision::HardStop { end } => end,
    };

    let endpoints: Vec<(u16, u16)> = (0..n_flows)
        .map(|i| sims[0].flow_endpoint_shards(i))
        .collect();
    let mut parts: Vec<ShardParts> = sims.into_iter().map(Simulation::into_parts).collect();

    // Per-flow records: sender-side fields live on the src shard, OOO
    // reception on the dst shard, and recirculations accumulate on
    // whichever shards own the recirculating switches.
    let mut records = Vec::with_capacity(n_flows);
    for (i, &(src_s, dst_s)) in endpoints.iter().enumerate() {
        let mut rec = parts[src_s as usize].records[i].clone();
        let dst = &parts[dst_s as usize].records[i];
        rec.ooo_packets = dst.ooo_packets;
        rec.max_ood = dst.max_ood;
        rec.recirculations = parts.iter().map(|p| p.records[i].recirculations).sum();
        records.push(rec);
    }

    let mut counters = FabricCounters::default();
    let mut perf = PerfStats::default();
    let mut ood_histogram = LogHistogram::default();
    let mut pfc_pauses_by_port = std::collections::BTreeMap::new();
    for p in &parts {
        counters.absorb(&p.counters);
        perf.absorb(&p.perf);
        ood_histogram.merge(&p.ood_histogram);
        for (&k, &v) in &p.pfc_pauses_by_port {
            *pfc_pauses_by_port.entry(k).or_insert(0) += v;
        }
    }

    let events_processed: u64 = parts.iter().map(|p| p.events).sum();
    let per_sec = |events: u64, secs: f64| if secs > 0.0 { events as f64 / secs } else { 0.0 };
    // What no replica can count for itself.
    let perf = PerfStats {
        wall_ms: wall * 1e3,
        events_per_sec: per_sec(events_processed, wall),
        shards: n as u64,
        // Synchronization telemetry: a lone shard's whole-horizon window
        // meets nobody at its barrier.
        window_advances: if n > 1 { outcomes[0].windows } else { 0 },
        cross_shard_messages: outcomes.iter().map(|o| o.cross_msgs).sum(),
        barrier_stalls: outcomes.iter().map(|o| o.stalls).sum(),
        // Sum of per-shard dispatch throughputs over time actually spent
        // dispatching (barrier waits excluded).
        aggregate_events_per_sec: outcomes
            .iter()
            .zip(&parts)
            .map(|(o, p)| per_sec(p.events, o.busy_secs))
            .sum(),
        ..perf
    };

    // Groups are replicated on every shard; monitoring and tracing pin a
    // run to one shard, so shard 0 holds whatever was observed.
    let ShardParts {
        groups,
        timeseries,
        traces,
        ..
    } = parts.swap_remove(0);
    RunResult {
        records,
        counters,
        ood_histogram,
        end_time,
        events_processed,
        groups,
        timeseries,
        traces,
        pfc_pauses_by_port,
        perf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// `threads` threads meet `rounds` times, twice a round as the window
    /// driver does: each bumps a shared counter, meets, and must then read
    /// exactly `threads` bumps per round so far — fewer means somebody
    /// passed before the last arrival, more means somebody was let into
    /// the next round — then meets again before the next bump.
    fn stress(threads: usize, rounds: u64, spin: u32) {
        let barrier = WindowBarrier::with_spin(threads, spin);
        let bumps = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for round in 1..=rounds {
                        bumps.fetch_add(1, SeqCst);
                        barrier.wait();
                        assert_eq!(bumps.load(SeqCst), round * threads as u64, "spin {spin}");
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn barrier_holds_every_thread_until_the_last_arrives() {
        // Park path forced: nobody polls, every early arrival sleeps and
        // the last one must find and wake it.
        stress(4, 10_000, 0);
        // All three ways out racing: with this budget and four threads on
        // a 2-core box about a quarter of the waits end in the spin, most in
        // the yields and a few percent run out of both and park — sleepers
        // announcing themselves while the releaser is flipping the sense,
        // the handshake that must not lose a wake-up.
        stress(4, 10_000, 4096);
        // Spin path forced: nobody can park. Spinners never yield, so with
        // more threads than cores each meeting would cost scheduler
        // time slices; size this one to the box.
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        stress(cores.clamp(2, 4), 10_000, u32::MAX);
    }

    #[test]
    fn a_lone_thread_never_waits() {
        let barrier = WindowBarrier::new(1);
        for _ in 0..3 {
            barrier.wait();
        }
    }

    #[test]
    fn shard_count_is_clamped_to_the_leaves() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.topo.n_leaves, 4);
        assert_eq!(shard_count(&cfg, 0), 1);
        assert_eq!(shard_count(&cfg, 1), 1);
        assert_eq!(shard_count(&cfg, 4), 4);
        assert_eq!(shard_count(&cfg, 13), 4);
        let monitored = SimConfig {
            monitor: Some(crate::monitor::MonitorConfig {
                interval: rlb_engine::SimDuration::from_us(20),
            }),
            ..SimConfig::default()
        };
        assert_eq!(shard_count(&monitored, 13), 1);
    }
}
