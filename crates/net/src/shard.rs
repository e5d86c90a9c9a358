//! The bounded-window run driver — the only one: every run, at every shard
//! count, goes through [`drive`].
//!
//! The topology is partitioned into shards — shard 0 owns every spine,
//! each remaining shard owns a contiguous band of leaves plus their hosts
//! (see `Simulation::shard_for`) — and each shard runs its own
//! [`Simulation`] replica over the events of the entities it owns.
//! Synchronization is a conservative bounded-window protocol: with every
//! cross-shard interaction (leaf↔spine `LinkArrive`, `PauseFrame`)
//! carrying at least one link propagation delay, a window of width
//! `W = link_delay` starting at the global minimum pending time `g` can be
//! dispatched by every shard independently — nothing produced inside
//! `[g, g+W)` can affect another shard before `g+W`.
//!
//! One round per window:
//!
//! 1. every thread redundantly reads all shard statuses and computes the
//!    same decision (continue / complete / drained / hard-stop) — no
//!    coordinator thread, no communication beyond the statuses;
//! 2. each shard dispatches its local events in `[g, min(g+W, stop))` and
//!    publishes its cross-shard sends into per-(dst, src) mailboxes;
//! 3. barrier; each shard drains its mailboxes into its event queue and
//!    publishes a fresh status (next pending time, completions, audit
//!    cut);
//! 4. barrier; next round.
//!
//! 1 shard is the degenerate instance, not a separate engine: a lone
//! replica has no peer to hear from, so its window is the whole horizon,
//! the mailbox grid is empty, shard 0 runs on the caller's thread (nothing
//! is spawned) and the run is two rounds — dispatch everything, then the
//! terminal decision. `Simulation::run` is exactly that.
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
use std::sync::{Barrier, Mutex};

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
    /// `mailbox[dst][src]`: cross-shard sends awaiting the barrier.
    mailbox: Vec<Vec<Mutex<Vec<WireMsg>>>>,
    barrier: Barrier,
}

impl Rounds {
    fn publish(&self, me: usize, sim: &mut Simulation) {
        *self.statuses[me].lock().expect("status lock") = sim.status();
    }

    /// Snapshot of every shard's status. A single shard only sees its side
    /// of each flow, so packet conservation is asserted here, over the
    /// summed cuts.
    fn snapshot(&self) -> Vec<ShardStatus> {
        let snap: Vec<ShardStatus> = self
            .statuses
            .iter()
            .map(|m| *m.lock().expect("status lock"))
            .collect();
        #[cfg(feature = "audit")]
        {
            let mut sum = crate::audit::AuditReport::default();
            for s in &snap {
                sum.absorb(&s.cut);
            }
            sum.assert_conserved();
        }
        snap
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
    loop {
        let decision = decide(&r.snapshot(), r.n_flows, r.hard_stop, r.w_ps);
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
                    let msgs = sim.take_outbox(dst as u16);
                    if !msgs.is_empty() {
                        out.cross_msgs += msgs.len() as u64;
                        dst_boxes[me].lock().expect("mailbox lock").extend(msgs);
                    }
                }
                r.barrier.wait();
                for src_box in &r.mailbox[me] {
                    let msgs = std::mem::take(&mut *src_box.lock().expect("mailbox lock"));
                    sim.deliver(msgs);
                }
                r.publish(me, sim);
                r.barrier.wait();
            }
            Decision::Complete { k } => {
                sim.fold_journal(Some(k));
                out.decision = decision;
                break;
            }
            Decision::Drained { .. } | Decision::HardStop { .. } => {
                sim.fold_journal(None);
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
        r.snapshot();
    }
    out
}

/// Shards a run is partitioned into — derived, never configured beyond the
/// caller's request: 1 when `shards <= 1`, when fabric monitoring or
/// per-flow traces are on (both read or order global state mid-run), or
/// when the link delay is zero (the protocol's lookahead); else `shards`
/// clamped to `1 + n_leaves` (spine shard + one shard per leaf).
fn shard_count(cfg: &SimConfig, shards: u16) -> u16 {
    if cfg.monitor.is_some() || !cfg.trace_flows.is_empty() || cfg.link_delay().as_ps() == 0 {
        return 1;
    }
    shards.clamp(1, 1 + cfg.topo.n_leaves as u16)
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
        barrier: Barrier::new(n),
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
    let mut ood_histogram = LogHistogram::default();
    let mut pfc_pauses_by_port = std::collections::BTreeMap::new();
    for p in &parts {
        counters.merge(&p.counters);
        ood_histogram.merge(&p.ood_histogram);
        for (&k, &v) in &p.pfc_pauses_by_port {
            *pfc_pauses_by_port.entry(k).or_insert(0) += v;
        }
    }

    let events_processed: u64 = parts.iter().map(|p| p.events).sum();
    let per_sec = |events: u64, secs: f64| if secs > 0.0 { events as f64 / secs } else { 0.0 };
    let perf = PerfStats {
        wall_ms: wall * 1e3,
        events_per_sec: per_sec(events_processed, wall),
        decisions: parts.iter().map(|p| p.perf_decisions).sum(),
        snapshot_reuses: parts.iter().map(|p| p.snap_reuses).sum(),
        snapshot_refreshes: parts.iter().map(|p| p.snap_refreshes).sum(),
        snapshot_rebuilds: parts.iter().map(|p| p.snap_rebuilds).sum(),
        snapshot_dirty_queue_spines: parts.iter().map(|p| p.snap_dirty_q_spines).sum(),
        snapshot_dirty_sig_spines: parts.iter().map(|p| p.snap_dirty_sig_spines).sum(),
        arena_high_water: parts.iter().map(|p| p.arena_high_water).max().unwrap_or(0),
        arena_capacity: parts.iter().map(|p| p.arena_capacity).max().unwrap_or(0),
        shards: n as u64,
        // Synchronization telemetry: a lone shard's whole-horizon window
        // meets nobody at its barrier.
        window_advances: if n > 1 { outcomes[0].windows } else { 0 },
        cross_shard_messages: outcomes.iter().map(|o| o.cross_msgs).sum(),
        barrier_stalls: outcomes.iter().map(|o| o.stalls).sum(),
        // Sum of per-shard dispatch throughputs over time actually spent
        // dispatching (barrier waits excluded) — the scaling headline.
        aggregate_events_per_sec: outcomes
            .iter()
            .zip(&parts)
            .map(|(o, p)| per_sec(p.events, o.busy_secs))
            .sum(),
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
