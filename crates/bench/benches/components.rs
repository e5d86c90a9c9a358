//! Micro-benchmarks of the hot components: the event queue, the PFC
//! predictor, Algorithm 1, the LB schemes' per-packet decisions, workload
//! sampling, the host plane (NIC arbiter, DCQCN tick), the shard driver's
//! synchronization (window barrier, mailbox hand-off) and the metrics kernels.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rlb_core::{algorithm1, PfcPredictor, Prediction, RlbConfig};
use rlb_engine::{shard_key, substream, EventQueue, FlowTable, ShardEventQueue, SimTime};
use rlb_lb::{build, Ctx, PathInfo, Scheme};
use rlb_workloads::SizeCdf;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("engine/event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule(SimTime(i * 37 % 4096), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Steady-state hold-model: 16k pending events with uniform-random future
/// deltas (up to 50 µs); each pop reschedules the popped event.
fn run_uniform(pops: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..16_384u64 {
        q.schedule(SimTime(1 + xorshift(&mut s) % 50_000_000), i);
    }
    let mut acc = 0u64;
    for _ in 0..pops {
        let (t, e) = q.pop().expect("steady-state queue never drains");
        acc = acc.wrapping_add(e);
        q.schedule(SimTime(t.as_ps() + 1 + xorshift(&mut s) % 50_000_000), e);
    }
    acc
}

const TICK: u64 = u64::MAX;
const TIE_BASE: u64 = 1 << 32;

/// The profile a loaded fig3 fabric produces: a large population of packet
/// events with short serialization-scale deltas (≤ 3 µs) interleaved with
/// a 2 µs periodic tick that lands a burst of 1000 same-timestamp events —
/// the shape of the coalesced predictor/alpha/increase ticks.
fn run_periodic(pops: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut s = 0xd1b5_4a32_d192_ed03u64;
    q.schedule(SimTime(2_000_000), TICK);
    for i in 0..32_768u64 {
        q.schedule(SimTime(200 + xorshift(&mut s) % 3_000_000), i);
    }
    let mut acc = 0u64;
    for _ in 0..pops {
        let (t, e) = q.pop().expect("tick keeps the queue non-empty");
        acc = acc.wrapping_add(e);
        if e == TICK {
            q.schedule(SimTime(t.as_ps() + 2_000_000), TICK);
            // Same-instant burst half a tick period ahead — the shape of a
            // coalesced incast kick or CNM fan-in; drains FIFO.
            let burst_at = SimTime(t.as_ps() + 1_000_000);
            for k in 0..1_000u64 {
                q.schedule(burst_at, TIE_BASE + k);
            }
        } else if e < TIE_BASE {
            q.schedule(SimTime(t.as_ps() + 200 + xorshift(&mut s) % 3_000_000), e);
        }
    }
    acc
}

fn bench_queue_hold(c: &mut Criterion) {
    const POPS: u64 = 50_000;
    let mut group = c.benchmark_group("engine/queue_hold");
    group.bench_function("uniform", |b| b.iter(|| black_box(run_uniform(POPS))));
    group.bench_function("periodic", |b| b.iter(|| black_box(run_periodic(POPS))));
    group.finish();
}

/// Stand-in for the simulator's 72-byte `Event` payload.
#[derive(Clone, Copy)]
struct SimEvent([u64; 9]);

/// The simulator's queue as it runs: a `ShardEventQueue` holding `pending`
/// events under `shard_key`s from 97 entities, each pop rescheduling
/// either a link propagation (~1 µs), a serialization (~80 ns) or a
/// same-instant control completion.
fn run_sim_shaped(pending: u64, pops: u64) -> u64 {
    const ENTITIES: u64 = 97;
    let mut q: ShardEventQueue<SimEvent> = ShardEventQueue::new();
    let mut s = 0x2545_f491_4f6c_dd1du64;
    let mut seq = 0u64;
    for i in 0..pending {
        let key = shard_key(0, (i % ENTITIES) as u16, seq);
        q.insert_message(SimTime(xorshift(&mut s) % 1_100_000), key, SimEvent([i; 9]));
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..pops {
        let (t, _, ev) = q.pop().expect("hold model never drains");
        acc = acc.wrapping_add(ev.0[0]);
        let r = xorshift(&mut s);
        let delay = match r % 16 {
            0..=6 => 1_000_000 + r % 100_000,
            7..=13 => 80_000 + r % 20_000,
            _ => 0,
        };
        let key = shard_key(t.as_ps(), (ev.0[0] % ENTITIES) as u16, seq);
        q.insert_message(SimTime(t.as_ps() + delay), key, ev);
        seq += 1;
    }
    acc
}

fn bench_queue_sim_shaped(c: &mut Criterion) {
    const POPS: u64 = 50_000;
    let mut group = c.benchmark_group("engine/queue_sim_shaped");
    for pending in [4_000u64, 15_000] {
        group.bench_function(&format!("pending_{pending}"), |b| {
            b.iter(|| black_box(run_sim_shaped(pending, POPS)))
        });
    }
    group.finish();
}

fn bench_predictor(c: &mut Criterion) {
    c.bench_function("core/pfc_predictor_sample", |b| {
        let mut p = PfcPredictor::new(64_000, 256_000, 4_000_000);
        let mut t = 0u64;
        let mut q = 0u64;
        b.iter(|| {
            t += 2_000_000;
            q = (q + 13_000) % 300_000;
            black_box(p.on_sample(t, q))
        })
    });
    // One coalesced per-switch PredictorTick: sample all 64 ports in a
    // single dispatch, the post-refactor hot shape (vs 64 separate events).
    c.bench_function("core/predictor_tick_64ports", |b| {
        let mut ports: Vec<PfcPredictor> = (0..64)
            .map(|_| PfcPredictor::new(64_000, 256_000, 4_000_000))
            .collect();
        let mut t = 0u64;
        b.iter(|| {
            t += 2_000_000;
            let mut warns = 0u32;
            for (i, p) in ports.iter_mut().enumerate() {
                let q = (t / 500 + i as u64 * 7_000) % 300_000;
                if p.on_sample(t, q) == Prediction::Warn {
                    warns += 1;
                }
            }
            black_box(warns)
        })
    });
}

fn bench_algorithm1(c: &mut Criterion) {
    let paths: Vec<PathInfo> = (0..12)
        .map(|i| PathInfo {
            warned: i % 3 == 0,
            rtt_ns: 10_000.0 + i as f64 * 500.0,
            queue_bytes: (i * 10_000) as u64,
            ..PathInfo::default()
        })
        .collect();
    let ctx = Ctx {
        now_ps: 0,
        flow_id: 1,
        dst_leaf: 0,
        seq: 0,
        pkt_bytes: 1000,
        paths: &paths,
    };
    let cfg = RlbConfig::default();
    c.bench_function("core/algorithm1_decision_12paths", |b| {
        b.iter(|| black_box(algorithm1(black_box(0), &ctx, &cfg, 0)))
    });
}

fn bench_lb_selection(c: &mut Criterion) {
    let paths: Vec<PathInfo> = (0..12)
        .map(|i| PathInfo {
            rtt_ns: 10_000.0 + i as f64 * 100.0,
            queue_bytes: (i * 5_000) as u64,
            ..PathInfo::default()
        })
        .collect();
    let mut group = c.benchmark_group("lb/select_12paths");
    for scheme in Scheme::ALL {
        group.bench_function(scheme.name(), |b| {
            let mut lb = build(scheme, 1000, substream(1, b"bench", scheme as u64));
            let mut seq = 0u32;
            b.iter(|| {
                seq = seq.wrapping_add(1);
                let ctx = Ctx {
                    now_ps: seq as u64 * 200_000,
                    flow_id: (seq % 64) as u64,
                    dst_leaf: 0,
                    seq,
                    pkt_bytes: 1000,
                    paths: &paths,
                };
                black_box(lb.select(&ctx))
            })
        });
    }
    group.finish();
}

/// The per-packet decision prologue, isolated: (a) the stateful schemes'
/// flow-table access (lookup-or-insert, flowlet expiry removes, a periodic
/// GC sweep) on `rlb_engine::FlowTable`, and (b) the path view every
/// decision builds from the fabric, at the widest fabric the figures use.
mod decision_hot_path {
    use super::*;

    pub const OPS: u64 = 50_000;
    const FLOWS: u64 = 4096;

    /// Mostly-dense flow ids with a sparse tail — the shape real runs
    /// produce (sequential spawn order, plus hashed synthetic ids).
    fn key(i: u64) -> u64 {
        if i % 8 == 7 {
            (1 << 40) + i * 131
        } else {
            i
        }
    }

    pub fn churn_flowtable(ops: u64) -> u64 {
        let mut t: FlowTable<u64> = FlowTable::new();
        let mut s = 0x5851_f42d_4c95_7f2du64;
        let mut acc = 0u64;
        for n in 0..ops {
            let k = key(xorshift(&mut s) % FLOWS);
            match t.get_mut(k) {
                Some(v) => {
                    *v = v.wrapping_add(1);
                    acc ^= *v;
                }
                None => {
                    t.insert(k, n);
                }
            }
            if n % 64 == 0 {
                t.remove(key(xorshift(&mut s) % FLOWS));
            }
            if n % 4096 == 0 {
                t.retain(|_, v| *v % 7 != 0); // expiry sweep
            }
        }
        acc.wrapping_add(t.len() as u64)
    }

    pub const SPINES: usize = 40; // fig3 fabric width at both scales

    /// Per-uplink state the path view reads (the sim's `EgressPort` and
    /// leaf-estimator fields that feed `PathInfo`).
    pub struct Egress {
        pub data_q_bytes: u64,
        pub paused: bool,
        pub rtt_ns: f64,
        pub ecn_fraction: f64,
    }

    pub fn fabric() -> Vec<Egress> {
        (0..SPINES)
            .map(|s| Egress {
                data_q_bytes: (s as u64 * 9_973) % 120_000,
                paused: s % 11 == 0,
                rtt_ns: 10_000.0 + s as f64 * 250.0,
                ecn_fraction: (s % 5) as f64 * 0.05,
            })
            .collect()
    }

    /// Clear and repopulate the scratch vector, reading every `PathInfo`
    /// field — what `Control::decide` does for every packet.
    pub fn build_view(eg: &[Egress], scratch: &mut Vec<PathInfo>) -> u64 {
        scratch.clear();
        for (s, ep) in eg.iter().enumerate() {
            scratch.push(PathInfo {
                queue_bytes: ep.data_q_bytes,
                paused: ep.paused,
                warned: s % 13 == 0,
                rtt_ns: ep.rtt_ns,
                ecn_fraction: ep.ecn_fraction,
                link_rate_bps: 40e9,
            });
        }
        scratch.iter().map(|p| p.queue_bytes).sum()
    }
}

fn bench_decision_hot_path(c: &mut Criterion) {
    use decision_hot_path::*;
    let mut group = c.benchmark_group("lb/decision_hot_path");
    group.bench_function("flow_table/flowtable", |b| {
        b.iter(|| black_box(churn_flowtable(OPS)))
    });
    let eg = fabric();
    group.bench_function("path_view/build", |b| {
        let mut scratch = Vec::with_capacity(SPINES);
        b.iter(|| black_box(build_view(&eg, &mut scratch)))
    });
    group.finish();
}

fn bench_workload_sampling(c: &mut Criterion) {
    c.bench_function("workloads/web_search_sample", |b| {
        let cdf = SizeCdf::web_search();
        let mut rng = substream(3, b"bench-cdf", 0);
        b.iter(|| black_box(cdf.sample(&mut rng)))
    });
}

fn bench_gbn(c: &mut Criterion) {
    c.bench_function("transport/gbn_sender_cycle", |b| {
        b.iter(|| {
            let mut tx = rlb_transport::GbnSender::new(64);
            let mut rx = rlb_transport::GbnReceiver::new(64);
            while let Some(psn) = tx.take_next() {
                if let rlb_transport::RxAction::Deliver { ack_psn } = rx.on_packet(psn) {
                    tx.on_ack(ack_psn);
                }
            }
            black_box(tx.is_complete())
        })
    });
}

/// The host plane at `mice_ecmp`'s shape: each NIC lists hundreds of flows
/// for the whole scenario and a handful are live (started, unfinished).
fn bench_host_plane(c: &mut Criterion) {
    use rlb_net::host::{FlowState, FlowTransport, Host, Sender};

    fn sender(fs: &mut FlowState) -> &mut Sender {
        fs.tx.as_deref_mut().expect("started")
    }
    let transport = FlowTransport {
        mode: rlb_net::TransportMode::GoBackN,
        irn_window: 0,
        dcqcn: rlb_transport::DcqcnConfig::default(),
    };
    // Flow `i` sends from host `i % n_hosts`; ids below `live` have started.
    let build = |n_hosts: u32, n_flows: u32, live: u32| {
        let mut hosts: Vec<Host> = (0..n_hosts).map(|_| Host::new(40_000_000_000)).collect();
        let mut flows = Vec::new();
        for i in 0..n_flows {
            let spec = rlb_workloads::FlowSpec::new(SimTime::ZERO, i % n_hosts, n_hosts, 1 << 30);
            let mut fs = FlowState::new(spec, 1_000);
            hosts[(i % n_hosts) as usize].list(i);
            if i < live {
                fs.tx = Some(transport.sender(fs.total_packets, 0));
                hosts[(i % n_hosts) as usize].start(i);
            }
            flows.push(fs);
        }
        (hosts, flows)
    };

    let mut group = c.benchmark_group("net/host_plane");
    group.bench_function("pick_500_listed_4_live", |b| {
        // Flows 1..4 sit in their pacing gap, so every pick walks them
        // before it reaches flow 0.
        let (mut hosts, mut flows) = build(1, 500, 4);
        for fs in &mut flows[1..4] {
            sender(fs).next_eligible_ps = u64::MAX;
        }
        b.iter(|| black_box(hosts[0].pick_eligible(&flows, black_box(0))))
    });
    group.bench_function("deadline_500_listed_4_live", |b| {
        let (hosts, flows) = build(1, 500, 4);
        b.iter(|| black_box(hosts[0].earliest_deadline(black_box(&flows))))
    });
    group.bench_function("dcqcn_tick_15k_flows_50_live", |b| {
        // The body of `Simulation::on_alpha_tick` on the quick fabric.
        let (hosts, mut flows) = build(32, 15_000, 50);
        b.iter(|| {
            for &f in hosts.iter().flat_map(|h| h.live()) {
                sender(&mut flows[f as usize]).dcqcn.on_alpha_timer();
            }
            black_box(sender(&mut flows[0]).dcqcn.alpha())
        })
    });
    group.finish();
}

/// The two things the window driver does between dispatches, per window:
/// meet its peers twice, and hand each peer one mailbox of wire messages.
fn bench_shard_sync(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

    // Sized like the crate-private `rlb_net::sim::WireMsg` (pinned there by
    // `wire_msg_size_is_what_the_mailbox_bench_assumes`): time, key and a
    // 40-byte payload — a frame crosses with its 32-byte packet by value.
    #[derive(Clone, Copy)]
    struct Msg {
        at: u64,
        _key: u128,
        _ev: [u64; 5],
    }
    assert_eq!(std::mem::size_of::<Msg>(), 64);
    // Leaf↔spine frames per window and direction on `steady_websearch`.
    const PER_WINDOW: u64 = 110;
    let fill = |outbox: &mut Vec<Msg>| {
        for i in 0..PER_WINDOW {
            outbox.push(Msg {
                at: black_box(i),
                _key: i as u128,
                _ev: [i; 5],
            });
        }
    };

    let mut group = c.benchmark_group("net/shard_sync");
    // One window's worth of meetings — two — against a peer thread that
    // does nothing else, so the time is the barrier's own. The peer reads
    // `stop` only after a second meeting and the bench sets it only between
    // a first and a second, so the peer can never leave a meeting early.
    group.bench_function("two_meetings_2_threads/window_barrier", |b| {
        let barrier = rlb_net::WindowBarrier::new(2);
        let meet = || barrier.wait().expect("nobody breaks it");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| loop {
                meet();
                meet();
                if stop.load(SeqCst) {
                    break;
                }
            });
            b.iter(|| {
                meet();
                meet();
            });
            meet();
            stop.store(true, SeqCst);
            meet();
        });
    });
    group.bench_function("mailbox_110_msgs/swap_drain_in_place", |b| {
        let (mut outbox, mut mailbox) = (Vec::new(), Vec::new());
        b.iter(|| {
            fill(&mut outbox);
            std::mem::swap(&mut outbox, &mut mailbox);
            black_box(mailbox.drain(..).map(|m| m.at).sum::<u64>())
        })
    });
    group.finish();
}

/// Stand-in for the packet payload parked in the arena:
/// `rlb_net::Packet`-sized (32 bytes).
#[derive(Clone, Copy)]
struct FatPacket {
    size_bytes: u32,
    flow: u32,
    enqueued_at_ps: u64,
    _cold: [u64; 2],
}

fn bench_packet_plane(c: &mut Criterion) {
    use rlb_engine::{PacketArena, PacketHandle};
    use std::collections::VecDeque;

    const N: usize = 1_024;
    let pkt = |i: u64| FatPacket {
        size_bytes: 1_000 + (i % 512) as u32,
        flow: i as u32,
        enqueued_at_ps: i * 37,
        _cold: [i; 2],
    };

    // FIFO churn through the arena: handles in the queue, payload parked.
    c.bench_function("net/packet_plane/arena_push_pop_1k", |b| {
        b.iter(|| {
            let mut arena: PacketArena<FatPacket> = PacketArena::with_capacity(N);
            let mut q: VecDeque<PacketHandle> = VecDeque::with_capacity(N);
            let mut acc = 0u64;
            for i in 0..N as u64 {
                let p = pkt(i);
                q.push_back(arena.alloc(p.size_bytes, p.flow, false, p.enqueued_at_ps, p));
            }
            while let Some(h) = q.pop_front() {
                acc = acc.wrapping_add(arena.free(h).size_bytes as u64);
            }
            black_box(acc)
        })
    });

    // The audit/egress byte sweep, which reads only the arena's size column.
    let mut arena: PacketArena<FatPacket> = PacketArena::with_capacity(N);
    let handles: Vec<PacketHandle> = (0..N as u64)
        .map(|i| {
            let p = pkt(i);
            arena.alloc(p.size_bytes, p.flow, false, p.enqueued_at_ps, p)
        })
        .collect();
    c.bench_function("net/packet_plane/scan_bytes_soa_1k", |b| {
        b.iter(|| {
            let sum: u64 = handles.iter().map(|&h| arena.size_bytes(h) as u64).sum();
            black_box(sum)
        })
    });

    // The per-hop transit pattern on a quiet port. A packet lives in the
    // arena from creation to consumption, so a hop moves only its handle:
    // queued, the handle is pushed on the egress FIFO with the byte counter
    // fed from the hot size column, then popped and the counter drained;
    // on the pass-through bypass it goes straight to the launch. The pair
    // quantifies the queue visit each bypassed hop saves — there is no
    // arena round trip left to save.
    let mut arena: PacketArena<FatPacket> = PacketArena::with_capacity(N);
    let hops: Vec<PacketHandle> = (0..N as u64)
        .map(|i| {
            let p = pkt(i);
            arena.alloc(p.size_bytes, p.flow, false, p.enqueued_at_ps, p)
        })
        .collect();
    c.bench_function("net/packet_plane/transit_push_pop_1k", |b| {
        let mut q: VecDeque<PacketHandle> = VecDeque::with_capacity(4);
        b.iter(|| {
            let mut bytes = 0u64;
            let mut acc = 0u64;
            for &h in &hops {
                bytes += arena.size_bytes(h) as u64;
                q.push_back(h);
                let out = q.pop_front().expect("just pushed");
                bytes -= arena.size_bytes(out) as u64;
                acc = acc.wrapping_add(arena.flow(black_box(out)) as u64);
            }
            black_box((acc, bytes))
        })
    });
    c.bench_function("net/packet_plane/transit_bypass_1k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &h in &hops {
                acc = acc.wrapping_add(arena.flow(black_box(h)) as u64);
            }
            black_box(acc)
        })
    });
}

fn bench_percentile(c: &mut Criterion) {
    let samples: Vec<f64> = (0..10_000)
        .map(|i| ((i * 2654435761u64) % 100_000) as f64)
        .collect();
    c.bench_function("metrics/percentile_10k", |b| {
        b.iter(|| black_box(rlb_metrics::percentile(&samples, 0.99)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_event_queue, bench_queue_hold, bench_queue_sim_shaped, bench_predictor,
              bench_algorithm1, bench_lb_selection, bench_decision_hot_path,
              bench_workload_sampling, bench_gbn, bench_host_plane,
              bench_shard_sync, bench_packet_plane, bench_percentile
}
criterion_main!(benches);
