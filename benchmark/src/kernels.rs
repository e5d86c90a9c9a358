//! Small kernels that drive one layer at a time through its public API,
//! sized by the workload's own counts (path count, flow count, packets in
//! flight, warned share). Each reports host nanoseconds per operation;
//! multiplied by the run's operation count they give the `*.est_share`
//! lines, the outside-in stand-in for in-program attribution.

use crate::measure::median;
use crate::trace::Tracer;
use rlb_core::{algorithm1, PfcPredictor, RlbConfig};
use rlb_engine::{
    substream, EventQueue, FlowTable, PacketArena, PacketHandle, SimDuration, SimTime,
};
use rlb_lb::{Ctx, PathInfo, Scheme};
use rlb_transport::{DcqcnConfig, DcqcnRate, GbnReceiver, GbnSender, RxAction};
use rlb_workloads::SizeCdf;
use std::collections::VecDeque;
use std::hint::black_box;

/// Operations per kernel execution: a few milliseconds each, long enough
/// that the clock read around it is noise.
const OPS: u64 = 200_000;
/// Timed executions per kernel (after one untimed); the median is kept.
const RUNS: usize = 3;

/// Time `body` (which performs and returns its own operation count) under
/// a `kernel.<name>` span; median host nanoseconds per operation.
fn ns_per_op(tracer: &mut Tracer, name: &str, mut body: impl FnMut() -> u64) -> f64 {
    black_box(body());
    let samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let (ops, secs) = tracer.span(&format!("kernel.{name}"), |_| black_box(body()));
            secs * 1e9 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Hold model on the event wheel: `pending` events outstanding, each pop
/// reschedules itself a packet-scale delta (≤ 3 µs) ahead.
pub fn wheel(tracer: &mut Tracer, pending: u64) -> f64 {
    ns_per_op(tracer, "engine.wheel", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..pending {
            q.schedule(SimTime(200 + xorshift(&mut s) % 3_000_000), i);
        }
        let mut acc = 0u64;
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("hold model never drains");
            acc = acc.wrapping_add(e);
            q.schedule(t + SimDuration(200 + xorshift(&mut s) % 3_000_000), e);
        }
        black_box(acc);
        OPS
    })
}

/// Roughly `rlb_net::Packet`-sized payload parked in the arena.
#[derive(Clone, Copy)]
struct Payload([u64; 8]);

/// FIFO transit through the packet arena at the run's peak occupancy:
/// one alloc and one free per packet.
pub fn arena(tracer: &mut Tracer, depth: u64) -> f64 {
    ns_per_op(tracer, "engine.arena", || {
        let mut arena: PacketArena<Payload> = PacketArena::with_capacity(depth as usize);
        let mut q: VecDeque<PacketHandle> = VecDeque::with_capacity(depth as usize + 1);
        let mut acc = 0u64;
        for i in 0..OPS + depth {
            q.push_back(arena.alloc(1_048, i as u32, false, i, Payload([i; 8])));
            if q.len() as u64 > depth {
                let h = q.pop_front().expect("non-empty");
                acc = acc.wrapping_add(arena.free(h).0[0]);
            }
        }
        black_box(acc);
        OPS
    })
}

/// Lookup-or-insert churn with periodic removal over `flows` live keys —
/// the access pattern of the stateful schemes' per-flow tables.
pub fn flowtable(tracer: &mut Tracer, flows: u64) -> f64 {
    ns_per_op(tracer, "engine.flowtable", || {
        let mut t: FlowTable<u64> = FlowTable::new();
        let mut s = 0x5851_f42d_4c95_7f2du64;
        let mut acc = 0u64;
        for n in 0..OPS {
            let k = xorshift(&mut s) % flows;
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
                t.remove(xorshift(&mut s) % flows);
            }
        }
        black_box(acc.wrapping_add(t.len() as u64));
        OPS
    })
}

pub fn cdf_sample(tracer: &mut Tracer, cdf: &SizeCdf) -> f64 {
    ns_per_op(tracer, "workloads.cdf_sample", || {
        let mut rng = substream(3, b"benchmark-cdf", 0);
        let mut acc = 0u64;
        for _ in 0..OPS {
            acc = acc.wrapping_add(cdf.sample(&mut rng));
        }
        black_box(acc);
        OPS
    })
}

/// Go-back-N sender/receiver cycle over 1000-packet flows; every 61st
/// transmission is overtaken on the wire, so the receiver NAKs and the
/// sender rewinds. Nanoseconds per transmitted packet.
pub fn gbn(tracer: &mut Tracer) -> f64 {
    ns_per_op(tracer, "transport.gbn", || {
        let mut sent = 0u64;
        while sent < OPS {
            let mut tx = GbnSender::new(1_000);
            let mut rx = GbnReceiver::new(1_000);
            loop {
                let Some(psn) = tx.take_next() else {
                    if tx.is_complete() {
                        break;
                    }
                    tx.on_timeout();
                    continue;
                };
                if tx.packets_sent.is_multiple_of(61) {
                    continue;
                }
                match rx.on_packet(psn) {
                    RxAction::Deliver { ack_psn } => tx.on_ack(ack_psn),
                    RxAction::OutOfOrder {
                        nak_psn: Some(p), ..
                    } => tx.on_nak(p),
                    RxAction::OutOfOrder { nak_psn: None, .. } | RxAction::Duplicate => {}
                }
            }
            sent += tx.packets_sent;
        }
        sent
    })
}

/// DCQCN rate-state updates in the mix a congested sender sees: bytes
/// sent every step, a CNP every 16th, alpha/increase timers every 4th.
pub fn dcqcn(tracer: &mut Tracer) -> f64 {
    ns_per_op(tracer, "transport.dcqcn", || {
        let mut r = DcqcnRate::new(DcqcnConfig::for_line_rate(40e9));
        for n in 0..OPS {
            r.on_bytes_sent(1_000);
            if n % 16 == 0 {
                r.on_cnp();
            }
            if n % 4 == 0 {
                r.on_alpha_timer();
                r.on_increase_timer();
            }
        }
        black_box(r.rate_bps());
        OPS
    })
}

fn paths(n: usize, warned: usize) -> Vec<PathInfo> {
    (0..n)
        .map(|i| PathInfo {
            warned: i < warned,
            rtt_ns: 10_000.0 + i as f64 * 100.0,
            queue_bytes: (i as u64 * 5_000) % 120_000,
            ..PathInfo::default()
        })
        .collect()
}

/// The workload's inner scheme choosing among its `n_paths` uplinks.
pub fn lb_select(tracer: &mut Tracer, scheme: Scheme, n_paths: usize) -> f64 {
    let paths = paths(n_paths, 0);
    ns_per_op(tracer, "lb.select", || {
        let mut lb = rlb_lb::build(scheme, 1_000, substream(1, b"benchmark-lb", 0));
        let mut acc = 0usize;
        for n in 0..OPS {
            let ctx = Ctx {
                now_ps: n * 200_000,
                flow_id: n % 64,
                dst_leaf: 0,
                seq: n as u32,
                pkt_bytes: 1_000,
                paths: &paths,
            };
            acc = acc.wrapping_add(lb.select(&ctx));
        }
        black_box(acc);
        OPS
    })
}

/// Algorithm 1 at the workload's path count with `warned_share` of the
/// paths warned; the initial choice rotates so warned and unwarned first
/// picks occur in that proportion.
pub fn algorithm1_decide(tracer: &mut Tracer, n_paths: usize, warned_share: f64) -> f64 {
    let warned = ((warned_share * n_paths as f64).round() as usize).min(n_paths);
    let paths = paths(n_paths, warned);
    let cfg = RlbConfig::default();
    ns_per_op(tracer, "core.algorithm1", || {
        let mut acc = 0u64;
        for n in 0..OPS {
            let ctx = Ctx {
                now_ps: n * 200_000,
                flow_id: n % 64,
                dst_leaf: 0,
                seq: n as u32,
                pkt_bytes: 1_000,
                paths: &paths,
            };
            let (_, reason) = algorithm1(black_box(n as usize % n_paths), &ctx, &cfg, 0);
            acc = acc.wrapping_add(reason as u64);
        }
        black_box(acc);
        OPS
    })
}

pub fn predictor_sample(tracer: &mut Tracer) -> f64 {
    ns_per_op(tracer, "core.predictor_sample", || {
        let mut p = PfcPredictor::new(64_000, 256_000, 4_000_000);
        let (mut t, mut q) = (0u64, 0u64);
        for _ in 0..OPS {
            t += 2_000_000;
            q = (q + 13_000) % 300_000;
            black_box(p.on_sample(t, q));
        }
        OPS
    })
}

/// Nearest-rank percentile over as many samples as the run has records.
pub fn percentile(tracer: &mut Tracer, samples: u64) -> f64 {
    let xs: Vec<f64> = (0..samples.max(1))
        .map(|i| (i.wrapping_mul(2_654_435_761) % 100_000) as f64)
        .collect();
    ns_per_op(tracer, "metrics.percentile", || {
        let mut done = 0u64;
        while done < OPS {
            black_box(rlb_metrics::percentile(black_box(&xs), 0.99));
            done += xs.len() as u64;
        }
        done
    })
}
