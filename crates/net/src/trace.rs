//! Per-flow packet tracing: a chronological log of every transport-visible
//! event for a selected set of flows — the tool for answering "*why* did
//! PSN 412 overtake PSN 409?" after a run.
//!
//! Tracing is opt-in per flow (`SimConfig::trace_flows`) because a full
//! fabric trace would dwarf the simulation itself.

use serde::Serialize;
use std::collections::BTreeMap;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceEvent {
    /// Sender NIC put the PSN on the wire.
    Sent,
    /// Source leaf forwarded the packet onto spine `path`.
    Routed { path: u8 },
    /// RLB recirculated the packet at the source leaf.
    Recirculated,
    /// Receiver NIC accepted the PSN in order.
    Delivered,
    /// Receiver NIC saw it out of order (buffered under IRN, discarded
    /// under go-back-N) with the given out-of-order degree.
    OutOfOrder { ood: u32 },
    /// Receiver NIC discarded a duplicate.
    Duplicate,
    /// Sender received a NAK naming this PSN as expected.
    NakReceived,
    /// Sender's retransmission timer rewound to this PSN.
    TimeoutRewind,
}

/// A single log entry: when, which PSN, what happened.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TraceEntry {
    pub t_ps: u64,
    pub psn: u32,
    pub event: TraceEvent,
}

/// Collected traces, keyed by flow id.
#[derive(Debug, Default)]
pub struct FlowTraces {
    traces: BTreeMap<u32, Vec<TraceEntry>>,
}

impl FlowTraces {
    pub fn new(flow_ids: &[u32]) -> FlowTraces {
        FlowTraces {
            traces: flow_ids.iter().map(|&f| (f, Vec::new())).collect(),
        }
    }

    /// Is this flow being traced? (Cheap check for the hot path.)
    #[inline]
    pub fn wants(&self, flow: u32) -> bool {
        !self.traces.is_empty() && self.traces.contains_key(&flow)
    }

    #[inline]
    pub fn record(&mut self, flow: u32, t_ps: u64, psn: u32, event: TraceEvent) {
        if let Some(v) = self.traces.get_mut(&flow) {
            v.push(TraceEntry { t_ps, psn, event });
        }
    }

    pub fn get(&self, flow: u32) -> Option<&[TraceEntry]> {
        self.traces.get(&flow).map(|v| v.as_slice())
    }

    pub fn is_empty(&self) -> bool {
        self.traces.values().all(|v| v.is_empty())
    }

    /// Count of events of one kind for a flow (test/analysis helper).
    pub fn count(&self, flow: u32, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.get(flow)
            .map(|es| es.iter().filter(|e| pred(&e.event)).count())
            .unwrap_or(0)
    }

    /// Render a flow's trace as one line per event.
    pub fn render(&self, flow: u32) -> String {
        let mut out = format!("# trace flow {flow}: t_us psn event\n");
        if let Some(entries) = self.get(flow) {
            for e in entries {
                out.push_str(&format!(
                    "{:.3} {} {:?}\n",
                    e.t_ps as f64 / 1e6,
                    e.psn,
                    e.event
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_requested_flows() {
        let mut tr = FlowTraces::new(&[7]);
        assert!(tr.wants(7));
        assert!(!tr.wants(8));
        tr.record(7, 1000, 0, TraceEvent::Sent);
        tr.record(8, 2000, 0, TraceEvent::Sent); // ignored
        assert_eq!(tr.get(7).unwrap().len(), 1);
        assert!(tr.get(8).is_none());
    }

    #[test]
    fn empty_tracer_is_cheap_and_silent() {
        let tr = FlowTraces::default();
        assert!(!tr.wants(0));
        assert!(tr.is_empty());
    }

    #[test]
    fn counting_and_rendering() {
        let mut tr = FlowTraces::new(&[1]);
        tr.record(1, 1_000_000, 0, TraceEvent::Sent);
        tr.record(1, 2_000_000, 0, TraceEvent::Routed { path: 3 });
        tr.record(1, 9_000_000, 5, TraceEvent::OutOfOrder { ood: 5 });
        tr.record(1, 9_500_000, 0, TraceEvent::Delivered);
        assert_eq!(tr.count(1, |e| matches!(e, TraceEvent::Sent)), 1);
        assert_eq!(
            tr.count(1, |e| matches!(e, TraceEvent::OutOfOrder { .. })),
            1
        );
        let text = tr.render(1);
        assert!(text.contains("1.000 0 Sent"));
        assert!(text.contains("9.000 5 OutOfOrder { ood: 5 }"));
        assert!(!tr.is_empty());
    }
}
