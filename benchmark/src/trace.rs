//! In-memory spans around each call into a layer. All spans sit in this
//! crate, outside the program; the traced pass records them, the untraced
//! pass only times the same calls.

use crate::measure::{now, secs_since};
use rlb_bench::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    /// Repetition index stamped on new spans.
    pub rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: now(),
            enabled,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f`, returning its value and its host seconds; when tracing is
    /// on, also record a span nested under the currently open one.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(),
                end_ns: 0,
                parent: self.open.last().copied(),
                rep: self.rep,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let t0 = now();
        let out = f(self);
        let secs = secs_since(t0);
        if let Some(i) = idx {
            self.spans[i].end_ns = self.ns();
            self.open.pop();
        }
        (out, secs)
    }

    fn ns(&self) -> u64 {
        now().duration_since(self.epoch).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover (children never overlap — one thread opens and closes them).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// `trace.json` rows: one object per span, self time included so a reader
/// needs no second pass.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    ("self_ns", Json::U64(self_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("workload", Json::Str(workload.to_string())),
                    ("rep", Json::U64(s.rep as u64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ─ a [10,40) ─ a1 [15,25)
        //              └ b [50,90)
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn tracer_nests_and_times() {
        let mut t = Tracer::new(true);
        t.rep = 3;
        let (v, secs) = t.span("outer", |t| {
            let (inner, _) = t.span("inner", |_| 7);
            inner + 1
        });
        assert_eq!(v, 8);
        assert!(secs >= 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].name.as_str(), s[0].parent, s[0].rep),
            ("outer", None, 3)
        );
        assert_eq!((s[1].name.as_str(), s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.span("x", |_| 1);
        assert_eq!(v, 1);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
