//! Self-time attribution over a drained `dmx_obs` span timeline.
//!
//! A span's self time is its duration minus the part of it its child
//! spans on the same thread cover. Spans on different threads (the
//! evaluator's workers) are summed per name; cross-thread ratios such as
//! worker busy time are formed from those sums.

use std::collections::BTreeMap;

use dmx_obs::{SpanKind, ThreadEvents};

/// Totals for one span name across every thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    /// Closed spans of this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Per-name totals over one timeline, plus events the rings dropped.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    pub spans: BTreeMap<&'static str, SpanTotal>,
    pub dropped: u64,
}

impl Attribution {
    pub fn of(timelines: &[ThreadEvents]) -> Self {
        let mut out = Attribution::default();
        for thread in timelines {
            out.dropped += thread.dropped;
            // (name, start, ns covered by direct children)
            let mut open: Vec<(&'static str, u64, u64)> = Vec::new();
            for ev in &thread.events {
                match ev.kind {
                    SpanKind::Begin => open.push((ev.name, ev.t_ns, 0)),
                    SpanKind::End => {
                        let Some((name, start, children)) = open.pop() else {
                            continue;
                        };
                        let dur = ev.t_ns.saturating_sub(start);
                        let total = out.spans.entry(name).or_default();
                        total.count += 1;
                        total.total_ns += dur;
                        total.self_ns += dur.saturating_sub(children);
                        if let Some(parent) = open.last_mut() {
                            parent.2 += dur;
                        }
                    }
                    SpanKind::Instant => {}
                }
            }
        }
        out
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.total_ns)
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.self_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_obs::SpanEvent;

    fn ev(name: &'static str, kind: SpanKind, t_ns: u64) -> SpanEvent {
        SpanEvent {
            name,
            kind,
            t_ns,
            arg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let thread = ThreadEvents {
            tid: 0,
            events: vec![
                ev("outer", SpanKind::Begin, 0),
                ev("mid", SpanKind::Begin, 10),
                ev("inner", SpanKind::Begin, 20),
                ev("inner", SpanKind::End, 30),
                ev("mid", SpanKind::End, 60),
                ev("outer", SpanKind::End, 100),
            ],
            dropped: 0,
        };
        let a = Attribution::of(&[thread]);
        assert_eq!(a.total_ns("outer"), 100);
        assert_eq!(a.self_ns("outer"), 50);
        assert_eq!(a.self_ns("mid"), 40);
        assert_eq!(a.self_ns("inner"), 10);
        assert_eq!(a.total_ns("absent"), 0);
    }
}
