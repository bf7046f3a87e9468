//! In-memory spans recorded around calls into each layer, written out
//! once when the benchmark ends.
//!
//! Only the traced run records spans; the untraced run never builds a
//! [`Spans`] and pays nothing for them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `session.execute`.
    pub name: &'static str,
    /// Host ns since the recorder's epoch.
    pub start_ns: u64,
    /// Host ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Request (operation, block, replay) the span belongs to.
    pub request: u64,
    /// Free-form classification (operation kind, commit path, worker).
    pub label: &'static str,
    /// Modeled cycles the call charged (0 where not applicable).
    pub cycles: u64,
}

/// A span list sharing one time origin.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Host time of one layer name, summed over its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans, ns.
    pub self_ns: u64,
}

impl Spans {
    /// An empty list whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Host ns from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Appends a span and returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` at `end`.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Moves `other`'s spans in; `other` must share this list's epoch.
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name total and self time. A span's self time is its duration
    /// minus the union of its children's intervals (children of parallel
    /// workers overlap, so they are merged, not summed).
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, s.end_ns), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total - covered.min(total);
        }
        out
    }

    /// Renders one JSON object per line: every span, then one
    /// `layer_time` line per span name.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"label\":\"{}\",\"cycles\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.label, s.cycles
            );
        }
        for (name, t) in self.layer_times() {
            let _ = writeln!(
                out,
                "{{\"layer_time\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            label: "",
            cycles: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut spans = Spans::new(Instant::now());
        let root = spans.push(span("run", 0, 100, ROOT));
        spans.push(span("worker", 10, 60, root));
        spans.push(span("worker", 40, 80, root));
        let times = spans.layer_times();
        assert_eq!(
            times["run"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            times["worker"],
            LayerTime {
                count: 2,
                total_ns: 90,
                self_ns: 90
            }
        );
        let text = spans.to_jsonl();
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":0"));
    }
}
