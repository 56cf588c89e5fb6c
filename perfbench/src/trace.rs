//! Spans recorded around the benchmark's calls into the program.
//!
//! Each span has a name, a start and end on one process-wide monotonic
//! clock, the span that caused it, and the operation it belongs to. Spans
//! live in memory in per-thread [`SpanBuf`]s that are merged on the main
//! thread and written out once, when the run ends, as Chrome trace-event
//! JSON (Perfetto and `about:tracing` open it).
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover ([`self_times`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use vroom_net::json::Value;

/// Span identifier, unique within the process.
pub type SpanId = u64;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// Operation id: the fleet batch or client, the suite section, the
    /// wire page.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Small per-thread number, for the trace viewer's lanes.
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn next_id() -> SpanId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn thread_lane() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static LANE: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    LANE.with(|l| *l)
}

/// Spans recorded by one thread (or one work item), in open order.
#[derive(Debug, Default)]
pub struct SpanBuf {
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// Start a span; close it with [`SpanBuf::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let id = next_id();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            tid: thread_lane(),
        });
        id
    }

    /// End the span `id` opened on this buffer.
    pub fn close(&mut self, id: SpanId) {
        let end = now_ns();
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = end;
        }
    }

    /// Time `f` as a leaf span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Move every span of `other` into this buffer.
    pub fn absorb(&mut self, other: SpanBuf) {
        self.spans.extend(other.spans);
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union
/// of its children's intervals, each clipped to the span's own interval.
/// Children may overlap one another (work items on parallel workers).
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per span name: how many spans, their summed self time and summed
/// duration (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub self_ns: u64,
    pub dur_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
        t.dur_ns += s.dur_ns();
    }
    out
}

/// The spans as a Chrome trace-event document. Times are microseconds;
/// `args` carries the span id, parent, operation and self time.
pub fn chrome_trace(spans: &[Span], context: Value) -> Value {
    let selfs = self_times(spans);
    let events = spans
        .iter()
        .map(|s| {
            let mut args = BTreeMap::new();
            args.insert("id".into(), Value::Int(s.id));
            args.insert("op".into(), Value::Int(s.op));
            args.insert("parent".into(), s.parent.map_or(Value::Null, Value::Int));
            let self_ns = selfs.get(&s.id).copied().unwrap_or(0);
            args.insert("self_us".into(), Value::Float(self_ns as f64 / 1e3));
            let mut e = BTreeMap::new();
            e.insert("name".into(), Value::Str(s.name.into()));
            e.insert("cat".into(), Value::Str(layer_of(s.name).into()));
            e.insert("ph".into(), Value::Str("X".into()));
            e.insert("ts".into(), Value::Float(s.start_ns as f64 / 1e3));
            e.insert("dur".into(), Value::Float(s.dur_ns() as f64 / 1e3));
            e.insert("pid".into(), Value::Int(1));
            e.insert("tid".into(), Value::Int(u64::from(s.tid)));
            e.insert("args".into(), Value::Object(args));
            Value::Object(e)
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("traceEvents".into(), Value::Array(events));
    doc.insert("displayTimeUnit".into(), Value::Str("ms".into()));
    doc.insert("otherData".into(), context);
    Value::Object(doc)
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t.x",
            start_ns,
            end_ns,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two overlapping children cover [10, 50).
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            // A child running past the parent's end counts only up to it.
            span(4, Some(1), 90, 120),
            // A grandchild is its parent's business, not the root's.
            span(5, Some(2), 12, 28),
            // A child contained in an earlier one adds nothing.
            span(6, Some(1), 25, 27),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 16);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 30);
        assert_eq!(selfs[&5], 16);
        assert_eq!(selfs[&6], 2);
    }

    #[test]
    fn leaf_and_fully_covered_spans() {
        let spans = vec![span(1, None, 5, 9), span(2, Some(1), 0, 20)];
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[&1], 0,
            "a child covering the whole span leaves no self time"
        );
        assert_eq!(selfs[&2], 20);
    }

    #[test]
    fn buffers_nest_and_totals_group_by_name() {
        let mut buf = SpanBuf::default();
        let outer = buf.open("fleet.load", None, 7);
        let x = buf.span("browser.load", Some(outer), 7, || 41 + 1);
        buf.close(outer);
        assert_eq!(x, 42);
        assert_eq!(buf.spans.len(), 2);
        assert!(buf
            .spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.op == 7));
        let totals = totals_by_name(&buf.spans);
        let outer_t = totals["fleet.load"];
        let inner_t = totals["browser.load"];
        assert_eq!(outer_t.count, 1);
        assert_eq!(outer_t.self_ns + inner_t.dur_ns, outer_t.dur_ns);
        assert_eq!(layer_of("browser.load"), "browser");
    }
}
