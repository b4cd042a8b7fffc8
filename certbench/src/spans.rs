//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out as JSONL when the run ends.
//! A span's *self time* is its duration minus the part of its interval
//! covered by its child spans (overlapping children count once).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within a run.
    pub id: u64,
    /// Id of the span that caused this one (`0` = root).
    pub parent: u64,
    /// Identifier shared by every span of one request or query.
    pub trace: u64,
    /// Layer boundary name, e.g. `query.maximize` or `serve.submit`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span collector. Cloning shares the store.
#[derive(Clone)]
pub struct Recorder {
    epoch: Instant,
    next: Arc<AtomicU64>,
    spans: Arc<Mutex<Vec<Span>>>,
    on: bool,
}

/// An open span; closes when dropped.
pub struct Open {
    rec: Recorder,
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// Opens a child of this span.
    pub fn child(&self, name: &'static str) -> Open {
        self.rec.open(name, self.id, self.trace)
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        if !self.rec.on {
            return;
        }
        let end_ns = self.rec.now_ns();
        self.rec.push(Span {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

impl Recorder {
    /// A recorder; `on = false` makes every span a no-op.
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            next: Arc::new(AtomicU64::new(1)),
            spans: Arc::new(Mutex::new(Vec::new())),
            on,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }

    /// Opens a span under `parent` (`0` = root) in trace `trace` (`0` =
    /// start a new trace named after this span).
    fn open(&self, name: &'static str, parent: u64, trace: u64) -> Open {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            rec: self.clone(),
            id,
            parent,
            trace: if trace == 0 { id } else { trace },
            name,
            start_ns: if self.on { self.now_ns() } else { 0 },
        }
    }

    /// Opens a root span starting a new trace.
    pub fn root(&self, name: &'static str) -> Open {
        self.open(name, 0, 0)
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, nanoseconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let dur = s.end_ns.saturating_sub(s.start_ns);
            (s.id, dur - covered(s.start_ns, s.end_ns, kids).min(dur))
        })
        .collect()
}

/// Per-name totals: `(count, total_ns, self_ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns.saturating_sub(s.start_ns);
        e.2 += selfs[&s.id];
    }
    out
}

/// Renders spans (one JSON object per line) followed by one `self_time`
/// line per span name.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"trace\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.name, s.id, s.parent, s.trace, s.start_ns, s.end_ns, selfs[&s.id]
        );
    }
    for (name, (count, total, own)) in by_name(spans) {
        let _ = writeln!(
            out,
            "{{\"type\":\"self_time\",\"name\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, trace: 1, name, start_ns, end_ns }
    }

    #[test]
    fn union_counts_overlaps_once_and_clips_to_the_parent() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (15, 30)]), 20);
        assert_eq!(covered(0, 100, &[(10, 20), (40, 50)]), 20);
        assert_eq!(covered(10, 20, &[(0, 15), (18, 40)]), 7);
        assert_eq!(covered(0, 100, &[(50, 40)]), 0);
        assert_eq!(covered(0, 100, &[(0, 100), (20, 30)]), 100);
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "submit", 10, 30),
            span(3, 1, "result", 30, 90),
            span(4, 3, "wait", 40, 50),
            // A concurrent sibling overlapping `result` counts once.
            span(5, 1, "probe", 80, 95),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 85);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 60 - 10);
        assert_eq!(s[&4], 10);
        // Self times of a tree sum to the root's duration when children
        // do not overlap and stay inside their parents.
        let tree = &spans[..4];
        let st = self_times(tree);
        assert_eq!(st.values().sum::<u64>(), 100);
        let names = by_name(tree);
        assert_eq!(names["request"], (1, 100, 20));
        assert_eq!(names["result"], (1, 60, 50));
    }

    #[test]
    fn recorder_links_children_and_is_silent_when_off() {
        let rec = Recorder::new(true);
        {
            let root = rec.root("query");
            let _child = root.child("encode");
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!(child.parent, root.id);
        assert_eq!(child.trace, root.trace);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert!(to_jsonl(&spans).contains("\"type\":\"self_time\",\"name\":\"query\""));

        let off = Recorder::new(false);
        drop(off.root("query"));
        assert!(off.spans().is_empty());
    }
}
