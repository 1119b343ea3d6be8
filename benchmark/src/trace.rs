//! The harness's own spans: one around every call it makes into a
//! layer's public API. Spans live in memory while the workload runs and
//! are written to `benchmark/out/<workload>.trace.json` (Chrome trace
//! format) when it ends. Nothing inside the program under test is
//! instrumented here; that is a later change.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// What a disabled log hands out; closing it does nothing.
    const OFF: SpanId = SpanId(u32::MAX);
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call` name, e.g. `overlap.execute`.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch (`start_ns` until closed).
    pub end_ns: u64,
    /// The span that caused this one; `None` for an op's root span.
    pub parent: Option<u32>,
    /// The op this span belongs to (0 for the layer-probe group).
    pub op: u64,
}

/// An append-only span log owned by one thread.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    /// Track id in the exported trace: the client index.
    track: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose spans are stamped relative to `epoch`. When `on` is
    /// false every call returns immediately and nothing is stored.
    pub fn new(on: bool, epoch: Instant, track: u32) -> Self {
        Self {
            on,
            epoch,
            track,
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off between blocks of ops.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        if !self.on {
            return SpanId::OFF;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.filter(|p| *p != SpanId::OFF).map(|p| p.0),
            op,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Close a span now.
    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::OFF {
            self.spans[id.0 as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span.
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

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: `parent`'s duration minus the part of its
/// interval that the `kids` intervals cover (each clipped to the parent,
/// overlapping ones counted once).
fn uncovered_ns(parent: &Span, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for &mut (start, end) in kids {
        let start = start.max(reach);
        let end = end.min(parent.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

/// Total self time per span name, descending: the waterfall the report
/// prints and the span file carries in its `selfTimeNs` table.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    // Children of each span, gathered once so the pass stays linear.
    let mut kids = vec![Vec::<(u64, u64)>::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: Vec<(&'static str, u64, usize)> = Vec::new();
    for (s, kids) in spans.iter().zip(kids.iter_mut()) {
        let own = uncovered_ns(s, kids);
        match totals.iter_mut().find(|t| t.0 == s.name) {
            Some(t) => {
                t.1 += own;
                t.2 += 1;
            }
            None => totals.push((s.name, own, 1)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    totals
}

/// Check the two structural promises the span file makes: every op has
/// exactly one root span, and every non-root span's parent exists and
/// belongs to the same op.
pub fn check_structure(logs: &[SpanLog]) -> Result<(), String> {
    for log in logs {
        let mut roots = std::collections::BTreeMap::<u64, usize>::new();
        for (i, s) in log.spans.iter().enumerate() {
            match s.parent {
                None => *roots.entry(s.op).or_default() += 1,
                Some(p) => {
                    let parent = log
                        .spans
                        .get(p as usize)
                        .ok_or(format!("span {i} ({}) has a dangling parent", s.name))?;
                    if parent.op != s.op {
                        return Err(format!("span {i} ({}) crosses ops", s.name));
                    }
                }
            }
        }
        for s in &log.spans {
            if roots.get(&s.op).copied().unwrap_or(0) != 1 {
                return Err(format!("op {} has no single root span", s.op));
            }
        }
    }
    Ok(())
}

/// Render every log as one Chrome-trace document (loadable in Perfetto
/// or `chrome://tracing`): one complete event per span, `tid` the client
/// track, `args` carrying the span id, its parent, and the op id; plus
/// a `selfTimeNs` table of self time per span name.
pub fn render_chrome(workload: &str, logs: &[SpanLog]) -> String {
    let mut out = String::with_capacity(128 * logs.iter().map(|l| l.spans.len()).sum::<usize>());
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"displayTimeUnit\":\"ns\",\"traceEvents\":["
    );
    let mut first = true;
    for log in logs {
        for (i, s) in log.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                log.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
            );
        }
    }
    out.push_str("\n],\"selfTimeNs\":{");
    let mut totals: Vec<(&'static str, u64, usize)> = Vec::new();
    for log in logs {
        for (name, ns, n) in self_time_by_name(&log.spans) {
            match totals.iter_mut().find(|t| t.0 == name) {
                Some(t) => {
                    t.1 += ns;
                    t.2 += n;
                }
                None => totals.push((name, ns, n)),
            }
        }
    }
    for (i, (name, ns, n)) in totals.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{name}\":{{\"self_ns\":{ns},\"spans\":{n}}}");
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 and sticks out past the parent's end.
            span("b", 30, 120, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        // Children cover [10, 100) of the parent: 90 → self 10.
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("b", 90, 1));
        assert!(by_name.contains(&("op", 10, 1)));
        assert!(by_name.contains(&("a", 30 - 8, 1)));
        assert!(by_name.contains(&("a.inner", 8, 1)));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 0);
        let root = log.open("op", None, 1);
        let v = log.span("child", Some(root), 1, || 7);
        log.close(root);
        assert_eq!(v, 7);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn structure_check_wants_one_root_per_op_and_live_parents() {
        let mut log = SpanLog::new(true, Instant::now(), 0);
        let root = log.open("op", None, 1);
        log.span("child", Some(root), 1, || ());
        log.close(root);
        assert!(check_structure(std::slice::from_ref(&log)).is_ok());
        assert!(render_chrome("w", std::slice::from_ref(&log)).contains("\"parent\":0"));

        // A second root for the same op breaks the promise.
        let extra = log.open("op", None, 1);
        log.close(extra);
        assert!(check_structure(std::slice::from_ref(&log)).is_err());

        // So does a child filed under another op than its parent.
        let mut crossed = SpanLog::new(true, Instant::now(), 0);
        let root = crossed.open("op", None, 1);
        crossed.span("child", Some(root), 2, || ());
        crossed.close(root);
        assert!(check_structure(&[crossed]).is_err());
    }
}
