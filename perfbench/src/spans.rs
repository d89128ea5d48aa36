//! In-memory host-time spans recorded around calls into the system's
//! public functions.
//!
//! The benchmark records spans only in its traced repetition. Each span
//! names the public call it timed (`memdb::q9`, `Runtime::pushdown`, ...)
//! and a path of labels (`tpch/tele/q9`) that nests it under its workload,
//! platform and item. A layer's self time is its span's duration minus
//! the part its child spans cover; children never overlap, since the
//! simulator runs on one thread.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One finished span. Times are host nanoseconds since the recorder was
/// created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub call: &'static str,
    pub path: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Host nanoseconds covered by direct children.
    pub child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.duration_ns() - self.child_ns
    }
}

#[derive(Debug)]
struct Log {
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Log {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A cloneable handle to a span log, or a no-op handle when tracing is
/// off. Clones share one log, so work closures handed to the serving plane
/// can record spans nested under the caller's.
#[derive(Debug, Clone, Default)]
pub struct Spans(Option<Rc<RefCell<Log>>>);

impl Spans {
    /// A handle that records nothing; `scope` just runs the closure.
    pub fn off() -> Spans {
        Spans(None)
    }

    /// A handle that records every scope.
    pub fn recording() -> Spans {
        Spans(Some(Rc::new(RefCell::new(Log {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }))))
    }

    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f` inside a span timing the public call `call`, labelled
    /// `label` under the innermost open span.
    pub fn scope<R>(&self, call: &'static str, label: &str, f: impl FnOnce() -> R) -> R {
        let Some(log) = &self.0 else {
            return f();
        };
        let id = {
            let mut l = log.borrow_mut();
            let parent = l.open.last().copied();
            let path = match parent {
                Some(p) => format!("{}/{label}", l.spans[p].path),
                None => label.to_string(),
            };
            let id = l.spans.len();
            let start_ns = l.now_ns();
            l.spans.push(Span {
                call,
                path,
                parent,
                start_ns,
                end_ns: start_ns,
                child_ns: 0,
            });
            l.open.push(id);
            id
        };
        let out = f();
        let mut l = log.borrow_mut();
        let end = l.now_ns();
        let popped = l.open.pop();
        assert_eq!(popped, Some(id), "spans close in nesting order");
        l.spans[id].end_ns = end;
        if let Some(p) = l.spans[id].parent {
            let d = l.spans[id].duration_ns();
            l.spans[p].child_ns += d;
        }
        out
    }

    /// Every finished span, in opening order.
    pub fn finished(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|log| log.borrow().spans.clone())
            .unwrap_or_default()
    }
}

/// Sum of self times, in host nanoseconds, of the spans `pick` selects.
pub fn self_ns(spans: &[Span], pick: impl Fn(&Span) -> bool) -> u64 {
    spans.iter().filter(|s| pick(s)).map(Span::self_ns).sum()
}

/// The spans as JSON lines: one object per span with its id, parent id,
/// public call, path and host start/end nanoseconds.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"call\":\"{}\",\"path\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.call, s.path, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_build_paths_and_self_time() {
        let spans = Spans::recording();
        spans.scope("outer", "w", || {
            spans.scope("inner", "a", || std::hint::black_box(1));
            spans.scope("inner", "b", || std::hint::black_box(2));
        });
        let done = spans.finished();
        assert_eq!(done.len(), 3);
        assert_eq!(done[1].path, "w/a");
        assert_eq!(done[2].parent, Some(0));
        assert_eq!(
            done[0].self_ns() + done[1].duration_ns() + done[2].duration_ns(),
            done[0].duration_ns()
        );
        assert_eq!(to_jsonl(&done).lines().count(), 3);
    }

    #[test]
    fn off_records_nothing() {
        let spans = Spans::off();
        assert_eq!(spans.scope("x", "y", || 7), 7);
        assert!(spans.finished().is_empty());
    }
}
