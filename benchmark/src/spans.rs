//! The ladder's own span recorder. Spans are taken from outside the
//! library, around calls into each layer; they stay in memory and are
//! written once, when the run ends.

use crate::json::{self, Value};
use std::time::Instant;

/// One span: a named interval caused by `parent` (if any) on behalf of
/// operation `op`. Times are nanoseconds since the log was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record `f` as a child span of `parent`.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, Some(parent), op);
        let r = f();
        self.close(id);
        r
    }

    /// Total duration of the direct children of `parent` called `name`.
    pub fn child_ns(&self, parent: u32, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time of `id`: its duration minus what its direct children
    /// cover (children of one parent never overlap here: one thread
    /// opens and closes them in sequence).
    pub fn self_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    pub fn duration_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    json::obj([
                        ("id", json::count(id as u64)),
                        ("name", json::str(s.name)),
                        ("start_ns", json::count(s.start_ns)),
                        ("end_ns", json::count(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| json::count(u64::from(p))),
                        ),
                        ("op", json::count(u64::from(s.op))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new();
        let root = log.open("root", None, 0);
        log.within("child", root, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.within("child", root, 0, || ());
        log.close(root);
        let covered = log.child_ns(root, "child");
        assert!(covered >= 2_000_000);
        assert_eq!(log.self_ns(root), log.duration_ns(root) - covered);
        assert_eq!(log.child_ns(root, "other"), 0);
    }
}
