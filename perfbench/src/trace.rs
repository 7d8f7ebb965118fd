//! In-memory span recording for the traced replay: each span has a
//! name, start, end, parent and the id of the request it belongs to.
//! Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Start a new request: later spans share its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span.  Returns `f`'s result and the span's index.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, usize) {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.t0.elapsed().as_nanos() as u64;
        (out, index)
    }

    pub fn dur_us(&self, index: usize) -> f64 {
        self.spans[index].dur_ns() as f64 / 1e3
    }
}

/// Each span's self time: its duration minus the part of it its
/// children cover (children of one span never overlap: the replay runs
/// on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Total self time (ns) and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    out
}

/// The spans as one JSON document (`name`, `request`, `parent`,
/// `start_ns`, `end_ns`).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, parent, s.start_ns, s.end_ns
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("parse", Some(0), 10, 30),
            span("query", Some(0), 30, 90),
            span("inner", Some(2), 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["request"], (20, 1));
        assert_eq!(by_name["query"], (50, 1));
    }

    #[test]
    fn recorder_nests_and_tags_requests() {
        let mut rec = Recorder::new();
        rec.next_request();
        let ((), root) = rec.span("request", |rec| {
            rec.span("child", |_| ());
        });
        rec.next_request();
        rec.span("request", |_| ());
        assert_eq!(root, 0);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, None);
        assert_eq!(
            rec.spans.iter().map(|s| s.request).collect::<Vec<_>>(),
            vec![1, 1, 2]
        );
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        assert!(to_json(&rec.spans).starts_with("[{\"name\":\"request\""));
    }
}
