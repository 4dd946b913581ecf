//! In-memory span recording for the traced pass.
//!
//! Spans are opened and closed from the benchmark's own code, around the
//! calls into each layer's public functions; nothing inside the product
//! crates is instrumented. A disabled tracer costs one branch per call,
//! and the end-to-end metrics are only ever taken with it disabled.

use super::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `engine.prepare`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to (spans of one op share it).
    pub op: u32,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Records spans in memory; written out after the pass.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

/// Per-name totals of a recorded trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open` — and any span opened inside it that an error path
    /// left open.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// The recorded spans, in opening order (a span's id is its index).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// The span file: a name table plus one
    /// `[name, op, parent (-1 = none), start_ns, end_ns]` row per span.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|span| {
                let name = match names.iter().position(|n| *n == span.name) {
                    Some(i) => i,
                    None => {
                        names.push(span.name);
                        names.len() - 1
                    }
                };
                Json::Arr(vec![
                    Json::Num(name as f64),
                    Json::Num(span.op as f64),
                    Json::Num(span.parent.map_or(-1.0, |p| p as f64)),
                    Json::Num(span.start_ns as f64),
                    Json::Num(span.end_ns as f64),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            (
                "columns",
                Json::Arr(
                    ["name", "op", "parent", "start_ns", "end_ns"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "names",
                Json::Arr(names.into_iter().map(Json::str).collect()),
            ),
            ("spans", Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut tr = Tracer::on();
        tr.next_op();
        let op = tr.begin("op");
        let a = tr.begin("a");
        tr.end(a);
        let b = tr.begin("b");
        tr.end(b);
        tr.end(op);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        let totals = tr.totals();
        let children = totals["a"].total_ns + totals["b"].total_ns;
        assert_eq!(totals["op"].self_ns, totals["op"].total_ns - children);
        let file = tr.to_json("w", 7);
        assert_eq!(file.get("spans").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(file.get("names").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.begin("x");
        tr.end(s);
        assert!(tr.spans().is_empty());
    }
}
