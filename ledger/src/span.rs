//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is also the stopwatch: `end` returns the duration the caller
//! keeps as its sample, so the traced and the untraced pass run the same
//! code and differ only in whether the span is stored.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Row, round or job the span belongs to.
    pub id: u32,
    /// Index, in the same log, of the span that was open when this began.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans, kept in memory until the run ends.
pub struct SpanLog {
    origin: Instant,
    pub thread: u32,
    record: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span that has begun and not yet ended.
pub struct Open {
    at: Instant,
    index: Option<usize>,
}

impl SpanLog {
    /// `origin` is shared by the logs of all threads of a run.
    pub fn new(origin: Instant, thread: u32, record: bool) -> Self {
        SpanLog {
            origin,
            thread,
            record,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, id: u32) -> Open {
        let at = Instant::now();
        let index = self.record.then(|| {
            self.spans.push(Span {
                name,
                id,
                parent: self.open.last().copied(),
                start_ns: (at - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { at, index }
    }

    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(
                self.open.pop(),
                Some(index),
                "spans must end innermost first"
            );
            self.spans[index].end_ns = (now - self.origin).as_nanos() as u64;
        }
        now - open.at
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, id: u32, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.begin(name, id);
        let result = f();
        (result, self.end(open))
    }
}

/// The logs of every thread of one pass.
pub struct Spans {
    origin: Instant,
    record: bool,
    pub logs: Vec<SpanLog>,
}

impl Spans {
    pub fn new(record: bool) -> Self {
        Spans {
            origin: Instant::now(),
            record,
            logs: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.record
    }

    /// A log for one more thread; hand it back with [`Spans::keep`].
    pub fn log(&self, thread: u32) -> SpanLog {
        SpanLog::new(self.origin, thread, self.record)
    }

    pub fn keep(&mut self, log: SpanLog) {
        if self.record {
            self.logs.push(log);
        }
    }
}

/// Self time of every span of one log: its duration minus the part of it
/// that its children cover. Children may nest, abut or overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                covered += end.saturating_sub(start.max(reach));
                reach = reach.max(end);
            }
            span.end_ns - span.start_ns - covered
        })
        .collect()
}

/// Self time in nanoseconds summed per span name, over all threads' logs.
pub fn self_ns_by_name(logs: &[SpanLog]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for log in logs {
        for (span, own) in log.spans.iter().zip(self_times(&log.spans)) {
            *by_name.entry(span.name).or_insert(0) += own;
        }
    }
    by_name
}

/// Total duration of the spans that have no parent: the wall time the
/// self times must add up to.
pub fn root_ns(logs: &[SpanLog]) -> u64 {
    logs.iter()
        .flat_map(|log| &log.spans)
        .filter(|span| span.parent.is_none())
        .map(|span| span.end_ns - span.start_ns)
        .sum()
}

/// Chrome-trace ("Trace Event Format") rendering: complete events, one
/// `tid` per benchmark thread, times in microseconds.
pub fn chrome_trace(workload: &str, logs: &[SpanLog]) -> String {
    let events = logs.iter().flat_map(|log| {
        log.spans.iter().map(|span| {
            Json::obj([
                ("name", Json::str(span.name)),
                ("cat", Json::str(workload)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(log.thread.into())),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Int(span.id.into())),
                        (
                            "parent",
                            span.parent
                                .map_or(Json::str(""), |p| Json::str(log.spans[p].name)),
                        ),
                    ]),
                ),
            ])
        })
    });
    Json::obj([
        ("traceEvents", Json::Arr(events.collect())),
        ("displayTimeUnit", Json::str("ms")),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 > a 10..60 > b 20..30; root > c 70..90
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
            span(Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Children 10..50 and 30..70 cover 60, not 80; a child reaching
        // past its parent is clipped; a child inside another adds nothing.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
            span(Some(0), 35, 45),
            span(Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn log_nests_by_call_order_and_renders_chrome_trace() {
        let mut log = SpanLog::new(Instant::now(), 3, true);
        let outer = log.begin("row", 7);
        let ((), inner) = log.time("run_ompss", 7, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let outer = log.end(outer);
        assert!(outer >= inner && inner >= Duration::from_millis(2));
        assert_eq!(log.spans[1].parent, Some(0));
        let logs = [log];
        assert_eq!(
            self_ns_by_name(&logs).values().sum::<u64>(),
            root_ns(&logs),
            "self times add up to the root span"
        );
        let text = chrome_trace("w", &logs);
        assert!(text.starts_with("{\"traceEvents\": [{\"name\": \"row\""));
        assert!(text.contains("\"tid\": 3") && text.contains("\"parent\": \"row\""));
    }

    #[test]
    fn an_untraced_log_times_without_storing() {
        let mut log = SpanLog::new(Instant::now(), 0, false);
        let (v, d) = log.time("x", 0, || 5);
        assert_eq!(v, 5);
        assert!(d < Duration::from_secs(1));
        assert!(log.spans.is_empty());
    }
}
