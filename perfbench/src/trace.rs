//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Tracer::start`] / [`Tracer::stop`]:
//! the timing is always taken, and a span is kept only when tracing is
//! on. A span names the layer call, points at the span that was open
//! when it started (its parent) and carries the operation id it served.
//! Spans stay in memory until [`Tracer::write_chrome_json`] writes them
//! out at the end of the run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One completed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call, e.g. `parse_with` or `validate_incremental`.
    pub name: &'static str,
    /// Start, since the tracer's epoch.
    pub start: Duration,
    /// End, since the tracer's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this call served.
    pub op: u64,
}

/// A started timing; hand it back to [`Tracer::stop`].
#[must_use]
pub struct Timing {
    start: Instant,
    slot: Option<usize>,
}

/// Span recorder; a disabled tracer only times.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that keeps spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns span keeping on or off; spans already kept stay.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts timing a call named `name` on behalf of operation `op`.
    pub fn start(&mut self, name: &'static str, op: u64) -> Timing {
        let slot = self.on.then(|| {
            let ix = self.spans.len();
            self.spans.push(Span {
                name,
                start: Duration::ZERO,
                end: Duration::ZERO,
                parent: self.open.last().copied(),
                op,
            });
            self.open.push(ix);
            ix
        });
        let start = Instant::now();
        Timing { start, slot }
    }

    /// Ends a timing, returning the elapsed time.
    pub fn stop(&mut self, t: Timing) -> Duration {
        let end = Instant::now();
        let elapsed = end - t.start;
        if let Some(ix) = t.slot {
            let span = &mut self.spans[ix];
            span.start = t.start - self.epoch;
            span.end = end - self.epoch;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(ix), "spans must close innermost first");
        }
        elapsed
    }

    /// Times `f` as a call named `name` for operation `op`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (Duration, T) {
        let t = self.start(name, op);
        let out = f();
        (self.stop(t), out)
    }

    /// Keeps a span measured elsewhere, e.g. a request's submit-to-result
    /// interval, which overlaps others and so has no parent.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                start: start.saturating_duration_since(self.epoch),
                end: end.saturating_duration_since(self.epoch),
                parent: None,
                op,
            });
        }
    }

    /// Durations, in microseconds, of every kept span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The kept spans as Chrome trace-event JSON (one complete event
    /// per span; `args` carry the operation id and parent index).
    pub fn write_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.op,
                i,
                parent
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let (d, v) = tr.time("x", 1, || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert_eq!(tr.len(), 0);
    }

    #[test]
    fn nested_spans_record_their_parent_and_op() {
        let mut tr = Tracer::new(true);
        let outer = tr.start("setup", 3);
        let _ = tr.time("fuse", 3, || ());
        tr.stop(outer);
        let _ = tr.time("parse_with", 4, || ());
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, None);
        assert_eq!((tr.spans[1].op, tr.spans[2].op), (3, 4));
        assert!(tr.spans[0].end >= tr.spans[1].end);
        assert_eq!(tr.durations_us("fuse").len(), 1);
        let json = tr.write_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"setup\""));
        assert!(json.contains("\"parent\":0"));
    }
}
