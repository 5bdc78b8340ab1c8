//! The benchmark's own span recorder.
//!
//! The crates under test gain no hook for this benchmark: spans are
//! recorded here, around the calls into each layer. Every thread owns one
//! [`Lane`] with a preallocated span vector (no allocation and no shared
//! state while measuring); lanes are merged and written out as a
//! chrome://tracing file when the run ends. A lane that is switched off
//! does not even read the clock, which is how the untraced run stays
//! untraced.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleeps until `deadline_ns` on the [`now_ns`] clock.
pub fn sleep_until(deadline_ns: u64) {
    let now = now_ns();
    if deadline_ns > now {
        std::thread::sleep(Duration::from_nanos(deadline_ns - now));
    }
}

/// `request_id` of a span that belongs to no request.
pub const NO_REQUEST: u64 = u64::MAX;
/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans one lane can hold before it stops recording (and counts the rest
/// as dropped): growing the vector would put an allocation in the
/// measured path.
const LANE_CAPACITY: usize = 1 << 18;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index, in the same lane, of the span that was open when this one
    /// began.
    pub parent: u32,
    pub request_id: u64,
}

/// Handle returned by [`Lane::begin`]; pass it back to [`Lane::end`].
#[derive(Clone, Copy)]
pub struct Open(u32);

/// One thread's spans.
pub struct Lane {
    pub label: String,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    on: bool,
    pub dropped: u64,
}

impl Lane {
    pub fn new(label: impl Into<String>, on: bool) -> Self {
        Lane {
            label: label.into(),
            spans: if on {
                Vec::with_capacity(LANE_CAPACITY)
            } else {
                Vec::new()
            },
            open: Vec::with_capacity(8),
            on,
            dropped: 0,
        }
    }

    /// Whether this lane records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str, request_id: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        if self.spans.len() == LANE_CAPACITY {
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request_id,
        });
        self.open.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        self.spans[open.0 as usize].end_ns = now_ns();
        // Spans close in LIFO order; a mismatch is a bug in the caller.
        assert_eq!(self.open.pop(), Some(open.0), "spans must nest");
    }

    /// [`Lane::end`] for a span whose request became known only while it
    /// ran (a reply names its request once decoded).
    pub fn end_for(&mut self, open: Open, request_id: u64) {
        if open.0 != NO_PARENT {
            self.spans[open.0 as usize].request_id = request_id;
        }
        self.end(open);
    }

    /// Records `f` as one leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, request_id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, request_id);
        let out = f();
        self.end(open);
        out
    }
}

/// Total and self time of every span name across `lanes`, sorted by self
/// time, descending. Self time is the span's duration minus the part its
/// direct children cover.
pub fn self_times(lanes: &[Lane]) -> Vec<SelfTime> {
    let mut rows: Vec<SelfTime> = Vec::new();
    for lane in lanes {
        let mut child_ns = vec![0u64; lane.spans.len()];
        for span in &lane.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        for (span, children) in lane.spans.iter().zip(&child_ns) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            let row = match rows.iter_mut().find(|r| r.name == span.name) {
                Some(row) => row,
                None => {
                    rows.push(SelfTime {
                        name: span.name,
                        ..SelfTime::default()
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_ns += total;
            row.self_ns += total.saturating_sub(*children);
        }
    }
    rows.sort_by_key(|row| std::cmp::Reverse(row.self_ns));
    rows
}

/// One row of [`self_times`].
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// `-1` for the "none" sentinel, which JSON readers take more kindly than
/// `u64::MAX`.
fn or_minus_one(value: u64, none: u64) -> i64 {
    if value == none {
        -1
    } else {
        value as i64
    }
}

/// Renders `lanes` as chrome://tracing JSON: one complete (`"X"`) event per
/// span on its lane's thread, carrying the parent index and request id,
/// plus one async (`"b"`/`"e"`) pair per request in `requests`
/// (`(request_id, start_ns, end_ns)`), since pipelined requests overlap
/// and cannot nest on a thread.
pub fn chrome_trace(lanes: &[Lane], requests: &[(u64, u64, u64)]) -> String {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };
    for (tid, lane) in lanes.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            lane.label
        );
        for span in &lane.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":{},\"request_id\":{}}}}}",
                span.name,
                us(span.start_ns),
                us(span.end_ns.saturating_sub(span.start_ns)),
                or_minus_one(u64::from(span.parent), u64::from(NO_PARENT)),
                or_minus_one(span.request_id, NO_REQUEST),
            );
        }
    }
    for &(id, start_ns, end_ns) in requests {
        for (ph, ts) in [("b", start_ns), ("e", end_ns)] {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":0,\"id\":{id},\"ts\":{:.3}}}",
                us(ts)
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut lane = Lane::new("t", true);
        let outer = lane.begin("outer", 7);
        lane.leaf("inner", 7, || std::thread::sleep(Duration::from_millis(2)));
        lane.end(outer);
        assert_eq!(lane.spans[1].parent, 0);
        assert_eq!(lane.spans[0].parent, NO_PARENT);
        let rows = self_times(std::slice::from_ref(&lane));
        let outer = rows.iter().find(|r| r.name == "outer").unwrap();
        let inner = rows.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(outer.total_ns - inner.total_ns, outer.self_ns);
        assert_eq!(inner.total_ns, inner.self_ns);
    }

    #[test]
    fn lane_switched_off_records_nothing() {
        let mut lane = Lane::new("t", false);
        let open = lane.begin("x", NO_REQUEST);
        lane.end(open);
        assert!(lane.spans.is_empty());
    }

    #[test]
    fn chrome_trace_is_json() {
        let mut lane = Lane::new("client-0", true);
        lane.leaf("submit", 3, || ());
        lane.leaf("probe", NO_REQUEST, || ());
        let text = chrome_trace(&[lane], &[(3, 10, 20)]);
        let v: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let serde::Value::Object(fields) = v else {
            panic!("object expected")
        };
        let serde::Value::Array(events) = &fields[0].1 else {
            panic!("traceEvents array expected")
        };
        assert_eq!(events.len(), 1 + 2 + 2);
    }
}
