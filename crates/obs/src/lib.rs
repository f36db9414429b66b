//! Observability for the CEC pipeline: structured tracing and
//! machine-readable metrics.
//!
//! The engine's verdict is the product of thousands of heterogeneous
//! steps — simulation refinement, incremental SAT calls, structural
//! merges, proof stitching, lint passes. This crate provides the window
//! into that work:
//!
//! - [`Recorder`]: a lightweight span/event sink. A
//!   [`Recorder::disabled`] recorder (the default everywhere) costs a
//!   single branch on an `Option` per call site — no allocation, no
//!   clock read, no lock.
//! - [`Span`]: an RAII guard recording a *complete* event (begin time +
//!   duration) with optional key/value arguments.
//! - [`export`]: a JSONL event journal and a Chrome
//!   `trace_event`-format export (loads in `chrome://tracing` /
//!   Perfetto, with parallel sweep workers as separate timeline rows).
//! - [`json`]: a hand-rolled JSON writer *and* parser (no serde) used
//!   by the exporters, by `cec`'s `--stats-json` serialization, and by
//!   tests that validate the emitted artifacts.
//! - [`LogHistogram`]: fixed log-scale (power-of-two) bucket histogram
//!   for per-call distributions (SAT conflicts per call, proof-chain
//!   lengths per lemma).
//! - [`hash`]: FNV-1a 64 content fingerprints for persisted artifacts.
//! - [`journal`]: a checksummed JSONL write-ahead journal — the
//!   durability substrate the engine's crash/resume machinery and the
//!   chaos harness build on.
//!
//! # Thread model
//!
//! A [`Recorder`] is a cheap cloneable handle; clones share one event
//! buffer behind a mutex that is only touched when tracing is enabled.
//! Every event carries a *thread id* chosen by the instrumented code
//! (the CEC engine uses [`TID_COORDINATOR`] for the main thread and
//! [`worker_tid`] for sweep workers) so exports can reconstruct the
//! parallel timeline without caring about OS thread identity.
//!
//! # Example
//!
//! ```
//! use obs::{Recorder, TID_COORDINATOR};
//!
//! let rec = Recorder::new();
//! {
//!     let mut span = rec.span("solve", TID_COORDINATOR);
//!     span.arg("conflicts", 42u64);
//! } // span end recorded here
//! rec.instant("restart", TID_COORDINATOR, &[("count", 1u64.into())]);
//! let events = rec.take_events();
//! assert_eq!(events.len(), 2);
//!
//! // Disabled recorders record nothing and never touch the clock.
//! let off = Recorder::disabled();
//! off.span("solve", TID_COORDINATOR);
//! assert!(off.take_events().is_empty());
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod hash;
pub mod journal;
pub mod json;
pub mod metrics;

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Thread id of the coordinating (main) thread in trace events.
pub const TID_COORDINATOR: u32 = 0;

/// Thread id of parallel-sweep worker `w` in trace events.
#[inline]
pub const fn worker_tid(w: usize) -> u32 {
    w as u32 + 1
}

/// A value attached to an event as a named argument.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArgVal {
    /// Unsigned counter.
    U64(u64),
    /// Signed value.
    I64(i64),
    /// Static label (verdicts, phase names).
    Str(&'static str),
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> Self {
        ArgVal::U64(v)
    }
}

impl From<usize> for ArgVal {
    fn from(v: usize) -> Self {
        ArgVal::U64(v as u64)
    }
}

impl From<u32> for ArgVal {
    fn from(v: u32) -> Self {
        ArgVal::U64(u64::from(v))
    }
}

impl From<i64> for ArgVal {
    fn from(v: i64) -> Self {
        ArgVal::I64(v)
    }
}

impl From<&'static str> for ArgVal {
    fn from(v: &'static str) -> Self {
        ArgVal::Str(v)
    }
}

/// What kind of event was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span with a duration (`ph: "X"` in Chrome terms).
    Span,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Event name (span/phase label).
    pub name: &'static str,
    /// Logical thread id (see [`TID_COORDINATOR`] / [`worker_tid`]).
    pub tid: u32,
    /// Span or instant.
    pub kind: EventKind,
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// Span duration in microseconds (zero for instants).
    pub dur_us: u64,
    /// Key/value arguments.
    pub args: Vec<(&'static str, ArgVal)>,
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    events: Mutex<Vec<Event>>,
}

/// A cheap cloneable handle to a shared trace buffer.
///
/// All recording methods are no-ops (one branch, no clock read) on a
/// [`Recorder::disabled`] handle, so instrumented code can call them
/// unconditionally on every code path that is not per-propagation hot.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => {
                let n = inner.events.lock().map_or(0, |e| e.len());
                write!(f, "Recorder(enabled, {n} events)")
            }
            None => write!(f, "Recorder(disabled)"),
        }
    }
}

impl Recorder {
    /// Creates an *enabled* recorder; time zero is now.
    pub fn new() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The default, free recorder: records nothing.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether events are being recorded. Use to gate argument
    /// computation that is not free.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span on logical thread `tid`; the span event is recorded
    /// when the returned guard drops. Free when disabled.
    #[inline]
    pub fn span(&self, name: &'static str, tid: u32) -> Span {
        match &self.inner {
            None => Span {
                rec: None,
                name,
                tid,
                t0: None,
                args: Vec::new(),
            },
            Some(inner) => Span {
                rec: Some(Arc::clone(inner)),
                name,
                tid,
                t0: Some(Instant::now()),
                args: Vec::new(),
            },
        }
    }

    /// Records a completed span from an externally measured start time
    /// and duration (for code that times a phase anyway).
    pub fn complete(&self, name: &'static str, tid: u32, t0: Instant, dur: Duration) {
        if let Some(inner) = &self.inner {
            let ts = t0.saturating_duration_since(inner.start);
            inner.events.lock().expect("trace buffer").push(Event {
                name,
                tid,
                kind: EventKind::Span,
                ts_us: duration_us(ts),
                dur_us: duration_us(dur),
                args: Vec::new(),
            });
        }
    }

    /// Records a point-in-time event with arguments. Free when
    /// disabled, but prefer guarding argument *construction* with
    /// [`Recorder::is_enabled`] when it is not.
    pub fn instant(&self, name: &'static str, tid: u32, args: &[(&'static str, ArgVal)]) {
        if let Some(inner) = &self.inner {
            let ts = inner.start.elapsed();
            inner.events.lock().expect("trace buffer").push(Event {
                name,
                tid,
                kind: EventKind::Instant,
                ts_us: duration_us(ts),
                dur_us: 0,
                args: args.to_vec(),
            });
        }
    }

    /// Drains and returns all recorded events, sorted by start time.
    /// (Span events are pushed when they *end*, so the raw buffer is
    /// not start-ordered.)
    pub fn take_events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let mut events = std::mem::take(&mut *inner.events.lock().expect("trace buffer"));
                events.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
                events
            }
        }
    }
}

#[inline]
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// RAII guard for an open span; records a [`EventKind::Span`] event on
/// drop. Obtained from [`Recorder::span`].
pub struct Span {
    rec: Option<Arc<Inner>>,
    name: &'static str,
    tid: u32,
    t0: Option<Instant>,
    args: Vec<(&'static str, ArgVal)>,
}

impl Span {
    /// Whether this span will be recorded (recorder was enabled).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Attaches an argument to the span (recorded at close). No-op on
    /// disabled spans.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgVal>) {
        if self.rec.is_some() {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.rec.take() {
            let t0 = self.t0.expect("enabled span has a start time");
            let dur = t0.elapsed();
            let ts = t0.saturating_duration_since(inner.start);
            inner.events.lock().expect("trace buffer").push(Event {
                name: self.name,
                tid: self.tid,
                kind: EventKind::Span,
                ts_us: duration_us(ts),
                dur_us: duration_us(dur),
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

/// A histogram over `u64` values with fixed log-scale (power-of-two)
/// buckets: bucket 0 holds the value 0, bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`, and the last bucket absorbs everything larger.
///
/// `Copy` and 32 buckets wide, so it can live inline in per-worker
/// stats and be merged without allocation.
///
/// # Example
///
/// ```
/// use obs::LogHistogram;
/// let mut h = LogHistogram::default();
/// for v in [0, 1, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 100);
/// assert_eq!(h.bucket_counts()[0], 1); // the 0
/// assert_eq!(h.bucket_counts()[2], 2); // 2 and 3
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl LogHistogram {
    /// Number of buckets; the last bucket is unbounded above.
    pub const BUCKETS: usize = 32;

    /// Bucket index of a value: 0 for 0, else `min(bit_length, 31)`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        let bits = (u64::BITS - v.leading_zeros()) as usize;
        bits.min(Self::BUCKETS - 1)
    }

    /// Inclusive lower bound of bucket `i`.
    #[inline]
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (`None` for the last,
    /// unbounded bucket).
    #[inline]
    pub fn bucket_hi(i: usize) -> Option<u64> {
        if i == 0 {
            Some(0)
        } else if i == Self::BUCKETS - 1 {
            None
        } else {
            Some((1u64 << i) - 1)
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Accumulates another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// An upper-bound estimate of quantile `q` (clamped to `0..=1`):
    /// the inclusive upper bound of the bucket containing the `⌈q·n⌉`-th
    /// observation, capped at the recorded [`LogHistogram::max`] (which
    /// also stands in for the unbounded last bucket). The estimate is
    /// never below the true quantile, never above the maximum, and less
    /// than twice the true quantile. `None` with no observations.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_hi(i).map_or(self.max, |hi| hi.min(self.max)));
            }
        }
        Some(self.max)
    }

    /// Raw per-bucket counts.
    pub fn bucket_counts(&self) -> &[u64; Self::BUCKETS] {
        &self.buckets
    }

    /// The histogram as a JSON value:
    /// `{"count":…,"sum":…,"max":…,"buckets":[{"lo":…,"hi":…,"n":…},…]}`
    /// with only non-empty buckets listed (`hi` is absent for the
    /// unbounded last bucket).
    pub fn to_json(&self) -> json::Value {
        let mut buckets = Vec::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let mut b = vec![("lo".to_string(), json::Value::U64(Self::bucket_lo(i)))];
            if let Some(hi) = Self::bucket_hi(i) {
                b.push(("hi".to_string(), json::Value::U64(hi)));
            }
            b.push(("n".to_string(), json::Value::U64(n)));
            buckets.push(json::Value::Object(b));
        }
        json::Value::Object(vec![
            ("count".to_string(), json::Value::U64(self.count)),
            ("sum".to_string(), json::Value::U64(self.sum)),
            ("max".to_string(), json::Value::U64(self.max)),
            ("buckets".to_string(), json::Value::Array(buckets)),
        ])
    }
}

impl fmt::Display for LogHistogram {
    /// Compact one-line rendering:
    /// `count=5 mean=21.2 max=100 | [0]:1 [1]:1 [2,3]:2 [64,127]:1`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} mean={:.1} max={}",
            self.count,
            self.mean(),
            self.max
        )?;
        if self.count == 0 {
            return Ok(());
        }
        write!(f, " |")?;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            match Self::bucket_hi(i) {
                Some(hi) if hi == Self::bucket_lo(i) => {
                    write!(f, " [{}]:{}", Self::bucket_lo(i), n)?;
                }
                Some(hi) => write!(f, " [{},{}]:{}", Self::bucket_lo(i), hi, n)?,
                None => write!(f, " [{},inf]:{}", Self::bucket_lo(i), n)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let mut s = rec.span("x", 0);
            assert!(!s.is_enabled());
            s.arg("k", 1u64);
        }
        rec.instant("y", 0, &[("k", ArgVal::U64(1))]);
        rec.complete("z", 0, Instant::now(), Duration::from_micros(5));
        assert!(rec.take_events().is_empty());
    }

    #[test]
    fn spans_and_instants_are_recorded_in_start_order() {
        let rec = Recorder::new();
        let outer = rec.span("outer", 0);
        // Separate the two start timestamps at microsecond granularity.
        std::thread::sleep(Duration::from_millis(2));
        rec.instant("mark", 3, &[("n", ArgVal::U64(7))]);
        drop(outer);
        let events = rec.take_events();
        assert_eq!(events.len(), 2);
        // The outer span started first even though it was pushed last.
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[0].kind, EventKind::Span);
        assert_eq!(events[1].name, "mark");
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[1].tid, 3);
        assert_eq!(events[1].args, vec![("n", ArgVal::U64(7))]);
        // Draining empties the buffer.
        assert!(rec.take_events().is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.instant("from-clone", 1, &[]);
        rec.instant("from-original", 0, &[]);
        assert_eq!(rec.take_events().len(), 2);
    }

    #[test]
    fn recorder_works_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for w in 0..4 {
                let r = rec.clone();
                s.spawn(move || {
                    let mut sp = r.span("worker_round", worker_tid(w));
                    sp.arg("w", w);
                });
            }
        });
        let events = rec.take_events();
        assert_eq!(events.len(), 4);
        let tids: std::collections::HashSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), LogHistogram::BUCKETS - 1);
        for i in 1..LogHistogram::BUCKETS - 1 {
            assert_eq!(LogHistogram::bucket_of(LogHistogram::bucket_lo(i)), i);
            assert_eq!(
                LogHistogram::bucket_of(LogHistogram::bucket_hi(i).unwrap()),
                i
            );
        }
    }

    #[test]
    fn quantile_never_exceeds_max() {
        // The bucket of 43 079 µs is [32 768, 65 535]: unclamped, p95
        // read 65 535 µs although no observation exceeded 43 079 µs.
        let mut h = LogHistogram::default();
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(43_079);
        }
        assert_eq!(h.quantile(0.95), Some(43_079));
        assert_eq!(h.quantile(1.0), Some(43_079));
        // Quantiles below the top bucket keep their bucket ceiling.
        assert_eq!(h.quantile(0.5), Some(1_023));
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert!(h.quantile(q).unwrap() <= h.max());
        }
    }

    #[test]
    fn histogram_merge_and_display() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(0);
        a.record(5);
        b.record(5);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.sum(), 1010);
        let text = format!("{a}");
        assert!(text.contains("count=4"), "{text}");
        assert!(text.contains("[0]:1"), "{text}");
        assert!(text.contains("[4,7]:2"), "{text}");
        assert!(text.contains("[512,1023]:1"), "{text}");
        let empty = LogHistogram::default();
        assert_eq!(format!("{empty}"), "count=0 mean=0.0 max=0");
    }

    #[test]
    fn histogram_json_lists_nonempty_buckets() {
        let mut h = LogHistogram::default();
        h.record(3);
        h.record(3);
        let v = h.to_json();
        let parsed = json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.get("count").and_then(json::Value::as_u64), Some(2));
        let buckets = parsed
            .get("buckets")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("lo").and_then(json::Value::as_u64), Some(2));
        assert_eq!(buckets[0].get("hi").and_then(json::Value::as_u64), Some(3));
        assert_eq!(buckets[0].get("n").and_then(json::Value::as_u64), Some(2));
    }
}
